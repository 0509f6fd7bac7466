"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They check that the generator is deterministic and puts points exactly on
the walls it names, that every report of every workload passes its checks
on seeds 0 and 1, that the traced runs keep the workloads isolated (no LP
on `chambers` or `series`, no strata census on `chambers` or `xi`), and
that the benchmark fails, without a result line, outside a checkout.
Takes about three minutes, most of it building the n = 6 chamber complex.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Enough of each stream to pass every cost class at least once.
PREFIX = {"chambers": 82, "xi": 130, "series": 260}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for w in workloads.WORKLOADS:
            a = workloads.generate(w, 7, length=300)
            b = workloads.generate(w, 7, length=300)
            self.assertEqual(a, b)
            c = workloads.generate(w, 8, length=300)
            self.assertNotEqual(a, c)

    def test_class_sequence_does_not_depend_on_seed(self):
        for w in workloads.WORKLOADS:
            seqs = [[r["cls"] for r in workloads.generate(w, s, 1300)[1]]
                    for s in (0, 1)]
            self.assertEqual(seqs[0], seqs[1])

    def test_points_lie_exactly_on_their_walls(self):
        for w in ("chambers", "xi"):
            first, stream = workloads.generate(w, 3, length=1300)
            for req in [first] + stream:
                if "point" not in req["expect"]:
                    continue
                x = checks.parse_vec(req["expect"]["point"])
                n = len(x)
                on = workloads.on_walls(x, workloads.canonical_walls(n))
                self.assertEqual(len(on), req["expect"]["walls"])
                self.assertTrue(all(0 < v < 1 for v in x) and sum(x) == 2)
                self.assertTrue(req["cls"].endswith("w%d" % len(on)))
                if len(on) == 2:
                    self.assertTrue(workloads.crosses(on[0], on[1], n))

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(range(1, 21)), (50.0, 10))
        self.assertEqual(run.tail_percentile(range(1000, 0, -1)), (99.0, 990))


class ReportTest(unittest.TestCase):
    def test_every_report_passes_on_two_seeds(self):
        from chamberkit import cli
        for w in workloads.WORKLOADS:
            for seed in (0, 1):
                first, stream = workloads.generate(w, seed, PREFIX[w])
                for req in [first] + stream:
                    text, code = cli.run(req["argv"])
                    self.assertEqual(checks.check(req, text, code), [],
                                     (w, seed, req["argv"]))

    def test_checker_catches_a_wrong_inverse(self):
        req = workloads.generate("series", 0, 1)[0]
        from chamberkit import cli
        text, code = cli.run(req["argv"])
        report = json.loads(text)
        report["results"]["coefficients"][3] = "7/5"
        self.assertTrue(checks.check(req, json.dumps(report), code))
        self.assertTrue(checks.check(req, text + text, code))


def _bench(cwd, workload, trace, seconds=2):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", str(seconds), "--trace",
         str(trace)], cwd=cwd, capture_output=True, text=True, timeout=300)


class RunTest(unittest.TestCase):
    def test_traced_runs_keep_workloads_isolated(self):
        for w in workloads.WORKLOADS:
            out = _bench(ROOT, w, 1)
            self.assertEqual(out.returncode, 0, out.stderr)
            result = json.loads(out.stdout.splitlines()[-1])
            self.assertTrue(result["correct"])
            m = result["metrics"]
            lp = m["exactgeom.lp_feasible.calls"]["value"]
            census = m["strata.dm_valence_census.calls"]["value"]
            if w in ("chambers", "series"):
                self.assertEqual(lp, 0, w)
            else:
                self.assertGreater(lp, 0)
            if w in ("chambers", "xi"):
                self.assertEqual(census, 0, w)
            else:
                self.assertGreater(census, 0)

    def test_fails_without_the_program(self):
        bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            out = _bench(bare, "xi", 0)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
