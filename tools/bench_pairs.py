"""Paired benchmark runs of two chamberkit checkouts, and their summary.

    python3 tools/bench_pairs.py run --parent DIR --change DIR \
        --workload series --seeds 401-410 --raw runs.jsonl
    python3 tools/bench_pairs.py write --raw runs.jsonl --out BENCH.json \
        --title "..."

`run` sends `perfbench/run.py --workload W --seed S --trace 0` in each
checkout for every seed, alternating which side goes first, and appends one
JSON line per run (side, workload, seed, the argv sent, the checkout's
commit and `src/` line count, and the last line of run.py's output) to the
raw file, so an interrupted series keeps its runs. run.py's default run
length applies to both sides.
`write` reads the raw file and writes, per workload, the per-pair values,
per-side medians and quartiles and the number of pairs the change won for
each end-to-end metric that BENCHMARK.json declares, with the commits, the
`src/` line counts, the command, the Python version and nproc (the CPUs
this process may run on, as run.py reads it).  Each metric also gets its
bound from BENCHMARK.json, its `spread` (the parent's quartile distance
over its median), its `delta` (the change median against the parent
median, positive when worse) and a `verdict`: "unresolved" when the spread
exceeds the bound, unless every change run beats every parent run; else
"worse" when the delta exceeds the bound; else "no worse". Seeds run on one side only are listed per workload under
`unpaired` and named on stderr. It refuses a raw file whose runs of one side
come from more than one tree, or that were sent with different commands.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def _end_to_end():
    """{name: (better, bound)} of the end-to-end metrics that BENCHMARK.json,
    at the root of this checkout, declares."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "BENCHMARK.json")
    with open(path) as fh:
        return {m["name"]: (m["better"], m["bound"])
                for m in json.load(fh)["end_to_end"]}


METRICS = _end_to_end()


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _argv(workload, seed):
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]


def _template(argv):
    """The argv of a run as text, with its workload and seed as W and S."""
    out = list(argv)
    for flag, name in (("--workload", "W"), ("--seed", "S")):
        out[out.index(flag) + 1] = name
    return " ".join(out)


def _bench(root, argv):
    out = subprocess.run([sys.executable] + argv, cwd=root,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _commit(root):
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _src_lines(root):
    src = os.path.join(root, "src", "chamberkit")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def cmd_run(args):
    roots = {"parent": args.parent, "change": args.change}
    with open(args.raw, "a") as fh:
        for i, seed in enumerate(_seeds(args.seeds)):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                argv = _argv(args.workload, seed)
                result = _bench(roots[side], argv)
                line = {"side": side, "workload": args.workload,
                        "seed": seed, "argv": argv, "result": result,
                        "commit": _commit(roots[side]),
                        "src_lines": _src_lines(roots[side])}
                fh.write(json.dumps(line, sort_keys=True) + "\n")
                fh.flush()
                print(json.dumps(line, sort_keys=True), flush=True)


def _metric(pairs, name):
    per_pair = [{"seed": seed, "parent": p["metrics"][name]["value"],
                 "change": c["metrics"][name]["value"]}
                for seed, p, c in pairs]
    out = {"unit": pairs[0][1]["metrics"][name]["unit"]}
    for side in SIDES:
        vals = [row[side] for row in per_pair]
        out[side + "_median"] = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        out[side + "_quartiles"] = [q[0], q[2]]
    better, bound = METRICS[name]
    lower = better == "lower"
    out["change_better_pairs"] = sum(
        1 for row in per_pair
        if (row["change"] < row["parent"]) == lower
        and row["change"] != row["parent"])
    parent, change = ([row[side] for row in per_pair] for side in SIDES)
    median = out["parent_median"]
    lo, hi = out["parent_quartiles"]
    out["bound"] = bound
    out["spread"] = (hi - lo) / median
    out["delta"] = (out["change_median"] - median) / median * (
        1 if lower else -1)
    separated = (max(change) < min(parent) if lower
                 else min(change) > max(parent))
    if out["spread"] > bound and not separated:
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "worse" if out["delta"] > bound else "no worse"
    out["per_pair"] = per_pair
    return out


def cmd_write(args):
    runs = {}
    trees = {side: set() for side in SIDES}
    commands = set()
    with open(args.raw) as fh:
        for text in fh:
            line = json.loads(text)
            runs[line["workload"], line["seed"], line["side"]] = line["result"]
            trees[line["side"]].add((line["commit"], line["src_lines"]))
            commands.add(_template(line["argv"]))
    for side in SIDES:
        if len(trees[side]) != 1:
            sys.exit("%s: the %s runs come from %d trees (commit, src lines): "
                     "%s" % (args.raw, side, len(trees[side]),
                             sorted(trees[side], key=str)))
    if len(commands) != 1:
        sys.exit("%s: the runs were sent with %d commands: %s"
                 % (args.raw, len(commands), sorted(commands)))
    (command,) = commands
    tree = {side: min(trees[side]) for side in SIDES}
    workloads = {}
    for workload in sorted({w for w, _, _ in runs}):
        sides = {side: {s for w, s, r in runs if w == workload and r == side}
                 for side in SIDES}
        seeds = sorted(sides["parent"] & sides["change"])
        unpaired = {side: sorted(sides[side] - set(seeds)) for side in SIDES}
        for side in SIDES:
            if unpaired[side]:
                print("%s: %s seeds %s ran on the %s side only; left out"
                      % (args.raw, workload, unpaired[side], side),
                      file=sys.stderr)
        pairs = [(s, runs[workload, s, "parent"], runs[workload, s, "change"])
                 for s in seeds]
        entry = {"pairs": len(pairs), "seeds": seeds, "unpaired": unpaired,
                 "failed": {side: sum(p[i]["failed"] for p in pairs)
                            for i, side in enumerate(SIDES, 1)},
                 "attempted": {side: sum(p[i]["attempted"] for p in pairs)
                               for i, side in enumerate(SIDES, 1)},
                 "all_correct": all(p[i]["correct"] for p in pairs
                                    for i in (1, 2))}
        if pairs:
            entry.update((name, _metric(pairs, name)) for name in METRICS)
        workloads[workload] = entry
    report = {
        "title": args.title,
        "commits": {side: tree[side][0] for side in SIDES},
        "command": "python3 " + command,
        "method": "pairs of runs of the parent and the change from clean "
                  "checkouts on one host, alternating which side runs "
                  "first; medians and quartiles over the pairs; timings in "
                  "reference seconds (perfbench/speed.py)",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src.lines": {side: tree[side][1] for side in SIDES},
        "workloads": workloads,
    }
    with open(args.out, "w") as fh:
        fh.write(json.dumps(report, indent=1) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="N or LO-HI")
    r.add_argument("--raw", required=True)
    r.set_defaults(func=cmd_run)
    w = sub.add_parser("write")
    w.add_argument("--raw", required=True)
    w.add_argument("--out", required=True)
    w.add_argument("--title", required=True)
    w.set_defaults(func=cmd_write)
    args = p.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
