"""`tools/bench_pairs.py write` on synthetic raw files: no benchmark runs."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def _line(side, seed, workload="chambers", commit=None, argv=None, **values):
    """One raw line; every metric reads 1.0 unless values names it."""
    metrics = {name: {"value": values.get(name, 1.0), "unit": "s"}
               for name in bench.METRICS}
    return {"side": side, "workload": workload, "seed": seed,
            "argv": argv or bench._argv(workload, seed),
            "commit": commit or side[0] * 40, "src_lines": 100,
            "result": {"correct": True, "attempted": 10, "failed": 0,
                       "metrics": metrics}}


def _write(tmp_path, lines):
    raw = tmp_path / "runs.jsonl"
    raw.write_text("".join(json.dumps(line) + "\n" for line in lines))
    out = tmp_path / "bench.json"
    bench.main(["write", "--raw", str(raw), "--out", str(out),
                "--title", "t"])
    return json.loads(out.read_text())


def test_medians_quartiles_and_pairs_won_with_ties(tmp_path):
    # latency (lower is better): change wins seeds 2, 3 and 5, ties seed 1
    # and loses seed 4; throughput (higher is better): wins seeds 2 and 4,
    # ties seeds 1 and 5
    tail = {"parent": [1, 2, 3, 4, 5], "change": [1, 1, 2, 5, 3]}
    rate = {"parent": [10] * 5, "change": [10, 11, 9, 12, 10]}
    lines = [_line(side, seed, latency_tail_s=tail[side][seed - 1],
                   reports_per_s=rate[side][seed - 1])
             for seed in range(1, 6) for side in bench.SIDES]
    report = _write(tmp_path, lines)
    entry = report["workloads"]["chambers"]
    assert entry["pairs"] == 5 and entry["seeds"] == [1, 2, 3, 4, 5]
    assert entry["unpaired"] == {"parent": [], "change": []}
    assert entry["failed"] == {"parent": 0, "change": 0}
    assert entry["attempted"] == {"parent": 50, "change": 50}
    t = entry["latency_tail_s"]
    assert (t["parent_median"], t["parent_quartiles"]) == (3, [1.5, 4.5])
    assert (t["change_median"], t["change_quartiles"]) == (2, [1, 4])
    assert t["change_better_pairs"] == 3
    assert t["per_pair"][3] == {"seed": 4, "parent": 4, "change": 5}
    assert entry["reports_per_s"]["change_better_pairs"] == 2
    assert entry["setup_s"]["change_better_pairs"] == 0
    assert report["commits"] == {"parent": "p" * 40, "change": "c" * 40}
    assert report["src.lines"] == {"parent": 100, "change": 100}
    assert report["command"] == ("python3 perfbench/run.py --workload W "
                                 "--seed S --trace 0")
    assert report["nproc"] == len(os.sched_getaffinity(0))


def test_refuses_mixed_trees_and_mixed_commands(tmp_path):
    lines = [_line("parent", 1), _line("change", 1),
             _line("change", 2, commit="d" * 40), _line("parent", 2)]
    with pytest.raises(SystemExit) as exc:
        _write(tmp_path, lines)
    assert "the change runs come from 2 trees" in str(exc.value)
    argv = bench._argv("chambers", 2) + ["--seconds", "3"]
    lines[2] = _line("change", 2, argv=argv)
    with pytest.raises(SystemExit) as exc:
        _write(tmp_path, lines)
    assert "the runs were sent with 2 commands" in str(exc.value)


def test_reports_seeds_run_on_one_side(tmp_path, capsys):
    lines = [_line(side, seed) for seed in (1, 2) for side in bench.SIDES]
    lines += [_line("parent", 3), _line("change", 4),
              _line("parent", 5, workload="xi")]
    report = _write(tmp_path, lines)
    entry = report["workloads"]["chambers"]
    assert entry["seeds"] == [1, 2]
    assert entry["unpaired"] == {"parent": [3], "change": [4]}
    xi = report["workloads"]["xi"]
    assert (xi["pairs"], xi["unpaired"]) == (0, {"parent": [5], "change": []})
    assert "latency_tail_s" not in xi
    err = capsys.readouterr().err
    assert "chambers seeds [3] ran on the parent side only" in err
    assert "chambers seeds [4] ran on the change side only" in err
    assert "xi seeds [5] ran on the parent side only" in err
