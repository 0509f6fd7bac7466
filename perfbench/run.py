"""chamberkit benchmark: one workload, one seed, one measured run.

Usage, from the root of a chamberkit checkout:

    python3 perfbench/run.py --workload {chambers,xi,series} --seed N \
        --seconds S --trace {0,1}

The workload's requests are generated from the seed, and each is sent in
process through `chamberkit.cli.run(argv)` by a fresh worker process (see
worker.py).  With `--trace 0` the main worker sends the stream for S
seconds of measured request time, and one or two more workers send only
the first request, so set-up is timed two or three times.  The last stdout
line is a JSON object with `correct`, `attempted`, `failed` and the
end-to-end metrics.  The stream's measured time and its metrics are in
reference seconds (speed.py): each request's wall time scaled by a
calibration loop run beside it, so that the host's speed, which swings
by up to 1.8x on a shared virtual machine, drops out and the program's own
cost stays.  The set-up samples are scaled by the stream's calibrations,
which are made between them.
With `--trace 1` a traced worker sends the stream for S seconds and an
untraced worker replays the same requests; the last line then carries the
per-layer metrics and the tracing overhead.  Run metadata, the realised
share of each cost class, and the per-layer table go to the lines before.
"""

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from time import perf_counter

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# Set-up is timed in up to three fresh processes, but a third is started
# only while the samples so far sum to less than SETUP_BUDGET_S: the cold
# n = 6 chamber build takes about 20 s, and two of them already fill the
# share of a run's time that set-up can have.
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 30.0
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker(root, reqfile, role, seconds=0.0, count=0, trace=None):
    """Run one worker process; return (set-up seconds, its summary)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--src", os.path.join(root, "src"), "--requests", reqfile,
           "--role", role, "--seconds", repr(seconds), "--count", str(count)]
    if trace:
        cmd += ["--trace", trace]
    start = perf_counter()
    deadline = start + WORKER_TIMEOUT_S
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=root)
    try:
        lines, setup_s = [], None
        while True:
            if not select.select([proc.stdout], [], [],
                                 max(0.0, deadline - perf_counter()))[0]:
                raise BenchError("worker %s timed out" % role)
            line = proc.stdout.readline()
            if not line:
                break
            if setup_s is None and line == "first\n":
                setup_s = perf_counter() - start
            else:
                lines.append(line)
        if proc.wait() != 0 or setup_s is None or not lines:
            raise BenchError("worker %s exited with %r" % (role,
                                                          proc.returncode))
        return setup_s, json.loads(lines[-1])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def tail_percentile(values):
    """(percentile, value) of the highest percentile that still has ten
    samples beyond it: the 11th largest sample, at 100 * (N - 10) / N."""
    if len(values) < 20:
        raise BenchError("too few samples (%d) for a tail" % len(values))
    ordered = sorted(values)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _shares(classes):
    counts = {}
    for c in classes:
        counts[c] = counts.get(c, 0) + 1
    return {c: round(k / len(classes), 4) for c, k in sorted(counts.items())}


def _src_lines(root):
    total = 0
    for base, _dirs, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def _commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _untraced(root, reqfile, seconds):
    main_setup, main = _worker(root, reqfile, "measure", seconds=seconds)
    setups = [main_setup]
    failures = list(main["failures"])
    while len(setups) < 2 or (len(setups) < SETUP_SAMPLES
                              and sum(setups) < SETUP_BUDGET_S):
        setup_s, probe = _worker(root, reqfile, "setup")
        setups.append(setup_s)
        failures += probe["failures"]
    raw = main["latencies"]
    lat = speed.adjusted(raw, main["calibrations"])
    pct, tail = tail_percentile(lat)
    cals = [c for _i, c in main["calibrations"]]
    attempted = len(setups) + len(lat)
    metrics = {
        "setup_s": _metric(statistics.median(setups) * speed.scale(cals),
                           "s"),
        "reports_per_s": _metric(len(lat) / sum(lat), "1/s"),
        "latency_p50_s": _metric(statistics.median(lat), "s"),
        "latency_tail_s": _metric(tail, "s"),
        "peak_rss_mb": _metric(main["peak_rss_mb"], "MB"),
    }
    info = {
        "latency_tail_percentile": round(pct, 3),
        "samples": len(lat),
        "wall": {"setup_samples_s": setups,
                 "reports_per_s": len(raw) / sum(raw),
                 "latency_p50_s": statistics.median(raw),
                 "latency_tail_s": tail_percentile(raw)[1]},
        "calibration_s": {"count": len(cals),
                          "median": statistics.median(cals),
                          "quartiles": statistics.quantiles(cals, n=4)},
        "error_rate": len(failures) / attempted,
        "class_shares": _shares(main["classes"]),
        "failures": failures[:20],
    }
    return attempted, failures, metrics, info


def _traced(root, reqfile, seconds, spans_path):
    _setup, traced = _worker(root, reqfile, "measure", seconds=seconds,
                             trace=spans_path)
    count = len(traced["latencies"])
    _setup, plain = _worker(root, reqfile, "replay", count=count)
    failures = traced["failures"] + plain["failures"]
    traced_s = traced["first_s"] + sum(traced["latencies"])
    plain_s = plain["first_s"] + sum(plain["latencies"])
    metrics = {}
    table = traced["layers"]
    for name, row in sorted(table.items()):
        for stat, value in sorted(row.items()):
            unit = "s" if stat.endswith("_s") else "count"
            metrics["%s.%s" % (name, stat)] = _metric(value, unit)
    lp = table["exactgeom.lp_feasible"]
    metrics["exactgeom.lp_feasible.feasible_share"] = _metric(
        lp["feasible"] / lp["calls"] if lp["calls"] else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = _metric(traced_s / plain_s, "ratio")
    info = {
        "traced_wall_s": traced_s,
        "untraced_wall_s": plain_s,
        "requests": count + 1,
        "spans_file": os.path.relpath(spans_path, root),
        "class_shares": _shares(traced["classes"]),
        "layers": table,
        "failures": failures[:20],
    }
    return 2 * (count + 1), failures, metrics, info


def _print_table(table):
    print("%-44s %8s %10s %10s %8s" % ("layer", "calls", "self_s",
                                       "total_s", "hits"))
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print("%-44s %8d %10.4f %10.4f %8s" % (
            name, row["calls"], row["self_s"], row["total_s"],
            row.get("cache_hits", "")))


def main(argv=None):
    args = _args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chamberkit", "cli.py")):
        print("run from the root of a chamberkit checkout: no "
              "src/chamberkit/cli.py here", file=sys.stderr)
        return 2
    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    reqfile = os.path.join(outdir, tag + ".requests.jsonl")
    first, stream = workloads.generate(args.workload, args.seed)
    with open(reqfile, "w") as fh:
        for req in [first] + stream:
            fh.write(json.dumps(req) + "\n")
    try:
        if args.trace:
            attempted, failures, metrics, info = _traced(
                root, reqfile, args.seconds,
                os.path.join(outdir, tag + ".spans.json"))
        else:
            attempted, failures, metrics, info = _untraced(
                root, reqfile, args.seconds)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        os.remove(reqfile)
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(root), "src.lines": _src_lines(root),
    }
    if args.trace:
        _print_table(info.pop("layers"))
    print(json.dumps({"meta": meta, "run": info}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
