"""One workload process: a single client sending CLI requests in a loop.

Started fresh by run.py for every measurement, so chamberkit's per-process
caches start cold, as they do for each `chamberkit` invocation.  It sends
the first request, prints "first" at once (the parent times set-up up to
that line), then either exits (`--role setup`), or sends the stream until
the summed request time, in reference seconds (see speed.py), reaches
`--seconds` (`--role measure`), or sends exactly `--count` stream requests
(`--role replay`).  Between stream requests it runs the calibration loop
of speed.py, outside the request timings.  Every report is checked after
its timing ends.  The last line on stdout is a JSON summary.

Usage: python3 worker.py --src SRC --requests FILE --role ROLE
           [--seconds S] [--count K] [--trace SPANS_FILE]
"""

import argparse
import json
import os
import resource
import sys
from time import perf_counter

import speed


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--requests", required=True)
    p.add_argument("--role", choices=("setup", "measure", "replay"),
                   required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--count", type=int, default=0)
    p.add_argument("--trace")
    return p.parse_args(argv)


def _send(cli, argv):
    """(seconds, report text, exit code); an exception is a failed report."""
    start = perf_counter()
    try:
        text, code = cli.run(argv)
    except Exception as exc:  # a failed report, counted and shown, not fatal
        text, code = "", "%s: %s" % (type(exc).__name__, exc)
    return perf_counter() - start, text, code


def main(argv=None):
    args = _args(argv)
    sys.path.insert(0, args.src)
    import chamberkit.cli
    cli = chamberkit.cli
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(sys.modules["chamberkit"])
        tracer.install()

    with open(args.requests) as fh:
        first = json.loads(fh.readline())
        took, text, code = _send(cli, first["argv"])
        print("first", flush=True)
        stream = [json.loads(line) for line in fh]

    from checks import check
    summary = {"first_s": took, "latencies": [], "classes": [],
               "calibrations": [], "failures": []}
    problems = check(first, text, code)
    if problems:
        summary["failures"].append({"request": -1, "cls": first["cls"],
                                    "problems": problems})
    if args.role != "setup":
        # [index of the next request, seconds] of each calibration
        cals = summary["calibrations"]
        measured, i, last_cal = 0.0, 0, None
        while (measured < args.seconds if args.role == "measure"
               else i < args.count):
            if last_cal is None or perf_counter() - last_cal >= \
                    speed.CALIBRATE_EVERY_S:
                cals.append([i, speed.calibrate()])
                last_cal = perf_counter()
            req = stream[i % len(stream)]
            if tracer:
                tracer.request = i
            took, text, code = _send(cli, req["argv"])
            measured += took * speed.scale(
                [c for _i, c in cals[-speed.CALIBRATION_WINDOW:]])
            summary["latencies"].append(took)
            summary["classes"].append(req["cls"])
            problems = check(req, text, code)
            if problems:
                summary["failures"].append({"request": i, "cls": req["cls"],
                                            "problems": problems})
            i += 1
        cals.append([i, speed.calibrate()])
    summary["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer:
        summary["layers"] = tracer.table()
        tracer.dump(args.trace)
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()
    # Skip tearing down the cached structures; the summary is already out.
    os._exit(0)
