"""Taking the host's speed out of stream latencies.

On a shared 2-vCPU virtual machine the same CPU-bound Python code runs at
two speeds 1.5 to 1.8 times apart, switching within a second and staying
for seconds to minutes.  A run that happens to fall in the slow phase
would read every latency that much higher.  So the worker times a fixed
piece of exact arithmetic (`calibrate`) between requests, at least every
CALIBRATE_EVERY_S, and each stream latency is scaled by
REFERENCE_CALIBRATION_S over the calibrations made around it (`adjusted`).
The result is in reference seconds: the request's wall time on a host
where the calibration loop takes REFERENCE_CALIBRATION_S.  The loop does
not call chamberkit, so a change to the program moves the latencies and
not the calibration.

A set-up time is one call of up to 20 s with no gap to calibrate in, and
phases change within it; run.py scales the set-up samples of a run by the
median of all the calibrations of the stream measured between them.
"""

import argparse
import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter

CALIBRATE_EVERY_S = 0.02
CALIBRATE_ROUNDS = 2
CALIBRATE_TERMS = 40
# Between the loop's times on a 2-vCPU virtual machine (Python 3.11.7),
# where it takes about 1.6 ms in the fast phase and 2.5 ms in the slow one.
REFERENCE_CALIBRATION_S = 0.002
# Each request is scaled by the median of this many calibrations: the
# last one before it and those right after.
CALIBRATION_WINDOW = 3


def calibrate():
    """Seconds for a fixed piece of pure-Python work: building and using
    argument parsers, as every CLI call does, and exact `Fraction`
    arithmetic.

    Over 80 s of both phases this loop's time followed chamberkit's
    requests with a slope of 1.0 to 1.07 (log against log, r = 0.96-0.98),
    where a tight `Fraction` loop alone followed them with 0.74-0.84.  The
    collector is off meanwhile, so the program's heap cannot change the
    figure; only the host's speed can.  The loop's own garbage (argument
    parsers hold reference cycles) is collected after the timing, so that
    neither the next request nor peak memory pays for it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = Fraction(0)
        for _ in range(CALIBRATE_ROUNDS):
            parser = argparse.ArgumentParser(prog="calibrate")
            sub = parser.add_subparsers(dest="cmd")
            for name in ("a", "b", "c"):
                cmd = sub.add_parser(name)
                cmd.add_argument("--n", type=int)
                cmd.add_argument("--point")
                cmd.add_argument("--flag", action="store_true")
            args = parser.parse_args(["b", "--n", "5", "--point", "1/2,1/3"])
            for i in range(1, CALIBRATE_TERMS):
                acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(
                    args.n, i % 13 + 1)
                acc = Fraction(acc.numerator % 1009, acc.denominator % 997 + 1)
        took = perf_counter() - start
        del parser, sub, cmd, args
        gc.collect(0)
        return took
    finally:
        if was_enabled:
            gc.enable()


def scale(calibration_times):
    """Factor from wall seconds to reference seconds, given the recent
    calibration times."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibration_times)


def adjusted(latencies, calibrations):
    """Latencies in reference seconds.

    `calibrations` holds [i, seconds] pairs, each made just before request
    i, and one more after the last request.
    """
    starts = [i for i, _s in calibrations]
    times = [s for _i, s in calibrations]
    out = []
    for i, took in enumerate(latencies):
        j = bisect.bisect_right(starts, i) - 1
        lo = max(0, min(j - 1, len(times) - CALIBRATION_WINDOW))
        out.append(took * scale(times[lo:lo + CALIBRATION_WINDOW]))
    return out
