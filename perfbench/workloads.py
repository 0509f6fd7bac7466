"""Seeded request streams for the three benchmark workloads.

`generate(workload, seed)` is a pure function: the same arguments give the
same argv lists.  Every request carries a cost class and the facts the
checker needs to judge the report (`expect`); only `argv` reaches the
program.

The sequence of cost classes is fixed per workload and does not depend on
the seed.  The seed chooses the inputs inside each class: the exact points,
the walls they lie on, the series coefficients, the permutation of a weight
vector.  So two seeds run the same mix at the same positions, and a run cut
after a fixed measured time covers the same classes whatever the seed.
"""

import random
from fractions import Fraction
from itertools import combinations

WORKLOADS = ("chambers", "xi", "series")

# Requests generated per run; the worker cycles the stream if a run gets
# through all of them before its measured time is up.
STREAM_LENGTH = 3000


def fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
        x.numerator, x.denominator)


def fmt_vec(xs):
    return ",".join(fmt(x) for x in xs)


def request(argv, cls, **expect):
    return {"argv": list(argv), "cls": cls, "expect": expect}


# ---------------------------------------------------------------------------
# exact points of D(n) = {x in [0,1]^n : sum x = 2} on chosen walls


def canonical_walls(n):
    """Subset-sum walls of D(n), one subset per complementary pair, in the
    order the arrangement lists them: by size, then lexicographically."""
    full = frozenset(range(n))
    out = set()
    for size in range(2, n // 2 + 1):
        for combo in combinations(range(n), size):
            s, c = frozenset(combo), full - frozenset(combo)
            if len(s) < len(c) or (len(s) == len(c)
                                   and sorted(s) <= sorted(c)):
                out.add(s)
            else:
                out.add(c)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def crosses(s, t, n):
    """Two walls cross when all four regions they cut [n] into are nonempty;
    only crossing walls can meet inside the open hypersimplex."""
    rest = frozenset(range(n)) - s - t
    return bool(s & t) and bool(s - t) and bool(t - s) and bool(rest)


def _split(rng, total, members, out):
    """Share `total` among `members` in positive exact parts."""
    w = [rng.randint(1, 29) for _ in members]
    den = sum(w)
    for i, wi in zip(members, w):
        out[i] = Fraction(total) * wi / den


def on_walls(x, walls):
    return [s for s in walls if sum(x[i] for i in s) == 1]


def interior_point(rng, n, k):
    """A point of the open D(n) on exactly `k` (0, 1 or 2) subset-sum walls.

    Returns the point and the walls it lies on.  Each candidate is checked
    in plain Fraction arithmetic against every wall and redrawn when it
    lands on a wall it was not built for.
    """
    walls = canonical_walls(n)
    while True:
        x = [None] * n
        if k == 0:
            chosen = []
            _split(rng, 2, range(n), x)
        elif k == 1:
            s = rng.choice(walls)
            chosen = [s]
            _split(rng, 1, sorted(s), x)
            _split(rng, 1, sorted(set(range(n)) - s), x)
        elif k == 2:
            s = rng.choice(walls)
            t = rng.choice([w for w in walls if crosses(s, w, n)])
            chosen = [s, t]
            a = Fraction(rng.randint(1, 11), 12)
            regions = (s & t, s - t, t - s, frozenset(range(n)) - s - t)
            for region, total in zip(regions, (a, 1 - a, 1 - a, a)):
                _split(rng, total, sorted(region), x)
        else:
            raise ValueError("points are built on 0, 1 or 2 walls")
        if all(0 < v < 1 for v in x) and sum(x) == 2 and \
                set(on_walls(x, walls)) == set(chosen):
            return tuple(x), chosen


# ---------------------------------------------------------------------------
# workload: chambers


# After two cold builds of the D(5) complexes, a cycle of 40 requests: 26
# locates in the interior complex of D(6), 13 in the complexes of D(5) and
# one slot that is a `--list` of D(5) (a 216 kB report) in every
# _LIST_EVERY-th cycle and another D(5) locate in the others.  p50 sits
# inside the n = 6 locates (65 %).  The ten slowest reports are the two
# builds, the first locate in D(5) and the slower half of the `--list`
# reports, so the tail (the 11th slowest) falls near the middle of the
# `--list` class, not in its long upper end: a 10 s run holds about 20 of
# them.  Points of each kind lie on 0, 0, 1, 1, 2 walls in turn.
_CHAMBER_CYCLE = "66566i66566i665L66566i66566i66566i665665"
_CHAMBER_SLOTS = {"6": (6, True), "5": (5, False), "i": (5, True)}
_LIST_EVERY = 2
_WALL_PATTERN = (0, 0, 1, 1, 2)


def _chambers(rng, length):
    first = request(["chambers", "--n", "6", "--interior-only"],
                    "build.n6.interior", n=6, interior_only=True)
    stream = [
        request(["chambers", "--n", "5"], "build.n5", n=5,
                interior_only=False),
        request(["chambers", "--n", "5", "--interior-only"],
                "build.n5.interior", n=5, interior_only=True),
    ]
    seen = {}
    for i in range(length - len(stream)):
        slot = _CHAMBER_CYCLE[i % len(_CHAMBER_CYCLE)]
        if slot == "L" and i // len(_CHAMBER_CYCLE) % _LIST_EVERY:
            slot = "5"
        if slot == "L":
            stream.append(request(["chambers", "--n", "5", "--list"],
                                  "list.n5", n=5, interior_only=False,
                                  list=True))
            continue
        n, interior = _CHAMBER_SLOTS[slot]
        count = seen.get(slot, 0)
        seen[slot] = count + 1
        k = _WALL_PATTERN[count % len(_WALL_PATTERN)]
        x, _walls = interior_point(rng, n, k)
        argv = ["chambers", "--n", str(n)]
        if interior:
            argv.append("--interior-only")
        stream.append(request(argv + ["--locate", fmt_vec(x)],
                              "locate.n%d.w%d" % (n, k), n=n,
                              interior_only=interior, point=fmt_vec(x),
                              walls=k))
    return first, stream


# ---------------------------------------------------------------------------
# workload: xi


# A cycle of 80 requests in 8 blocks of 10.  Each block opens with an `xi`
# at a point of D(4) on one wall (8 exact LP solves, about 0.3 s) or, in
# block 3, on two crossing walls (35 solves, about 1 s); the other 9 are
# `xi` at generic points of D(5) (no LP) and `omega` on 0, 1 or 2 walls of
# D(5).  The LP requests take about nine tenths of the measured time, and
# with 14 or more of them per run the tail (the 11th slowest report) falls
# inside the one-wall LP class while p50 sits in the generic `xi` class.
# One-wall cells of D(5) cost 1.6 s to 4 s each by LP, too slow to give
# ten samples in a run; the set-up request is one of them.  The stream
# opens with an omega, which builds the admissible polytopes of D(5)
# (45 LP solves) once.
_XI_BLOCK = "Lxxxoxxxox"
_XI_BLOCKS = 8
_XI_TWO_WALL_BLOCK = 3


def _xi(rng, length):
    example = "3/5,1/3,2/5,1/3,1/3"
    first = request(["xi", "--point", example], "xi.n5.w1", n=5,
                    point=example, walls=1)
    omegas = 0
    stream = []
    for i in range(length):
        pos = i % len(_XI_BLOCK)
        if i == 0 or _XI_BLOCK[pos] == "o":
            cmd, n, k = "omega", 5, omegas % 3
            omegas += 1
        elif _XI_BLOCK[pos] == "L":
            block = i // len(_XI_BLOCK) % _XI_BLOCKS
            cmd, n, k = "xi", 4, 2 if block == _XI_TWO_WALL_BLOCK else 1
        else:
            cmd, n, k = "xi", 5, 0
        x, _walls = interior_point(rng, n, k)
        stream.append(request([cmd, "--point", fmt_vec(x)],
                              "%s.n%d.w%d" % (cmd, n, k), n=n,
                              point=fmt_vec(x), walls=k))
    return first, stream


# ---------------------------------------------------------------------------
# workload: series


def _rand_coeff(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _invert(rng, mode, method, order):
    head = [1] if mode == "mult" else [0, 1]
    coeffs = head + [_rand_coeff(rng) for _ in range(order + 1 - len(head))]
    argv = ["invert", "--mode", mode, "--method", method,
            "--coeffs", fmt_vec(coeffs), "--order", str(order)]
    return request(argv, "invert.%s.%s.o%d" % (mode, method, order),
                   mode=mode, coeffs=fmt_vec(coeffs), order=order)


def _strata(space, n):
    return request(["strata", "--space", space, "--n", str(n)],
                   "strata.%s.n%d" % (space, n), space=space, n=n)


def _divisors(rng, n):
    """Heavy/light reduction: all weights 1 down to 1, 1, eps, ..., eps.

    With m = n - 2 light points and m * eps <= 1 the contracted divisors
    are exactly the light subsets of size at least 3, and the report
    cross-checks them against the wonderful-model census.
    """
    m = n - 2
    eps = Fraction(1, rng.randint(m, 4 * m))
    argv = ["divisors", "--from", ",".join(["1"] * n),
            "--to", "1,1," + ",".join([fmt(eps)] * m)]
    return request(argv, "divisors.n%d" % n, n=n)


# Weight multisets (each sums to 2) for `stability`; the seed permutes them,
# which leaves the number of semistable partitions and the cost unchanged.
_PROFILE_WEIGHTS = {
    6: ("1/2", "1/2", "1/4", "1/4", "1/4", "1/4"),
    7: ("2/7",) * 7,
    8: ("1/2", "1/4", "1/4", "1/4", "1/4", "1/6", "1/6", "1/6"),
    9: ("1/2", "1/2", "1/2", "1/8", "1/8", "1/16", "1/16", "1/16", "1/16"),
}


def _stability(rng, n, profile):
    weights = list(_PROFILE_WEIGHTS[n])
    rng.shuffle(weights)
    argv = ["stability", "--weights", ",".join(weights)]
    if profile:
        return request(argv + ["--profile"], "stability.profile.n%d" % n,
                       n=n, weights=weights)
    cells = list(range(1, n + 1))
    rng.shuffle(cells)
    blocks = []
    while cells:
        size = rng.randint(1, 3)
        blocks.append(sorted(cells[:size]))
        cells = cells[size:]
    part = "|".join("{%s}" % ",".join(map(str, b)) for b in blocks)
    return request(argv + ["--partition", part],
                   "stability.partition.n%d" % n, n=n, weights=weights,
                   partition=part)


# The first request of each census (dm and lm strata, the wonderful building
# sets behind `divisors`) is a cold build that later requests find cached,
# and profiles at n = 8 and 9 cost 0.1 s and 0.4 s.  They come first, once,
# at fixed positions, so every run pays them at the same place and the
# cycle below stays cheap.  Census reports at n = 8 are left out: the cold
# dm report alone takes 1.4-1.8 s and the lm one 0.5 s, and that much
# one-off work at the start of a 10 s window made `reports_per_s` follow
# the host's speed in those first seconds (27 % spread over ten seeds on a
# 2-vCPU virtual machine).
def _series_prefix(rng):
    return ([_strata("dm", n) for n in (5, 6, 7)]
            + [_strata("lm", n) for n in (5, 6, 7)]
            + [_divisors(rng, n) for n in (5, 6, 7)]
            + [_stability(rng, n, True) for n in (8, 9)])


# A cycle of 20 slots.  Each slot kind steps through its own range in a
# fixed order (orders 2..12 within each route's cap, n for censuses and
# stability), so the mix of cost classes does not depend on the seed; the
# seed draws the coefficients, weights' order and partitions.
_SERIES_SLOTS = (
    "mult.direct", "comp.direct", "mult.strata", "comp.strata", "dm",
    "mult.direct", "comp.strata", "partition", "mult.strata", "divisors",
    "comp.direct", "lm", "mult.direct", "comp.strata", "profile",
    "mult.strata", "comp.direct", "divisors", "mult.direct", "partition",
)
_SERIES_RANGES = {
    "mult.direct": range(2, 13), "comp.direct": range(2, 13),
    "mult.strata": range(2, 10), "comp.strata": range(2, 9),
    "dm": range(5, 8), "lm": range(5, 8), "divisors": range(5, 8),
    "partition": range(6, 10), "profile": range(6, 8),
}


def _series(rng, length):
    first = request(["invert", "--mode", "comp", "--method", "strata",
                     "--coeffs", "0,1,1/2,1/3,1/4", "--order", "8"],
                    "invert.comp.strata.o8", mode="comp",
                    coeffs="0,1,1/2,1/3,1/4", order=8)
    stream = _series_prefix(rng)
    steps = dict.fromkeys(_SERIES_RANGES, 0)
    while len(stream) < length:
        kind = _SERIES_SLOTS[len(stream) % len(_SERIES_SLOTS)]
        values = _SERIES_RANGES[kind]
        v = values[steps[kind] % len(values)]
        steps[kind] += 1
        if "." in kind:
            mode, method = kind.split(".")
            stream.append(_invert(rng, mode, method, v))
        elif kind in ("dm", "lm"):
            stream.append(_strata(kind, v))
        elif kind == "divisors":
            stream.append(_divisors(rng, v))
        else:
            stream.append(_stability(rng, v, kind == "profile"))
    return first, stream


_BUILDERS = {"chambers": _chambers, "xi": _xi, "series": _series}


def generate(workload, seed, length=STREAM_LENGTH):
    """(first request, stream of `length` requests) for a workload and seed."""
    if workload not in _BUILDERS:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("%s:%d" % (workload, seed))
    return _BUILDERS[workload](rng, length)
