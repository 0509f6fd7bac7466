"""Per-report correctness checks, computed independently of chamberkit.

`check(req, text, code)` returns a list of problems; an empty list means
the report passed.  Every report must exit 0, be exactly one JSON object
and pass all of its own certificates.  On top of that each command is held
to frozen counts and to values the benchmark recomputes from the request:
sign vectors from subset sums, omega sets and xi cells from the point,
inverses composed or multiplied back to the identity, census totals from
closed-form counts.
"""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial

from workloads import canonical_walls

# Frozen cell counts by dimension, keyed by (n, interior_only).
CHAMBER_COUNTS = {
    (5, False): {"0": 20, "1": 110, "2": 240, "3": 225, "4": 76},
    (5, True): {"0": 5, "1": 50, "2": 150, "3": 180, "4": 76},
    (6, True): {"0": 82, "1": 1005, "2": 4040, "3": 7080, "4": 5640,
                "5": 1678},
}

# Strata of the compactified n-pointed space: leaf-labelled trees with n
# leaves and every inner vertex of valence >= 3 (Schroeder's fourth
# problem, OEIS A000311 at n - 1).
DM_TOTALS = {4: 4, 5: 26, 6: 236, 7: 2752, 8: 39208}

# The five resolutions of a complementary pair of weight walls through a
# cell of the open hypersimplex (both zero or a minus beside a zero/minus
# would leave the open domain).
PAIR_OPTIONS = (("0", "+"), ("+", "0"), ("+", "+"), ("+", "-"), ("-", "+"))


def parse_vec(text):
    return tuple(Fraction(p) for p in text.split(","))


def _sign(v):
    return "0" if v == 0 else ("+" if v > 0 else "-")


def _label(subset):
    return "{" + ",".join(str(i + 1) for i in sorted(subset)) + "}"


@lru_cache(maxsize=None)
def _walls(n):
    """(subset, constant, label) per wall of D(n), in arrangement order:
    subset-sum walls, then x_i = 0, then x_i = 1."""
    out = [(tuple(sorted(s)), 1, "sum%s=1" % _label(s))
           for s in canonical_walls(n)]
    out += [((i,), 0, "x%d=0" % (i + 1)) for i in range(n)]
    out += [((i,), 1, "x%d=1" % (i + 1)) for i in range(n)]
    return tuple(out)


def signs_at(point):
    return "".join(_sign(sum(point[i] for i in s) - c)
                   for s, c, _ in _walls(len(point)))


def zero_labels(point):
    return [lab for s, c, lab in _walls(len(point))
            if sum(point[i] for i in s) == c]


def _parse_report(text):
    """The report as a dict, or None unless `text` is exactly one object."""
    try:
        obj, end = json.JSONDecoder().raw_decode(text)
    except ValueError:
        return None
    if text[end:].strip() or not isinstance(obj, dict):
        return None
    return obj


def check(req, text, code):
    report = _parse_report(text)
    if report is None:
        return ["report is not exactly one JSON object"]
    problems = []
    if code != 0:
        problems.append("exit code %r" % (code,))
    certs = report.get("certificates", [])
    failed = [c.get("check") for c in certs if c.get("pass") is not True]
    if failed:
        problems.append("failing certificates %s" % failed)
    argv = req["argv"]
    if report.get("command") != argv[0]:
        problems.append("command %r" % report.get("command"))
    try:
        problems += _CHECKS[argv[0]](req["expect"], report["results"], certs)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append("malformed report: %s: %s" % (type(exc).__name__,
                                                      exc))
    return problems


# ---------------------------------------------------------------------------
# chambers, xi and omega


def _check_located(ch, point, walls):
    """The cell holding an interior point on `walls` subset-sum walls."""
    n = len(point)
    out = []
    if ch["signs"] != signs_at(point):
        out.append("located signs differ from the point's subset sums")
    if ch["zero_walls"] != zero_labels(point):
        out.append("zero walls %s" % ch["zero_walls"])
    if ch["dim"] != n - 1 - walls:
        out.append("located dim %r" % ch["dim"])
    if ch["on_boundary"]:
        out.append("interior point located on the boundary")
    if signs_at(parse_vec(",".join(ch["witness"]))) != ch["signs"]:
        out.append("witness signs differ from the cell's")
    return out


# A `--list` verified cell by cell; later lists of the same n must equal it.
_LISTS = {}


def _check_chambers(exp, res, certs):
    n = exp["n"]
    out = []
    counts = CHAMBER_COUNTS[(n, exp["interior_only"])]
    if res["counts_by_dim"] != counts:
        out.append("counts_by_dim %r" % res["counts_by_dim"])
    if res["total"] != sum(counts.values()):
        out.append("total %r" % res["total"])
    if [c["check"] for c in certs] != ["euler-characteristic"]:
        out.append("missing the Euler certificate")
    if "point" in exp:
        out += _check_located(res["located"], parse_vec(exp["point"]),
                              exp["walls"])
    if exp.get("list"):
        cells = res["chambers"]
        if _LISTS.get(n) == cells:
            return out
        by_dim = {}
        for i, ch in enumerate(cells):
            by_dim[str(ch["dim"])] = by_dim.get(str(ch["dim"]), 0) + 1
            if ch["id"] != i:
                out.append("cell %d has id %r" % (i, ch["id"]))
                break
            if signs_at(parse_vec(",".join(ch["witness"]))) != ch["signs"]:
                out.append("cell %d: witness signs differ" % i)
                break
        if by_dim != counts:
            out.append("listed cells by dim %r" % by_dim)
        if not out:
            _LISTS[n] = cells
    return out


def _weight_walls(n):
    """Subsets S with 2 <= |S| <= n - 2, by size and then lexicographically:
    the weight walls, and the pool CUTS families are drawn from."""
    return [s for size in range(2, n - 1)
            for s in combinations(range(n), size)]


def expected_xi(point):
    """xi cells of the cell holding an interior point: strict signs off the
    walls through it, all five resolutions on each pair through it."""
    n = len(point)
    walls = _weight_walls(n)
    index = {s: i for i, s in enumerate(walls)}
    signs = [_sign(sum(point[i] for i in s) - 1) for s in walls]
    pairs = []
    for s in canonical_walls(n):
        if sum(point[i] for i in s) == 1:
            comp = tuple(sorted(set(range(n)) - s))
            pairs.append((index[tuple(sorted(s))], index[comp]))
    cells = []
    for choice in product(PAIR_OPTIONS, repeat=len(pairs)):
        sig = list(signs)
        for (a, b), (sa, sb) in zip(pairs, choice):
            sig[a], sig[b] = sa, sb
        cells.append("".join(sig))
    return sorted(cells)


def _check_xi(exp, res, certs):
    point = parse_vec(exp["point"])
    k = exp["walls"]
    out = _check_located(res["chamber"], point, k)
    if res["zero_pairs"] != k:
        out.append("zero_pairs %r" % res["zero_pairs"])
    cells = expected_xi(point)
    if res["xi_size"] != len(cells) or res["xi_cells"] != cells:
        out.append("xi cells differ (%r reported, %d expected)"
                   % (res["xi_size"], len(cells)))
    if res.get("facet_cover_count") != 2 ** k:
        out.append("facet_cover_count %r" % res.get("facet_cover_count"))
    return out


def expected_omega(point):
    """Admissible polytopes whose open part holds an interior point.

    FULL always; SECTION{S} for every wall through the point; CUTS for
    every disjoint family S_1..S_k with all subset sums below 1 and a
    nonempty interior, which holds exactly when k + n - |union| > 2.
    """
    n = len(point)
    ids = ["FULL"]
    ids += ["SECTION" + _label(s) for s in canonical_walls(n)
            if sum(point[i] for i in s) == 1]
    pool = _weight_walls(n)

    def extend(start, fam, used):
        for i in range(start, len(pool)):
            s = pool[i]
            if used & set(s):
                continue
            chosen = fam + [s]
            union = used | set(s)
            if len(chosen) + n - len(union) > 2 and \
                    all(sum(point[j] for j in t) < 1 for t in chosen):
                ids.append("CUTS" + "|".join(_label(t) for t in chosen))
            extend(i + 1, chosen, union)

    extend(0, [], set())
    return sorted(ids)


def _check_omega(exp, res, certs):
    point = parse_vec(exp["point"])
    out = _check_located(res["chamber"], point, exp["walls"])
    if res["omega"] != expected_omega(point):
        out.append("omega set differs")
    return out


# ---------------------------------------------------------------------------
# series, strata, divisors and stability


def _ordinary(coeffs):
    return [Fraction(c) / factorial(k) for k, c in enumerate(coeffs)]


def _mul(a, b, top):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(top + 1)]


def _compose(outer, inner, top):
    """outer(inner(x)) mod x^(top+1), inner without constant term."""
    out = [Fraction(0)] * (top + 1)
    power = [Fraction(1)] + [Fraction(0)] * top
    for k in range(top + 1):
        if k:
            power = _mul(power, inner, top)
        for j in range(top + 1):
            out[j] += outer[k] * power[j]
    return out


def _check_invert(exp, res, certs):
    order = exp["order"]
    f = list(parse_vec(exp["coeffs"]))
    f = (f + [Fraction(0)] * (order + 1))[:order + 1]
    out = []
    if [Fraction(c) for c in res["input"]] != f:
        out.append("input echo differs")
    g = [Fraction(c) for c in res["coefficients"]]
    if len(g) != order + 1:
        return out + ["inverse has %d coefficients" % len(g)]
    a, b = _ordinary(f), _ordinary(g)
    if exp["mode"] == "mult":
        ident = [Fraction(1)] + [Fraction(0)] * order
        if _mul(a, b, order) != ident:
            out.append("f * g is not 1")
    else:
        ident = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
        if _compose(a, b, order) != ident:
            out.append("f(g(x)) is not x")
    return out


@lru_cache(maxsize=None)
def _bell(m):
    return sum(_stirling2(m, k) for k in range(m + 1))


@lru_cache(maxsize=None)
def _stirling2(m, k):
    if m == k:
        return 1
    if k == 0 or k > m:
        return 0
    return k * _stirling2(m - 1, k) + _stirling2(m - 1, k - 1)


@lru_cache(maxsize=None)
def lm_total(m):
    """Chains for m light points: ordered set partitions into blocks, each
    block split into clusters, L(m) = sum_j C(m, j) Bell(j) L(m - j)."""
    if m == 0:
        return 1
    return sum(comb(m, j) * _bell(j) * lm_total(m - j)
               for j in range(1, m + 1))


def _check_strata(exp, res, certs):
    n = exp["n"]
    census = res["census"]
    by = census["by_codim"] if exp["space"] == "dm" else census["by_dim"]
    total = DM_TOTALS[n] if exp["space"] == "dm" else lm_total(n - 2)
    out = []
    if census["total"] != total or sum(by.values()) != total:
        out.append("census total %r, expected %d" % (census["total"], total))
    if sum(census["by_type"].values()) != total:
        out.append("by_type does not sum to the total")
    if len(certs) != 1:
        out.append("expected one Euler certificate")
    return out


def _check_divisors(exp, res, certs):
    n = exp["n"]
    m = n - 2
    by_size = {str(r): comb(m, r) for r in range(3, m + 1)}
    out = []
    if res["by_i_size"] != by_size or res["count"] != sum(by_size.values()):
        out.append("divisor counts %r" % res["by_i_size"])
    for d in res["divisors"]:
        r = len(d["I"])
        if r < 3 or min(d["I"]) < 3 or \
                d["type"] != "M0%dxM0%d" % (r + 1, n - r + 1):
            out.append("divisor %r" % d)
            break
    if [c["check"] for c in certs] != ["wonderful-total"]:
        out.append("missing the wonderful cross-check")
    return out


@lru_cache(maxsize=None)
def semistable_count(weights):
    """Set partitions of the weights with every block sum <= 1."""
    n = len(weights)
    sums = [sum(weights[i] for i in range(n) if mask >> i & 1)
            for mask in range(1 << n)]

    @lru_cache(maxsize=None)
    def count(mask):
        if not mask:
            return 1
        low = mask & -mask
        rest = mask ^ low
        total, sub = 0, rest
        while True:
            if sums[sub | low] <= 1:
                total += count(rest ^ sub)
            if not sub:
                return total
            sub = (sub - 1) & rest

    return count((1 << n) - 1)


def _blocks(text):
    return [tuple(int(i) for i in b.strip("{}").split(","))
            for b in text.split("|")]


def _check_stability(exp, res, certs):
    t = [Fraction(w) for w in exp["weights"]]
    n = len(t)
    out = []
    unit = [c for size in range(1, n) for c in combinations(range(n), size)
            if sum(t[i] for i in c) == 1]
    cls = res["classification"]
    if (cls["kind"] == "TYPICAL") != (not unit):
        out.append("classification %r" % cls["kind"])
    if cls["witness"] and sum(t[i - 1] for i in cls["witness"]) != 1:
        out.append("classification witness does not sum to 1")
    if "partition" in exp:
        blocks = _blocks(exp["partition"])
        worst = max(sum(t[i - 1] for i in b) for b in blocks)
        status = ("UNSTABLE" if worst > 1 else
                  "STRICTLY_SEMISTABLE" if worst == 1 else "STABLE")
        if res["status"] != status:
            out.append("status %r, expected %s" % (res["status"], status))
        if Fraction(certs[0]["value"]["total"]) != worst:
            out.append("worst block total differs")
    if "semistable_profile" in res:
        prof = res["semistable_profile"]
        if len(prof) != semistable_count(tuple(sorted(t))):
            out.append("profile has %d partitions" % len(prof))
        for p in prof:
            blocks = _blocks(p)
            if sorted(i for b in blocks for i in b) != list(range(1, n + 1)) \
                    or any(sum(t[i - 1] for i in b) > 1 for b in blocks):
                out.append("profile partition %s" % p)
                break
    return out


_CHECKS = {
    "chambers": _check_chambers,
    "xi": _check_xi,
    "omega": _check_omega,
    "invert": _check_invert,
    "strata": _check_strata,
    "divisors": _check_divisors,
    "stability": _check_stability,
}
