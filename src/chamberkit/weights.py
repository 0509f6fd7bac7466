"""Weight domain, GIT stability and the chamber correspondence.

Weight vectors live in D(0,n) = {0 < a_i <= 1, sum a > 2}; linearisations are
weight vectors renormalized onto the carrier sum t = 2.  Stability of a
coincidence partition under a linearisation is the block-sum rule: a block of
total weight over 1 destabilizes, exactly 1 gives strict semistability.

The weight domain is cut by the walls sum_{i in S} a_i = 1 over all S with
2 <= |S| <= n-2 (both a subset and its complement count, since the carrier
identification is unavailable off the slice sum a = 2).  Cells are identified
by their wall sign vectors; xi maps a carrier chamber to every weight-domain
cell whose closure contains it, read off the local cone at the chamber's
witness by exact linear algebra.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .cache import cached
from .hypersimplex import (CellEngine, _chamber_wall_data, _solutions,
                           generic_point, weight_walls)
from .ratutil import _independent, parse_int, scaled

STABLE = "STABLE"
STRICTLY_SEMISTABLE = "STRICTLY_SEMISTABLE"
UNSTABLE = "UNSTABLE"
TYPICAL = "TYPICAL"
ATYPICAL = "ATYPICAL"

MAX_PROFILE_N = 9
MAX_CLASSIFY_N = 16
MAX_FINE_N = 5
MAX_XI_PAIRS = 6


def _to_fractions(entries, what):
    try:
        vals = tuple(Fraction(x) for x in entries)
    except (TypeError, ValueError) as exc:
        raise ValueError("%s entries must be rational" % what) from exc
    if len(vals) < 4:
        raise ValueError("%s needs at least 4 entries" % what)
    return vals


@dataclass(frozen=True)
class WeightVector:
    """A weight datum in D(0,n): 0 < a_i <= 1 and sum > 2."""

    entries: tuple

    def __init__(self, entries):
        vals = _to_fractions(entries, "weight vector")
        if any(a <= 0 or a > 1 for a in vals):
            raise ValueError("weights must satisfy 0 < a_i <= 1")
        if sum(vals) <= 2:
            raise ValueError("weights must sum to more than 2")
        object.__setattr__(self, "entries", vals)

    @property
    def n(self):
        return len(self.entries)


@dataclass(frozen=True)
class Linearisation:
    """A positive rational vector renormalized to total exactly 2."""

    entries: tuple

    def __init__(self, entries):
        vals = _to_fractions(entries, "linearisation")
        if any(t <= 0 for t in vals):
            raise ValueError("linearisation entries must be positive")
        if sum(vals) != 2:
            raise ValueError("linearisation must sum to exactly 2; "
                             "renormalize explicitly first")
        object.__setattr__(self, "entries", vals)

    @property
    def n(self):
        return len(self.entries)


@dataclass(frozen=True)
class CoincidencePartition:
    """A set partition of {1..n}, canonically ordered: each block ascending,
    blocks by their least point.  Equality and hash read the blocks only;
    the report text is kept beside them."""

    blocks: tuple

    def __init__(self, blocks):
        try:
            blocks = [tuple(b) for b in blocks]
        except TypeError as exc:
            raise ValueError("blocks must be sequences of points") from exc
        seen = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block")
            for i in b:
                if isinstance(i, bool) or not isinstance(i, int) or i in seen:
                    raise ValueError("blocks must disjointly cover 1..n")
                seen.add(i)
        if seen != set(range(1, len(seen) + 1)):
            raise ValueError("blocks must cover 1..n without gaps")
        norm = tuple(sorted(tuple(sorted(b)) for b in blocks))
        object.__setattr__(self, "blocks", norm)
        object.__setattr__(self, "_text", "|".join(
            "{" + ",".join(str(i) for i in b) + "}" for b in norm))

    @property
    def n(self):
        return sum(len(b) for b in self.blocks)

    def __str__(self):
        return self._text


def _partition(blocks, text):
    """A CoincidencePartition from blocks already canonical and disjointly
    covering 1..n, and their text, without the checks of the constructor."""
    p = object.__new__(CoincidencePartition)
    object.__setattr__(p, "blocks", blocks)
    object.__setattr__(p, "_text", text)
    return p


def parse_partition(text):
    """Parse "{1,2}|{3}|{4,5}" into a CoincidencePartition."""
    blocks = []
    for part in text.split("|"):
        part = part.strip()
        if not (part.startswith("{") and part.endswith("}")):
            raise ValueError("malformed partition block: %r" % part)
        items = part[1:-1].split(",")
        blocks.append(tuple(parse_int(i) for i in items))
    return CoincidencePartition(blocks)


def stability(L, p):
    """Block-sum stability of a coincidence partition under a linearisation."""
    return stability_report(L, p)[0]


def stability_report(L, p):
    """Status plus the certifying block and its weight sum."""
    if not isinstance(L, Linearisation):
        L = Linearisation(L)
    if not isinstance(p, CoincidencePartition):
        p = CoincidencePartition(p)
    if p.n != L.n:
        raise ValueError("partition and linearisation sizes differ")
    worst = None
    worst_sum = None
    for b in p.blocks:
        s = sum(L.entries[i - 1] for i in b)
        if worst_sum is None or s > worst_sum:
            worst, worst_sum = b, s
    if worst_sum > 1:
        return UNSTABLE, worst, worst_sum
    if worst_sum == 1:
        return STRICTLY_SEMISTABLE, worst, worst_sum
    return STABLE, worst, worst_sum


@dataclass(frozen=True)
class LinearisationClass:
    kind: str
    witness: tuple  # a subset summing to exactly 1, or () when TYPICAL

    def __bool__(self):
        return self.kind == TYPICAL


def classify_linearisation(L):
    """TYPICAL when no nonempty proper subset of weights sums to exactly 1.

    Every subset size 1..n-1 is checked: complements are equivalent on the
    carrier, but singleton sums t_i = 1 are atypical too and fall outside the
    window 2 <= |S| <= n-2, so that window alone would miss them.  The
    returned witness prefers a subset with 2 <= |S| <= n-2 when one exists.
    """
    if not isinstance(L, Linearisation):
        L = Linearisation(L)
    n = L.n
    if n > MAX_CLASSIFY_N:
        raise ValueError("classification guarded to n <= %d" % MAX_CLASSIFY_N)
    d, t = scaled(L.entries)
    combo = (_unit_subset(t, d, range(2, n // 2 + 1))
             or _unit_subset(t, d, (1,)))
    if combo is None:
        return LinearisationClass(TYPICAL, ())
    return LinearisationClass(ATYPICAL, tuple(i + 1 for i in combo))


def _unit_subset(t, d, sizes):
    """The first subset of the given sizes whose sum, or whose complement's
    sum, is d, in size and then lexicographic order; None if none.  t holds
    integer numerators over the denominator d."""
    rest = sum(t) - d
    for size in sizes:
        for combo, vals in zip(combinations(range(len(t)), size),
                               combinations(t, size)):
            s = sum(vals)
            if s == d or s == rest:
                return combo
    return None


def semistable_profile(L):
    """All coincidence partitions with every block sum <= 1, sorted by blocks.

    One block-wise walk (_grow_profile) emits them already in that order,
    so no partition is checked or sorted afterwards.  Block sums are integer
    numerators over the weights' common denominator d; a point of weight
    over 1 fits in no block, and then the profile is empty.
    """
    if not isinstance(L, Linearisation):
        L = Linearisation(L)
    n = L.n
    if n > MAX_PROFILE_N:
        raise ValueError("profile enumeration guarded to n <= %d" % MAX_PROFILE_N)
    d, t = scaled(L.entries)
    if max(t) > d:
        return ()
    w = (0,) + t
    out = []
    _grow_profile(w, d, tuple(range(2, n + 1)), (1,), w[1], 0, (), "{1", out)
    return tuple(out)


def _grow_profile(w, d, free, block, s, start, done, text, out):
    """Append to out, in sorted order, every profile partition that begins
    with the closed blocks `done` and then the open block `block`.

    w[p] is the weight numerator of point p, `free` the unplaced points in
    increasing order, s the sum of `block`, and text the report text so far
    (the open block without its closing brace).  The open block is closed
    first and then extended by each point of free[start:] in increasing
    order that keeps its sum <= d; a closed block is a prefix of every
    extension, so this is the order of sorted(..., key=blocks).  Each next
    block opens at the least unplaced point, which always fits.

    A module-level function rather than a closure that calls itself: such a
    closure is a reference cycle, and it would keep `out` and every
    partition in it alive after the call, until the next full collection.
    """
    if free:
        p = free[0]
        _grow_profile(w, d, free[1:], (p,), w[p], 0, done + (block,),
                      "%s}|{%d" % (text, p), out)
    else:
        out.append(_partition(done + (block,), text + "}"))
    for k in range(start, len(free)):
        p = free[k]
        if s + w[p] <= d:
            _grow_profile(w, d, free[:k] + free[k + 1:], block + (p,),
                          s + w[p], k, done, "%s,%d" % (text, p), out)


# ---------------------------------------------------------------------------
# The weight-domain wall arrangement.


def weight_signs(n, point):
    """Sign string of an ambient point against the weight walls."""
    point = tuple(Fraction(x) for x in point)
    out = []
    for s in weight_walls(n):
        v = sum(point[i] for i in s) - 1
        out.append("0" if v == 0 else ("+" if v > 0 else "-"))
    return "".join(out)


@dataclass(frozen=True)
class FineChamber:
    """A full-dimensional cell of the weight-domain wall arrangement."""

    n: int
    signs: str
    witness: tuple
    index: int

    @property
    def id(self):
        return self.index


@dataclass(frozen=True)
class WeightLocation:
    """Where a weight vector sits: its cell id and wall membership."""

    n: int
    cell_id: str  # sign string over the weight walls
    wall: bool
    one_contacts: tuple  # 1-based indices with a_i = 1
    chamber: object  # FineChamber when full-dimensional and enumerable


def _fine_planes(n):
    """Wall planes followed by the domain planes of D(0,n)."""
    planes = [(tuple(1 if i in s else 0 for i in range(n)), 1)
              for s in weight_walls(n)]
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        planes.append((e, 0))
        planes.append((e, 1))
    planes.append(((1,) * n, 2))
    return planes


def _fine_vertices(planes, n):
    """0-cells of the closed region box * {sum >= 2}, by the shared echelon
    search with no wall filter: off the plane sum = 2, disjoint walls meet."""
    return sorted({tuple(x) for x in _solutions(planes, n)
                   if all(0 <= v <= 1 for v in x) and sum(x) >= 2})


@cached
def fine_chambers(n):
    """Every full-dimensional chamber of D(0,n).

    The carrier decomposition's cell engine (hypersimplex.CellEngine) run on
    the weight walls and the domain planes of D(0,n): the 0-cells of the
    closed region support every cell closure, and full-dimensional cells are
    reached by flipping across shared wall facets (domain planes are never
    flipped; crossing them leaves D(0,n)).
    """
    if n > MAX_FINE_N:
        raise ValueError("fine chamber enumeration guarded to n <= %d" % MAX_FINE_N)
    walls = weight_walls(n)
    planes = _fine_planes(n)
    cells = CellEngine(planes, _fine_vertices(planes, n))
    nw = len(walls)
    items = []
    seed = cells.sigbits(generic_point(n, 3))
    for sig, mask in cells.top_cells(seed, range(nw)).items():
        signs = "".join("+" if (sig >> i) & 1 else "-" for i in range(nw))
        items.append((signs, cells.witness(mask)))
    return tuple(FineChamber(n, signs, witness, idx)
                 for idx, (signs, witness) in enumerate(sorted(items)))


def locate_weight(A):
    """The weight-domain cell of A, flagged WALL when A lies on some wall."""
    if not isinstance(A, WeightVector):
        A = WeightVector(A)
    n = A.n
    sig = weight_signs(n, A.entries)
    ones = tuple(i + 1 for i, a in enumerate(A.entries) if a == 1)
    if "0" in sig:
        return WeightLocation(n, sig, True, ones, None)
    chamber = None
    if n <= MAX_FINE_N:
        for ch in fine_chambers(n):
            if ch.signs == sig:
                chamber = ch
                break
    return WeightLocation(n, sig, False, ones, chamber)


# ---------------------------------------------------------------------------
# The xi correspondence and facet covers.


def _local_cone(vectors):
    """Covectors of integer vectors that are + on the first one, as (plus,
    minus) bitmasks over the vectors.

    A covector is the sign vector of (v . d) over the vectors, for some d,
    and d matters only through r coordinates spanning the columns, r the
    rank.  A cocircuit spans a line where r - 1 independent vectors vanish;
    it is a point of the chart where the line's first nonzero coordinate is
    1 and the earlier ones are 0.  Every covector + on the first vector is a
    composition of cocircuits conformal to it, one of them + there (Bjorner,
    Las Vergnas, Sturmfels, White and Ziegler, Oriented Matroids, 3.7), so
    lines are kept in each orientation that is not - on the first vector.
    """
    cols = _independent(zip(*vectors))  # a column basis
    r = len(cols)
    rows = [tuple(v[i] for i in cols) for v in vectors]
    lines = set()  # the chart points' covectors, every cocircuit among them
    for j in range(r):
        chart = [(co[j + 1:], -co[j]) for co in rows]
        for t in set(map(tuple, _solutions(chart, r - 1 - j))):
            y = [co[j] + sum(c * x for c, x in zip(co[j + 1:], t)) for co in rows]
            plus = sum(1 << b for b, v in enumerate(y) if v > 0)
            minus = sum(1 << b for b, v in enumerate(y) if v < 0)
            lines.update(s for s in ((plus, minus), (minus, plus)) if not s[1] & 1)
    found = {s for s in lines if s[0] & 1}
    frontier = list(found)
    full = (1 << len(vectors)) - 1
    steps = {}  # zero set -> the distinct ways a line fills part of it
    while frontier:
        grown = []
        for plus, minus in frontier:
            free = full & ~(plus | minus)
            if free not in steps:
                steps[free] = {(p & free, m & free) for p, m in lines}
            for p, m in steps[free]:
                x = (plus | p, minus | m)
                if x not in found:
                    found.add(x)
                    grown.append(x)
        frontier = grown
    return found


def _xi_pass(chamber):
    """The zero pairs of an interior chamber, its xi cells (sorted) and its
    facet cover count, from one read of its wall signs and one local cone.

    A cell's closure holds c exactly when the cell holds w + e d for the
    witness w of c, every small e > 0 and some d with sum(d) > 0 (by
    convexity, d = p - w for any p in the cell).  Near the interior point w
    the box constraints and the walls where c is strict keep their signs; a
    wall S through c reads sign(1_S . d), since 1_S . w = 1.  So the cells
    are the covectors + on 1 of the local cone {1, 1_S, 1_{S^c}}, each pair
    of walls through c taking one of the five sign pairs (0,+), (+,0),
    (+,+), (+,-) and (-,+).

    A facet cover, a cell of dimension dim(c)+1 with c as a facet, keeps
    exactly one wall of each pair at zero (keeping both forces the carrier;
    keeping none leaves the dimension too high), and the partner wall is
    then forced positive: the xi cells whose every pair reads (0,+) or (+,0).
    """
    if chamber.on_boundary:
        raise ValueError("xi is defined for chambers inside the open hypersimplex")
    n = chamber.n
    walls, fixed, pairs = _chamber_wall_data(chamber)
    if len(pairs) > MAX_XI_PAIRS:
        raise ValueError("xi guarded to chambers on at most %d walls" % MAX_XI_PAIRS)
    pair_walls = [w for pair in pairs for w in pair]
    vectors = [(1,) * n] + [tuple(int(i in walls[w]) for i in range(n))
                            for w in pair_walls]
    sig = [fixed.get(i) for i in range(len(walls))]
    cells = []
    for plus, minus in _local_cone(vectors):
        for bit, w in enumerate(pair_walls, 1):
            sig[w] = "+" if plus >> bit & 1 else "-" if minus >> bit & 1 else "0"
        cells.append("".join(sig))
    covers = sum(1 for c in cells
                 if all(c[a] + c[b] in ("0+", "+0") for a, b in pairs))
    return pairs, tuple(sorted(cells)), covers


def xi(chamber):
    """Ids (wall sign strings) of weight-domain cells whose closure holds c
    (see _xi_pass)."""
    return _xi_pass(chamber)[1]


def facet_cover_count(chamber, k):
    """Number of weight-domain cells of dimension dim(c)+1 with c as a facet,
    for c on k walls (see _xi_pass)."""
    pairs, _, covers = _xi_pass(chamber)
    if k != len(pairs):
        raise ValueError("chamber lies on %d walls, not %d" % (len(pairs), k))
    return covers
