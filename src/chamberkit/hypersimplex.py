"""Chamber decomposition of the second hypersimplex, and the cell engine.

The region of interest is D(n) = {x in [0,1]^n : sum x = 2}, cut by the
arrangement of all restricted subset-sum walls sum_{i in S} x_i = 1 together
with the facet planes x_i = 0 and x_i = 1.  A chamber is a cell of this
decomposition: the set of points realizing one fixed sign vector.  Cells of
every dimension are enumerated, each with an exact rational witness in its
relative interior.

The enumeration is exact and LP-free.  A 0-cell with a coordinate 1 is a
vertex e_i + e_j of the hypersimplex; any other 0-cell, restricted to its
support F, is a 0-cell of the open D(|F|).  Inside the open region two
distinct walls through one point must cross (all four parts they cut F into
are nonempty), so those 0-cells come from a depth-first search, per support
size, over subsets of pairwise crossing walls, solved by integer echelon
elimination (_solutions).

CellEngine holds the cells of an arrangement as bitmasks of the 0-cells in
their closures, and finds the full-dimensional cells by breadth-first search
across shared facets from the cell of generic_point, a closed-form point on
no wall.  It serves both decompositions cut by these walls:
ChamberComplex here, which then closes cell closures against each wall to
reach the lower cells, and weights.fine_chambers on the weight domain.

Each cell is finished with a few big-integer operations.  The engine keeps,
for each 0-cell, a plane mask of the planes it lies on and one of the planes
it lies above; a cell lies on the AND of the first over its 0-cells and
above the OR of the second, and its sign string is read off the two masks.
The search tells a facet by the first mask alone.  A dimension is
CellEngine.rank, the affine rank of a cell's 0-cells, run on the first cell
of each flat (the cells on one zero plane mask share their dimension).  The
face adjacency of ChamberComplex is not kept by the build; it is recomputed
from the cell masks when first read.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .cache import cached
from .exactgeom import EQ, LT, LinConstraint, lp_feasible
from .ratutil import _eliminate, _rank, scaled

MAX_N = 8
MAX_CHAMBER_N = 6


def _check_n(n, cap=MAX_N):
    if not isinstance(n, int) or n < 4:
        raise ValueError("n must be an integer >= 4")
    if n > cap:
        raise ValueError("n = %d exceeds the supported desk scale (max %d)" % (n, cap))


def _subset_label(subset):
    return "{" + ",".join(str(i + 1) for i in sorted(subset)) + "}"


@dataclass(frozen=True)
class Hyperplane:
    """One wall, stored with an integer normal against the ambient coordinates."""

    normal: tuple
    const: int
    kind: str  # "sum", "x0" or "x1"
    subset: frozenset
    label: str


@dataclass(frozen=True)
class Arrangement:
    n: int
    hyperplanes: tuple

    def signs_at(self, point):
        """The sign string ("0", "+" or "-" per wall) of a point, in integer
        arithmetic over the point's common denominator."""
        return self.signs_at_scaled(*scaled(point))

    def signs_at_scaled(self, d, nums):
        """signs_at for the point nums / d (see ratutil.scaled)."""
        out = []
        for h in self.hyperplanes:
            v = sum(map(mul, h.normal, nums)) - h.const * d
            out.append("0" if v == 0 else ("+" if v > 0 else "-"))
        return "".join(out)


def canonical_subset(n, subset):
    """The chosen representative among a subset-sum wall and its complement.

    On the carrier sum x = 2 the walls for S and for its complement coincide;
    the smaller side is kept, with the lexicographically smaller sorted tuple
    breaking the tie at size n/2.
    """
    s = frozenset(subset)
    c = frozenset(range(n)) - s
    if len(s) < len(c):
        return s
    if len(c) < len(s):
        return c
    return s if tuple(sorted(s)) <= tuple(sorted(c)) else c


@cached
def weight_walls(n):
    """All subsets S with 2 <= |S| <= n-2 (0-based), by size and then
    lexicographically: the one list every subset wall and subset family
    here and in weights and strata is drawn from."""
    if n < 4:
        raise ValueError("n must be at least 4")
    return tuple(s for size in range(2, n - 1)
                 for s in combinations(range(n), size))


@cached
def build_arrangement(n):
    """All deduplicated walls for D(n), in canonical order: the weight walls
    that are their own canonical_subset, then the facet planes."""
    _check_n(n)
    planes = []
    for w in weight_walls(n):
        s = frozenset(w)
        if canonical_subset(n, s) == s:
            normal = tuple(1 if i in s else 0 for i in range(n))
            planes.append(Hyperplane(normal, 1, "sum", s,
                                     "sum%s=1" % _subset_label(s)))
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        planes.append(Hyperplane(e, 0, "x0", frozenset([i]), "x%d=0" % (i + 1)))
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        planes.append(Hyperplane(e, 1, "x1", frozenset([i]), "x%d=1" % (i + 1)))
    return Arrangement(n, tuple(planes))


@cached
def carrier_walls(n):
    """Each weight wall S as seen on the carrier sum x = 2: the index of its
    sum plane in build_arrangement(n), whether that plane is the wall of
    S^c (so the signs flip), and the index of S^c among the weight walls."""
    walls = weight_walls(n)
    index = {s: i for i, s in enumerate(walls)}
    plane = {h.subset: i for i, h in enumerate(build_arrangement(n).hyperplanes)
             if h.kind == "sum"}
    out = []
    for s in walls:
        canon = canonical_subset(n, s)
        comp = tuple(i for i in range(n) if i not in s)
        out.append((plane[canon], canon != frozenset(s), index[comp]))
    return tuple(out)


def _chamber_wall_data(chamber):
    """Signs of a carrier chamber against the weight walls, and zero pairs:
    the one reader of a cell's weight-wall signs.

    On the carrier the wall for S^c is the negated wall for S, so the carrier
    sign vector determines a unique strict weight-domain sign for every wall
    the chamber is not on; walls the chamber lies on come in complementary
    pairs (S, S^c), S the wall's canonical_subset.
    """
    signs = chamber.signs
    fixed = {}
    pairs = []
    for idx, (plane, flip, comp) in enumerate(carrier_walls(chamber.n)):
        sign = signs[plane]
        if sign == "0":
            if not flip:
                pairs.append((idx, comp))
        else:
            fixed[idx] = ("+" if sign == "-" else "-") if flip else sign
    return weight_walls(chamber.n), fixed, pairs


def generic_point(n, deficit):
    """The point x_i = 2 (2^n + 2^i) / ((n + 1) 2^n - deficit), the seed of
    the breadth-first search over both arrangements cut by the weight walls.

    For odd deficit every numerator is even and the denominator odd, so no
    coordinate is 1 and no subset sums to 1.  deficit = 1 gives sum x = 2, a
    point of the open D(n); deficit = 3 gives sum x above 2 with every
    coordinate below 1, a point of the open D(0,n).
    """
    den = (n + 1) * 2 ** n - deficit
    return tuple(Fraction(2 * (2 ** n + 2 ** i), den) for i in range(n))


def _box(n, rel):
    """sum x = 2 with x_i (rel) 1 and -x_i (rel) 0 for each i, as constraints."""
    cons = [LinConstraint([1] * n, EQ, 2)]
    for i in range(n):
        e = [int(j == i) for j in range(n)]
        cons.append(LinConstraint(e, rel, 1))
        cons.append(LinConstraint([-v for v in e], rel, 0))
    return cons


@dataclass(frozen=True)
class Chamber:
    """One cell of the decomposition, identified by its sign vector."""

    n: int
    signs: str
    dim: int
    witness: tuple
    on_boundary: bool
    index: int

    @property
    def id(self):
        """Stable integer id: position in the canonical (dim, signs) order."""
        return self.index

    def zero_walls(self, arrangement):
        return [h for h, s in zip(arrangement.hyperplanes, self.signs) if s == "0"]


# ---------------------------------------------------------------------------
# Integer echelon solutions and the cell engine shared by both complexes.


def _solutions(rows, m, compatible=None):
    """Solutions of every independent m-subset of the rows (coeffs, rhs).

    A depth-first search over integer echelon forms, each reduced row divided
    by the gcd of its entries, then back substitution.  When compatible is
    given, compatible[i] is the bitmask of the rows that may be chosen
    together with row i.  The same point may be listed more than once.
    """
    out = []
    _solve_from(rows, m, compatible, 0, (1 << len(rows)) - 1, [], [], out)
    return out


def _solve_from(rows, m, compatible, start, allowed, ech, pivs, out):
    """One node of the search in _solutions: extend the echelon form ech by
    rows from index start on, within the bitmask allowed.  A module-level
    function, not a closure that calls itself, so that no reference cycle
    keeps out alive after the search."""
    depth = len(ech)
    if depth == m:
        # Back substitution over a common denominator d: x = xs / d.
        xs = [0] * m
        d = 1
        for (co, rh), p in reversed(list(zip(ech, pivs))):
            t = rh * d - sum(c * v for c, v in zip(co, xs))
            xs = [v * co[p] for v in xs]
            xs[p] = t
            d *= co[p]
        out.append([Fraction(v, d) for v in xs])
        return
    for i in range(start, len(rows) - (m - depth) + 1):
        if not (allowed >> i) & 1:
            continue
        co, rh, piv = _eliminate(rows[i][0], rows[i][1], ech, pivs)
        if piv < 0:
            continue  # dependent or inconsistent: no rank gain from this row
        g = gcd(rh, *co)
        if g > 1:
            co = [c // g for c in co]
            rh //= g
        _solve_from(rows, m, compatible, i + 1,
                    allowed & compatible[i] if compatible else allowed,
                    ech + [(co, rh)], pivs + [piv], out)


def _families(masks, compatible, visit):
    """Call visit on every family of pairwise compatible masks, the empty
    family first, each a list of masks in the order of the given list.

    A depth-first search that extends a family only by later masks
    compatible with all of it; compatible(a, b) is the pairwise test.  The
    list passed to visit is reused, so visit copies what it keeps.
    """
    after = [sum(1 << j for j in range(i + 1, len(masks))
                 if compatible(a, masks[j]))
             for i, a in enumerate(masks)]
    _extend_family(masks, after, visit, [], (1 << len(masks)) - 1)


def _extend_family(masks, after, visit, chosen, allowed):
    """One node of the search in _families: visit chosen, then extend it by
    each mask in the bitmask allowed.  A module-level function, not a
    closure that calls itself, so that no reference cycle is left per call.
    """
    visit(chosen)
    for j in _bit_indices(allowed):
        chosen.append(masks[j])
        _extend_family(masks, after, visit, chosen, allowed & after[j])
        chosen.pop()


def _bit_indices(mask):
    while mask:
        lsb = mask & -mask
        mask ^= lsb
        yield lsb.bit_length() - 1


class CellEngine:
    """Cells of a plane arrangement on a region, as bitmasks of 0-cells.

    Takes the planes (normal, const), no two of which coincide on the
    region, and the exact 0-cells of the region.  A cell is identified by
    the bitmask of the 0-cells in its closure, so faces are bitwise
    intersections.  zeros[h], pos[h] and neg[h] are the 0-cells on, above
    and below plane h, all as integer numerators over den.

    on[v] and above[v] are the planes 0-cell v lies on and strictly above,
    as plane masks: one byte per plane, plane 0 in the most significant
    byte, so that a cell's sign string is one integer written out as bytes
    (see signs).
    """

    def __init__(self, planes, vertices):
        self.planes = planes
        self.den = den = lcm(*(x.denominator for v in vertices for x in v))
        self.vnums = [tuple(int(x * den) for x in v) for v in vertices]
        self.all_mask = (1 << len(vertices)) - 1
        H = len(planes)
        self.zeros = [0] * H
        self.pos = [0] * H
        self.neg = [0] * H
        self.on = []
        self.above = []
        pbits = [self.plane_mask([hi]) for hi in range(H)]
        for vi, nums in enumerate(self.vnums):
            bit = 1 << vi
            on = above = 0
            for hi, (normal, const) in enumerate(planes):
                val = sum(a * b for a, b in zip(normal, nums)) - const * den
                if val == 0:
                    self.zeros[hi] |= bit
                    on |= pbits[hi]
                elif val > 0:
                    self.pos[hi] |= bit
                    above |= pbits[hi]
                else:
                    self.neg[hi] |= bit
            self.on.append(on)
            self.above.append(above)
        self._minus = int.from_bytes(b"-" * H, "big")
        self._fractions = {}

    def plane_mask(self, indices):
        """The plane mask holding the planes with the given indices."""
        top = len(self.planes) - 1
        return sum(1 << 8 * (top - hi) for hi in indices)

    def zero_plus(self, mask):
        """The plane masks of the planes a cell lies on and strictly above."""
        on, above = self.on, self.above
        z, p = -1, 0
        for vi in _bit_indices(mask):
            z &= on[vi]
            p |= above[vi]
        return z, p

    def signs(self, z, p):
        """The sign string ("0", "+" or "-" per plane) of plane masks z, p:
        "-" + 3 is "0" and "-" - 2 is "+", one byte per plane."""
        return ((self._minus + 3 * z - 2 * p)
                .to_bytes(len(self.planes), "big").decode("ascii"))

    def sigbits(self, point):
        """The planes a point lies strictly above, as a bitmask."""
        return sum(1 << hi for hi, (normal, const) in enumerate(self.planes)
                   if sum(a * x for a, x in zip(normal, point)) > const)

    def mask_for(self, sigbits):
        """0-cells compatible with a strict sign assignment (bit set = plus)."""
        m = self.all_mask
        zeros, pos, neg = self.zeros, self.pos, self.neg
        for hi in range(len(self.planes)):
            m &= zeros[hi] | (pos[hi] if (sigbits >> hi) & 1 else neg[hi])
            if not m:
                break
        return m

    def rank(self, mask):
        """Affine rank of the 0-cells in mask: the dimension of the cell."""
        pts = (self.vnums[i] for i in _bit_indices(mask))
        base = next(pts, None)
        return _rank([a - b for a, b in zip(v, base)] for v in pts)

    def top_cells(self, seed_sigbits, flippable):
        """All full-dimensional cells, sigbits -> mask, reached from the
        seed cell by flipping across shared facets on the flippable planes.
        A cell's wall on plane h is a facet exactly when h is the only plane
        its 0-cells all lie on: a lower face lies in two facets, whose
        planes differ."""
        start = self.mask_for(seed_sigbits)
        if not start:
            raise RuntimeError("seed cell has no supporting 0-cells")
        tops = {seed_sigbits: start}
        queue = [seed_sigbits]
        zeros = self.zeros
        while queue:
            sig = queue.pop()
            mask = tops[sig]
            for hi in flippable:
                wall = mask & zeros[hi]
                if not wall:
                    continue
                other = sig ^ (1 << hi)
                if other in tops or (self.zero_plus(wall)[0]
                                     != self.plane_mask([hi])):
                    continue
                tops[other] = self.mask_for(other)
                queue.append(other)
        return tops

    def witness(self, mask):
        """The mean of the 0-cells in mask, a point of the cell's relative
        interior.  One Fraction is shared per (numerator sum, denominator)."""
        pts = [self.vnums[i] for i in _bit_indices(mask)]
        d = self.den * len(pts)
        fractions = self._fractions
        out = []
        for col in zip(*pts):
            key = (sum(col), d)
            x = fractions.get(key)
            if x is None:
                x = fractions[key] = Fraction(*key)
            out.append(x)
        return tuple(out)


# ---------------------------------------------------------------------------
# 0-cells: search by support and pairwise crossing walls.


def _crosses(s, t, full):
    """Walls s and t (bitmasks inside the support full) cut it into four
    nonempty parts: only such walls can meet inside the open hypersimplex."""
    return bool(s & t and s & ~t and t & ~s and full & ~(s | t))


def _open_vertices(k):
    """0-cells of the open D(k), as tuples of exact coordinates in (0, 1).

    Each complementary pair of walls within range(k) is kept as its member
    without the last coordinate, which the carrier chart eliminates; the
    wall then reads sum_{i in S} x_i = 1 with an indicator row.  Two
    distinct walls through one point of the open region cross, so the
    search only extends a wall subset by walls crossing all of it.
    """
    m = k - 1
    full = (1 << k) - 1
    walls = [s for s in weight_walls(k) if m not in s]
    bits = [sum(1 << i for i in s) for s in walls]
    rows = [(tuple(1 if i in s else 0 for i in range(m)), 1) for s in walls]
    crossing = [sum(1 << j for j, t in enumerate(bits) if _crosses(s, t, full))
                for s in bits]
    found = set()
    for x in _solutions(rows, m, crossing):
        x.append(2 - sum(x))
        if all(0 < v < 1 for v in x):
            found.add(tuple(x))
    return found


def _enumerate_vertices(n):
    """All 0-cells of the decomposition of D(n), as exact coordinate tuples.

    A 0-cell with a coordinate 1 is a vertex e_i + e_j of the hypersimplex.
    Any other 0-cell, restricted to its support F, is a 0-cell of the open
    D(|F|), and |F| >= 4 since the open D(3) meets no wall.
    """
    zero, one = Fraction(0), Fraction(1)
    found = [tuple(one if t in (i, j) else zero for t in range(n))
             for i, j in combinations(range(n), 2)]
    for k in range(4, n + 1):
        inner = _open_vertices(k)
        for support in combinations(range(n), k):
            for x in inner:
                v = [zero] * n
                for i, xi in zip(support, x):
                    v[i] = xi
                found.append(tuple(v))
    return sorted(found)


# ---------------------------------------------------------------------------
# The cell complex.


class ChamberComplex:
    """Full cell decomposition of D(n), cached per n.

    Cells are represented internally by the bitmask of 0-cells contained in
    their closure (see CellEngine); this identifies a cell uniquely and makes
    face extraction a bitwise intersection.
    """

    def __init__(self, n, interior_only=False):
        _check_n(n, MAX_CHAMBER_N)
        self.n = n
        self.interior_only = interior_only
        self.arrangement = build_arrangement(n)
        self._build()

    # -- construction -------------------------------------------------

    def _build(self):
        arr = self.arrangement
        self.vertices = _enumerate_vertices(self.n)
        self._cells = cells = CellEngine(
            [(h.normal, h.const) for h in arr.hyperplanes], self.vertices)
        sum_idx = [i for i, h in enumerate(arr.hyperplanes) if h.kind == "sum"]
        self._box = cells.plane_mask(i for i, h in enumerate(arr.hyperplanes)
                                     if h.kind != "sum")
        seed = cells.sigbits(generic_point(self.n, 1))
        top = cells.top_cells(seed, sum_idx)
        self._finalize(self._close_faces(top))

    def _close_faces(self, tops):
        """Walk every cell closure down to its faces via wall intersections.

        Returns mask -> (z, p), the plane masks of the planes the cell lies
        on and above (CellEngine.zero_plus).  With interior_only, cells on
        the boundary of D(n) are kept but not walked below.
        """
        cells = self._cells
        zeros = cells.zeros
        found = dict.fromkeys(tops.values())
        stack = list(found)
        while stack:
            mask = stack.pop()
            z, p = found[mask] = cells.zero_plus(mask)
            if self.interior_only and z & self._box:
                continue
            for zh in zeros:
                child = mask & zh
                if child and child != mask and child not in found:
                    found[child] = None
                    stack.append(child)
        return found

    def _finalize(self, found):
        n = self.n
        cells = self._cells
        flat_dim = {}
        records = []
        for mask, (z, p) in found.items():
            boundary = bool(z & self._box)
            if self.interior_only and boundary:
                continue
            dim = flat_dim.get(z)
            if dim is None:
                dim = flat_dim[z] = cells.rank(mask)
            records.append((dim, cells.signs(z, p), cells.witness(mask),
                            boundary, mask))
        records.sort(key=lambda r: (r[0], r[1]))
        self.chambers = []
        self.counts_by_dim = {}
        self._by_signs = {}
        self._mask_of = {}
        for idx, (dim, signs, witness, boundary, mask) in enumerate(records):
            ch = Chamber(n, signs, dim, witness, boundary, idx)
            self.chambers.append(ch)
            self.counts_by_dim[dim] = self.counts_by_dim.get(dim, 0) + 1
            self._by_signs[signs] = ch
            self._mask_of[signs] = mask

    @cached_property
    def adjacency(self):
        """Sorted (facet index, cell index) pairs: a facet of a cell is the
        cell's closure cut by a plane it does not lie on, one dim lower."""
        zeros = self._cells.zeros
        by_mask = {self._mask_of[ch.signs]: ch for ch in self.chambers}
        adj = set()
        for mask, ch in by_mask.items():
            for zh in zeros:
                face = by_mask.get(mask & zh)
                if face is not None and face.dim == ch.dim - 1:
                    adj.add((face.index, ch.index))
        return sorted(adj)

    # -- queries ------------------------------------------------------

    def locate(self, point):
        """The cell whose relative interior contains the given point of D(n)."""
        point = tuple(Fraction(x) for x in point)
        if len(point) != self.n:
            raise ValueError("point has wrong length")
        d, nums = scaled(point)
        if sum(nums) != 2 * d or any(x < 0 or x > d for x in nums):
            raise ValueError("point does not lie in D(%d)" % self.n)
        signs = self.arrangement.signs_at_scaled(d, nums)
        ch = self._by_signs.get(signs)
        if ch is None:
            box = [h.label for h, sign in zip(self.arrangement.hyperplanes, signs)
                   if h.kind != "sum" and sign == "0"]
            if self.interior_only and box:
                raise LookupError("point lies on the boundary of D(%d) (%s), "
                                  "which the interior-only complex leaves out"
                                  % (self.n, ", ".join(box)))
            raise LookupError("no enumerated cell matches the point's sign vector")
        return ch


@cached
def chamber_complex(n, interior_only=False):
    return ChamberComplex(n, interior_only=interior_only)


# ---------------------------------------------------------------------------
# Admissible polytopes and membership of chambers in their interiors.


@dataclass(frozen=True)
class AdmissiblePolytope:
    """FULL, a SECTION slice, or a CUTS region of D(n)."""

    n: int
    kind: str
    subsets: tuple  # tuple of sorted index tuples; empty for FULL
    dim: int

    @property
    def id(self):
        if self.kind == "FULL":
            return "FULL"
        body = "|".join("{" + ",".join(str(i + 1) for i in s) + "}" for s in self.subsets)
        return "%s%s" % (self.kind, body)


@cached
def _admissible(n):
    _check_n(n)
    accepted = [AdmissiblePolytope(n, "FULL", (), n - 1)]
    for h in build_arrangement(n).hyperplanes:
        if h.kind == "sum":
            accepted.append(AdmissiblePolytope(n, "SECTION",
                                               (tuple(sorted(h.subset)),), n - 2))
    box = _box(n, LT)
    subset_of = {sum(1 << i for i in s): s for s in weight_walls(n)}
    rejected = []

    def visit(fam):
        if not fam:
            return
        cand = AdmissiblePolytope(n, "CUTS", tuple(subset_of[m] for m in fam),
                                  n - 1)
        cons = box + [LinConstraint([1 if i in s else 0 for i in range(n)], LT, 1)
                      for s in cand.subsets]
        (accepted if lp_feasible(cons) is not None else rejected).append(cand)

    _families(list(subset_of), lambda a, b: not a & b, visit)
    return tuple(accepted), tuple(rejected)


def enumerate_admissible(n):
    """All admissible polytopes of D(n) with nonempty relative interior."""
    return list(_admissible(n)[0])


def rejected_cut_families(n):
    """CUTS candidates whose interior is empty, kept for the record."""
    return list(_admissible(n)[1])


def omega_set(chamber):
    """Ids of the admissible polytopes whose relative interior contains the cell.

    Every admissible interior lies in the open D(n), so a boundary cell is in
    none.  An interior cell is in FULL, in SECTION{S} when it lies on the
    wall S, and in CUTS{S_1..S_k} when it lies strictly below every S_j: its
    weight-wall signs decide each case.
    """
    if chamber.on_boundary:
        return ()
    walls, fixed, pairs = _chamber_wall_data(chamber)
    on = {walls[i] for i, _ in pairs}
    below = {walls[i] for i, sign in fixed.items() if sign == "-"}
    return tuple(sorted(
        p.id for p in _admissible(chamber.n)[0]
        if p.kind == "FULL" or (p.kind == "SECTION" and p.subsets[0] in on)
        or (p.kind == "CUTS" and below.issuperset(p.subsets))))
