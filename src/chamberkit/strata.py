"""Boundary strata and divisor combinatorics for compactified moduli of
weighted point configurations: stable-tree censuses, two-weight reduction
divisors, chain strata of the two-heavy-points compactification, the
permutohedron face lattice, and the wonderful blow-up building set.

The nodal, chain and face censuses come out of one recursion (_blocks) as
dicts keyed (grade, parts) -> count, parts being valences or block sizes.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial

from .cache import cached
from .hypersimplex import _families
from .ratutil import scaled

MAX_TREE_N = 8
MAX_CENSUS_N = 13
MAX_PERM_M = 8
MAX_DIVISOR_N = 16

TORIC = "TORIC"
EXTENSION = "EXTENSION"

ZERO = "ZERO"
INF = "INF"
ONE = "ONE"
GENERIC = "GENERIC"


def chi_open_moduli(m):
    """Euler characteristic of the open moduli space of m distinct points."""
    if m < 3:
        raise ValueError("need at least 3 marked points")
    return (-1) ** (m - 3) * factorial(m - 3)


def chi_stratum(valences):
    """Euler characteristic of an open stratum: the product of the open
    moduli spaces at its vertices, one per valence."""
    prod = 1
    for v in valences:
        prod *= chi_open_moduli(v)
    return prod


def _check_range(value, lo, hi, name="n"):
    if not isinstance(value, int) or not lo <= value <= hi:
        raise ValueError("%s must be an integer with %d <= %s <= %d"
                         % (name, lo, name, hi))


def _type_string(valences):
    return "x".join("M0%d" % v for v in sorted(valences, reverse=True))


def tally(census):
    """(by grade, by type string, total, Euler sum) of a census keyed by
    (grade, valences), each open stratum a product of open moduli spaces."""
    by_grade = {}
    by_type = {}
    chi = 0
    for (grade, vals), count in census.items():
        by_grade[grade] = by_grade.get(grade, 0) + count
        ts = _type_string(vals)
        by_type[ts] = by_type.get(ts, 0) + count
        chi += count * chi_stratum(vals)
    return by_grade, by_type, sum(by_grade.values()), chi


# ---------------------------------------------------------------------------
# stable trees of the nodal boundary


@dataclass(frozen=True)
class StableTree:
    """A stable tree with legs 1..n, encoded by its splits.

    Each split is the sorted tuple of legs on the side not containing leg 1;
    the family is laminar (pairwise nested or disjoint) and each side of a
    split carries at least two legs; other families raise ValueError.  Each
    split is the edge above one vertex, which holds the split's legs that no
    smaller split holds; the root holds the rest, leg 1 among them.  A
    vertex's valence is its legs plus its edges.
    """

    n: int
    splits: tuple

    def __post_init__(self):
        canon = tuple(sorted((tuple(sorted(s)) for s in self.splits),
                             key=lambda s: (len(s), s)))
        object.__setattr__(self, "splits", canon)
        legs = set(range(2, self.n + 1))
        sides = [set(s) for s in canon]
        for i, side in enumerate(sides):
            if not (2 <= len(side) == len(canon[i]) <= self.n - 2
                    and side <= legs):
                raise ValueError("split %r is not 2 to %d distinct legs "
                                 "from 2..%d" % (canon[i], self.n - 2, self.n))
            for j in range(i + 1, len(sides)):
                # sorted by size: a later split contains side or misses it
                if not (side < sides[j] or side.isdisjoint(sides[j])):
                    raise ValueError("splits %r and %r are neither strictly "
                                     "nested nor disjoint"
                                     % (canon[i], canon[j]))

    @property
    def codim(self):
        return len(self.splits)

    def _walk(self):
        """Each vertex's legs and edge count: the vertex below split i at
        index i, the root (leg 1 side) last, at index -1.  The splits are
        sorted by size, so a split's parent is its first strict superset:
        walked largest first, the family being laminar, the last split seen
        holding the split's first leg."""
        fam = self.splits
        holder = [-1] * (self.n + 1)
        edges = [1] * len(fam) + [0]
        for i in range(len(fam) - 1, -1, -1):
            edges[holder[fam[i][0]]] += 1
            for x in fam[i]:
                holder[x] = i
        legs = [[] for _ in edges]
        for x in range(1, self.n + 1):
            legs[holder[x]].append(x)
        return legs, edges

    def vertices(self):
        """Per-vertex leg tuples, root (leg 1 side) last."""
        return tuple(map(tuple, self._walk()[0]))

    def valences(self):
        """Per-vertex valences, legs plus edges, largest first."""
        legs, edges = self._walk()
        return tuple(sorted((len(v) + e for v, e in zip(legs, edges)),
                            reverse=True))

    def type_string(self):
        return _type_string(self.valences())


def _split_masks(n):
    # bit i encodes leg i+2; sides of a split hold >= 2 legs each
    full = (1 << (n - 1)) - 1
    return [m for m in range(full + 1)
            if 2 <= m.bit_count() <= n - 2]


def _laminar_families(n, visit):
    """Drive visit over every laminar family of splits, smallest masks first."""
    _families(_split_masks(n), lambda a, b: a & b in (0, a, b), visit)


def _merge(a, b):
    """Product of two {(codim, valences): count} censuses of disjoint parts."""
    out = {}
    for (ca, va), na in a.items():
        for (cb, vb), nb in b.items():
            key = (ca + cb, tuple(sorted(va + vb, reverse=True)))
            out[key] = out.get(key, 0) + na * nb
    return out


@cached
def _blocks(m, k, carry):
    """Census of the ways to split m labelled legs into k unordered blocks,
    a block of s legs carrying the census carry(s).  Every boundary census
    is built from this one recursion, through the carry."""
    if k == 0:
        return {(0, ()): 1} if m == 0 else {}
    out = {}
    # the block holding the smallest leg has s legs: C(m - 1, s - 1) choices
    for s in range(1, m - k + 2):
        ways = comb(m - 1, s - 1)
        rest = _blocks(m - s, k - 1, carry)
        for key, count in _merge(carry(s), rest).items():
            out[key] = out.get(key, 0) + ways * count
    return out


def _ordered(m, carry):
    """As _blocks, over every number k of blocks, in each of their k!
    orders."""
    out = {}
    for k in range(1, m + 1):
        for key, count in _blocks(m, k, carry).items():
            out[key] = out.get(key, 0) + factorial(k) * count
    return out


@cached
def _branch(m):
    """Census of what hangs below one edge carrying m legs: a bare leg when
    m = 1, else a vertex of valence j + 1 over j >= 2 blocks, the edge adding
    one to the codimension."""
    if m == 1:
        return {(0, ()): 1}
    out = {}
    for j in range(2, m + 1):
        for key, count in _merge({(1, (j + 1,)): 1},
                                 _blocks(m, j, _branch)).items():
            out[key] = out.get(key, 0) + count
    return out


@cached
def dm_valence_census(n):
    """Census of boundary strata keyed by (codim, valence multiset).

    Counts the stable trees without listing them, up to n = 13.  A tree
    hangs from leg 1: the vertex carrying leg 1 splits the other n - 1 legs
    into k >= 2 blocks and has valence k + 1, so the census is _branch(n - 1)
    with the edge above that vertex, which is leg 1, taken out of codim.
    """
    _check_range(n, 3, MAX_CENSUS_N)
    return dict(sorted(((codim - 1, vals), count)
                       for (codim, vals), count in _branch(n - 1).items()))


def _mask_to_split(mask):
    return tuple(i + 2 for i in range(mask.bit_length()) if mask >> i & 1)


@cached
def dm_strata(n):
    """All boundary strata of the n-pointed space as stable trees, sorted by
    codimension, then splits; dm_valence_census counts them."""
    _check_range(n, 4, MAX_TREE_N)
    trees = []

    def visit(fam):
        trees.append(StableTree(n, tuple(_mask_to_split(m) for m in sorted(fam))))

    _laminar_families(n, visit)
    trees.sort(key=lambda t: (t.codim, t.splits))
    return tuple(trees)


@cached
def chi_mbar(n):
    """Euler characteristic of the compactified n-pointed space, via the
    universal-curve fibration over the (n-1)-pointed census."""
    if n == 3:
        return 1
    total = 0
    for (codim, vals), count in dm_valence_census(n - 1).items():
        # fiber over this stratum: nodal curve with codim+1 components
        total += count * chi_stratum(vals) * (codim + 2)
    return total


# ---------------------------------------------------------------------------
# reduction divisors between two weight levels


@dataclass(frozen=True)
class DivisorRecord:
    """A boundary divisor D_{I,J} contracted by a weight reduction."""

    i_set: tuple
    j_set: tuple
    factor_i: str
    factor_j: str

    def type_string(self):
        return self.factor_i + "x" + self.factor_j

    def label(self):
        return "D{%s}" % ",".join(map(str, self.i_set))


def _weight_entries(w):
    entries = getattr(w, "entries", w)
    return tuple(Fraction(t) for t in entries)


def reduction_divisors(a_weights, b_weights):
    """Divisors contracted by the reduction from weights A down to B <= A.

    A divisor splits the markings into I and J, I the side whose B-weight
    total drops to 1 or below; at most one side can, since B sums to more
    than 2.  It is contracted exactly when that happens while both sides
    stay A-stable.
    """
    a = _weight_entries(a_weights)
    b = _weight_entries(b_weights)
    if len(a) != len(b):
        raise ValueError("weight vectors must have equal length")
    n = len(a)
    if n < 4:
        raise ValueError("need at least 4 points")
    if n > MAX_DIVISOR_N:
        raise ValueError("reduction divisors guarded to n <= %d" % MAX_DIVISOR_N)
    for x, y in zip(a, b):
        if not (0 < y <= x <= 1):
            raise ValueError("weights not comparable: need 0 < b_i <= a_i <= 1")
    if sum(a) <= 2 or sum(b) <= 2:
        raise ValueError("weight totals must exceed 2")
    # integer numerators; J stays A-stable, as a(J) >= b(J) > 1 if b(I) <= 1
    (db, nb), (da, na) = scaled(b), scaled(a)
    out = []
    for r in range(3, n):
        for i_set, bs, a_s in zip(combinations(range(1, n + 1), r),
                                  combinations(nb, r), combinations(na, r)):
            if sum(bs) > db or sum(a_s) <= da:
                continue
            j_set = tuple(q for q in range(1, n + 1) if q not in i_set)
            out.append(DivisorRecord(i_set, j_set,
                                   "M0%d" % (r + 1), "M0%d" % (n - r + 1)))
    return out


# ---------------------------------------------------------------------------
# chain strata of the two-heavy-points boundary


@dataclass(frozen=True)
class LMChain:
    """An ordered chain stratum: blocks partition the light markings 3..n in
    screen order, and each block carries a coincidence partition into
    clusters."""

    n: int
    blocks: tuple
    clusters: tuple

    @property
    def k(self):
        return len(self.blocks)

    def cluster_counts(self):
        return tuple(len(c) for c in self.clusters)

    @property
    def dim(self):
        return sum(c - 1 for c in self.cluster_counts())

    def is_open(self):
        return self.k == 1 and len(self.clusters[0]) == len(self.blocks[0])

    def type_string(self):
        return _type_string(c + 2 for c in self.cluster_counts())


def _partitions_of(elems):
    """All set partitions, blocks sorted by least element."""
    if not elems:
        return [()]
    first, rest = elems[0], tuple(elems[1:])
    out = []
    for part in _partitions_of(rest):
        for i, block in enumerate(part):
            out.append(part[:i] + ((first,) + block,) + part[i + 1:])
        out.append(((first,),) + part)
    return sorted(tuple(sorted(part)) for part in out)


def _ordered_partitions(elems):
    """All ordered set partitions: every block order of every partition."""
    return [order for part in _partitions_of(tuple(elems))
            for order in permutations(part)]


@cached
def lm_strata(n):
    """Every chain stratum for n markings with two heavy points, the open
    stratum included."""
    _check_range(n, 4, MAX_TREE_N)
    black = tuple(range(3, n + 1))
    out = []
    for blocks in _ordered_partitions(black):
        per_block = [_partitions_of(b) for b in blocks]
        for clusters in product(*per_block):
            out.append(LMChain(n, blocks, tuple(clusters)))
    out.sort(key=lambda c: (-c.dim, c.blocks, c.clusters))
    return tuple(out)


def _point(s):
    """A block that carries nothing, so that _blocks counts set partitions."""
    return {(0, ()): 1}


def _screen(s):
    """Census of one screen of a chain holding s light legs: c clusters,
    S(s, c) ways, give dimension c - 1 and a vertex of valence c + 2."""
    return {(c - 1, (c + 2,)): _blocks(s, c, _point)[(0, ())]
            for c in range(1, s + 1)}


@cached
def lm_census(n):
    """(dim, valences) census of the chain strata, not listed: the light
    legs 3..n split into screens in order, each screen into clusters."""
    _check_range(n, 4, MAX_CENSUS_N)
    return dict(sorted(_ordered(n - 2, _screen).items()))


# ---------------------------------------------------------------------------
# degeneration labels


@dataclass(frozen=True)
class DegenerationLabel:
    """Values of the pair coordinates lambda_ij, 3 <= i < j <= n."""

    n: int
    values: tuple

    def value(self, i, j):
        for (a, b), v in self.values:
            if (a, b) == (i, j):
                return v
        raise KeyError((i, j))


def degeneration_label(chain):
    """Pair degenerations read off a chain: earlier block kills lambda,
    shared clusters pin it at 1."""
    n = chain.n
    pos = {}
    clus = {}
    for bi, b in enumerate(chain.blocks):
        for x in b:
            pos[x] = bi
    for cls in chain.clusters:
        for ci, cl in enumerate(cls):
            for x in cl:
                clus[x] = (pos[x], ci)
    vals = []
    for i, j in combinations(range(3, n + 1), 2):
        if pos[i] < pos[j]:
            v = ZERO
        elif pos[i] > pos[j]:
            v = INF
        elif clus[i] == clus[j]:
            v = ONE
        else:
            v = GENERIC
        vals.append(((i, j), v))
    return DegenerationLabel(n, tuple(vals))


_PRODUCTS = {
    (ZERO, ZERO): {ZERO},
    (ZERO, ONE): {ZERO},
    (ZERO, GENERIC): {ZERO},
    (ZERO, INF): {ZERO, INF, ONE, GENERIC},
    (INF, INF): {INF},
    (INF, ONE): {INF},
    (INF, GENERIC): {INF},
    (ONE, ONE): {ONE},
    (ONE, GENERIC): {GENERIC},
    (GENERIC, GENERIC): {ONE, GENERIC},
}


def _lambda_product(a, b):
    return _PRODUCTS.get((a, b)) or _PRODUCTS[(b, a)]


def label_is_consistent(label):
    """Check lambda_ij * lambda_jk = lambda_ik on every triple."""
    for i, j, k in combinations(range(3, label.n + 1), 3):
        if label.value(i, k) not in _lambda_product(label.value(i, j),
                                                    label.value(j, k)):
            return False
    return True


def classify_outgrowth(s):
    """Split a boundary stratum into the toric part (some pair coordinate
    fully degenerates) or the extension part (coincidences only)."""
    if isinstance(s, LMChain):
        if s.is_open():
            raise ValueError("open stratum is not an outgrowth")
        return EXTENSION if s.k == 1 else TORIC
    if isinstance(s, DegenerationLabel):
        vals = {v for _, v in s.values}
        if vals <= {GENERIC}:
            raise ValueError("open stratum is not an outgrowth")
        return TORIC if (ZERO in vals or INF in vals) else EXTENSION
    raise TypeError("expected an LMChain or DegenerationLabel")


def lm_point_label_census_n5():
    """Independent point count for n = 5: walk all fully degenerate labels
    on the three pair coordinates and keep those that label_is_consistent
    accepts (lambda34 * lambda45 = lambda35)."""
    counts = {"total": 0, "extension": 0, "toric": 0, "toric_fixed": 0}
    for vals in product((ZERO, INF, ONE), repeat=3):
        label = DegenerationLabel(5, tuple(zip(((3, 4), (3, 5), (4, 5)), vals)))
        if not label_is_consistent(label):
            continue
        counts["total"] += 1
        kinds = set(vals)
        if kinds == {ONE}:
            counts["extension"] += 1
        else:
            counts["toric"] += 1
            if ONE not in kinds:
                counts["toric_fixed"] += 1
    return counts


# ---------------------------------------------------------------------------
# permutohedron faces


def _face(s):
    """One block of s ground points in an ordered partition, grade 1."""
    return {(1, (s,)): 1}


@cached
def permutohedron_faces(m):
    """Face census of the m-dimensional permutohedron, keyed (k, sizes): a
    face is an ordered partition of m + 1 points into k blocks of the given
    sizes, largest first, and has dimension m + 1 - k."""
    _check_range(m, 0, MAX_PERM_M, "m")
    return _ordered(m + 1, _face)


# ---------------------------------------------------------------------------
# wonderful building set


@dataclass(frozen=True)
class IntersectionLocus:
    """A closed intersection of building generators: the light points in
    each of its disjoint cliques coincide, each clique recorded by its
    sorted points."""

    n: int
    components: tuple


@dataclass(frozen=True)
class BuildingLattice:
    n: int
    generators: tuple
    elements: tuple


@cached
def wonderful_building_set(n):
    """Closed intersections of the triple-coincidence generators: every
    family of disjoint cliques of size at least 3 inside the light set."""
    _check_range(n, 5, MAX_TREE_N)
    light = tuple(range(3, n + 1))
    generators = tuple(combinations(light, 3))
    clique_of = {sum(1 << x for x in c): c for size in range(3, len(light) + 1)
                 for c in combinations(light, size)}
    elements = []

    def visit(fam):
        if fam:
            elements.append(IntersectionLocus(n, tuple(clique_of[m] for m in fam)))

    _families(list(clique_of), lambda a, b: not a & b, visit)
    elements.sort(key=lambda e: (sum(len(c) for c in e.components),
                                 e.components))
    return BuildingLattice(n, generators, tuple(elements))


def wonderful_divisor_census(n):
    """Exceptional divisors counted by type, one per building-set element:
    the blown-up center side with its complement, a point factor dropped."""
    _check_range(n, 5, 7)
    lattice = wonderful_building_set(n)
    by_type = {}
    for elem in lattice.elements:
        if len(elem.components) != 1:
            raise RuntimeError("wonderful building-set element with %d components"
                               % len(elem.components))
        r = len(elem.components[0])
        factor_i = "F%d" % (r + 1)
        factor_j = "F%d" % (n - r + 1)
        key = factor_i if factor_j == "F3" else factor_i + "x" + factor_j
        by_type[key] = by_type.get(key, 0) + 1
    return by_type
