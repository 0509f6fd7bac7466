"""Boundary strata and divisor combinatorics for compactified moduli of
weighted point configurations: stable-tree censuses, two-weight reduction
divisors, chain strata of the two-heavy-points compactification, the
permutohedron face lattice, and the wonderful blow-up building set.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial

MAX_TREE_N = 8
MAX_CENSUS_N = 13
MAX_LM_N = 8
MAX_PERM_M = 8

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


def _type_string(valences):
    return "x".join("M0%d" % v for v in sorted(valences, reverse=True))


# ---------------------------------------------------------------------------
# stable trees of the nodal boundary


@dataclass(frozen=True)
class StableTree:
    """A stable tree with legs 1..n, encoded by its splits.

    Each split is the sorted tuple of legs on the side not containing leg 1;
    the family is laminar (pairwise nested or disjoint) and each side of a
    split carries at least two legs.
    """

    n: int
    splits: tuple

    def __post_init__(self):
        canon = tuple(sorted((tuple(sorted(s)) for s in self.splits),
                             key=lambda s: (len(s), s)))
        object.__setattr__(self, "splits", canon)

    @property
    def codim(self):
        return len(self.splits)

    def _parents(self):
        # parent index for each split, -1 for maximal ones
        fam = self.splits
        order = sorted(range(len(fam)), key=lambda i: len(fam[i]))
        parent = [-1] * len(fam)
        for pos, i in enumerate(order):
            si = set(fam[i])
            for j in order[pos + 1:]:
                if len(fam[j]) > len(fam[i]) and si <= set(fam[j]):
                    parent[i] = j
                    break
        return parent

    def vertices(self):
        """Per-vertex leg tuples, root (leg 1 side) last."""
        fam = self.splits
        parent = self._parents()
        legs = [set(s) for s in fam]
        root = set(range(1, self.n + 1))
        for i, p in enumerate(parent):
            if p >= 0:
                legs[p] -= set(fam[i])
            else:
                root -= set(fam[i])
        return tuple(tuple(sorted(s)) for s in legs) + (tuple(sorted(root)),)

    def valences(self):
        fam = self.splits
        parent = self._parents()
        child_count = [0] * len(fam)
        child_size = [0] * len(fam)
        root_count = 0
        root_size = 0
        for i, p in enumerate(parent):
            if p >= 0:
                child_count[p] += 1
                child_size[p] += len(fam[i])
            else:
                root_count += 1
                root_size += len(fam[i])
        vals = [len(fam[i]) - child_size[i] + child_count[i] + 1
                for i in range(len(fam))]
        vals.append(self.n - root_size + root_count)
        return tuple(sorted(vals, reverse=True))

    def type_string(self):
        return _type_string(self.valences())


def _check_tree_n(n, hi=MAX_TREE_N):
    if not isinstance(n, int) or n < 4 or n > hi:
        raise ValueError("n must be an integer with 4 <= n <= %d" % hi)


def _split_masks(n):
    # bit i encodes leg i+2; sides of a split hold >= 2 legs each
    full = (1 << (n - 1)) - 1
    return [m for m in range(full + 1)
            if 2 <= m.bit_count() <= n - 2]


def _laminar_families(n, visit):
    """Drive visit over every laminar family of splits, smallest masks first."""
    cands = _split_masks(n)
    top = len(cands)
    after = []
    for i, a in enumerate(cands):
        mask = 0
        for j in range(i + 1, top):
            b = cands[j]
            c = a & b
            if not c or c == a or c == b:
                mask |= 1 << j
        after.append(mask)

    def rec(chosen, allowed):
        visit(chosen)
        m = allowed
        while m:
            low = m & -m
            j = low.bit_length() - 1
            m ^= low
            chosen.append(cands[j])
            rec(chosen, allowed & after[j])
            chosen.pop()

    rec([], (1 << top) - 1)


def _merge(a, b):
    """Product of two {(codim, valences): count} censuses of disjoint parts."""
    out = {}
    for (ca, va), na in a.items():
        for (cb, vb), nb in b.items():
            key = (ca + cb, tuple(sorted(va + vb, reverse=True)))
            out[key] = out.get(key, 0) + na * nb
    return out


@lru_cache(maxsize=None)
def _blocks(m, k):
    """Census of the ways to split m labelled legs into k unordered blocks,
    each carrying a rooted stable subtree (see _branch)."""
    if k == 0:
        return {(0, ()): 1} if m == 0 else {}
    out = {}
    # the block holding the smallest leg has s legs: C(m - 1, s - 1) choices
    for s in range(1, m - k + 2):
        ways = comb(m - 1, s - 1)
        for key, count in _merge(_branch(s), _blocks(m - s, k - 1)).items():
            out[key] = out.get(key, 0) + ways * count
    return out


@lru_cache(maxsize=None)
def _branch(m):
    """Census of what hangs below one edge carrying m legs: a bare leg when
    m = 1, else a vertex of valence j + 1 over j >= 2 blocks, the edge adding
    one to the codimension."""
    if m == 1:
        return {(0, ()): 1}
    out = {}
    for j in range(2, m + 1):
        for key, count in _merge({(1, (j + 1,)): 1}, _blocks(m, j)).items():
            out[key] = out.get(key, 0) + count
    return out


@lru_cache(maxsize=None)
def dm_valence_census(n):
    """Census of boundary strata keyed by (codim, valence multiset).

    Counts the stable trees without listing them, up to n = 13.  A tree
    hangs from leg 1: the vertex carrying leg 1 splits the other n - 1 legs
    into k >= 2 blocks and has valence k + 1, so the census is _branch(n - 1)
    with the edge above that vertex, which is leg 1, taken out of codim.
    """
    if not isinstance(n, int) or n < 3 or n > MAX_CENSUS_N:
        raise ValueError("n must be an integer with 3 <= n <= %d" % MAX_CENSUS_N)
    return dict(sorted(((codim - 1, vals), count)
                       for (codim, vals), count in _branch(n - 1).items()))


@dataclass(frozen=True)
class StrataCensus:
    n: int
    trees: tuple
    by_codim: dict
    by_type: dict

    @property
    def total(self):
        return len(self.trees)

    def chi_strata_sum(self):
        return sum(chi_stratum(t.valences()) for t in self.trees)


def _mask_to_split(mask):
    return tuple(i + 2 for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=None)
def dm_strata(n):
    """All boundary strata of the n-pointed space as stable trees, with
    censuses by codimension and by topological type."""
    _check_tree_n(n)
    trees = []

    def visit(fam):
        trees.append(StableTree(n, tuple(_mask_to_split(m) for m in sorted(fam))))

    _laminar_families(n, visit)
    trees.sort(key=lambda t: (t.codim, t.splits))
    by_codim = {}
    by_type = {}
    for t in trees:
        by_codim[t.codim] = by_codim.get(t.codim, 0) + 1
        ts = t.type_string()
        by_type[ts] = by_type.get(ts, 0) + 1
    return StrataCensus(n, tuple(trees), by_codim, by_type)


@lru_cache(maxsize=None)
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


def relabel_tree(perm, tree):
    """Push a permutation of {1..n} (0-indexed tuple) through a stable tree."""
    n = tree.n
    out = []
    for s in tree.splits:
        moved = {perm[i - 1] + 1 for i in s}
        if 1 in moved:
            moved = set(range(1, n + 1)) - moved
        out.append(tuple(sorted(moved)))
    return StableTree(n, tuple(out))


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

    A divisor splits the markings into I and J with leg 1 conventionally in
    J; it is contracted exactly when the I-side weight total drops to 1 or
    below, while both sides stay A-stable.
    """
    a = _weight_entries(a_weights)
    b = _weight_entries(b_weights)
    if len(a) != len(b):
        raise ValueError("weight vectors must have equal length")
    n = len(a)
    if n < 4:
        raise ValueError("need at least 4 points")
    for x, y in zip(a, b):
        if not (0 < y <= x <= 1):
            raise ValueError("weights not comparable: need 0 < b_i <= a_i <= 1")
    if sum(a) <= 2 or sum(b) <= 2:
        raise ValueError("weight totals must exceed 2")
    out = []
    for r in range(3, n):
        for i_set in combinations(range(1, n + 1), r):
            j_set = tuple(q for q in range(1, n + 1) if q not in i_set)
            if sum(b[q - 1] for q in i_set) > 1:
                continue
            if sum(a[q - 1] for q in i_set) <= 1:
                continue
            if sum(a[q - 1] for q in j_set) <= 1:
                continue
            out.append(DivisorRecord(i_set, j_set,
                                   "M0%d" % (r + 1), "M0%d" % (n - r + 1)))
    out.sort(key=lambda d: (len(d.i_set), d.i_set))
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

    def chi_term(self):
        return chi_stratum(c + 2 for c in self.cluster_counts())


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
    canon = set()
    for part in out:
        canon.add(tuple(sorted((tuple(sorted(b)) for b in part),
                               key=lambda b: b[0])))
    return sorted(canon)


def _ordered_partitions(elems):
    """All ordered set partitions (block order significant)."""
    elems = tuple(elems)
    if not elems:
        return [()]
    out = []
    indices = range(len(elems))
    for r in range(1, len(elems) + 1):
        for head_idx in combinations(indices, r):
            head = tuple(elems[i] for i in head_idx)
            rest = tuple(elems[i] for i in indices if i not in head_idx)
            for tail in _ordered_partitions(rest):
                out.append((head,) + tail)
    return out


def _check_lm_n(n):
    if not isinstance(n, int) or n < 4 or n > MAX_LM_N:
        raise ValueError("n must be an integer with 4 <= n <= %d" % MAX_LM_N)


@lru_cache(maxsize=None)
def lm_strata(n):
    """Every chain stratum for n markings with two heavy points, the open
    stratum included."""
    _check_lm_n(n)
    black = tuple(range(3, n + 1))
    out = []
    for blocks in _ordered_partitions(black):
        per_block = [_partitions_of(b) for b in blocks]
        for clusters in product(*per_block):
            out.append(LMChain(n, blocks, tuple(clusters)))
    out.sort(key=lambda c: (-c.dim, c.blocks, c.clusters))
    return tuple(out)


@dataclass(frozen=True)
class LMCensus:
    n: int
    by_dim: dict
    by_type: dict
    total: int
    chi: int


def lm_census(n):
    chains = lm_strata(n)
    by_dim = {}
    by_type = {}
    chi = 0
    for c in chains:
        by_dim[c.dim] = by_dim.get(c.dim, 0) + 1
        ts = c.type_string()
        by_type[ts] = by_type.get(ts, 0) + 1
        chi += c.chi_term()
    return LMCensus(n, by_dim, by_type, len(chains), chi)


def permute_lm_chain(perm, chain):
    """Relabel light markings; perm maps offsets 0..n-3 (markings 3..n)."""
    n = chain.n
    move = {i + 3: perm[i] + 3 for i in range(n - 2)}
    blocks = tuple(tuple(sorted(move[x] for x in b)) for b in chain.blocks)
    clusters = tuple(tuple(sorted((tuple(sorted(move[x] for x in cl))
                                   for cl in cls), key=lambda t: t[0]))
                     for cls in chain.clusters)
    return LMChain(n, blocks, clusters)


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
    on the three pair coordinates and keep those satisfying the defining
    bidegree relation, with representatives (0:1), (1:0), (1:1)."""
    rep = {ZERO: (0, 1), INF: (1, 0), ONE: (1, 1)}
    counts = {"total": 0, "extension": 0, "toric": 0, "toric_fixed": 0}
    for v34, v35, v45 in product((ZERO, INF, ONE), repeat=3):
        c34, d34 = rep[v34]
        c35, d35 = rep[v35]
        c45, d45 = rep[v45]
        if c34 * d35 * c45 != d34 * c35 * d45:
            continue
        counts["total"] += 1
        kinds = {v34, v35, v45}
        if kinds == {ONE}:
            counts["extension"] += 1
        else:
            counts["toric"] += 1
            if ONE not in kinds:
                counts["toric_fixed"] += 1
    return counts


# ---------------------------------------------------------------------------
# permutohedron faces


def fubini(k):
    total = 0
    for parts in range(1, k + 1):
        term = 0
        for split in _compositions(k, parts):
            term += _multinomial(split)
        total += term
    return total if k else 1


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial(sizes):
    out = 1
    left = sum(sizes)
    for s in sizes:
        out *= comb(left, s)
        left -= s
    return out


@dataclass(frozen=True)
class FaceCensus:
    m: int
    by_k: dict
    by_type: dict
    f_vector: tuple
    total: int


@lru_cache(maxsize=None)
def permutohedron_faces(m):
    """Face census of the m-dimensional permutohedron: faces correspond to
    ordered partitions of a ground set of size m+1, dim = m+1-k."""
    if not isinstance(m, int) or m < 0 or m > MAX_PERM_M:
        raise ValueError("m must be an integer with 0 <= m <= %d" % MAX_PERM_M)
    ground = m + 1
    by_k = {}
    by_type = {}
    for k in range(1, ground + 1):
        for sizes in _compositions(ground, k):
            count = _multinomial(sizes)
            by_k[k] = by_k.get(k, 0) + count
            key = tuple(sorted(sizes, reverse=True))
            by_type[key] = by_type.get(key, 0) + count
    f_vector = tuple(by_k[ground - d] for d in range(m + 1))
    return FaceCensus(m, by_k, by_type, f_vector, sum(by_k.values()))


# ---------------------------------------------------------------------------
# wonderful building set


@dataclass(frozen=True)
class IntersectionLocus:
    """A closed intersection of building generators: disjoint cliques of
    coincident pairs, each clique recorded by its vertex set."""

    n: int
    components: tuple

    def pair_set(self):
        out = set()
        for comp in self.components:
            out.update(combinations(comp, 2))
        return frozenset(out)

    def support_type(self):
        free = (self.n - 2) - sum(len(c) for c in self.components) \
            + len(self.components)
        return "F%d" % (free + 2)

    def is_point(self):
        return self.support_type() == "F3"

    def leq(self, other):
        """Containment of loci: finer forcing means a smaller locus."""
        return self.pair_set() >= other.pair_set()


def _closure_components(n, pairs):
    # connected components become cliques under the one-relation rule
    adj = {x: set() for x in range(3, n + 1)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    comps = []
    for x in range(3, n + 1):
        if x in seen or not adj[x]:
            continue
        stack = [x]
        comp = set()
        while stack:
            y = stack.pop()
            if y in comp:
                continue
            comp.add(y)
            stack.extend(adj[y] - comp)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


@dataclass(frozen=True)
class BuildingLattice:
    n: int
    generators: tuple
    elements: tuple

    def closure(self, gens):
        pairs = set()
        for g in gens:
            pairs.update(combinations(sorted(g), 2))
        return IntersectionLocus(self.n, _closure_components(self.n, pairs))


@lru_cache(maxsize=None)
def wonderful_building_set(n):
    """Closed intersections of the triple-coincidence generators: every
    family of disjoint cliques of size at least 3 inside the light set."""
    if not isinstance(n, int) or n < 5 or n > MAX_TREE_N:
        raise ValueError("n must be an integer with 5 <= n <= %d" % MAX_TREE_N)
    light = tuple(range(3, n + 1))
    generators = tuple(combinations(light, 3))
    pool = []
    for size in range(3, len(light) + 1):
        pool.extend(combinations(light, size))
    elements = []

    def rec(start, picked):
        if picked:
            elements.append(IntersectionLocus(n, tuple(picked)))
        for i in range(start, len(pool)):
            cand = pool[i]
            if all(not (set(cand) & set(p)) for p in picked):
                picked.append(cand)
                rec(i + 1, picked)
                picked.pop()

    rec(0, [])
    elements.sort(key=lambda e: (sum(len(c) for c in e.components),
                                 e.components))
    return BuildingLattice(n, generators, tuple(elements))


@dataclass(frozen=True)
class WonderfulCensus:
    n: int
    by_type: dict
    by_center_size: dict

    @property
    def total(self):
        return sum(self.by_type.values())


def wonderful_divisor_census(n):
    """One exceptional divisor per building-set element; the type pairs the
    blown-up center side with its complement, a point factor dropped."""
    if not isinstance(n, int) or n < 5 or n > 7:
        raise ValueError("n must be an integer with 5 <= n <= 7")
    lattice = wonderful_building_set(n)
    by_type = {}
    by_center = {}
    for elem in lattice.elements:
        if len(elem.components) != 1:
            raise RuntimeError("wonderful building-set element with %d components"
                               % len(elem.components))
        r = len(elem.components[0])
        factor_i = "F%d" % (r + 1)
        factor_j = "F%d" % (n - r + 1)
        key = factor_i if factor_j == "F3" else factor_i + "x" + factor_j
        by_type[key] = by_type.get(key, 0) + 1
        by_center[r] = by_center.get(r, 0) + 1
    return WonderfulCensus(n, by_type, by_center)
