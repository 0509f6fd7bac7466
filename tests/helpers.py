"""Helpers that only the tests call.

permute_point, permute_weight_signs, relabel_tree and permute_lm_chain push
a permutation of the points through a point of D(n), a weight-wall sign
string, a stable tree and a chain stratum, for the equivariance checks.
delete_coordinate and rescale_to_carrier move a weight vector onto the
carrier sum 2, coarse_walls is the strict window of subset walls, and
hypersimplex_polytope is D(n) as an H-polytope for the exact LP.
has_unit_subset asks whether some subset of a weight vector sums to 1, and
PAIR_OPTIONS are the five sign pairs a pair of walls through a carrier cell
can take in a weight-domain cell whose closure holds it.

Queries that the library answers for no command take their object first:
chamber_by_signs, chamber_vertices and sample_relative_interior on a
ChamberComplex; building_closure on a BuildingLattice; locus_support_type,
locus_is_point and locus_leq on an IntersectionLocus; center_sizes counts a
building set's elements by clique size.  POLY_ZERO is the empty PolySum.
grade_counts sums a census dict, keyed (grade, parts) -> count, by grade:
the permutohedron's faces by number of blocks, say.
"""

import random
from fractions import Fraction

from chamberkit.exactgeom import LE, HPolytope
from chamberkit.hypersimplex import _bit_indices, _box, _check_n, weight_walls
from chamberkit.ratutil import scaled
from chamberkit.series import PolySum
from chamberkit.strata import IntersectionLocus, LMChain, StableTree
from chamberkit.weights import (Linearisation, WeightVector, _to_fractions,
                                _unit_subset)

PAIR_OPTIONS = (("0", "+"), ("+", "0"), ("+", "+"), ("+", "-"), ("-", "+"))

POLY_ZERO = PolySum(())


def permute_point(perm, point):
    """Push a point forward along a coordinate permutation i -> perm[i]."""
    out = [None] * len(point)
    for i, x in enumerate(point):
        out[perm[i]] = x
    return tuple(out)


def permute_weight_signs(n, perm, signs):
    """Push a weight-wall sign string forward along a coordinate permutation."""
    walls = weight_walls(n)
    index = {w: i for i, w in enumerate(walls)}
    out = [None] * len(walls)
    for i, s in enumerate(walls):
        img = tuple(sorted(perm[j] for j in s))
        out[index[img]] = signs[i]
    return "".join(out)


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


def permute_lm_chain(perm, chain):
    """Relabel light markings; perm maps offsets 0..n-3 (markings 3..n)."""
    n = chain.n
    move = {i + 3: perm[i] + 3 for i in range(n - 2)}
    blocks = tuple(tuple(sorted(move[x] for x in b)) for b in chain.blocks)
    clusters = tuple(tuple(sorted((tuple(sorted(move[x] for x in cl))
                                   for cl in cls), key=lambda t: t[0]))
                     for cls in chain.clusters)
    return LMChain(n, blocks, clusters)


def delete_coordinate(L, q):
    """Forget the q-th point (1-based) and renormalize back to total 2."""
    if not isinstance(L, Linearisation):
        L = Linearisation(L)
    if not 1 <= q <= L.n:
        raise ValueError("coordinate out of range")
    rest = [t for i, t in enumerate(L.entries) if i != q - 1]
    total = sum(rest)
    return Linearisation([2 * t / total for t in rest])


def rescale_to_carrier(A):
    """b_i = 2 a_i / sum(a); accepts any positive vector with sum >= 2."""
    if isinstance(A, (WeightVector, Linearisation)):
        vals = A.entries
    else:
        vals = _to_fractions(A, "weight vector")
    total = sum(vals)
    if total < 2:
        raise ValueError("total weight below 2 cannot be rescaled to the carrier")
    return Linearisation([2 * a / total for a in vals])


def coarse_walls(n):
    """The strict window 2 < |S| < n-2; empty for n = 5 as literally stated."""
    return tuple(s for s in weight_walls(n) if 2 < len(s) < n - 2)


def hypersimplex_polytope(n):
    """D(n) as an H-polytope in the ambient coordinates."""
    _check_n(n)
    return HPolytope(n, tuple(_box(n, LE)))


def has_unit_subset(entries):
    """True when some nonempty proper subset of the entries sums to 1."""
    d, t = scaled(entries)
    return _unit_subset(t, d, range(1, len(t) // 2 + 1)) is not None


def chamber_by_signs(cc, signs):
    return cc._by_signs.get(signs)


def chamber_vertices(cc, chamber):
    """The exact 0-cells spanning the closure of a cell."""
    return [cc.vertices[i] for i in _bit_indices(cc._mask_of[chamber.signs])]


def sample_relative_interior(cc, chamber, count, seed=0):
    """Deterministic exact samples from a cell's relative interior."""
    verts = chamber_vertices(cc, chamber)
    rng = random.Random(0xA11CE + seed + 7919 * chamber.index)
    points = []
    for _ in range(count):
        weights = [rng.randint(1, 97) for _ in verts]
        total = sum(weights)
        pt = tuple(sum(Fraction(w) * v[j] for w, v in zip(weights, verts)) / total
                   for j in range(cc.n))
        points.append(pt)
    return points


def building_closure(lattice, gens):
    """The intersection of the generators' loci: points forced together
    by one generator coincide, so generators that share a point merge
    into one clique."""
    light = set(range(3, lattice.n + 1))
    cliques = []
    for g in gens:
        merged = set(g)
        if not merged <= light:
            raise ValueError("generator %r leaves the light points 3..%d"
                             % (tuple(g), lattice.n))
        for c in [c for c in cliques if c & merged]:
            merged |= c
            cliques.remove(c)
        cliques.append(merged)
    return IntersectionLocus(lattice.n, tuple(sorted(
        tuple(sorted(c)) for c in cliques if len(c) > 1)))


def locus_support_type(locus):
    free = (locus.n - 2) - sum(len(c) for c in locus.components) \
        + len(locus.components)
    return "F%d" % (free + 2)


def locus_is_point(locus):
    return locus_support_type(locus) == "F3"


def locus_leq(locus, other):
    """Containment of loci: finer forcing means a smaller locus, so
    each clique of other lies inside a clique of locus."""
    return all(any(set(c) <= set(d) for d in locus.components)
               for c in other.components)


def center_sizes(lattice):
    """{r: count} of the building set's elements, each one clique of r
    points: the blown-up centers of the wonderful divisors by size."""
    out = {}
    for elem in lattice.elements:
        r = len(elem.components[0])
        out[r] = out.get(r, 0) + 1
    return out


def grade_counts(census):
    """{grade: count} of a census keyed (grade, parts) -> count."""
    out = {}
    for (grade, _), count in census.items():
        out[grade] = out.get(grade, 0) + count
    return out
