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
"""

from chamberkit.exactgeom import LE, HPolytope
from chamberkit.hypersimplex import _box, _check_n, weight_walls
from chamberkit.ratutil import scaled
from chamberkit.strata import LMChain, StableTree
from chamberkit.weights import (Linearisation, WeightVector, _to_fractions,
                                _unit_subset)

PAIR_OPTIONS = (("0", "+"), ("+", "0"), ("+", "+"), ("+", "-"), ("-", "+"))


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
