"""Slow reference paths for the chamber complex and the boundary censuses,
kept as test oracles.

independent_cell_census finds the cells of D(n) by a route separate from
the cell engine.  finish_per_wall repeats the last half of the
ChamberComplex build the plain way: per-wall sign strings, one echelon rank
of the zero walls in the carrier chart (_reduced_rows) per cell, and the
face edges collected during the closure.
chamber_wall_data_per_wall translates a carrier chamber's signs to the
weight walls one wall at a time, through canonical_subset.
omega_from_wall_signs reads a cell's omega set off its weight-wall signs
alone, with no LP and no list of admissible polytopes.

lm_chain_tally walks the listed chain strata one by one, and
composition_faces the compositions of the permutohedron's ground set with
their multinomial weights; fubini and stirling2 are the closed recurrence
and formula for ordered and unordered set partitions.

The point tests in Fraction arithmetic: signs_at_fractions takes one
Fraction dot product per wall, interior_ids_fractions tests the open box
and the carrier sum once per point and sums each of the polytopes' walls
once (interior_contains_fractions for one polytope),
and semistable_profile_fractions walks restricted-growth strings with
Fraction block sums, builds each partition through the checking
constructor and sorts them.
comp_inverse_horner re-composes the partial inverse with f by Horner's
rule for every order.  census_sum_fractions sums a census route's terms
one Fraction product at a time, and reduction_divisors_fractions takes
three Fraction subset sums per subset.

fourier_motzkin_feasible decides a mixed strict and non-strict linear
system by eliminating one variable at a time, with no LP.

pair_graph_closure closes building generators through the graph of the
point pairs they force together, one depth-first search per component, and
pair_set_leq compares two loci by the sets of pairs they force: the oracles
of helpers.building_closure and helpers.locus_leq.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, lcm

from chamberkit.exactgeom import EQ, LT
from chamberkit.hypersimplex import (AdmissiblePolytope, _chamber_wall_data,
                                     _families, build_arrangement,
                                     canonical_subset, generic_point,
                                     weight_walls)
from chamberkit.ratutil import _rank
from chamberkit.series import ExpSeries
from chamberkit.strata import chi_stratum, lm_strata
from chamberkit.weights import CoincidencePartition


def independent_cell_census(n, max_rounds=None):
    """Cells of the decomposition found by midpoint saturation.

    0-cells come from brute-force subset elimination over all wall
    combinations, and representatives of higher cells are generated by
    saturating midpoints of (cell representative, 0-cell) pairs, which
    provably reaches every cell in at most dim(D(n)) rounds.

    Returns a dict mapping sign vector -> representative point.
    """
    if n > 6:
        raise ValueError("the census oracle is sized for n <= 6")
    arr = build_arrangement(n)
    planes = [(h.normal, h.const) for h in arr.hyperplanes]
    m = n - 1

    rows = []
    for normal, const in planes:
        an = normal[m]
        rows.append(tuple(normal[i] - an for i in range(m)) + (const - 2 * an,))

    verts = set()
    for combo in combinations(range(len(rows)), m):
        sol = _gauss_solve([list(rows[i]) for i in combo], m)
        if sol is None:
            continue
        full = tuple(sol) + (2 - sum(sol),)
        if all(0 <= x <= 1 for x in full):
            verts.add(full)
    verts = sorted(verts)

    def signs_of(nums, den):
        out = []
        for normal, const in planes:
            v = sum(a * b for a, b in zip(normal, nums)) - const * den
            out.append("0" if v == 0 else ("+" if v > 0 else "-"))
        return "".join(out)

    def encode(point):
        den = lcm(*(x.denominator for x in point))
        return tuple(int(x * den) for x in point), den

    reps = {}
    venc = []
    for v in verts:
        nums, den = encode(v)
        venc.append((nums, den))
        reps.setdefault(signs_of(nums, den), v)

    fresh = list(reps.items())
    rounds = max_rounds if max_rounds is not None else m + 1
    for _ in range(rounds):
        new = []
        for _, rep in fresh:
            rnums, rden = encode(rep)
            for vnums, vden in venc:
                den = 2 * rden * vden
                nums = tuple(rn * vden + vn * rden for rn, vn in zip(rnums, vnums))
                sig = signs_of(nums, den)
                if sig not in reps:
                    pt = tuple(Fraction(a, den) for a in nums)
                    reps[sig] = pt
                    new.append((sig, pt))
        if not new:
            break
        fresh = new
    return reps


def _gauss_solve(mat, m):
    """Solve an m x m system given as rows [c_1..c_m, rhs]; None if singular."""
    rows = [[Fraction(v) for v in r] for r in mat]
    for col in range(m):
        piv = next((i for i in range(col, m) if rows[i][col] != 0), -1)
        if piv < 0:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = rows[col]
        inv = prow[col]
        rows[col] = prow = [v / inv for v in prow]
        for i in range(m):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
    return [rows[i][m] for i in range(m)]


def _reduced_rows(arrangement):
    """Walls written in the carrier chart x_n = 2 - x_1 - ... - x_{n-1}."""
    n = arrangement.n
    m = n - 1
    rows = []
    for h in arrangement.hyperplanes:
        an = h.normal[m]
        rows.append((tuple(h.normal[i] - an for i in range(m)), h.const - 2 * an))
    return rows


def finish_per_wall(cc):
    """(chambers, counts_by_dim, adjacency) of cc rebuilt from its top cells
    with a per-wall sign loop, a rank per cell and an edge set.

    Chambers are (signs, dim, witness, on_boundary, index) tuples.
    """
    n = cc.n
    cells = cc._cells
    zeros, pos = cells.zeros, cells.pos
    planes = cc.arrangement.hyperplanes
    box = [hi for hi, h in enumerate(planes) if h.kind != "sum"]
    rows = _reduced_rows(cc.arrangement)

    def on_boundary(mask):
        return any(mask & zeros[hi] == mask for hi in box)

    def signs_of(mask):
        return "".join("0" if mask & zeros[hi] == mask
                       else ("+" if mask & pos[hi] else "-")
                       for hi in range(len(planes)))

    def witness(mask):
        pts = [cc.vertices[i] for i in range(len(cc.vertices)) if mask >> i & 1]
        return tuple(sum(col) / len(pts) for col in zip(*pts))

    sum_idx = [hi for hi, h in enumerate(planes) if h.kind == "sum"]
    tops = cells.top_cells(cells.sigbits(generic_point(n, 1)), sum_idx)
    seen = set(tops.values())
    stack = list(seen)
    edges = set()
    while stack:
        mask = stack.pop()
        if cc.interior_only and on_boundary(mask):
            continue
        for zh in zeros:
            child = mask & zh
            if not child or child == mask:
                continue
            edges.add((child, mask))
            if child not in seen:
                seen.add(child)
                stack.append(child)

    records = []
    dims = {}
    for mask in seen:
        boundary = on_boundary(mask)
        if cc.interior_only and boundary:
            continue
        signs = signs_of(mask)
        rank = _rank(rows[hi][0] for hi, s in enumerate(signs) if s == "0")
        dims[mask] = n - 1 - rank
        records.append((dims[mask], signs, witness(mask), boundary, mask))
    records.sort(key=lambda r: (r[0], r[1]))
    index = {r[4]: i for i, r in enumerate(records)}
    chambers = [(signs, dim, w, boundary, i)
                for i, (dim, signs, w, boundary, _) in enumerate(records)]
    counts = {}
    for dim, *_ in records:
        counts[dim] = counts.get(dim, 0) + 1
    adjacency = sorted({(index[c], index[p]) for c, p in edges
                        if c in index and p in index and dims[p] == dims[c] + 1})
    return chambers, counts, adjacency


def chamber_wall_data_per_wall(chamber):
    """(walls, fixed, pairs) of weights._chamber_wall_data, each weight wall
    translated through canonical_subset and located with walls.index."""
    n = chamber.n
    arr = build_arrangement(n)
    by_subset = {h.subset: s for h, s in zip(arr.hyperplanes, chamber.signs)
                 if h.kind == "sum"}
    walls = weight_walls(n)
    fixed = {}
    pairs = []
    for idx, s in enumerate(walls):
        canon = canonical_subset(n, s)
        sign = by_subset[canon]
        flip = canon != frozenset(s)
        if sign == "0":
            if not flip:
                comp = tuple(sorted(set(range(n)) - canon))
                pairs.append((idx, walls.index(comp)))
        else:
            fixed[idx] = ("+" if sign == "-" else "-") if flip else sign
    return walls, fixed, pairs


def omega_from_wall_signs(chamber):
    """omega_set(chamber) from the cell's weight-wall signs: () on the
    boundary of D(n); on an interior cell FULL, SECTION{S} for each zero
    pair (S, S^c), and CUTS{S_1..S_k} for every nonempty pairwise-disjoint
    family of weight walls that the cell lies strictly below.

    The cell's witness lies in the open box on the carrier and strictly
    below each S_j, so it is a strict feasible point of each such family's
    CUTS system: no LP is needed to admit the family.
    """
    if chamber.on_boundary:
        return ()
    n = chamber.n
    walls, fixed, pairs = _chamber_wall_data(chamber)
    ids = ["FULL"]
    ids += [AdmissiblePolytope(n, "SECTION", (walls[i],), n - 2).id
            for i, _ in pairs]
    below = {sum(1 << i for i in walls[w]): walls[w]
             for w in sorted(fixed) if fixed[w] == "-"}

    def visit(fam):
        if fam:
            subsets = tuple(below[m] for m in fam)
            ids.append(AdmissiblePolytope(n, "CUTS", subsets, n - 1).id)

    _families(list(below), lambda a, b: not a & b, visit)
    return tuple(sorted(ids))


def chi_term(chain):
    """Euler characteristic of one open chain stratum: a screen with c
    clusters is an open moduli space of c + 2 points."""
    return chi_stratum(c + 2 for c in chain.cluster_counts())


def lm_chain_tally(n):
    """(by_dim, by_type, total, chi) of the chain strata, chain by chain."""
    chains = lm_strata(n)
    by_dim = {}
    by_type = {}
    chi = 0
    for c in chains:
        by_dim[c.dim] = by_dim.get(c.dim, 0) + 1
        ts = c.type_string()
        by_type[ts] = by_type.get(ts, 0) + 1
        chi += chi_term(c)
    return by_dim, by_type, len(chains), chi


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


def composition_faces(m):
    """(by_k, by_type, f_vector) of the m-dimensional permutohedron: one
    face per ordered partition of m + 1 points, counted per composition of
    the block sizes."""
    ground = m + 1
    by_k = {}
    by_type = {}
    for k in range(1, ground + 1):
        for sizes in _compositions(ground, k):
            count = _multinomial(sizes)
            by_k[k] = by_k.get(k, 0) + count
            key = tuple(sorted(sizes, reverse=True))
            by_type[key] = by_type.get(key, 0) + count
    return by_k, by_type, tuple(by_k[ground - d] for d in range(m + 1))


def fubini(k):
    """Ordered set partitions of k points (OEIS A000670), by the recurrence
    a(k) = sum over j >= 1 of C(k, j) a(k - j): j points in the first block."""
    a = [1]
    for t in range(1, k + 1):
        a.append(sum(comb(t, j) * a[t - j] for j in range(1, t + 1)))
    return a[k]


def stirling2(s, c):
    """Set partitions of s points into c blocks, by inclusion-exclusion."""
    return sum((-1) ** i * comb(c, i) * (c - i) ** s
               for i in range(c + 1)) // factorial(c)


def value_sign(hyperplane, point):
    """-1, 0 or 1: the side of the wall a point lies on."""
    v = sum(a * x for a, x in zip(hyperplane.normal, point)) - hyperplane.const
    return 0 if v == 0 else (1 if v > 0 else -1)


def signs_at_fractions(arrangement, point):
    point = tuple(Fraction(x) for x in point)
    return "".join("0+-"[value_sign(h, point)] for h in arrangement.hyperplanes)


def interior_ids_fractions(polys, point):
    """Ids of the polytopes whose relative interior holds the point: the
    carrier sum and the open box are tested once, and each wall is summed
    once for every polytope it bounds."""
    point = tuple(Fraction(x) for x in point)
    if sum(point) != 2:
        return []
    if any(x <= 0 or x >= 1 for x in point):
        return []
    sums = {}

    def wall(s):
        if s not in sums:
            sums[s] = sum(point[i] for i in s)
        return sums[s]

    out = []
    for poly in polys:
        if poly.kind == "FULL":
            inside = True
        elif poly.kind == "SECTION":
            inside = wall(poly.subsets[0]) == 1
        else:
            inside = all(wall(s) < 1 for s in poly.subsets)
        if inside:
            out.append(poly.id)
    return out


def interior_contains_fractions(poly, point):
    return bool(interior_ids_fractions([poly], point))


def _truncated_product(a, b, n_max):
    out = [Fraction(0)] * (n_max + 1)
    for i, ai in enumerate(a[:n_max + 1]):
        for j, bj in enumerate(b[:n_max + 1 - i]):
            out[i + j] += ai * bj
    return out


def comp_inverse_horner(f):
    """g with g(f(x)) = x: g_n is minus the x^n coefficient of g_{<n}(f),
    composed by Horner's rule."""
    n_max = f.order
    fo = list(f.ordinary())
    g = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n_max - 1)
    for n in range(2, n_max + 1):
        comp = [Fraction(0)] * (n + 1)
        for c in reversed(g[:n]):
            comp = _truncated_product(comp, fo, n)
            comp[0] += c
        g[n] = -comp[n]
    return ExpSeries.from_ordinary(g[:n_max + 1])


def census_sum_fractions(f, strata, shift):
    """Per census dict keyed (grade, parts) -> count, the sum of count times
    the product of -a_{p - shift} over the parts, one Fraction per term."""
    out = []
    for census in strata:
        total = Fraction(0)
        for (_, parts), count in census.items():
            term = Fraction(count)
            for p in parts:
                term *= -f.coeffs[p - shift]
            total += term
        out.append(total)
    return out


def reduction_divisors_fractions(a, b):
    """(I, J) of the divisors contracted from the valid weights a down to b:
    B(I) <= 1 < A(I) and A(J) > 1, in the order of reduction_divisors."""
    n = len(a)
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
            out.append((i_set, j_set))
    return out


def semistable_profile_fractions(lin):
    """Coincidence partitions with every block sum at most 1, sorted."""
    t = lin.entries
    n = len(t)
    out = []

    def rec(i, assign, sums):
        if i == n:
            blocks = {}
            for j, b in enumerate(assign):
                blocks.setdefault(b, []).append(j + 1)
            out.append(CoincidencePartition(tuple(blocks.values())))
            return
        for b in range(len(sums)):
            if sums[b] + t[i] <= 1:
                sums[b] += t[i]
                rec(i + 1, assign + [b], sums)
                sums[b] -= t[i]
        if t[i] <= 1:
            sums.append(t[i])
            rec(i + 1, assign + [len(sums) - 1], sums)
            sums.pop()

    rec(0, [], [])
    return tuple(sorted(out, key=lambda p: p.blocks))


def _fm_row(coeffs, const, strict):
    """The row coeffs . x (< if strict else <=) const, divided by the size
    of its first nonzero coefficient so that equal rows compare equal."""
    lead = next((abs(a) for a in coeffs if a != 0), 1)
    return tuple(Fraction(a) / lead for a in coeffs), Fraction(const) / lead, strict


def fourier_motzkin_feasible(constraints):
    """Whether a mixed strict/non-strict system has a point, by
    Fourier-Motzkin elimination.  An equality becomes two inequalities.
    Eliminating x_k pairs every row with a positive x_k coefficient with
    every row with a negative one (the sum is strict when either row is);
    the system is feasible iff every row left, 0 (< or <=) const, holds."""
    rows = set()
    for c in constraints:
        rows.add(_fm_row(c.coeffs, c.const, c.rel == LT))
        if c.rel == EQ:
            rows.add(_fm_row([-a for a in c.coeffs], -c.const, False))
    for k in range(len(constraints[0].coeffs) if constraints else 0):
        pos = [r for r in rows if r[0][k] > 0]
        neg = [r for r in rows if r[0][k] < 0]
        rows = {r for r in rows if r[0][k] == 0}
        for (pa, pb, ps), (na, nb, ns) in product(pos, neg):
            f, g = -na[k], pa[k]
            rows.add(_fm_row([f * x + g * y for x, y in zip(pa, na)],
                             f * pb + g * nb, ps or ns))
    return all(b > 0 if strict else b >= 0 for _, b, strict in rows)


def pair_graph_closure(n, gens):
    """The components of a building-set closure: the pairs inside each
    generator are the edges of a graph on the light points 3..n, and each
    connected component with an edge becomes one clique."""
    adj = {x: set() for x in range(3, n + 1)}
    for g in gens:
        for a, b in combinations(sorted(g), 2):
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


def _pair_set(locus):
    return {pair for comp in locus.components
            for pair in combinations(comp, 2)}


def pair_set_leq(a, b):
    """a <= b as loci: a forces together every pair that b does."""
    return _pair_set(a) >= _pair_set(b)
