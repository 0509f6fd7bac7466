import gc
import random
from fractions import Fraction as F
from itertools import combinations
from math import gcd, lcm

import pytest

from chamberkit import hypersimplex as hs
from chamberkit.exactgeom import EQ, LinConstraint, eq, ge, gt, le, lp_feasible, lt
from chamberkit.hypersimplex import (ChamberComplex, _enumerate_vertices,
                                     build_arrangement, chamber_complex,
                                     enumerate_admissible, generic_point,
                                     omega_set, rejected_cut_families,
                                     weight_walls)
from chamberkit.weights import _fine_planes, _fine_vertices
from cell_oracles import (_reduced_rows, finish_per_wall,
                          independent_cell_census,
                          interior_contains_fractions, interior_ids_fractions,
                          omega_from_wall_signs, signs_at_fractions)
from helpers import hypersimplex_polytope, permute_point

EXAMPLE_POINT = (F(3, 5), F(1, 3), F(2, 5), F(1, 3), F(1, 3))


def _enumerate_vertices_oracle(arrangement):
    """0-cells by depth-first search over every independent (n-1)-subset of
    all walls, kept if the solution lies in D(n)."""
    n = arrangement.n
    m = n - 1
    rows = _reduced_rows(arrangement)
    H = len(rows)
    found = {}

    def solve(ech, pivs):
        x = [None] * m
        for (co, rh), p in reversed(list(zip(ech, pivs))):
            s = F(rh)
            for j, c in enumerate(co):
                if c and j != p:
                    s -= c * x[j]
            x[p] = s / co[p]
        return x

    def recurse(start, ech, pivs):
        depth = len(ech)
        if depth == m:
            x = solve(ech, pivs)
            last = 2 - sum(x)
            if all(0 <= v <= 1 for v in x) and 0 <= last <= 1:
                found[tuple(x) + (last,)] = True
            return
        for i in range(start, H - (m - depth) + 1):
            co, rh = rows[i]
            co = list(co)
            for (eco, erh), p in zip(ech, pivs):
                f = co[p]
                if f:
                    ep = eco[p]
                    co = [a * ep - f * b for a, b in zip(co, eco)]
                    rh = rh * ep - f * erh
            piv = next((j for j, c in enumerate(co) if c), -1)
            if piv < 0:
                continue
            g = abs(rh)
            for c in co:
                g = gcd(g, abs(c))
            if g > 1:
                co = [c // g for c in co]
                rh //= g
            recurse(i + 1, ech + [(tuple(co), rh)], pivs + [piv])

    recurse(0, [], [])
    return sorted(found)


def test_arrangement_counts():
    assert len(build_arrangement(4).hyperplanes) == 11
    assert len(build_arrangement(5).hyperplanes) == 20
    assert len(build_arrangement(6).hyperplanes) == 37


def test_arrangement_restriction_dedup():
    # restricted to the carrier, all walls must be pairwise distinct
    for n in (4, 5, 6):
        arr = build_arrangement(n)
        seen = set()
        for h in arr.hyperplanes:
            an = h.normal[n - 1]
            key = (tuple(h.normal[i] - an for i in range(n - 1)), h.const - 2 * an)
            assert key not in seen
            seen.add(key)


def test_arrangement_canonical_order():
    arr = build_arrangement(5)
    kinds = [h.kind for h in arr.hyperplanes]
    assert kinds == ["sum"] * 10 + ["x0"] * 5 + ["x1"] * 5
    subsets = [tuple(sorted(h.subset)) for h in arr.hyperplanes[:10]]
    assert subsets == sorted(subsets)


def test_rejects_small_n():
    with pytest.raises(ValueError):
        build_arrangement(3)
    with pytest.raises(ValueError):
        build_arrangement(12)


def test_symmetric_point_n4():
    cc = chamber_complex(4)
    ch = cc.locate((F(1, 2),) * 4)
    zero_sums = [h.label for h in ch.zero_walls(cc.arrangement) if h.kind == "sum"]
    assert len(zero_sums) == 3
    assert ch.dim == 0


def test_example_chamber():
    cc = chamber_complex(5)
    ch = cc.locate(EXAMPLE_POINT)
    assert ch.dim == 3
    zero = ch.zero_walls(cc.arrangement)
    assert [h.label for h in zero] == ["sum{1,3}=1"]
    for h, s in zip(cc.arrangement.hyperplanes, ch.signs):
        if h.kind == "sum" and h.subset != frozenset({0, 2}):
            assert s == "-"
    assert not ch.on_boundary


def test_census_matches_independent_oracle():
    for n in (4, 5):
        cells = chamber_complex(n).chambers
        reps = independent_cell_census(n)
        assert {c.signs for c in cells} == set(reps)


def test_vertices_match_oracle():
    sizes = {}
    for n in (4, 5, 6):
        fast = _enumerate_vertices(n)
        assert fast == _enumerate_vertices_oracle(build_arrangement(n))
        sizes[n] = len(fast)
    assert sizes == {4: 7, 5: 20, 6: 142}


def test_fine_vertices_on_carrier_match_vertices():
    # the unfiltered search of the weight region, cut back to sum = 2, finds
    # the same 0-cells as the crossing-wall search of D(n)
    sizes = {}
    for n in (4, 5):
        fine = _fine_vertices(_fine_planes(n), n)
        carrier = [v for v in fine if sum(v) == 2]
        assert carrier == _enumerate_vertices(n)
        sizes[n] = (len(carrier), len(fine))
    assert sizes == {4: (7, 16), 5: (20, 137)}


def test_vertex_rank_matches_wall_dimension():
    # dim from the walls through a cell against the affine rank of its 0-cells
    for n in (4, 5):
        cc = chamber_complex(n)
        for ch in cc.chambers:
            assert cc._cells.rank(cc._mask_of[ch.signs]) == ch.dim


def _facet_rule_census(cells, seed, flippable, dim):
    """(top cells, facet walls, lower walls) of the engine's search, after
    checking on every nonempty flippable wall of every top cell that the
    plane-mask rule agrees with the affine rank of the wall's 0-cells."""
    tops = cells.top_cells(seed, flippable)
    facets = lower = 0
    for mask in tops.values():
        for hi in flippable:
            wall = mask & cells.zeros[hi]
            if not wall:
                continue
            by_mask = cells.zero_plus(wall)[0] == cells.plane_mask([hi])
            assert by_mask == (cells.rank(wall) == dim - 1)
            facets += by_mask
            lower += not by_mask
    return len(tops), facets, lower


def test_facet_rule_matches_wall_rank():
    # a wall of a top cell is a facet exactly when its 0-cells lie on its
    # plane alone: checked against the rank rule on D(4..6) and D(0,4..5)
    found = {}
    for n in (4, 5, 6):
        cc = chamber_complex(n)
        sum_idx = [i for i, h in enumerate(cc.arrangement.hyperplanes)
                   if h.kind == "sum"]
        found["D(%d)" % n] = _facet_rule_census(
            cc._cells, cc._cells.sigbits(generic_point(n, 1)), sum_idx, n - 1)
    for n in (4, 5):
        planes = _fine_planes(n)
        cells = hs.CellEngine(planes, _fine_vertices(planes, n))
        found["D(0,%d)" % n] = _facet_rule_census(
            cells, cells.sigbits(generic_point(n, 3)),
            range(len(weight_walls(n))), n)
    assert found == {"D(4)": (8, 24, 0), "D(5)": (76, 360, 360),
                     "D(6)": (1678, 11280, 22940), "D(0,4)": (27, 108, 54),
                     "D(0,5)": (1087, 7180, 11280)}


@pytest.mark.parametrize("interior_only", [False, True])
def test_complex_matches_oracle_vertex_build(monkeypatch, interior_only):
    fast = chamber_complex(5, interior_only)
    monkeypatch.setattr(hs, "_enumerate_vertices",
                        lambda n: _enumerate_vertices_oracle(build_arrangement(n)))
    slow = ChamberComplex(5, interior_only)
    assert fast.vertices == slow.vertices
    assert fast.chambers == slow.chambers  # signs, dim, witness, boundary, index
    assert fast.adjacency == slow.adjacency


@pytest.mark.parametrize("interior_only", [False, True])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_finish_matches_per_wall_oracle(n, interior_only):
    # plane masks per 0-cell, one rank per flat and adjacency on demand
    # against per-wall signs, a rank per cell and the closure's edge set
    cc = chamber_complex(n, interior_only)
    chambers, counts, adjacency = finish_per_wall(cc)
    assert [(c.signs, c.dim, c.witness, c.on_boundary, c.index)
            for c in cc.chambers] == chambers
    assert cc.counts_by_dim == counts
    assert cc.adjacency == adjacency


@pytest.mark.parametrize("n", range(4, 9))
def test_generic_points_lie_on_no_wall(n):
    # the carrier seed: a point of the open D(n) on no plane of the arrangement
    x = generic_point(n, 1)
    assert sum(x) == 2 and all(0 < v < 1 for v in x)
    assert "0" not in build_arrangement(n).signs_at(x)
    # the weight-domain seed: a point of the open D(0,n) on no weight wall
    y = generic_point(n, 3)
    assert sum(y) > 2 and all(0 < v < 1 for v in y)
    assert all(sum(y[i] for i in s) != 1 for s in hs.weight_walls(n))


def test_cell_counts_frozen():
    # counts certified by the independent midpoint-saturation oracle
    by_dim = {}
    for c in chamber_complex(4).chambers:
        by_dim[c.dim] = by_dim.get(c.dim, 0) + 1
    assert by_dim == {0: 7, 1: 18, 2: 20, 3: 8}
    by_dim = {}
    for c in chamber_complex(5).chambers:
        by_dim[c.dim] = by_dim.get(c.dim, 0) + 1
    assert by_dim == {0: 20, 1: 110, 2: 240, 3: 225, 4: 76}


@pytest.mark.parametrize("interior_only", [False, True])
def test_counts_by_dim_match_tally(interior_only):
    for n in (4, 5, 6):
        cc = chamber_complex(n, interior_only)
        tally = {}
        for c in cc.chambers:
            tally[c.dim] = tally.get(c.dim, 0) + 1
        assert cc.counts_by_dim == tally
        assert list(cc.counts_by_dim) == sorted(tally)


def test_euler_characteristics():
    for n in (4, 5):
        cells = chamber_complex(n).chambers
        full = sum((-1) ** c.dim for c in cells)
        assert full == 1
        interior = sum((-1) ** c.dim for c in cells if not c.on_boundary)
        assert interior == (-1) ** (n - 1)


def test_witness_realizes_signs():
    cc = chamber_complex(4)
    for ch in cc.chambers:
        assert cc.arrangement.signs_at(ch.witness) == ch.signs


def test_dimension_dichotomy():
    for ch in chamber_complex(5).chambers:
        assert 0 <= ch.dim <= 4
        if not ch.on_boundary:
            sums = [s for h, s in zip(build_arrangement(5).hyperplanes, ch.signs)
                    if h.kind == "sum"]
            if "0" not in sums:
                assert ch.dim == 4


def test_partition_property():
    # random rational points of D(5) land in exactly one enumerated cell
    cc = chamber_complex(5)
    rng = random.Random(4242)
    hits = 0
    while hits < 40:
        raw = [F(rng.randint(1, 60)) for _ in range(5)]
        pt = tuple(2 * r / sum(raw) for r in raw)
        if any(x >= 1 for x in pt):
            continue
        hits += 1
        ch = cc.locate(pt)
        assert cc.arrangement.signs_at(pt) == ch.signs


def _coprime_denominators(rng, count):
    qs = []
    while len(qs) < count:
        q = 10 ** 12 + rng.randrange(10 ** 6)
        if all(gcd(q, p) == 1 for p in qs):
            qs.append(q)
    return qs


def _large_denominator_point(rng, n, wall):
    """A point of the open D(n), on the given wall when one is given (0-based
    subset), else generic.  Each part of the split shares its total in
    near-equal shares over pairwise coprime denominators near 10**12; the
    last coordinate of a part takes the remainder."""
    qs = _coprime_denominators(rng, n)
    parts = [(tuple(range(n)), 2)] if wall is None else [
        (wall, 1), (tuple(i for i in range(n) if i not in wall), 1)]
    x = [None] * n
    for idx, total in parts:
        mean = F(total, len(idx))
        for i in idx[:-1]:
            x[i] = F(round(qs[i] * mean * F(rng.randint(90, 110), 100)), qs[i])
        x[idx[-1]] = total - sum(x[i] for i in idx[:-1])
    return tuple(x)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_signs_at_matches_fraction_oracle(n):
    # integer signs over one common denominator against Fraction dot
    # products, at cell witnesses, relative-interior samples and points
    # whose coprime denominators reach 10**12; D(6) in the interior
    # complex, every 7th cell
    cc = chamber_complex(n, interior_only=n == 6)
    arr = cc.arrangement
    cells = cc.chambers if n < 6 else cc.chambers[::7]
    points = [ch.witness for ch in cells]
    for ch in cells[::max(1, len(cells) // 40)]:
        points += cc.sample_relative_interior(ch, 3)
    rng = random.Random(1000 + n)
    walls = [None] + list(hs.weight_walls(n))
    located = [_large_denominator_point(rng, n, walls[i % len(walls)])
               for i in range(60)]
    for pt in points + located:
        assert arr.signs_at(pt) == signs_at_fractions(arr, pt)
    for pt in located:
        assert lcm(*(x.denominator for x in pt)) > 10 ** 12
        assert cc.locate(pt).signs == signs_at_fractions(arr, pt)


def test_interior_contains_matches_fraction_oracle():
    # omega read off the weight-wall signs against every admissible
    # polytope of D(n) tested at the cell witness: every cell of D(4) and
    # D(5), every 7th cell of D(6), in both complexes
    for n, step in ((4, 1), (5, 1), (6, 7)):
        polys = enumerate_admissible(n)
        for interior_only in (False, True):
            for ch in chamber_complex(n, interior_only).chambers[::step]:
                inside = interior_ids_fractions(polys, ch.witness)
                assert omega_set(ch) == tuple(sorted(inside))


def test_locate_rejects_outside():
    cc = chamber_complex(4)
    with pytest.raises(ValueError):
        cc.locate((F(2), F(0), F(0), F(0)))
    with pytest.raises(ValueError):
        cc.locate((F(1, 2), F(1, 2), F(1, 2), F(1, 4)))


def test_adjacency_example_chamber():
    cc = chamber_complex(5)
    ch = cc.locate(EXAMPLE_POINT)
    zero_idx = ch.signs.index("0")
    parents = [p for c, p in cc.adjacency if c == ch.index]
    expected = set()
    for repl in "+-":
        flipped = ch.signs[:zero_idx] + repl + ch.signs[zero_idx + 1:]
        other = cc.chamber_by_signs(flipped)
        assert other is not None and other.dim == 4
        expected.add(other.index)
    assert set(parents) == expected


def test_adjacency_dim_steps():
    cc = chamber_complex(4)
    by_idx = {c.index: c for c in cc.chambers}
    assert cc.adjacency
    for c, p in cc.adjacency:
        assert by_idx[p].dim == by_idx[c].dim + 1


def test_vertex_edge_adjacency_n4():
    cc = chamber_complex(4)
    vert = cc.locate((F(1), F(1), F(0), F(0)))
    assert vert.dim == 0
    parents = [p for c, p in cc.adjacency if c == vert.index]
    assert parents, "a 0-cell of D(4) must bound some edge cell"


def test_equivariance_of_chambers():
    cc = chamber_complex(5)
    rng = random.Random(99)
    for _ in range(3):
        perm = list(range(5))
        rng.shuffle(perm)
        image = {}
        for ch in cc.chambers:
            tgt = cc.locate(permute_point(perm, ch.witness))
            assert tgt.dim == ch.dim
            assert tgt.on_boundary == ch.on_boundary
            image[ch.index] = tgt.index
        assert len(set(image.values())) == len(cc.chambers)
        adj = set(cc.adjacency)
        for c, p in list(adj)[:200]:
            assert (image[c], image[p]) in adj


def test_admissible_counts_n5():
    polys = enumerate_admissible(5)
    kinds = {}
    for p in polys:
        kinds[p.kind] = kinds.get(p.kind, 0) + 1
    assert kinds == {"FULL": 1, "SECTION": 10, "CUTS": 35}
    assert all(p.dim == (4 if p.kind != "SECTION" else 3) for p in polys)


def test_admissible_rejections_n5():
    rej = rejected_cut_families(5)
    assert len(rej) == 10
    fams = {p.subsets for p in rej}
    assert ((0, 1), (2, 3, 4)) in fams
    for p in rej:
        assert sum(len(s) for s in p.subsets) == 5  # complementary pairs only


def test_admissible_n6_examples():
    polys = {p.id: p for p in enumerate_admissible(6)}
    assert "CUTS{1,2}|{3,4}" in polys
    assert polys["CUTS{1,2}|{3,4}"].dim == 5
    # three disjoint pairs remain feasible at n=6: LP certifies the witness
    # (2/5,2/5,2/5,2/5,1/5,1/5), so the family is accepted
    assert "CUTS{1,2}|{3,4}|{5,6}" in polys
    p = polys["CUTS{1,2}|{3,4}|{5,6}"]
    assert interior_contains_fractions(
        p, (F(2, 5), F(2, 5), F(2, 5), F(2, 5), F(1, 5), F(1, 5)))
    # a pair plus its complement can never be strict on the carrier
    rej = {p.id for p in rejected_cut_families(6)}
    assert "CUTS{1,2}|{3,4,5,6}" in rej


def _disjoint_families(n):
    """Every nonempty pairwise-disjoint family of weight walls, each as a
    tuple in weight_walls order, by brute force over k-subsets."""
    walls = weight_walls(n)
    return {fam for k in range(1, n // 2 + 1)
            for fam in combinations(walls, k)
            if len(set().union(*fam)) == sum(map(len, fam))}


@pytest.mark.parametrize("n, split", [(4, (6, 3)), (5, (35, 10)),
                                      (6, (170, 25))])
def test_cuts_closed_form_matches_lp(n, split):
    # the CUTS candidates are the nonempty pairwise-disjoint families of
    # weight walls; S_1..S_k leave m = k + n - |S_1 u ... u S_k| distinct
    # points, and the LP admits the family exactly when m >= 3
    cuts = [p for p in enumerate_admissible(n) if p.kind == "CUTS"]
    rejected = rejected_cut_families(n)
    assert {p.subsets for p in cuts + rejected} == _disjoint_families(n)

    def distinct_points(p):
        return len(p.subsets) + n - len(set().union(*p.subsets))

    assert all(distinct_points(p) >= 3 for p in cuts)
    assert all(distinct_points(p) < 3 for p in rejected)
    assert (len(cuts), len(rejected)) == split


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("interior_only", [False, True])
def test_omega_matches_wall_sign_oracle(n, interior_only):
    # every cell of D(4) and D(5): 53 + 671 closed, 27 + 461 interior
    for ch in chamber_complex(n, interior_only).chambers:
        assert omega_set(ch) == omega_from_wall_signs(ch)


def test_omega_full_membership():
    cc = chamber_complex(4)
    for ch in cc.chambers:
        om = omega_set(ch)
        if ch.on_boundary:
            assert "FULL" not in om
        else:
            assert "FULL" in om


def test_omega_example_chamber():
    cc = chamber_complex(5)
    ch = cc.locate(EXAMPLE_POINT)
    om = omega_set(ch)
    assert "FULL" in om
    assert "SECTION{1,3}" in om
    for other in om:
        assert "{1,3}" not in other or other == "SECTION{1,3}"


def test_omega_halfspace_chamber_n5():
    # the full-dim cell with x1+x2 > 1 and every other pair sum < 1
    cc = chamber_complex(5)
    arr = cc.arrangement
    target = None
    for ch in cc.chambers:
        if ch.dim != 4 or ch.on_boundary:
            continue
        ok = True
        for h, s in zip(arr.hyperplanes, ch.signs):
            if h.kind != "sum":
                continue
            want = "+" if h.subset == frozenset({0, 1}) else "-"
            if s != want:
                ok = False
                break
        if ok:
            target = ch
            break
    assert target is not None
    om = set(omega_set(target))
    assert "FULL" in om
    for bad in ("CUTS{1,2}", "CUTS{1,2}|{3,4}", "CUTS{1,2}|{3,5}", "CUTS{1,2}|{4,5}"):
        assert bad not in om
    assert "CUTS{3,4,5}" in om
    assert "CUTS{1,3}|{2,4}" in om
    assert not any(o.startswith("SECTION") for o in om)


def _cell_strict_system(cc, ch):
    n = cc.n
    cons = [LinConstraint([1] * n, EQ, 2)]
    for h, s in zip(cc.arrangement.hyperplanes, ch.signs):
        coeffs = list(h.normal)
        if s == "0":
            cons.append(eq(coeffs, h.const))
        elif s == "+":
            cons.append(gt(coeffs, h.const))
        else:
            cons.append(lt(coeffs, h.const))
    return cons


def _omega_lp_oracle(cc, ch, polys):
    """LP certification: the cell is inside the interior iff no point of the
    cell violates any interior condition.  Conditions are shared between
    polytopes, so each is certified once per cell."""
    base = _cell_strict_system(cc, ch)
    verdicts = {}

    def implied(rel, coeffs, const):
        key = (rel, tuple(coeffs), const)
        if key not in verdicts:
            if rel == "eq":
                negs = [gt(coeffs, const), lt(coeffs, const)]
            elif rel == "lt":
                negs = [ge(coeffs, const)]
            else:
                negs = [le(coeffs, const)]
            verdicts[key] = all(lp_feasible(base + [ng]) is None for ng in negs)
        return verdicts[key]

    out = []
    for p in polys:
        conds = []
        for i in range(cc.n):
            e = [0] * cc.n
            e[i] = 1
            conds.append(("lt", e, 1))
            conds.append(("gt", e, 0))
        for s in p.subsets:
            coeffs = [1 if i in s else 0 for i in range(cc.n)]
            conds.append(("eq" if p.kind == "SECTION" else "lt", coeffs, 1))
        if all(implied(*c) for c in conds):
            out.append(p.id)
    return tuple(sorted(out))


def test_omega_lp_cross_validation_n4():
    cc = chamber_complex(4)
    polys = enumerate_admissible(4)
    for ch in cc.chambers[::3]:
        assert omega_set(ch) == _omega_lp_oracle(cc, ch, polys)


def test_omega_lp_cross_validation_n5_sample():
    cc = chamber_complex(5)
    polys = enumerate_admissible(5)
    for ch in cc.chambers[::61]:
        assert omega_set(ch) == _omega_lp_oracle(cc, ch, polys)


def test_relative_interior_sampling():
    cc = chamber_complex(5)
    rng = random.Random(7)
    picks = rng.sample(cc.chambers, 12)
    for ch in picks:
        for pt in cc.sample_relative_interior(ch, 3):
            assert cc.arrangement.signs_at(pt) == ch.signs


def test_hypersimplex_polytope_dim():
    from chamberkit.exactgeom import affine_dimension
    assert affine_dimension(hypersimplex_polytope(4)) == 3


def test_solutions_leave_no_reference_cycle():
    # one solution per independent 3-subset of the rows, and no reference
    # cycle that keeps the search's lists alive after it returns
    rows = [([1, 0, 0], 1), ([0, 1, 0], 1), ([0, 0, 1], 1), ([1, 1, 1], 2)]
    gc.collect()
    gc.disable()
    try:
        sols = hs._solutions(rows, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert sorted(map(tuple, sols)) == [(0, 1, 1), (1, 0, 1), (1, 1, 0),
                                        (1, 1, 1)]
