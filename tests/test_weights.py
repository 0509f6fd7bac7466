import gc
import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from chamberkit.exactgeom import eq, gt, le, lp_feasible, lt
from chamberkit.hypersimplex import (Chamber, _chamber_wall_data,
                                     build_arrangement, chamber_complex)
from chamberkit.ratutil import _rank
from chamberkit.weights import (ATYPICAL, STABLE,
                                STRICTLY_SEMISTABLE, TYPICAL, UNSTABLE,
                                CoincidencePartition, FineChamber,
                                Linearisation, WeightVector,
                                classify_linearisation, facet_cover_count,
                                fine_chambers, locate_weight,
                                parse_partition, semistable_profile,
                                stability, stability_report, weight_signs,
                                weight_walls, xi)

from cell_oracles import (chamber_wall_data_per_wall,
                          semistable_profile_fractions)
from helpers import (PAIR_OPTIONS, coarse_walls, delete_coordinate,
                     has_unit_subset, permute_point, permute_weight_signs,
                     rescale_to_carrier, sample_relative_interior)

EXAMPLE_L = (F(1, 2), F(2, 3), F(5, 18), F(5, 18), F(5, 18))
EXAMPLE_POINT = (F(3, 5), F(1, 3), F(2, 5), F(1, 3), F(1, 3))


def _random_linearisation(rng, n):
    """Weights summing to 2; about half of the draws are two groups of
    total 1 each, so that block sums of exactly 1 occur."""
    if rng.random() < 0.5:
        raw = [rng.randint(1, 12) for _ in range(n)]
        return Linearisation([F(2 * r, sum(raw)) for r in raw])
    k = rng.randint(1, n - 1)
    out = []
    for size in (k, n - k):
        raw = [rng.randint(1, 12) for _ in range(size)]
        out += [F(r, sum(raw)) for r in raw]
    rng.shuffle(out)
    return Linearisation(out)


# weights at n = 4..9 with an entry over 1 (empty profile), an entry equal
# to 1, and blocks summing exactly to 1
_PROFILE_EDGES = (
    ["3/2", "1/6", "1/6", "1/6"],
    ["1/8"] * 4 + ["3/2"],
    ["1"] + ["1/8"] * 8,
    ["5/4"] + ["3/32"] * 8,
    ["1", "1/3", "1/3", "1/3"],
    ["1", "1/4", "1/4", "1/4", "1/4"],
    ["1/2"] * 4,
    ["1/2", "1/2", "1/2", "1/4", "1/4"],
    ["1/3"] * 6,
    ["2/7"] * 7,
    ["1/4"] * 8,
    ["1/2", "1/2", "1/2", "1/8", "1/8", "1/16", "1/16", "1/16", "1/16"],
    ["2/9"] * 9,
    ["1", "1/2", "1/8", "1/8", "1/16", "1/16", "1/16", "1/16"],
)


def test_semistable_profile_matches_fraction_oracle():
    # integer block sums over the common denominator against Fraction sums;
    # the oracle sorts its partitions and builds each through the checking
    # constructor, so equal tuples also pin the emitted order and blocks
    rng = random.Random(808)
    lins = [_random_linearisation(rng, 4 + i % 5) for i in range(200)]
    for lin in lins + [Linearisation(w) for w in _PROFILE_EDGES]:
        prof = semistable_profile(lin)
        oracle = semistable_profile_fractions(lin)
        assert prof == oracle
        assert [str(p) for p in prof] == [str(p) for p in oracle]


def test_semistable_profile_builds_no_partition_through_the_checks(
        monkeypatch):
    # the walk emits canonical partitions; only input goes through the
    # checking constructor
    calls = []
    checked = CoincidencePartition.__init__

    def counting(self, blocks):
        calls.append(blocks)
        checked(self, blocks)

    monkeypatch.setattr(CoincidencePartition, "__init__", counting)
    assert len(semistable_profile(["2/7"] * 7)) == 652
    assert len(calls) == 0


def test_semistable_profile_leaves_no_reference_cycle():
    # the partitions go with the last reference to the profile, not at the
    # next full collection of the cyclic garbage collector
    gc.collect()
    gc.disable()
    try:
        assert len(semistable_profile(["2/7"] * 7)) == 652
        assert gc.collect() == 0
    finally:
        gc.enable()


def all_partitions(n):
    """Brute-force set partitions of {1..n} (test oracle)."""
    if n == 1:
        return [((1,),)]
    out = []
    for smaller in all_partitions(n - 1):
        for i, b in enumerate(smaller):
            out.append(tuple(sorted(smaller[:i] + (b + (n,),) + smaller[i + 1:])))
        out.append(tuple(sorted(smaller + ((n,),))))
    return [tuple(p) for p in set(out)]


def test_stability_examples():
    L = Linearisation(EXAMPLE_L)
    status, block, total = stability_report(L, parse_partition("{1,2}|{3}|{4}|{5}"))
    assert status == UNSTABLE and block == (1, 2) and total == F(7, 6)
    singles = CoincidencePartition([(i,) for i in range(1, 6)])
    assert stability(L, singles) == STABLE
    L2 = Linearisation([F(1, 2), F(1, 2), F(1, 2), F(1, 4), F(1, 4)])
    assert stability(L2, parse_partition("{1,2}|{3}|{4}|{5}")) == STRICTLY_SEMISTABLE


def test_linearisation_validation():
    with pytest.raises(ValueError):
        Linearisation([F(1, 2)] * 5)  # sums to 5/2
    with pytest.raises(ValueError):
        Linearisation([F(3, 2), F(-1, 2), F(1, 2), F(1, 2)])
    with pytest.raises(ValueError):
        WeightVector([F(1, 2)] * 4)  # sums to 2, not more


def test_partition_validation():
    with pytest.raises(ValueError):
        CoincidencePartition([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        CoincidencePartition([(1,), (3,)])
    # entries are ints, not bools or other types, and no block is empty
    for blocks in ([(True,), (2,)], [(1,), (False, 2)], [(1.0,), (2,)],
                   [("a",), (1,)], [(), (1,)], [1, 2], 3):
        with pytest.raises(ValueError):
            CoincidencePartition(blocks)
    p = parse_partition("{3}|{1,2}")
    assert str(p) == "{1,2}|{3}"


def test_classify_examples():
    assert classify_linearisation(EXAMPLE_L).kind == TYPICAL
    c = classify_linearisation(EXAMPLE_POINT)
    assert c.kind == ATYPICAL and c.witness == (1, 3)
    c = classify_linearisation([F(1, 2)] * 4)
    assert c.kind == ATYPICAL and len(c.witness) == 2
    # weight-1 entries are atypical through the singleton subset
    c = classify_linearisation([F(1), F(1, 3), F(1, 3), F(1, 3)])
    assert c.kind == ATYPICAL and c.witness == (1,)


def test_profile_n4_example():
    L = Linearisation([F(1, 2)] * 4)
    prof = semistable_profile(L)
    expected = {p for p in all_partitions(4) if all(len(b) <= 2 for b in p)}
    assert {p.blocks for p in prof} == expected
    assert len(prof) == 10


def test_profile_brute_force_oracle():
    rng = random.Random(11)
    for _ in range(8):
        raw = [F(rng.randint(1, 50)) for _ in range(5)]
        L = Linearisation([2 * t / sum(raw) for t in raw])
        prof = {p.blocks for p in semistable_profile(L)}
        oracle = set()
        for part in all_partitions(5):
            if all(sum(L.entries[i - 1] for i in b) <= 1 for b in part):
                oracle.add(part)
        assert prof == oracle


def test_profile_trivial_invariants():
    L = Linearisation(EXAMPLE_L)
    prof = semistable_profile(L)
    singles = tuple((i,) for i in range(1, 6))
    assert singles in {p.blocks for p in prof}
    assert ((1, 2, 3, 4, 5),) not in {p.blocks for p in prof}


def test_profile_guard():
    with pytest.raises(ValueError):
        semistable_profile(Linearisation([F(1, 5)] * 10))


def test_typical_iff_no_strictly_semistable():
    # has_unit_subset agrees with existence of a strictly semistable partition
    rng = random.Random(23)
    cases = []
    for _ in range(12):
        raw = [F(rng.randint(1, 40)) for _ in range(5)]
        cases.append(Linearisation([2 * t / sum(raw) for t in raw]))
    cases.append(Linearisation([F(1, 2), F(1, 2), F(1, 2), F(1, 4), F(1, 4)]))
    cases.append(Linearisation(EXAMPLE_L))
    for L in cases:
        sss = any(stability(L, CoincidencePartition(p)) == STRICTLY_SEMISTABLE
                  for p in all_partitions(5))
        assert has_unit_subset(L.entries) == sss


def test_has_unit_subset_any_total():
    # entries need not sum to 2: a large subset, or the complement of a
    # small one, can be the one summing to 1
    assert has_unit_subset([F(1, 4)] * 4 + [F(5)])
    assert has_unit_subset([F(5), F(1, 3), F(1, 3), F(1, 3)])
    assert not has_unit_subset([F(2, 5)] * 4 + [F(5)])
    rng = random.Random(41)
    for _ in range(200):
        t = [F(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(rng.randint(2, 6))]
        brute = any(sum(t[i] for i in combo) == 1
                    for size in range(1, len(t))
                    for combo in combinations(range(len(t)), size))
        assert has_unit_subset(t) == brute


def test_chamber_invariance_sample():
    cc = chamber_complex(5)
    rng = random.Random(5150)
    interior = [c for c in cc.chambers if not c.on_boundary]
    for ch in rng.sample(interior, 12):
        profiles = set()
        stables = set()
        for pt in sample_relative_interior(cc, ch, 3):
            L = Linearisation(pt)
            prof = semistable_profile(L)
            profiles.add(tuple(p.blocks for p in prof))
            stables.add(tuple(p.blocks for p in prof
                              if stability(L, p) == STABLE))
        assert len(profiles) == 1
        assert len(stables) == 1


def test_typicality_dimension_sample():
    cc = chamber_complex(5)
    for ch in cc.chambers:
        if ch.on_boundary:
            continue
        typical = classify_linearisation(Linearisation(ch.witness)).kind == TYPICAL
        assert typical == (ch.dim == 4)


def test_delete_coordinate():
    L = Linearisation([F(1, 2), F(1, 2), F(1, 2), F(1, 4), F(1, 4)])
    L4 = delete_coordinate(L, 5)
    assert L4.n == 4 and sum(L4.entries) == 2
    assert L4.entries == (F(4, 7), F(4, 7), F(4, 7), F(2, 7))
    # the renormalized restriction has its own profile at n-1; restricting the
    # n-point profile is NOT the same set (block {1,2} survives restriction
    # but is unstable after renormalization), so only the direct identity holds
    prof4 = {p.blocks for p in semistable_profile(L4)}
    oracle = {part for part in all_partitions(4)
              if all(sum(L4.entries[i - 1] for i in b) <= 1 for b in part)}
    assert prof4 == oracle
    restricted = set()
    for p in semistable_profile(L):
        blocks = tuple(sorted(tuple(i for i in b if i != 5) for b in p.blocks))
        blocks = tuple(b for b in blocks if b)
        restricted.add(blocks)
    assert ((1, 2), (3,), (4,)) in restricted
    assert ((1, 2), (3,), (4,)) not in prof4


def test_rescale_examples():
    assert rescale_to_carrier([1, 1, 1, 1, 1]).entries == (F(2, 5),) * 5
    got = rescale_to_carrier([F(1), F(1), F(1, 5), F(1, 5), F(1, 5)])
    assert got.entries == (F(10, 13), F(10, 13), F(2, 13), F(2, 13), F(2, 13))
    L = Linearisation([F(1, 2), F(1, 2), F(1, 2), F(1, 4), F(1, 4)])
    assert rescale_to_carrier(L).entries == L.entries
    a = WeightVector([F(1), F(1), F(1, 5), F(1, 5), F(1, 5)])
    b = rescale_to_carrier(a)
    assert all(x < y for x, y in zip(b.entries, a.entries))


def _pair_count(ch):
    """The number of complementary wall pairs through a carrier chamber."""
    return len(_chamber_wall_data(ch)[2])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_chamber_wall_data_matches_per_wall_oracle(n):
    for ch in chamber_complex(n, True).chambers:
        assert _chamber_wall_data(ch) == chamber_wall_data_per_wall(ch)


def test_weight_walls():
    assert len(weight_walls(5)) == 20
    assert len(weight_walls(6)) == 50
    assert coarse_walls(5) == ()
    assert len(coarse_walls(6)) == 20


def test_locate_weight_examples():
    loc = locate_weight([F(1), F(1), F(1, 5), F(1, 5), F(1, 5)])
    assert not loc.wall
    assert loc.one_contacts == (1, 2)
    walls = weight_walls(5)
    sig = loc.cell_id
    for i, s in enumerate(walls):
        total = sum((F(1), F(1), F(1, 5), F(1, 5), F(1, 5))[j] for j in s)
        assert sig[i] == ("+" if total > 1 else "-")
    assert sig[walls.index((2, 3, 4))] == "-"
    loc2 = locate_weight([F(1), F(1), F(1, 4), F(1, 5), F(1, 6)])
    assert loc2.cell_id == loc.cell_id
    assert loc2.chamber.index == loc.chamber.index
    loc3 = locate_weight([F(1), F(1), F(1, 3), F(1, 3), F(1, 3)])
    assert loc3.wall
    assert loc3.cell_id[walls.index((2, 3, 4))] == "0"
    assert loc3.chamber is None


def test_fine_chamber_counts_frozen():
    assert len(fine_chambers(4)) == 27
    assert len(fine_chambers(5)) == 1087


def test_fine_chamber_witnesses():
    for ch in fine_chambers(5):
        assert weight_signs(5, ch.witness) == ch.signs
        assert sum(ch.witness) > 2
        assert all(0 < a < 1 for a in ch.witness)


def test_fine_chamber_coverage():
    # random domain points always land in an enumerated chamber
    chambers = {ch.signs for ch in fine_chambers(5)}
    rng = random.Random(314)
    hits = 0
    while hits < 30:
        pt = [F(rng.randint(1, 99), 100) for _ in range(5)]
        if sum(pt) <= 2:
            continue
        sig = weight_signs(5, pt)
        if "0" in sig:
            continue
        hits += 1
        assert sig in chambers


def test_fine_chambers_guard():
    with pytest.raises(ValueError):
        fine_chambers(6)


def test_xi_example_chamber():
    cc = chamber_complex(5)
    ch = cc.locate(EXAMPLE_POINT)
    image = xi(ch)
    assert len(image) >= 2
    walls = weight_walls(5)
    i13 = walls.index((0, 2))
    i245 = walls.index((1, 3, 4))
    combos = {(s[i13], s[i245]) for s in image}
    assert ("0", "+") in combos  # the wall cell holding the facet
    assert ("+", "+") in combos or ("+", "-") in combos  # a strict-side cell


def test_xi_unique_on_top_cells_sample():
    cc = chamber_complex(5)
    tops = [c for c in cc.chambers if c.dim == 4 and not c.on_boundary]
    for ch in tops[::7]:
        assert len(xi(ch)) == 1


def test_xi_rejects_boundary():
    cc = chamber_complex(5)
    ch = next(c for c in cc.chambers if c.on_boundary)
    with pytest.raises(ValueError):
        xi(ch)


def test_xi_injective_on_sample():
    cc = chamber_complex(5)
    rng = random.Random(808)
    cells = [c for c in cc.chambers if not c.on_boundary
             and _pair_count(c) <= 1]
    picks = rng.sample(cells, 10)
    images = [xi(c) for c in picks]
    assert len(set(images)) == len(picks)


def test_xi_equivariance():
    cc = chamber_complex(5)
    rng = random.Random(2718)
    perm = list(range(5))
    rng.shuffle(perm)
    cells = [c for c in cc.chambers if not c.on_boundary
             and _pair_count(c) == 1]
    for ch in rng.sample(cells, 3):
        image = {permute_weight_signs(5, perm, s) for s in xi(ch)}
        moved = cc.locate(permute_point(perm, ch.witness))
        assert set(xi(moved)) == image


def test_facet_cover_example_chamber():
    cc = chamber_complex(5)
    ch = cc.locate(EXAMPLE_POINT)
    assert facet_cover_count(ch, 1) == 2
    with pytest.raises(ValueError):
        facet_cover_count(ch, 2)


def test_facet_cover_top_cell():
    cc = chamber_complex(5)
    top = next(c for c in cc.chambers if c.dim == 4 and not c.on_boundary)
    assert facet_cover_count(top, 0) == 1


def test_facet_cover_k2_at_n6():
    # a point of D(6) on exactly the walls {1,2} and {1,3,4}
    pt = (F(7, 20), F(13, 20), F(2, 5), F(1, 4), F(1, 5), F(3, 20))
    arr = build_arrangement(6)
    signs = arr.signs_at(pt)
    zero_labels = [h.label for h, s in zip(arr.hyperplanes, signs) if s == "0"]
    assert zero_labels == ["sum{1,2}=1", "sum{1,3,4}=1"]
    ch = Chamber(6, signs, 3, pt, False, -1)
    assert facet_cover_count(ch, 2) == 4


# ---------------------------------------------------------------------------
# xi and facet covers against exact-LP oracles.


def _domain_constraints(n):
    cons = [gt([1] * n, 2)]
    for i in range(n):
        e = [0] * n
        e[i] = 1
        cons.append(gt(list(e), 0))
        cons.append(le(list(e), 1))
    return cons


def _wall_constraint(n, subset, sign, rhs=1):
    coeffs = [1 if i in subset else 0 for i in range(n)]
    if sign == "0":
        return eq(coeffs, rhs)
    return gt(coeffs, rhs) if sign == "+" else lt(coeffs, rhs)


def _xi_lp(chamber):
    """xi by LP feasibility in the weight domain, the assignment extended
    pair by pair and pruned as soon as it is infeasible."""
    n = chamber.n
    walls, fixed, pairs = _chamber_wall_data(chamber)
    base = _domain_constraints(n)
    base.extend(_wall_constraint(n, walls[i], s) for i, s in fixed.items())
    found = []

    def rec(level, assigned, cons):
        if lp_feasible(cons) is None:
            return
        if level == len(pairs):
            found.append("".join(fixed[i] if i in fixed else assigned[i]
                                 for i in range(len(walls))))
            return
        ci, mi = pairs[level]
        for a, b in PAIR_OPTIONS:
            assigned[ci], assigned[mi] = a, b
            rec(level + 1, assigned,
                cons + [_wall_constraint(n, walls[ci], a),
                        _wall_constraint(n, walls[mi], b)])
            del assigned[ci], assigned[mi]

    rec(0, {}, base)
    return tuple(sorted(found))


def _xi_local_lp(chamber):
    """xi from the local cone at the witness: one LP in R^n per resolution of
    the wall pairs, for a direction d with those signs, scaled to sum(d) = 1."""
    n = chamber.n
    walls, fixed, pairs = _chamber_wall_data(chamber)
    found = []
    for choice in product(PAIR_OPTIONS, repeat=len(pairs)):
        sig = dict(fixed)
        cons = [eq([1] * n, 1)]
        for (ci, mi), (a, b) in zip(pairs, choice):
            sig[ci], sig[mi] = a, b
            cons.append(_wall_constraint(n, walls[ci], a, 0))
            cons.append(_wall_constraint(n, walls[mi], b, 0))
        if lp_feasible(cons) is not None:
            found.append("".join(sig[i] for i in range(len(walls))))
    return tuple(sorted(found))




def _check_against_lp_oracle(ch):
    pairs = _chamber_wall_data(ch)[2]
    oracle = _xi_lp(ch)
    assert xi(ch) == oracle
    covers = sum(1 for sig in oracle
                 if all({sig[a], sig[b]} == {"0", "+"} for a, b in pairs))
    assert facet_cover_count(ch, len(pairs)) == covers


def test_xi_matches_lp_oracle_n4():
    cc = chamber_complex(4, True)
    for ch in cc.chambers:
        _check_against_lp_oracle(ch)


def test_xi_matches_lp_oracle_n5_sample():
    cc = chamber_complex(5, True)
    rng = random.Random(4099)
    for k, count in ((1, 8), (2, 1)):
        cells = [c for c in cc.chambers if _pair_count(c) == k]
        for ch in rng.sample(cells, count):
            _check_against_lp_oracle(ch)


def test_xi_matches_local_lp_on_dependent_cell_n6():
    # a point of D(6) on the walls {1,3,5}, {1,3,6}, {1,4,5} and {1,4,6},
    # whose indicator vectors are dependent: 1_135 + 1_146 = 1_136 + 1_145
    pt = (F(2, 3), F(2, 3), F(1, 4), F(1, 4), F(1, 12), F(1, 12))
    arr = build_arrangement(6)
    signs = arr.signs_at(pt)
    zero_labels = [h.label for h, s in zip(arr.hyperplanes, signs) if s == "0"]
    assert zero_labels == ["sum{1,3,5}=1", "sum{1,3,6}=1", "sum{1,4,5}=1",
                           "sum{1,4,6}=1"]
    ch = Chamber(6, signs, 2, pt, False, -1)
    image = xi(ch)
    assert len(image) == 285
    assert image == _xi_local_lp(ch)


def test_xi_sizes_on_every_interior_cell_n5():
    cc = chamber_complex(5, True)
    for ch in cc.chambers:
        k = _pair_count(ch)
        assert len(xi(ch)) == 5 ** k
        assert facet_cover_count(ch, k) == 2 ** k


def test_xi_euler_relation_on_dependent_cells_n6():
    # The xi(c) cells are the faces of an affine arrangement filling the
    # slice {sum(d) = 1} of R^n, so their Euler characteristic is (-1)^(n-1).
    n = 6
    cc = chamber_complex(n, True)
    rows = [[int(i in s) for i in range(n)] for s in weight_walls(n)]
    ones = [1] * n
    dependent = 0
    for ch in cc.chambers:
        subsets = [h.subset for h in ch.zero_walls(cc.arrangement)
                   if h.kind == "sum"]
        k = len(subsets)
        if k > 6 or _rank([ones] + [[int(i in s) for i in range(n)]
                                    for s in subsets]) == k + 1:
            continue
        dependent += 1
        dims = {}
        euler = 0
        for sig in xi(ch):
            zero = tuple(i for i, s in enumerate(sig) if s == "0")
            if zero not in dims:
                dims[zero] = n - _rank([ones] + [rows[i] for i in zero])
            euler += (-1) ** dims[zero]
        assert euler == (-1) ** (n - 1), ch.index
    assert dependent == 315
