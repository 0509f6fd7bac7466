import random
from fractions import Fraction as F
from itertools import combinations
from math import comb, factorial, prod

import pytest

from chamberkit.strata import (EXTENSION, GENERIC, INF, MAX_PERM_M, ONE,
                               TORIC, ZERO,
                               DegenerationLabel, LMChain, StableTree,
                               chi_mbar, chi_open_moduli, chi_stratum,
                               classify_outgrowth,
                               degeneration_label, dm_strata,
                               dm_valence_census, label_is_consistent,
                               lm_census, lm_point_label_census_n5, lm_strata,
                               permutohedron_faces, reduction_divisors,
                               wonderful_building_set,
                               wonderful_divisor_census, _laminar_families,
                               _ordered_partitions, _screen)

from cell_oracles import (chi_term, composition_faces, fubini,
                          lm_chain_tally, pair_graph_closure, pair_set_leq,
                          reduction_divisors_fractions, stirling2)
from helpers import permute_lm_chain, relabel_tree


def test_dm_counts():
    c4 = dm_strata(4)
    assert c4.by_codim == {0: 1, 1: 3}
    c5 = dm_strata(5)
    assert c5.by_codim == {0: 1, 1: 10, 2: 15}
    assert c5.by_type == {"M05": 1, "M04xM03": 10, "M03xM03xM03": 15}
    c6 = dm_strata(6)
    assert c6.by_codim == {0: 1, 1: 25, 2: 105, 3: 105}


def test_dm_guards():
    with pytest.raises(ValueError):
        dm_strata(3)
    with pytest.raises(ValueError):
        dm_strata(9)
    with pytest.raises(ValueError):
        dm_valence_census(14)
    assert dm_valence_census(13)


def _mask_valences(n, fam):
    # vertex valences of the tree whose splits are the leg bitmasks in fam
    if not fam:
        return (n,)
    order = sorted(range(len(fam)), key=lambda i: fam[i].bit_count())
    child_count = [0] * len(fam)
    child_size = [0] * len(fam)
    root_count = 0
    root_size = 0
    for pos, i in enumerate(order):
        mi = fam[i]
        parent = -1
        for j in order[pos + 1:]:
            mj = fam[j]
            if mi != mj and mi & ~mj == 0:
                parent = j
                break
        if parent >= 0:
            child_count[parent] += 1
            child_size[parent] += mi.bit_count()
        else:
            root_count += 1
            root_size += mi.bit_count()
    vals = [fam[i].bit_count() - child_size[i] + child_count[i] + 1
            for i in range(len(fam))]
    vals.append(n - root_size + root_count)
    return tuple(sorted(vals, reverse=True))


def _census_oracle(n):
    """The census by listing every laminar family of splits."""
    census = {}

    def visit(fam):
        key = (len(fam), _mask_valences(n, fam))
        census[key] = census.get(key, 0) + 1

    _laminar_families(n, visit)
    return census


def test_dm_census_matches_laminar_oracle():
    for n in range(3, 10):
        assert dm_valence_census(n) == _census_oracle(n)


def _schroeder(m):
    # stable trees with m + 1 legs (Schroeder's fourth problem, OEIS A000311):
    # a(m+1) = (m+2) a(m) + 2 sum_{k=2}^{m-1} C(m,k) a(k) a(m-k+1)
    a = [0, 1, 1]
    for j in range(2, m):
        a.append((j + 2) * a[j] + 2 * sum(comb(j, k) * a[k] * a[j - k + 1]
                                          for k in range(2, j)))
    return a[m]


def test_dm_census_totals_are_schroeder_numbers():
    for n in range(3, 14):
        assert sum(dm_valence_census(n).values()) == _schroeder(n - 1)
    assert _schroeder(12) == 188666182784


def test_dm_census_euler_matches_fibration():
    for n in range(3, 14):
        chi = sum(count * chi_stratum(vals)
                  for (_codim, vals), count in dm_valence_census(n).items())
        assert chi == chi_mbar(n)


def test_dm_census_matches_trees():
    for n in range(4, 8):
        explicit = {}
        for t in dm_strata(n).trees:
            key = (t.codim, t.valences())
            explicit[key] = explicit.get(key, 0) + 1
        assert dm_valence_census(n) == explicit


def test_chi_identities():
    values = {4: 2, 5: 7, 6: 34, 7: 213}
    for n, chi in values.items():
        assert dm_strata(n).chi_strata_sum() == chi
        assert chi_mbar(n) == chi
    assert chi_open_moduli(4) == -1 and chi_open_moduli(6) == -6


def test_tree_structure():
    t = StableTree(5, (((2, 3)), (2, 3, 4)))
    t = StableTree(5, ((2, 3), (2, 3, 4)))
    assert t.valences() == (3, 3, 3)
    verts = t.vertices()
    assert verts == ((2, 3), (4,), (1, 5))
    open_t = StableTree(5, ())
    assert open_t.valences() == (5,) and open_t.vertices() == ((1, 2, 3, 4, 5),)


@pytest.mark.parametrize("splits", [
    ((2, 3), (3, 4)),  # overlapping, so not laminar
    ((2, 3), (3, 2)),  # one split twice
    ((1, 2),),  # holds leg 1
    ((2, 6),),  # a leg above n
    ((2, 2, 3),),  # a repeated leg
    ((2,),),  # one leg below the edge
    ((2, 3, 4, 5),),  # one leg above it
])
def test_tree_rejects_splits_of_no_stable_tree(splits):
    with pytest.raises(ValueError):
        StableTree(5, splits)


def test_building_closure_rejects_points_outside_the_light_set():
    bl = wonderful_building_set(6)
    for gens in ([(3, 4, 9)], [(3, 4, 5), (2, 3, 4)], [(1, 5, 6)]):
        with pytest.raises(ValueError):
            bl.closure(gens)


@pytest.mark.parametrize("n", range(4, 9))
def test_tree_vertices_partition_the_legs(n):
    for t in dm_strata(n).trees:
        verts = t.vertices()
        assert sorted(x for v in verts for x in v) == list(range(1, n + 1))
        assert 1 in verts[-1] and len(verts) == t.codim + 1
        vals = t.valences()
        assert min(vals) >= 3 and sum(vals) == n + 2 * t.codim


def test_tree_relabel_equivariance():
    rng = random.Random(77)
    for n in (5, 6):
        census = dm_strata(n)
        trees = set(census.trees)
        perm = list(range(n))
        rng.shuffle(perm)
        moved = {relabel_tree(perm, t) for t in census.trees}
        assert moved == trees
        for t in list(census.trees)[:: max(1, len(trees) // 20)]:
            assert relabel_tree(perm, t).valences() == t.valences()


def test_reduction_divisor_examples():
    eps = F(1, 6)
    divs = reduction_divisors((1,) * 5, (1, 1, eps, eps, eps))
    assert len(divs) == 1
    assert divs[0].i_set == (3, 4, 5) and divs[0].j_set == (1, 2)
    assert divs[0].type_string() == "M04xM03"

    divs = reduction_divisors((1,) * 6, (1, 1) + (F(1, 8),) * 4)
    assert len(divs) == 5
    assert sorted(len(d.i_set) for d in divs) == [3, 3, 3, 3, 4]

    divs = reduction_divisors((1,) * 7, (1, 1) + (F(1, 10),) * 5)
    by_size = {}
    for d in divs:
        by_size[len(d.i_set)] = by_size.get(len(d.i_set), 0) + 1
    assert len(divs) == 16 and by_size == {3: 10, 4: 5, 5: 1}
    assert all(set(d.i_set) <= {3, 4, 5, 6, 7} for d in divs)


def test_reduction_divisor_boundary_and_errors():
    # a light triple summing to exactly 1 still counts
    divs = reduction_divisors((1,) * 5, (1, 1, F(1, 3), F(1, 3), F(1, 3)))
    assert len(divs) == 1
    with pytest.raises(ValueError):
        reduction_divisors((1, 1, F(1, 2), 1, 1), (1,) * 5)
    with pytest.raises(ValueError):
        reduction_divisors((1,) * 5, (1,) * 6)
    with pytest.raises(ValueError):
        reduction_divisors((F(1, 2),) * 5, (F(1, 3),) * 5)  # B total < 2


def _random_weight_pair(rng, n):
    """Seeded weights 0 < b_i <= a_i <= 1, each total above 2, over small
    denominators so that subset sums of exactly 1 occur."""
    while True:
        a, b = [], []
        for _ in range(n):
            q = rng.choice((1, 2, 3, 4, 6, 12))
            a.append(F(rng.randint(1, q), q))
            b.append(a[-1] * F(rng.randint(1, 4), rng.choice((4, 6, 8))))
        if sum(a) > 2 and sum(b) > 2:
            return a, b


def test_reduction_divisors_match_fraction_oracle():
    rng = random.Random(1607)
    cases = [_random_weight_pair(rng, n)
             for n in range(4, 11) for _ in range(6)]
    cases += [
        # b(I) = 1 for I = {3,4,5}: contracted
        ((1,) * 6, (1, 1, F(1, 3), F(1, 3), F(1, 3), 1)),
        # a(I) = 1 for I = {3,4,5}: not contracted, I is A-unstable
        ((1, 1, F(1, 3), F(1, 3), F(1, 3), 1),
         (1, 1, F(1, 6), F(1, 6), F(1, 6), 1)),
        # a(J) = 1 for J = {1,2}, where b(I) = 2 already rules I out, as it
        # must: b(I) <= 1 forces a(J) >= b(J) > 1.  b({3,4,5}) = 1 counts.
        ((F(1, 2), F(1, 2), 1, 1, 1, 1),
         (F(1, 2), F(1, 2), F(1, 3), F(1, 3), F(1, 3), 1)),
    ]
    found = 0
    for a, b in cases:
        got = [(d.i_set, d.j_set) for d in reduction_divisors(a, b)]
        assert got == reduction_divisors_fractions(
            [F(x) for x in a], [F(x) for x in b])
        found += len(got)
    assert found > 100
    # a(J) = 1 for J = {1,2} beside b(I) = 1: B then totals exactly 2
    with pytest.raises(ValueError, match="weight totals must exceed 2"):
        reduction_divisors((F(1, 2), F(1, 2), 1, 1, 1),
                           (F(1, 2), F(1, 2), F(1, 3), F(1, 3), F(1, 3)))


def test_lm_counts():
    c4 = lm_census(4)
    assert c4.by_dim == {1: 1, 0: 3} and c4.chi == 2
    c5 = lm_census(5)
    assert c5.by_dim == {2: 1, 1: 9, 0: 13}
    assert c5.by_type["M04xM03"] == 6 and c5.by_type["M04"] == 3
    assert c5.chi == 6


def test_lm_chi_identity():
    # chi = (n - 2)!, the vertices of the permutohedron of the chain space
    for n in range(4, 14):
        assert lm_census(n).chi == factorial(n - 2)
        if n - 3 <= MAX_PERM_M:
            assert permutohedron_faces(n - 3).by_k[n - 2] == lm_census(n).chi


def test_lm_census_totals_are_stirling_fubini_sums():
    # a chain splits the n - 2 light legs into c clusters, S(n - 2, c) ways,
    # and orders the clusters into screens, Fub(c) ways
    for n in range(4, 14):
        assert lm_census(n).total == sum(stirling2(n - 2, c) * fubini(c)
                                         for c in range(1, n - 1))
    assert lm_census(13).total == 25928015368


@pytest.mark.parametrize("n", range(4, 9))
def test_lm_census_matches_chain_walk(n):
    c = lm_census(n)
    assert (c.by_dim, c.by_type, c.total, c.chi) == lm_chain_tally(n)


def test_screen_counts_are_stirling_numbers():
    # a screen of s light legs in c clusters: S(s, c) ways, dim c - 1
    for s in range(1, 11):
        assert _screen(s) == {(c - 1, (c + 2,)): stirling2(s, c)
                              for c in range(1, s + 1)}


@pytest.mark.parametrize("n,strata,chi", [
    (4, 4, 2), (5, 26, 7), (6, 236, 34), (7, 2752, 213), (8, 39208, 1630)])
def test_dm_fibres_over_lm_chains(n, strata, chi):
    # Over a chain stratum the DM preimage is the stratum times the product,
    # over its clusters cl, of the (|cl| + 1)-pointed space; a singleton
    # cluster gives the 2-pointed one, taken as a point.
    def count(m):
        return 1 if m == 2 else sum(dm_valence_census(m).values())

    def euler(m):
        return 1 if m == 2 else chi_mbar(m)

    chains = lm_strata(n)
    assert sum(prod(count(len(cl) + 1) for cls in c.clusters for cl in cls)
               for c in chains) == strata == sum(dm_valence_census(n).values())
    assert sum(chi_term(c) * prod(euler(len(cl) + 1) for cls in c.clusters
                                  for cl in cls)
               for c in chains) == chi == chi_mbar(n)


def test_lm_guards():
    with pytest.raises(ValueError):
        lm_strata(3)
    with pytest.raises(ValueError):
        lm_strata(9)
    with pytest.raises(ValueError):
        lm_census(14)
    assert lm_census(13)


def test_lm_face_consistency():
    # chains without coincidences match permutohedron faces, graded by block count
    for n in (4, 5, 6):
        free = {}
        for c in lm_strata(n):
            if all(len(cl) == 1 for cls in c.clusters for cl in cls):
                free[c.k] = free.get(c.k, 0) + 1
        assert free == permutohedron_faces(n - 3).by_k


def test_lm_chain_fields():
    chains = lm_strata(5)
    opens = [c for c in chains if c.is_open()]
    assert len(opens) == 1
    assert opens[0].dim == 2 and opens[0].type_string() == "M05"
    one_dim = [c for c in chains if c.dim == 1]
    assert sorted(c.k for c in one_dim) == [1, 1, 1, 2, 2, 2, 2, 2, 2]
    assert {c.type_string() for c in one_dim if c.k == 1} == {"M04"}
    assert {c.type_string() for c in one_dim if c.k == 2} == {"M04xM03"}


def test_lm_equivariance():
    rng = random.Random(404)
    for n in (5, 6):
        chains = set(lm_strata(n))
        perm = list(range(n - 2))
        rng.shuffle(perm)
        moved = {permute_lm_chain(perm, c) for c in chains}
        assert moved == chains


def test_outgrowth_classification():
    chains = lm_strata(5)
    with pytest.raises(ValueError):
        classify_outgrowth(next(c for c in chains if c.is_open()))
    ext = [c for c in chains if not c.is_open()
           and classify_outgrowth(c) == EXTENSION]
    tor = [c for c in chains if not c.is_open()
           and classify_outgrowth(c) == TORIC]
    assert sorted(c.dim for c in ext) == [0, 1, 1, 1]
    assert sum(1 for c in tor if c.dim == 1) == 6
    assert sum(1 for c in tor if c.dim == 0) == 12
    nocoin = [c for c in tor
              if all(len(cl) == 1 for cls in c.clusters for cl in cls)]
    assert sum(1 for c in nocoin if c.dim == 1) == 6
    assert sum(1 for c in nocoin if c.dim == 0) == 6


def test_outgrowth_from_labels():
    for c in lm_strata(5):
        if c.is_open():
            continue
        assert classify_outgrowth(degeneration_label(c)) == classify_outgrowth(c)
    with pytest.raises(TypeError):
        classify_outgrowth("nope")


def test_label_values():
    chain = LMChain(5, ((3,), (4, 5)), (((3,),), ((4, 5),)))
    lab = degeneration_label(chain)
    assert lab.value(3, 4) == ZERO and lab.value(3, 5) == ZERO
    assert lab.value(4, 5) == ONE
    rev = LMChain(5, ((4, 5), (3,)), (((4,), (5,)), ((3,),)))
    lab2 = degeneration_label(rev)
    assert lab2.value(3, 4) == INF and lab2.value(4, 5) == GENERIC


def test_label_consistency():
    for n in (5, 6):
        for c in lm_strata(n)[:: 7 if n == 6 else 1]:
            assert label_is_consistent(degeneration_label(c))
    bad = DegenerationLabel(5, (((3, 4), ONE), ((3, 5), GENERIC), ((4, 5), ONE)))
    assert not label_is_consistent(bad)
    bad2 = DegenerationLabel(5, (((3, 4), ONE), ((3, 5), ZERO), ((4, 5), ONE)))
    assert not label_is_consistent(bad2)


def test_point_label_oracle_n5():
    counts = lm_point_label_census_n5()
    assert counts == {"total": 13, "extension": 1, "toric": 12,
                      "toric_fixed": 6}
    # same split as the chain model
    pts = [c for c in lm_strata(5) if c.dim == 0]
    assert len(pts) == counts["total"]
    assert sum(1 for c in pts if classify_outgrowth(c) == EXTENSION) == 1


def test_permutohedron_census():
    assert permutohedron_faces(2).f_vector == (6, 6, 1)
    fc = permutohedron_faces(3)
    assert fc.f_vector == (24, 36, 14, 1)
    assert fc.total == fubini(4) == 75
    assert fc.by_type[(2, 1, 1)] == 36 and fc.by_type[(2, 2)] == 6
    assert permutohedron_faces(0).f_vector == (1,)
    for m in (1, 2, 3, 4, 5):
        assert permutohedron_faces(m).total == fubini(m + 1)


def test_permutohedron_matches_composition_walk():
    for m in range(9):
        fc = permutohedron_faces(m)
        assert (fc.by_k, fc.by_type, fc.f_vector) == composition_faces(m)


def test_permutohedron_oracle():
    for m in (1, 2, 3):
        osps = _ordered_partitions(tuple(range(m + 1)))
        by_k = {}
        for p in osps:
            by_k[len(p)] = by_k.get(len(p), 0) + 1
        assert by_k == permutohedron_faces(m).by_k


def test_permutohedron_guard():
    with pytest.raises(ValueError):
        permutohedron_faces(9)


def test_building_set_counts():
    shapes = {}
    for n in (5, 6, 7, 8):
        bl = wonderful_building_set(n)
        shp = {}
        for e in bl.elements:
            key = tuple(len(c) for c in e.components)
            shp[key] = shp.get(key, 0) + 1
        shapes[n] = (len(bl.generators), len(bl.elements), shp)
    assert shapes[5] == (1, 1, {(3,): 1})
    assert shapes[6] == (4, 5, {(3,): 4, (4,): 1})
    assert shapes[7] == (10, 16, {(3,): 10, (4,): 5, (5,): 1})
    assert shapes[8] == (20, 52, {(3,): 20, (4,): 15, (5,): 6, (6,): 1,
                                  (3, 3): 10})


def test_building_set_intersections():
    bl = wonderful_building_set(6)
    total = bl.closure(bl.generators)
    assert total.components == ((3, 4, 5, 6),) and total.is_point()
    for g1, g2 in combinations(bl.generators, 2):
        assert bl.closure([g1, g2]) == total

    bl7 = wonderful_building_set(7)
    quads = set()
    for g1, g2 in combinations(bl7.generators, 2):
        inter = bl7.closure([g1, g2])
        if len(set(g1) & set(g2)) == 1:
            assert inter.is_point() and inter.support_type() == "F3"
        else:
            assert inter.support_type() == "F4"
            quads.add(inter.components)
    assert len(quads) == 5
    # the deepest element sits below everything
    point = next(e for e in bl7.elements if e.is_point())
    assert all(point.leq(e) for e in bl7.elements)


@pytest.mark.parametrize("n, relations", [(5, 1), (6, 9), (7, 51), (8, 273)])
def test_building_set_matches_pair_graph_oracle(n, relations):
    bl = wonderful_building_set(n)
    for k in (1, 2, 3):
        for gens in combinations(bl.generators, k):
            assert bl.closure(gens).components == pair_graph_closure(n, gens)
    leq = [(a, b) for a in bl.elements for b in bl.elements if a.leq(b)]
    assert leq == [(a, b) for a in bl.elements for b in bl.elements
                   if pair_set_leq(a, b)]
    assert len(leq) == relations


def test_building_set_guards():
    with pytest.raises(ValueError):
        wonderful_building_set(4)
    with pytest.raises(ValueError):
        wonderful_building_set(9)
    with pytest.raises(ValueError):
        wonderful_divisor_census(8)


def test_wonderful_divisor_census():
    assert wonderful_divisor_census(5).by_type == {"F4": 1}
    assert wonderful_divisor_census(6).by_type == {"F4xF4": 4, "F5": 1}
    c7 = wonderful_divisor_census(7)
    assert c7.by_type == {"F4xF5": 10, "F5xF4": 5, "F6": 1}
    assert c7.by_center_size == {3: 10, 4: 5, 5: 1}


def test_wonderful_totals_match_reduction():
    for n in (5, 6, 7):
        eps = F(1, 2 * (n - 2))
        divs = reduction_divisors((1,) * n, (1, 1) + (eps,) * (n - 2))
        assert wonderful_divisor_census(n).total == len(divs)
        # refined: census by center size matches divisors by |I|
        by_size = {}
        for d in divs:
            by_size[len(d.i_set)] = by_size.get(len(d.i_set), 0) + 1
        assert wonderful_divisor_census(n).by_center_size == by_size
