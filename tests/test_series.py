import random
from fractions import Fraction as F
from math import comb, factorial

import pytest

from chamberkit.series import (MAX_ORDER, MAX_PERM_ORDER, ExpSeries,
                               _census_sum,
                               comp_inverse_direct, comp_inverse_strata,
                               differential, euler_interior,
                               generating_function, mult_inverse_direct,
                               mult_inverse_permutohedral, word)
from chamberkit.strata import dm_valence_census, permutohedron_faces

from cell_oracles import census_sum_fractions, comp_inverse_horner
from helpers import POLY_ZERO


def rand_fracs(rng, count, lo=-12, hi=12):
    return [F(rng.randint(lo, hi), rng.randint(1, 12)) for _ in range(count)]


def test_series_views():
    s = ExpSeries([1, 2, 6])
    assert s.order == 2
    assert s.ordinary() == (F(1), F(2), F(3))
    assert ExpSeries.from_ordinary(s.ordinary()) == s
    assert s.truncated(4).coeffs == (1, 2, 6, 0, 0)
    assert s.truncated(1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        ExpSeries([])
    with pytest.raises(ValueError):
        ExpSeries([1] + [0] * 13)


def test_mult_direct_examples():
    inv = mult_inverse_direct(ExpSeries([1] * 9))
    assert inv.coeffs == tuple((-1) ** n for n in range(9))
    a = F(5, 3)
    inv = mult_inverse_direct(ExpSeries([1, a, 0, 0, 0, 0]))
    assert all(inv.coeffs[n] == factorial(n) * (-a) ** n for n in range(6))
    one = ExpSeries([1, 0, 0])
    assert mult_inverse_direct(one) == one
    with pytest.raises(ValueError):
        mult_inverse_direct(ExpSeries([2, 1]))


def test_mult_direct_is_inverse():
    rng = random.Random(91)
    for _ in range(6):
        s = ExpSeries([1] + rand_fracs(rng, 8))
        inv = mult_inverse_direct(s)
        a, b = s.ordinary(), inv.ordinary()
        for n in range(9):
            conv = sum(a[k] * b[n - k] for k in range(n + 1))
            assert conv == (1 if n == 0 else 0)


def test_comp_direct_examples():
    g = comp_inverse_direct(ExpSeries([0, 1] + [1] * 7))
    assert all(g.coeffs[n] == (-1) ** (n - 1) * factorial(n - 1)
               for n in range(1, 9))
    x = ExpSeries([0, 1, 0, 0])
    assert comp_inverse_direct(x) == x
    with pytest.raises(ValueError):
        comp_inverse_direct(ExpSeries([0, 2, 1]))
    with pytest.raises(ValueError):
        comp_inverse_direct(ExpSeries([1, 1]))


def test_comp_direct_low_order_formulas():
    rng = random.Random(17)
    for _ in range(20):
        a2, a3, a4 = rand_fracs(rng, 3)
        g = comp_inverse_direct(ExpSeries([0, 1, a2, a3, a4]))
        assert g.coeffs[2] == -a2
        assert g.coeffs[3] == -a3 + 3 * a2 ** 2
        assert g.coeffs[4] == -a4 + 10 * a2 * a3 - 15 * a2 ** 3


def test_comp_direct_two_sided():
    rng = random.Random(23)
    s = ExpSeries([0, 1] + rand_fracs(rng, 6))
    g = comp_inverse_direct(s)
    fo, go = s.ordinary(), g.ordinary()

    def compose(outer, inner):
        n_max = len(outer) - 1
        res = [F(0)] * (n_max + 1)
        for c in reversed(outer):
            nxt = [F(0)] * (n_max + 1)
            for i, ri in enumerate(res):
                if ri:
                    for j, bj in enumerate(inner):
                        if i + j <= n_max:
                            nxt[i + j] += ri * bj
            nxt[0] += c
            res = nxt
        return tuple(res)

    ident = (F(0), F(1)) + (F(0),) * 6
    assert compose(go, list(fo)) == ident
    assert compose(list(fo), go) == ident


def test_permutohedral_matches_direct():
    rng = random.Random(37)
    for _ in range(8):
        s = ExpSeries([1] + rand_fracs(rng, 8))
        assert mult_inverse_permutohedral(s) == mult_inverse_direct(s)


def test_permutohedral_small_formulas():
    a1, a2, a3 = F(2, 5), F(-3, 4), F(7, 2)
    s = ExpSeries([1, a1, a2, a3])
    b = mult_inverse_permutohedral(s).coeffs
    assert b[1] == -a1
    assert b[2] == -a2 + 2 * a1 ** 2
    assert b[3] == -a3 + 6 * a1 * a2 - 6 * a1 ** 3


def test_permutohedral_guard():
    with pytest.raises(ValueError):
        mult_inverse_permutohedral(ExpSeries([1] + [0] * 10))


def test_strata_matches_direct():
    rng = random.Random(41)
    for order in (8, 8, 8, 8, 9, 10, 11, 12):
        s = ExpSeries([0, 1] + rand_fracs(rng, order - 1))
        assert comp_inverse_strata(s) == comp_inverse_direct(s)


def _coefficient(rng, kind):
    if kind == "zero":  # mostly zeros, the rest small fractions
        return rng.choice((0, 0, 0, rand_fracs(rng, 1)[0]))
    if kind == "int":  # common denominator 1
        return rng.randint(-9, 9)
    return F(rng.choice((-1, 1)) * 10 ** 30 + rng.randint(0, 10 ** 6),
             7 ** 20 * rng.randint(1, 12))


def test_census_routes_match_direct_at_every_order():
    # one seeded series per order and coefficient kind, each census route
    # against its direct route and its integer sum against the per-term one
    rng = random.Random(2411)
    for kind in ("zero", "int", "big"):
        for order in range(MAX_PERM_ORDER + 1):
            s = ExpSeries([1] + [_coefficient(rng, kind)
                                 for _ in range(order)])
            strata = [permutohedron_faces(n - 1)
                      for n in range(1, order + 1)]
            assert _census_sum(s, strata, 0) == \
                census_sum_fractions(s, strata, 0)
            assert mult_inverse_permutohedral(s) == mult_inverse_direct(s)
        for order in range(1, MAX_ORDER + 1):
            s = ExpSeries([0, 1] + [_coefficient(rng, kind)
                                    for _ in range(order - 1)])
            strata = [dm_valence_census(n + 1)
                      for n in range(2, order + 1)]
            assert _census_sum(s, strata, 1) == \
                census_sum_fractions(s, strata, 1)
            assert comp_inverse_strata(s) == comp_inverse_direct(s)


def test_direct_comp_inverse_matches_horner_oracle():
    # the powers of f built once against re-composing for every order
    rng = random.Random(1212)
    for i in range(300):
        order = 1 + i % MAX_ORDER
        s = ExpSeries([0, 1] + rand_fracs(rng, order - 1))
        assert comp_inverse_direct(s) == comp_inverse_horner(s)


def test_strata_identity_series():
    x = ExpSeries([0, 1, 0, 0, 0])
    assert comp_inverse_strata(x) == x


def test_strata_guard():
    # the strata route runs to the series cap, which ExpSeries enforces
    x = ExpSeries([0, 1] + [0] * (MAX_ORDER - 1))
    assert comp_inverse_strata(x) == x


def test_involutions():
    rng = random.Random(53)
    s = ExpSeries([1] + rand_fracs(rng, 8))
    assert mult_inverse_direct(mult_inverse_direct(s)) == s
    s = ExpSeries([0, 1] + rand_fracs(rng, 7))
    assert comp_inverse_direct(comp_inverse_direct(s)) == s


def test_differential_examples():
    d1 = differential(word(1))
    assert d1 == 2 * word(0, 0)
    assert d1.collapse_points() == 2 * word(0)
    d2 = differential(word(2))
    assert d2 == 6 * word(1, 0)
    square = word(1) * word(1)
    dsq = differential(square)
    assert dsq == 4 * word(1, 0, 0)
    assert dsq.collapse_points() == 4 * word(1, 0)
    assert differential(word(0)) == POLY_ZERO


def test_polysum_algebra():
    p = 3 * word(2) - word(1, 1)
    q = word(0) + 2 * word(1)
    assert p * q == q * p
    assert (p + q) - q == p
    assert p * POLY_ZERO == POLY_ZERO
    assert (2 * word(1)).evaluate_ones() == 2
    assert (word(3, 2) - word(5)).evaluate_ones() == 0


def test_leibniz_property():
    rng = random.Random(67)
    words = [word(0), word(1), word(2), word(3), word(1, 1), word(2, 0)]
    for _ in range(12):
        p = sum((rng.randint(-3, 3) * w for w in rng.sample(words, 3)),
                POLY_ZERO)
        q = sum((rng.randint(-3, 3) * w for w in rng.sample(words, 2)),
                POLY_ZERO)
        assert differential(p * q) == differential(p) * q + p * differential(q)


def test_facet_census_shadow():
    # raw facet terms of dP^m match the codim-1 face census
    for m in range(1, 7):
        raw = differential(word(m)).as_dict()
        faces = {}
        for (_, sizes), count in permutohedron_faces(m).items():
            if len(sizes) == 2:
                w = tuple(sorted((s - 1 for s in sizes), reverse=True))
                faces[w] = faces.get(w, 0) + count
        assert raw == faces


def test_generating_function_structure():
    gf = generating_function(1)
    assert gf == (word(1), 2 * word(0))
    gf2 = generating_function(2)
    assert gf2 == (word(2), 6 * word(1, 0), 6 * word(0))
    assert isinstance(gf2, tuple)
    gf3 = generating_function(3)
    assert gf3[0] == word(3)
    assert gf3[3].evaluate_ones() == 24


def test_euler_interior_law():
    for m in range(9):
        assert euler_interior(m) == (-1) ** m
