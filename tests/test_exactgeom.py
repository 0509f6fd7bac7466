from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from chamberkit.exactgeom import (EQ, LE, LT, HPolytope, LinConstraint,
                                  affine_dimension, eq, ge, gt, le, lt,
                                  lp_feasible, relative_interior_point)

from cell_oracles import fourier_motzkin_feasible


def square():
    return HPolytope(2, (le([1, 0], 1), le([0, 1], 1), ge([1, 0], 0), ge([0, 1], 0)))


def test_normalization_clears_denominators():
    c = LinConstraint([F(1, 2), F(1, 3)], LE, F(5, 6)).normalized()
    assert all(v.denominator == 1 for v in c.coeffs)
    assert c.const.denominator == 1
    assert c.coeffs == (F(3), F(2)) and c.const == F(5)


def test_normalization_eq_sign_canonical():
    a = LinConstraint([-2, 4], EQ, -6).normalized()
    b = LinConstraint([1, -2], EQ, 3).normalized()
    assert a == b


def test_lp_feasible_plain():
    w = lp_feasible([le([1, 1], 1), ge([1, 0], 0), ge([0, 1], 0)])
    assert w is not None
    assert w[0] >= 0 and w[1] >= 0 and w[0] + w[1] <= 1


def test_lp_feasible_strict_witness():
    cons = [gt([1, 0], 0), gt([0, 1], 0), lt([1, 1], 1)]
    w = lp_feasible(cons)
    assert w is not None
    assert w[0] > 0 and w[1] > 0 and w[0] + w[1] < 1


def test_lp_infeasible():
    assert lp_feasible([gt([1], 0), lt([1], 0)]) is None
    assert lp_feasible([ge([1], 1), le([1], 0)]) is None


def test_lp_strict_unbounded_direction():
    w = lp_feasible([gt([1], 3)])
    assert w is not None and w[0] > 3


def test_lp_strict_closure_feasible_but_open_empty():
    # x >= 0, x <= 0, x > 0 has feasible closure, empty open part
    assert lp_feasible([ge([1], 0), le([1], 0), gt([1], 0)]) is None


def test_affine_dimension():
    assert affine_dimension(square()) == 2
    seg = HPolytope(2, tuple(square().constraints) + (eq([1, -1], 0),))
    assert affine_dimension(seg) == 1
    pt = HPolytope(2, (eq([1, 0], F(1, 3)), eq([0, 1], F(2, 3))))
    assert affine_dimension(pt) == 0
    empty = HPolytope(1, (le([1], 0), ge([1], 1)))
    assert affine_dimension(empty) == -1


def test_affine_dimension_implicit_equality():
    # x <= 0 and x >= 0 written as inequalities still collapse a dimension
    p = HPolytope(2, (le([1, 0], 0), ge([1, 0], 0), le([0, 1], 1), ge([0, 1], 0)))
    assert affine_dimension(p) == 1


def _assert_relative_interior(p, point):
    assert point is not None
    for c in p.constraints:
        assert c.holds(point)
        if c.rel == EQ:
            continue
        strictly = LinConstraint(list(c.coeffs), LT, c.const)
        if lp_feasible(list(p.constraints) + [strictly]) is not None:
            assert strictly.holds(point)


def test_relative_interior_square():
    p = square()
    _assert_relative_interior(p, relative_interior_point(p))


def test_relative_interior_segment():
    p = HPolytope(2, tuple(square().constraints) + (eq([1, -1], 0),))
    w = relative_interior_point(p)
    _assert_relative_interior(p, w)
    assert w[0] == w[1] and 0 < w[0] < 1


def test_relative_interior_degenerate_face():
    p = HPolytope(2, (le([1, 0], 0), ge([1, 0], 0), le([0, 1], 1), ge([0, 1], 0)))
    w = relative_interior_point(p)
    _assert_relative_interior(p, w)
    assert w[0] == 0 and 0 < w[1] < 1


def test_relative_interior_empty():
    p = HPolytope(1, (le([1], 0), ge([1], 1)))
    assert relative_interior_point(p) is None


def test_constraint_arity_checked():
    with pytest.raises(ValueError):
        HPolytope(2, (le([1, 0, 0], 1),))
    with pytest.raises(ValueError):
        lp_feasible([le([1, 0], 1), le([1], 0)])


small = st.integers(min_value=-4, max_value=4)


# systems of 1 to 6 rows in 2 or 3 variables, every relation allowed
systems = st.integers(2, 3).flatmap(
    lambda n: st.lists(
        st.tuples(st.lists(small, min_size=n, max_size=n),
                  st.sampled_from(["le", "ge", "lt", "gt", "eq"]),
                  small),
        min_size=1, max_size=6))
builders = {"le": le, "ge": ge, "lt": lt, "gt": gt, "eq": eq}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(systems)
def test_lp_witness_satisfies_all(rows):
    cons = [builders[r](c, k) for c, r, k in rows]
    w = lp_feasible(cons)
    if w is not None:
        for c in cons:
            assert c.holds(w)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(systems)
def test_lp_verdict_matches_fourier_motzkin(rows):
    # the infeasible verdicts too, which no witness can check; shrunk toward
    # the origin, the same system keeps its verdict with gaps well below 1
    cons = [builders[r](c, k) for c, r, k in rows]
    verdict = fourier_motzkin_feasible(cons)
    assert (lp_feasible(cons) is not None) == verdict
    shrunk = [LinConstraint(c.coeffs, c.rel, c.const / 16) for c in cons]
    assert (lp_feasible(shrunk) is not None) == verdict


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.lists(small, min_size=2, max_size=2), small),
                min_size=1, max_size=5))
def test_relint_consistent_with_dimension(rows):
    cons = [le(c, k) for c, k in rows] + [le([1, 0], 3), ge([1, 0], -3),
                                          le([0, 1], 3), ge([0, 1], -3)]
    p = HPolytope(2, tuple(cons))
    d = affine_dimension(p)
    w = relative_interior_point(p)
    if d < 0:
        assert w is None
    else:
        _assert_relative_interior(p, w)
