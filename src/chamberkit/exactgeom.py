"""Exact constraint systems and simplex feasibility.

Linear constraints and H-polytopes over Fraction coordinates, a small
two-phase simplex for feasibility with mixed strict and non-strict
constraints, affine dimension, and relative interior points.  The rank
behind affine_dimension is ratutil's exact row reduction.

The simplex keeps the reduced costs as the last row of its tableau, so one
loop (_simplex, Bland's rule) runs both phases.  It solves one LP shape, the
gap LP _max_gap: maximize g <= 1 subject to the non-strict rows and
c.x + g <= const for each strict row.  A system is feasible iff that optimum
is positive; with one closed inequality as the only strict row the optimum is
its maximum slack, which finds the implicit equalities behind
affine_dimension and relative_interior_point.  All arithmetic is exact; no
tolerance parameter exists anywhere in here.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .ratutil import _rank

EQ = "eq"
LE = "le"
LT = "lt"

_RELS = (EQ, LE, LT)


def _as_fractions(xs):
    return tuple(Fraction(x) for x in xs)


@dataclass(frozen=True)
class LinConstraint:
    """A linear condition coeffs . x (rel) const with rel in {eq, le, lt}."""

    coeffs: tuple
    rel: str
    const: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_fractions(self.coeffs))
        object.__setattr__(self, "const", Fraction(self.const))
        if self.rel not in _RELS:
            raise ValueError("unknown relation %r" % (self.rel,))

    def normalized(self):
        """Integer canonical form: common denominator cleared, gcd divided out.

        Equalities additionally get a canonical sign (first nonzero coefficient
        positive); inequalities keep their orientation.
        """
        nums = list(self.coeffs) + [self.const]
        den = 1
        for v in nums:
            den = den * v.denominator // gcd(den, v.denominator)
        ints = [int(v * den) for v in nums]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        if self.rel == EQ:
            lead = next((v for v in ints if v != 0), 1)
            if lead < 0:
                ints = [-v for v in ints]
        return LinConstraint(tuple(Fraction(v) for v in ints[:-1]), self.rel, Fraction(ints[-1]))

    def evaluate(self, point):
        return sum(a * x for a, x in zip(self.coeffs, point))

    def holds(self, point) -> bool:
        v = self.evaluate(point)
        if self.rel == EQ:
            return v == self.const
        if self.rel == LE:
            return v <= self.const
        return v < self.const


def eq(coeffs, const):
    return LinConstraint(coeffs, EQ, const)


def le(coeffs, const):
    return LinConstraint(coeffs, LE, const)


def lt(coeffs, const):
    return LinConstraint(coeffs, LT, const)


def ge(coeffs, const):
    return LinConstraint([-Fraction(c) for c in coeffs], LE, -Fraction(const))


def gt(coeffs, const):
    return LinConstraint([-Fraction(c) for c in coeffs], LT, -Fraction(const))


@dataclass(frozen=True)
class HPolytope:
    """A finite list of linear constraints in a fixed ambient dimension."""

    ambient_dim: int
    constraints: tuple

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for c in self.constraints:
            if len(c.coeffs) != self.ambient_dim:
                raise ValueError("constraint arity %d != ambient dimension %d"
                                 % (len(c.coeffs), self.ambient_dim))


# ---------------------------------------------------------------------------
# Simplex core: one tableau whose last row holds the reduced costs, so that a
# pivot updates the objective with every other row.

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(T, basis, r, c):
    piv = T[r][c]
    row = T[r]
    if piv != 1:
        T[r] = row = [v / piv for v in row]
    for i, other in enumerate(T):
        if i == r:
            continue
        f = other[c]
        if f != 0:
            T[i] = [x - f * y for x, y in zip(other, row)]
    basis[r] = c


def _simplex(T, basis, ncols):
    """Pivot T (cost row last) to optimality by Bland's rule over columns
    0 .. ncols-1.  Returns False when the objective is unbounded."""
    while True:
        enter = next((j for j in range(ncols) if T[-1][j] < 0), -1)
        if enter < 0:
            return True
        leave = -1
        best = None
        for i in range(len(T) - 1):
            a = T[i][enter]
            if a > 0:
                ratio = T[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return False
        _pivot(T, basis, leave, enter)


def _solve_standard(A, b, c):
    """Two-phase simplex for min c.y, Ay = b, y >= 0 with a bounded
    objective.  Returns the optimal y, or None when infeasible."""
    m = len(A)
    n = len(c)
    # one artificial column per row (n .. n+m-1), rows signed so that b >= 0
    T = []
    for i, (row, rhs) in enumerate(zip(A, b)):
        if rhs < 0:
            row, rhs = [-v for v in row], -rhs
        art = [_ZERO] * m
        art[i] = _ONE
        T.append(row + art + [rhs])
    basis = [n + i for i in range(m)]
    # phase 1 reduced costs: minimize the sum of the artificials
    T.append([-sum(T[i][j] for i in range(m)) for j in range(n)]
             + [_ZERO] * m + [-sum(T[i][-1] for i in range(m))])
    if not _simplex(T, basis, n + m):
        raise RuntimeError("phase 1 unbounded")
    if T[-1][-1] != 0:
        return None
    # drive artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), -1)
            if col < 0:
                continue
            _pivot(T, basis, i, col)
        keep.append(i)
    T = [T[i][:n] + [T[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    # phase 2 reduced costs
    T.append([c[j] - sum(c[bj] * row[j] for bj, row in zip(basis, T)) for j in range(n)]
             + [-sum(c[bj] * row[-1] for bj, row in zip(basis, T))])
    if not _simplex(T, basis, n):
        raise RuntimeError("phase 2 unbounded")
    y = [_ZERO] * n
    for i, bj in enumerate(basis):
        y[bj] = T[i][-1]
    return y


def _max_gap(loose, strict, n):
    """Maximize g <= 1 over free x in R^n subject to the loose (eq, le) rows
    and c.x + g <= const for each strict row c.

    Returns (g, x), or (None, None) when the loose rows alone are infeasible;
    g is free, so the strict rows never are.  A strict system is feasible iff
    g > 0, and a system with no strict row reaches g = 1 when feasible.
    """
    rows = [(c.coeffs, c.rel, c.const, _ZERO) for c in loose]
    rows += [(c.coeffs, LE, c.const, _ONE) for c in strict]
    rows.append(((_ZERO,) * n, LE, _ONE, _ONE))
    # standard form: x_j = y_2j - y_2j+1, g = y_2n - y_2n+1, one slack per le row
    N = 2 * (n + 1) + sum(1 for row in rows if row[1] == LE)
    A = []
    si = 2 * (n + 1)
    for coeffs, rel, const, gap in rows:
        row = [_ZERO] * N
        for j, a in enumerate(coeffs + (gap,)):
            if a != 0:
                row[2 * j] = a
                row[2 * j + 1] = -a
        if rel == LE:
            row[si] = _ONE
            si += 1
        A.append(row)
    c = [_ZERO] * N
    c[2 * n] = -_ONE
    c[2 * n + 1] = _ONE
    y = _solve_standard(A, [row[2] for row in rows], c)
    if y is None:
        return None, None
    return y[2 * n] - y[2 * n + 1], [y[2 * j] - y[2 * j + 1] for j in range(n)]


def lp_feasible(constraints):
    """Exact feasibility for a mixed strict/non-strict rational system.

    Returns a witness point (list of Fractions) or None when infeasible: the
    system is feasible iff its gap LP (_max_gap) has a positive optimum.
    """
    constraints = list(constraints)
    if not constraints:
        return []
    n = len(constraints[0].coeffs)
    for c in constraints:
        if len(c.coeffs) != n:
            raise ValueError("mixed constraint arities")
    value, x = _max_gap([c for c in constraints if c.rel != LT],
                        [c for c in constraints if c.rel == LT], n)
    return x if value is not None and value > 0 else None


def _slack_pass(p):
    """The implicit-equality pass: for the normalized constraints of p,
    (base, slacks) with base a point of the closed system and slacks one
    (constraint, maximum slack capped at 1, witness) per constraint, an
    equality counting as slack 0 with no witness.  None when p is empty:
    its closure is, or some strict constraint cannot be slack.
    """
    cons = [c.normalized() for c in p.constraints]
    closed = [LinConstraint(c.coeffs, EQ if c.rel == EQ else LE, c.const) for c in cons]
    n = p.ambient_dim
    value, base = _max_gap(closed, [], n)
    if value is None:
        return None
    slacks = []
    for c, target in zip(cons, closed):
        value, witness = (_ZERO, None) if c.rel == EQ else _max_gap(closed, [target], n)
        if value == 0 and c.rel == LT:
            return None
        slacks.append((c, value, witness))
    return base, slacks


def affine_dimension(p: HPolytope) -> int:
    """Dimension of the affine hull of the solution set; -1 when empty.

    The affine hull of a feasible system is cut out by its stated equalities
    together with the implicit ones (inequalities that cannot be slack).
    """
    found = _slack_pass(p)
    if found is None:
        return -1
    return p.ambient_dim - _rank([c.coeffs for c, value, _ in found[1] if value == 0])


def relative_interior_point(p: HPolytope):
    """A point in the relative interior of the solution set, or None.

    Every inequality that can be slack at all is strictly slack at the
    returned point (implicit equalities stay tight, as they must); strict
    constraints are strictly satisfied. Built by averaging one feasibility
    witness with per-inequality maximum-slack witnesses.
    """
    found = _slack_pass(p)
    if found is None:
        return None
    base, slacks = found
    points = [base] + [witness for _, value, witness in slacks if value != 0]
    k = Fraction(len(points))
    return [sum(pt[j] for pt in points) / k for j in range(p.ambient_dim)]
