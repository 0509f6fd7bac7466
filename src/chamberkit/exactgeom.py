"""Exact rational linear geometry.

Linear constraints and H-polytopes over Fraction coordinates, plus a small
two-phase simplex (Bland's rule) used for feasibility with mixed strict and
non-strict constraints, affine dimension, and relative interior points.
All arithmetic is exact; no tolerance parameter exists anywhere in here.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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
# Simplex core: minimize c.y subject to A y = b, y >= 0, with b >= 0.

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

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


def _bland_step(T, basis, cost, ncols):
    """One simplex iteration on tableau T with explicit cost row.

    Returns "pivoted", "optimal" or "unbounded"."""
    enter = -1
    for j in range(ncols):
        if cost[j] < 0:
            enter = j
            break
    if enter < 0:
        return OPTIMAL
    leave = -1
    best = None
    for i, row in enumerate(T):
        a = row[enter]
        if a > 0:
            ratio = row[-1] / a
            if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                best = ratio
                leave = i
    if leave < 0:
        return UNBOUNDED
    piv = T[leave][enter]
    prow = T[leave]
    if piv != 1:
        T[leave] = prow = [v / piv for v in prow]
    for i, other in enumerate(T):
        if i != leave and other[enter] != 0:
            f = other[enter]
            T[i] = [x - f * y for x, y in zip(other, prow)]
    f = cost[enter]
    if f != 0:
        for j in range(len(cost)):
            cost[j] -= f * prow[j]
    basis[leave] = enter
    return "pivoted"


def _solve_standard(A, b, c):
    """Two-phase simplex. Returns (status, y, value) for min c.y, Ay=b, y>=0."""
    m = len(A)
    n = len(c)
    rows = []
    rhs = []
    for i in range(m):
        if b[i] < 0:
            rows.append([-v for v in A[i]])
            rhs.append(-b[i])
        else:
            rows.append(list(A[i]))
            rhs.append(b[i])
    # artificial columns n .. n+m-1
    T = []
    for i in range(m):
        art = [_ZERO] * m
        art[i] = _ONE
        T.append(rows[i] + art + [rhs[i]])
    basis = [n + i for i in range(m)]
    ncols = n + m
    # phase 1 reduced costs (artificials basic with cost 1)
    cost = [_ZERO] * (ncols + 1)
    for j in range(ncols):
        s = -sum(T[i][j] for i in range(m))
        cost[j] = s + (_ONE if j >= n else _ZERO)
    cost[-1] = -sum(rhs)
    while True:
        res = _bland_step(T, basis, cost, ncols)
        if res == OPTIMAL:
            break
        if res == UNBOUNDED:  # cannot happen in phase 1
            raise RuntimeError("phase 1 unbounded")
    if -cost[-1] != 0:
        return INFEASIBLE, None, None
    # drive artificials out of the basis; drop redundant rows
    drop = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), -1)
            if col < 0:
                drop.append(i)
            else:
                _pivot(T, basis, i, col)
    if drop:
        T = [row for i, row in enumerate(T) if i not in drop]
        basis = [bv for i, bv in enumerate(basis) if i not in drop]
    # strip artificial columns
    T = [row[:n] + [row[-1]] for row in T]
    # phase 2 reduced costs
    cost = [_ZERO] * (n + 1)
    for j in range(n):
        cost[j] = c[j] - sum(c[basis[i]] * T[i][j] for i in range(len(T)))
    cost[-1] = -sum(c[basis[i]] * T[i][-1] for i in range(len(T)))
    while True:
        res = _bland_step(T, basis, cost, n)
        if res == OPTIMAL:
            break
        if res == UNBOUNDED:
            return UNBOUNDED, None, None
    y = [_ZERO] * n
    for i, bj in enumerate(basis):
        y[bj] = T[i][-1]
    return OPTIMAL, y, -cost[-1]


def _maximize(objective, rows, n):
    """Maximize objective . x over free x in R^n subject to rows.

    rows: list of (coeffs, rel, const) with rel in {eq, le}.
    Returns (status, x, value).
    """
    # x_j = u_j - v_j with u, v >= 0; one slack per inequality
    nslack = sum(1 for _, rel, _ in rows if rel == LE)
    N = 2 * n + nslack
    A = []
    b = []
    si = 0
    for coeffs, rel, const in rows:
        row = [_ZERO] * N
        for j, a in enumerate(coeffs):
            if a != 0:
                row[2 * j] = Fraction(a)
                row[2 * j + 1] = -Fraction(a)
        if rel == LE:
            row[2 * n + si] = _ONE
            si += 1
        A.append(row)
        b.append(Fraction(const))
    c = [_ZERO] * N
    for j, a in enumerate(objective):
        if a != 0:
            c[2 * j] = -Fraction(a)
            c[2 * j + 1] = Fraction(a)
    status, y, value = _solve_standard(A, b, c)
    if status != OPTIMAL:
        return status, None, None
    x = [y[2 * j] - y[2 * j + 1] for j in range(n)]
    return OPTIMAL, x, -value


def _split(constraints):
    loose = []
    strict = []
    for c in constraints:
        if c.rel == LT:
            strict.append(c)
        else:
            loose.append(c)
    return loose, strict


def lp_feasible(constraints):
    """Exact feasibility for a mixed strict/non-strict rational system.

    Returns a witness point (list of Fractions) or None when infeasible.
    Strict inequalities are certified through a shared slack variable g in
    (0, 1]: the system a.x < c is feasible iff max g subject to a.x + g <= c
    is positive.
    """
    constraints = list(constraints)
    if not constraints:
        return []
    n = len(constraints[0].coeffs)
    for c in constraints:
        if len(c.coeffs) != n:
            raise ValueError("mixed constraint arities")
    loose, strict = _split(constraints)
    if not strict:
        rows = [(c.coeffs, c.rel, c.const) for c in loose]
        status, x, _ = _maximize([_ZERO] * n, rows, n)
        return x if status == OPTIMAL else None
    # gap variable is coordinate n
    rows = [(tuple(c.coeffs) + (_ZERO,), c.rel, c.const) for c in loose]
    for c in strict:
        rows.append((tuple(c.coeffs) + (_ONE,), LE, c.const))
    gapcol = [_ZERO] * n + [_ONE]
    rows.append((tuple(gapcol), LE, _ONE))
    status, x, value = _maximize(gapcol, rows, n + 1)
    if status != OPTIMAL or value <= 0:
        return None
    return x[:n]


def _rank(vectors):
    """Rank of a list of rational vectors, by Gaussian elimination."""
    rows = [list(v) for v in vectors if any(x != 0 for x in v)]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), -1)
        if piv < 0:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / prow[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
        col += 1
    return rank


def _max_slack(target, others, n):
    """Maximize min(slack of target, 1) over the closed system others."""
    rows = [(tuple(c.coeffs) + (_ZERO,), EQ if c.rel == EQ else LE, c.const) for c in others]
    # t <= const - coeffs.x  and t <= 1
    rows.append((tuple(target.coeffs) + (_ONE,), LE, target.const))
    tcol = [_ZERO] * n + [_ONE]
    rows.append((tuple(tcol), LE, _ONE))
    status, x, value = _maximize(tcol, rows, n + 1)
    if status != OPTIMAL:
        return None, None
    return value, x[:n]


def affine_dimension(p: HPolytope) -> int:
    """Dimension of the affine hull of the solution set; -1 when empty.

    The affine hull of a feasible system is cut out by its stated equalities
    together with the implicit ones (inequalities that cannot be slack).
    """
    cons = [c.normalized() for c in p.constraints]
    if lp_feasible(cons) is None:
        return -1
    closed = [LinConstraint(c.coeffs, EQ if c.rel == EQ else LE, c.const) for c in cons]
    eq_rows = [c.coeffs for c in closed if c.rel == EQ]
    n = p.ambient_dim
    for i, c in enumerate(closed):
        if c.rel != LE:
            continue
        value, _ = _max_slack(c, closed, n)
        if value == 0:
            eq_rows.append(c.coeffs)
    if not eq_rows:
        return n
    return n - _rank(eq_rows)


def relative_interior_point(p: HPolytope):
    """A point in the relative interior of the solution set, or None.

    Every inequality that can be slack at all is strictly slack at the
    returned point (implicit equalities stay tight, as they must); strict
    constraints are strictly satisfied. Built by averaging one feasibility
    witness with per-inequality maximum-slack witnesses.
    """
    cons = [c.normalized() for c in p.constraints]
    n = p.ambient_dim
    closed = [LinConstraint(c.coeffs, EQ if c.rel == EQ else LE, c.const) for c in cons]
    base = lp_feasible(closed)
    if base is None:
        return None
    points = [base]
    for i, c in enumerate(cons):
        if c.rel == EQ:
            continue
        target = closed[i]
        value, witness = _max_slack(target, closed, n)
        if value == 0:
            if c.rel == LT:
                return None  # a strict constraint forced tight: empty strict set
            continue  # implicit equality: stays tight everywhere
        points.append(witness)
    k = Fraction(len(points))
    return [sum(pt[j] for pt in points) / k for j in range(n)]
