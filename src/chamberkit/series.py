"""Truncated exponential power series over exact rationals, their direct
inverses, census-driven inversion formulas, and the differential algebra of
permutohedra with face generating functions.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .cache import cached
from .ratutil import scaled
from .strata import MAX_PERM_M, dm_valence_census, permutohedron_faces

MAX_ORDER = 12
MAX_PERM_ORDER = MAX_PERM_M + 1  # order n reads the (n-1)-permutohedron


@dataclass(frozen=True)
class ExpSeries:
    """Coefficients a_0..a_N of the series sum a_n x^n / n!."""

    coeffs: tuple

    def __init__(self, coeffs):
        vals = tuple(Fraction(c) for c in coeffs)
        if not vals:
            raise ValueError("need at least the constant coefficient")
        if len(vals) - 1 > MAX_ORDER:
            raise ValueError("order capped at %d" % MAX_ORDER)
        object.__setattr__(self, "coeffs", vals)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def ordinary(self):
        """Plain power-series coefficients a_n / n!."""
        return tuple(c / factorial(k) for k, c in enumerate(self.coeffs))

    @classmethod
    def from_ordinary(cls, coeffs):
        return cls(tuple(Fraction(c) * factorial(k)
                         for k, c in enumerate(coeffs)))

    def truncated(self, order):
        if order > MAX_ORDER:
            raise ValueError("order capped at %d" % MAX_ORDER)
        if order >= self.order:
            return ExpSeries(self.coeffs + (0,) * (order - self.order))
        return ExpSeries(self.coeffs[:order + 1])


def _require_mult(f):
    if f.coeffs[0] != 1:
        raise ValueError("multiplicative inversion needs constant term 1")


def _require_comp(f):
    if f.coeffs[0] != 0 or f.order < 1 or f.coeffs[1] != 1:
        raise ValueError("compositional inversion needs a_0 = 0, a_1 = 1")


def mult_inverse_direct(f):
    """Coefficient recursion for g with f * g = 1."""
    _require_mult(f)
    n_max = f.order
    b = [Fraction(1)] + [Fraction(0)] * n_max
    for n in range(1, n_max + 1):
        total = Fraction(0)
        for k in range(1, n + 1):
            total += comb(n, k) * f.coeffs[k] * b[n - k]
        b[n] = -total
    return ExpSeries(b)


def _poly_mul(a, b, n_max):
    out = [Fraction(0)] * (n_max + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > n_max:
            continue
        for j, bj in enumerate(b):
            if i + j > n_max:
                break
            out[i + j] += ai * bj
    return out


def comp_inverse_direct(f):
    """Triangular solve for g with g(f(x)) = x.  With f_0 = 0 and f_1 = 1
    the x^n coefficient of g(f) is g_n + sum_{k<n} g_k [x^n] f^k, so each
    g_n follows from the powers f^k, built once."""
    _require_comp(f)
    n_max = f.order
    fo = f.ordinary()
    powers = [None, fo]  # powers[k] = f^k, truncated after x^n_max
    for _ in range(2, n_max):
        powers.append(_poly_mul(powers[-1], fo, n_max))
    g = [Fraction(0), Fraction(1)]
    for n in range(2, n_max + 1):
        g.append(-sum(g[k] * powers[k][n] for k in range(1, n)))
    return ExpSeries.from_ordinary(g)


def _census_sum(f, strata, shift):
    """Per census in strata, a dict keyed (grade, parts) -> count, the sum
    of count times the product of -a_{p - shift} over the parts, summed as
    integer numerators over d ** top: d the common denominator of f, top
    the most parts.  The grade is not read."""
    d, neg = scaled([-c for c in f.coeffs])
    out = []
    for census in strata:
        top = max(len(parts) for _, parts in census)
        total = 0
        for (_, parts), count in census.items():
            term = count * d ** (top - len(parts))
            for p in parts:
                term *= neg[p - shift]
            total += term
        out.append(Fraction(total, d ** top))
    return out


def mult_inverse_permutohedral(f):
    """Multiplicative inverse summed over ordered set partitions (the faces
    of the permutohedron): b_n = sum over k of (-1)^k times the ordered
    k-block partitions weighted by products of block coefficients."""
    _require_mult(f)
    if f.order > MAX_PERM_ORDER:
        raise ValueError("permutohedral route capped at order %d"
                         % MAX_PERM_ORDER)
    return ExpSeries([1] + _census_sum(
        f, (permutohedron_faces(n - 1) for n in range(1, f.order + 1)), 0))


def comp_inverse_strata(f):
    """Compositional inverse summed over boundary strata one level up:
    b_n collects, per stratum, the product of -a_{val-1} over vertices."""
    _require_comp(f)
    return ExpSeries([0, 1] + _census_sum(
        f, (dm_valence_census(n + 1) for n in range(2, f.order + 1)), 1))


# ---------------------------------------------------------------------------
# differential algebra of permutohedra


def _norm_terms(d):
    return tuple(sorted((w, c) for w, c in d.items() if c != 0))


@dataclass(frozen=True)
class PolySum:
    """Integer combination of commutative words in the generators P_e^m;
    a word is the sorted tuple of its generator dimensions."""

    terms: tuple

    @staticmethod
    def make(d):
        return PolySum(_norm_terms(d))

    def as_dict(self):
        return dict(self.terms)

    def __add__(self, other):
        out = self.as_dict()
        for w, c in other.terms:
            out[w] = out.get(w, 0) + c
        return PolySum.make(out)

    def __neg__(self):
        return PolySum(tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return PolySum.make({w: c * other for w, c in self.terms})
        out = {}
        for w1, c1 in self.terms:
            for w2, c2 in other.terms:
                w = tuple(sorted(w1 + w2, reverse=True))
                out[w] = out.get(w, 0) + c1 * c2
        return PolySum.make(out)

    __rmul__ = __mul__

    def differential(self):
        """Leibniz extension of the facet rule for a single permutohedron."""
        out = {}
        for word, coeff in self.terms:
            for idx, m in enumerate(word):
                rest = word[:idx] + word[idx + 1:]
                for s in range(1, m + 1):
                    w = tuple(sorted(rest + (s - 1, m - s), reverse=True))
                    out[w] = out.get(w, 0) + coeff * comb(m + 1, s)
        return PolySum.make(out)

    def collapse_points(self):
        """Identify repeated point factors: at most one P_e^0 per word."""
        out = {}
        for word, coeff in self.terms:
            pos = tuple(m for m in word if m > 0)
            if len(pos) < len(word):
                pos = pos + (0,)
            out[pos] = out.get(pos, 0) + coeff
        return PolySum.make(out)

    def evaluate_ones(self):
        """The evaluation sending every generator to 1."""
        return sum(c for _w, c in self.terms)


def word(*dims):
    return PolySum(((tuple(sorted(dims, reverse=True)), 1),))


def differential(p):
    return p.differential()


@cached
def generating_function(m):
    """Face generating function of P_e^m, as its coefficients: that of t^j
    collects the codimension-j faces as a PolySum."""
    per_codim = [dict() for _ in range(m + 1)]
    for (k, sizes), count in permutohedron_faces(m).items():
        w = tuple(sorted((s - 1 for s in sizes), reverse=True))
        per_codim[k - 1][w] = per_codim[k - 1].get(w, 0) + count
    return tuple(PolySum.make(d).collapse_points() for d in per_codim)


def euler_interior(m):
    return sum((-1) ** j * c.evaluate_ones()
               for j, c in enumerate(generating_function(m)))
