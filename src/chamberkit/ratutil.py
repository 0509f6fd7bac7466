"""Parsing and formatting of exact rationals as "p/q" strings, rational
vectors over one common denominator, and exact row reduction of integer
rows: one fraction-free echelon step (_eliminate), which the rank of a row
list (_rank), its independent rows (_independent) and the integer searches
of hypersimplex and weights share."""

import re
from fractions import Fraction
from math import lcm

# An integer is an optional sign and ASCII digits, and a rational p or p/q:
# int() alone would also take "_" separators, inner whitespace and non-ASCII
# digits.
_INT = r"[+-]?[0-9]+"
_RATIONAL = re.compile(r"(%s)(?:/(%s))?" % (_INT, _INT))
_INTEGER = re.compile(_INT)


def format_rational(x) -> str:
    """Serialize an int or Fraction as "p/q", omitting "/q" when q == 1;
    anything else is read as Fraction(x) first."""
    if isinstance(x, int):
        return "%d" % x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x.denominator == 1:
        return "%d" % x.numerator
    return "%d/%d" % (x.numerator, x.denominator)


def scaled(vec):
    """(d, nums): the entries of vec as integer numerators over their least
    common denominator d > 0, so that vec[i] == nums[i] / d.  Entries are
    ints or Fractions; anything else is read as Fraction(x) first."""
    vec = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in vec]
    d = lcm(*(x.denominator for x in vec))
    return d, tuple(x.numerator * (d // x.denominator) for x in vec)


def _eliminate(row, rhs, ech, pivs):
    """One fraction-free echelon step: reduce (row, rhs) against the rows
    (coeffs, rhs) of ech, whose pivot columns are pivs.  Returns the reduced
    row, its right-hand side and its pivot, -1 when the row is dependent."""
    for (eco, erh), p in zip(ech, pivs):
        f = row[p]
        if f:
            ep = eco[p]
            row = [a * ep - f * b for a, b in zip(row, eco)]
            rhs = rhs * ep - f * erh
    return row, rhs, next((j for j, c in enumerate(row) if c), -1)


def _independent(rows):
    """Indices of the rows that are independent of the rows before them: a
    basis of the span, earliest rows first."""
    ech = []
    pivs = []
    kept = []
    for i, row in enumerate(rows):
        row, _, piv = _eliminate(row, 0, ech, pivs)
        if piv >= 0:
            ech.append((row, 0))
            pivs.append(piv)
            kept.append(i)
    return kept


def _rank(rows):
    """Rank of the rows."""
    return len(_independent(rows))


def parse_int(s: str) -> int:
    """Parse an optional sign and ASCII digits, surrounding whitespace
    allowed, into an int; other input raises int()'s ValueError."""
    if _INTEGER.fullmatch(s.strip()) is None:
        raise ValueError("invalid literal for int() with base 10: %r" % s)
    return int(s)


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p", surrounding whitespace allowed, into a Fraction.
    Rejects floats, empty input and anything but a sign and ASCII digits."""
    s = s.strip()
    if not s:
        raise ValueError("empty rational")
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise ValueError("rationals must be given exactly as p/q, got %r" % s)
    num, den = match.groups()
    return Fraction(int(num), int(den or 1))


def parse_vector(s: str) -> tuple:
    """Parse a comma separated vector of rationals; an empty field is an error."""
    parts = s.split(",")
    if any(not p.strip() for p in parts):
        raise ValueError("empty field in rational vector %r" % s)
    return tuple(parse_rational(p) for p in parts)
