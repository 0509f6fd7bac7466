"""Parsing and formatting of exact rationals as "p/q" strings."""

from fractions import Fraction


def format_rational(x) -> str:
    """Serialize a Fraction (or int) as "p/q", omitting "/q" when q == 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction. Rejects floats and empty input."""
    s = s.strip()
    if not s:
        raise ValueError("empty rational")
    if "." in s or "e" in s or "E" in s:
        raise ValueError("rationals must be given exactly as p/q, got %r" % s)
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def parse_vector(s: str) -> tuple:
    """Parse a comma separated vector of rationals; an empty field is an error."""
    parts = s.split(",")
    if any(not p.strip() for p in parts):
        raise ValueError("empty field in rational vector %r" % s)
    return tuple(parse_rational(p) for p in parts)
