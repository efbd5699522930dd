"""Exact scalar arithmetic: rationals and the real quadratic field Q(sqrt(2)).

Every number in this package is either a ``fractions.Fraction`` or a
``QuadExt`` element a + b*sqrt(2) with rational a, b.  There is no floating
point anywhere; equality is exact.

This module also owns the limit of MAX_NUMBER_DIGITS digits on a number read
or printed, and every test against it: `more_digits` on a number,
`power_has_more_digits` on a power not yet built, and
`numeral_has_more_digits` on the text of a numeral.  A builder that shows
with one of these that a number of its answer would be over leaves
`TOO_LONG` in its place, which `cli.emit` refuses as it refuses a built
number that is over.  `as_fractions` is the one coercion of a coordinate
list to Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Tuple, Union

# The most decimal digits in the numerator or the denominator of a number
# read or printed: CPython's default limit on converting between str and int.
MAX_NUMBER_DIGITS = 4300


class _TooLong:
    """The type of TOO_LONG."""

    def __repr__(self):
        return "TOO_LONG"


# Stands for a number of more than MAX_NUMBER_DIGITS digits left unbuilt.
TOO_LONG = _TooLong()


def more_digits(x: Union[int, Fraction], digits: int) -> bool:
    """Whether the numerator or the denominator of the int or Fraction x has
    more than `digits` digits; 10^digits is built only past 2^(3*digits),
    which is below it."""
    top = max(abs(x.numerator), x.denominator)
    return top.bit_length() > 3 * digits and top >= 10**digits


def power_has_more_digits(x: int, n: int, digits: int, divisor_bits: int) -> bool:
    """True only when, for every y >= 1 of at most divisor_bits bits, the
    numerator of x^n / y in lowest terms has more than `digits` digits;
    decided from bit lengths, without building x^n.  False decides nothing.

    With x >= 1 of bit length L, x^n >= 2^((L-1)n) and y < 2^divisor_bits,
    so that numerator, at least x^n / y, is over 2^(4*digits) > 10^digits
    once (L-1)n >= 4*digits + divisor_bits.  Below that x^n has fewer than
    8*digits + 2*divisor_bits bits (or x = 1), so the caller can build it
    and count its digits exactly."""
    return (x.bit_length() - 1) * n >= 4 * digits + divisor_bits


def numeral_has_more_digits(text: str) -> bool:
    """Whether the text of a numeral has more than MAX_NUMBER_DIGITS digits;
    a text no longer than that has no more digits than it."""
    return len(text) > MAX_NUMBER_DIGITS and sum(c.isdigit() for c in text) > MAX_NUMBER_DIGITS


def as_fractions(coords) -> Tuple[Fraction, ...]:
    """coords as a tuple of Fractions; a Fraction is kept, not rebuilt."""
    return tuple([c if type(c) is Fraction else Fraction(c) for c in coords])


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {x!r}")


class QuadExt:
    """Element a + b*sqrt(D) of the real quadratic field Q(sqrt(D)), D = 2:
    the one quadratic irrational the package needs.

    It is held as one tuple of three integers (x, y, den), a = x/den and
    b = y/den, with den > 0 and gcd(x, y, den) = 1, so each operation runs on
    integers and takes one three-way gcd.  Instances are immutable."""

    __slots__ = ("_v",)
    D = 2

    def __init__(self, a, b):
        a, b = _as_fraction(a), _as_fraction(b)
        da, db = a.denominator, b.denominator
        # Over the lcm of two reduced denominators the content is already 1:
        # a prime of den divides the denominator that holds its full power,
        # and not the numerator beside it.
        den = da * db // gcd(da, db)
        _set(self, (a.numerator * (den // da), b.numerator * (den // db), den))

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt instances are immutable")

    def __delattr__(self, name):
        raise AttributeError("QuadExt instances are immutable")

    def __reduce__(self):
        return QuadExt, (self.a, self.b)

    @property
    def a(self) -> Fraction:
        x, _, den = self._v
        return Fraction(x, den)

    @property
    def b(self) -> Fraction:
        _, y, den = self._v
        return Fraction(y, den)

    @property
    def is_rational(self) -> bool:
        return not self._v[1]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = _parts(other)
        return NotImplemented if o is None else _sum(self._v, o)

    __radd__ = __add__

    def __neg__(self):
        x, y, den = self._v
        return _quad(-x, -y, den)

    def __sub__(self, other):
        o = _parts(other)
        return NotImplemented if o is None else _sum(self._v, (-o[0], -o[1], o[2]))

    def __rsub__(self, other):
        o = _parts(other)
        x, y, den = self._v
        return NotImplemented if o is None else _sum(o, (-x, -y, den))

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        (x1, y1, d1), (x2, y2, d2) = self._v, o
        return _normal(x1 * x2 + 2 * y1 * y2, x1 * y2 + y1 * x2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        return NotImplemented if o is None else _quotient(self._v, o)

    def __rtruediv__(self, other):
        o = _parts(other)
        return NotImplemented if o is None else _quotient(o, self._v)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("QuadExt powers must be non-negative integers")
        # From the top bit down, so that each product but the squares is by
        # self; the numerators go unreduced until the one gcd at the end.
        x, y, den = self._v
        px, py = 1, 0
        for bit in bin(k)[2:]:
            px, py = px * px + 2 * py * py, 2 * px * py
            if bit == "1":
                px, py = px * x + 2 * py * y, px * y + py * x
        return _normal(px, py, den**k)

    def __bool__(self):
        x, y, _ = self._v
        return bool(x or y)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self._v == other._v
        if isinstance(other, (int, Fraction)):
            return self._v == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        x, y, den = self._v
        return hash(Fraction(x, den)) if not y else hash(self._v)

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r})"

    def __str__(self):
        return format_scalar(self)


_set = QuadExt._v.__set__
_new = object.__new__


def _quad(x: int, y: int, den: int) -> QuadExt:
    """The trusted constructor: (x + y*sqrt(2))/den, already in normal form."""
    out = _new(QuadExt)
    _set(out, (x, y, den))
    return out


def _normal(x: int, y: int, den: int, bound: int = 0) -> QuadExt:
    """(x + y*sqrt(2))/den for den > 0, divided by its content, which divides
    bound when bound is given."""
    g = gcd(bound or den, x, y)  # den first: at gcd 1 the large x and y are skipped
    if g != 1:
        x, y, den = x // g, y // g, den // g
    return _quad(x, y, den)


def _parts(other):
    """other as (x, y, den), or None if it is no int, Fraction or QuadExt."""
    if isinstance(other, QuadExt):
        return other._v
    if isinstance(other, (int, Fraction)):
        return other.numerator, 0, other.denominator
    return None


def _sum(p, q) -> QuadExt:
    """p + q over d1*d2/g, g = gcd(d1, d2).  As for Fraction, the sum's
    content divides g: where a prime has a higher power in d1 than in d2, the
    sum's parts are x1*(d2/g) and y1*(d2/g) mod p, not both divisible by p;
    where its powers are equal, that is also its power in d1*d2/g."""
    (x1, y1, d1), (x2, y2, d2) = p, q
    g = gcd(d1, d2)
    if g == 1:
        return _quad(x1 * d2 + x2 * d1, y1 * d2 + y2 * d1, d1 * d2)
    s, t = d1 // g, d2 // g
    return _normal(x1 * t + x2 * s, y1 * t + y2 * s, s * d2, g)


def _quotient(p, q) -> QuadExt:
    """p / q: p times d2*(x2 - y2*sqrt(2)) / (x2^2 - 2*y2^2)."""
    (x1, y1, d1), (x2, y2, d2) = p, q
    n = x2 * x2 - 2 * y2 * y2
    if not n:
        raise ZeroDivisionError("division by zero in Q(sqrt(2))")
    if n < 0:
        n, d2 = -n, -d2
    return _normal((x1 * x2 - 2 * y1 * y2) * d2, (y1 * x2 - x1 * y2) * d2, d1 * n)


Scalar = Union[Fraction, QuadExt]


def to_scalar(x) -> Scalar:
    """Coerce an int/Fraction/QuadExt to a Scalar."""
    if isinstance(x, QuadExt):
        return x
    return _as_fraction(x)


def format_scalar(x: Scalar) -> str:
    """Canonical string form: "p/q" for rationals, "a+b*sqrt(2)" otherwise."""
    if isinstance(x, QuadExt):
        if x.b == 0:
            return str(x.a)
        sign = "+" if x.b > 0 else "-"
        return f"{x.a}{sign}{abs(x.b)}*sqrt({x.D})"
    return str(_as_fraction(x))
