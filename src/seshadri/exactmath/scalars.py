"""Exact scalar arithmetic: rationals and the real quadratic field Q(sqrt(2)).

Every number in this package is either a ``fractions.Fraction`` or a
``QuadExt`` element a + b*sqrt(2) with rational a, b.  There is no floating
point anywhere; equality is exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Union

# The most decimal digits in the numerator or the denominator of an input
# number: CPython's default limit on converting a string to an int.
MAX_NUMBER_DIGITS = 4300


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {x!r}")


@dataclass(frozen=True)
class QuadExt:
    """Element a + b*sqrt(D) of the real quadratic field Q(sqrt(D)), D = 2:
    the one quadratic irrational the package needs."""

    a: Fraction
    b: Fraction
    D: ClassVar[int] = 2

    def __post_init__(self):
        if not isinstance(self.a, Fraction):
            object.__setattr__(self, "a", _as_fraction(self.a))
        if not isinstance(self.b, Fraction):
            object.__setattr__(self, "b", _as_fraction(self.b))

    # -- helpers ------------------------------------------------------------

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(_as_fraction(other), Fraction(0))
        return NotImplemented  # type: ignore[return-value]

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm a^2 - D*b^2."""
        return self.a * self.a - self.D * self.b * self.b

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.a * other, self.b * other)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(
            self.a * o.a + self.D * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        inv = QuadExt(o.a / n, -o.b / n)
        return self * inv

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("QuadExt powers must be non-negative integers")
        # From the top bit down, so that each product but the squares is by self.
        out = QuadExt(Fraction(1), Fraction(0))
        for bit in bin(k)[2:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r})"

    def __str__(self):
        return format_scalar(self)


Scalar = Union[Fraction, QuadExt]


def to_scalar(x) -> Scalar:
    """Coerce an int/Fraction/QuadExt to a Scalar."""
    if isinstance(x, QuadExt):
        return x
    return _as_fraction(x)


def rational_parts(x: Scalar) -> tuple[Fraction, Fraction]:
    """Split x = a + b*sqrt(2) into (a, b); b = 0 for plain rationals."""
    if isinstance(x, QuadExt):
        return x.a, x.b
    return _as_fraction(x), Fraction(0)


def format_scalar(x: Scalar) -> str:
    """Canonical string form: "p/q" for rationals, "a+b*sqrt(2)" otherwise."""
    if isinstance(x, QuadExt):
        if x.b == 0:
            return str(x.a)
        sign = "+" if x.b > 0 else "-"
        return f"{x.a}{sign}{abs(x.b)}*sqrt({x.D})"
    return str(_as_fraction(x))


_QUAD_RE = re.compile(
    r"^\s*(?P<a>[+-]?\d+(?:/\d+)?)\s*(?P<sign>[+-])\s*"
    r"(?P<b>\d+(?:/\d+)?)\s*\*\s*sqrt\(\s*2\s*\)\s*$"
)


def parse_scalar(text: str) -> Scalar:
    """Inverse of format_scalar; accepts "p", "p/q", and "a+b*sqrt(2)"."""
    try:
        return Fraction(text.strip())
    except ValueError:
        pass
    m = _QUAD_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse scalar {text!r}")
    b = Fraction(m.group("b"))
    if m.group("sign") == "-":
        b = -b
    return QuadExt(Fraction(m.group("a")), b)
