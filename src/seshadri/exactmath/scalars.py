"""Exact scalar arithmetic: rationals and real quadratic extensions Q(sqrt(D)).

Every number in this package is either a ``fractions.Fraction`` or a
``QuadExt`` element a + b*sqrt(D) with rational a, b and a fixed square-free
integer D >= 2.  There is no floating point anywhere; equality is exact.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


@functools.lru_cache(maxsize=64)
def _is_square_free(d: int) -> bool:
    if d < 2:
        return False
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 1
    return True


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {x!r}")


@dataclass(frozen=True)
class QuadExt:
    """Element a + b*sqrt(D) of the real quadratic field Q(sqrt(D)).

    D must be square-free and >= 2 so that sqrt(D) is irrational; arithmetic
    between two QuadExt values requires matching D.
    """

    a: Fraction
    b: Fraction
    D: int

    def __post_init__(self):
        if not isinstance(self.a, Fraction):
            object.__setattr__(self, "a", _as_fraction(self.a))
        if not isinstance(self.b, Fraction):
            object.__setattr__(self, "b", _as_fraction(self.b))
        if not _is_square_free(self.D):
            raise ValueError(f"D must be a square-free integer >= 2, got {self.D}")

    # -- helpers ------------------------------------------------------------

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.D != self.D:
                raise ValueError(f"mixed quadratic fields: sqrt({self.D}) vs sqrt({other.D})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(_as_fraction(other), Fraction(0), self.D)
        return NotImplemented  # type: ignore[return-value]

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.D)

    def norm(self) -> Fraction:
        """Field norm a^2 - D*b^2."""
        return self.a * self.a - self.D * self.b * self.b

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.D)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(o.a - self.a, o.b - self.b, self.D)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.a * other, self.b * other, self.D)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(
            self.a * o.a + self.D * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.D,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(D))")
        inv = QuadExt(o.a / n, -o.b / n, o.D)
        return self * inv

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("QuadExt powers must be non-negative integers")
        out = QuadExt(Fraction(1), Fraction(0), self.D)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if other.D != self.D:
                return self.is_rational and other.is_rational and self.a == other.a
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, D={self.D})"

    def __str__(self):
        return format_scalar(self)


Scalar = Union[Fraction, QuadExt]


def to_scalar(x) -> Scalar:
    """Coerce an int/Fraction/QuadExt to a Scalar."""
    if isinstance(x, QuadExt):
        return x
    return _as_fraction(x)


def rational_parts(x: Scalar) -> tuple[Fraction, Fraction]:
    """Split x = a + b*sqrt(D) into (a, b); b = 0 for plain rationals."""
    if isinstance(x, QuadExt):
        return x.a, x.b
    return _as_fraction(x), Fraction(0)


def format_scalar(x: Scalar) -> str:
    """Canonical string form: "p/q" for rationals, "a+b*sqrt(D)" otherwise."""
    if isinstance(x, QuadExt):
        if x.b == 0:
            return str(x.a)
        sign = "+" if x.b > 0 else "-"
        return f"{x.a}{sign}{abs(x.b)}*sqrt({x.D})"
    return str(_as_fraction(x))


_QUAD_RE = re.compile(
    r"^\s*(?P<a>[+-]?\d+(?:/\d+)?)\s*(?P<sign>[+-])\s*"
    r"(?P<b>\d+(?:/\d+)?)\s*\*\s*sqrt\(\s*(?P<D>\d+)\s*\)\s*$"
)


def parse_scalar(text: str) -> Scalar:
    """Inverse of format_scalar; accepts "p", "p/q", and "a+b*sqrt(D)"."""
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
    return QuadExt(Fraction(m.group("a")), b, int(m.group("D")))
