"""Multivariate polynomials with exact coefficients.

A ``WPolynomial`` maps exponent tuples to nonzero scalars; weighted degrees
take the weight vector as an argument.  The fixed monomial order used
for jet bases everywhere in this package is *graded lexicographic*: monomials
are sorted by total degree, ties broken by descending exponent tuple, so for
two variables (s, t) the degree <= 1 basis reads (1, s, t).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Sequence, Tuple

from .scalars import QuadExt, Scalar, to_scalar

Exponent = Tuple[int, ...]
CoeffMap = Dict[Exponent, Scalar]

INFINITY = math.inf


class WPolynomial:
    """Exact multivariate polynomial.

    coeffs maps exponent tuples (one entry per variable) to nonzero scalars;
    zero coefficients are dropped on construction.
    """

    __slots__ = ("coeffs", "nvars")

    def __init__(self, coeffs: CoeffMap | Iterable[tuple[Exponent, Scalar]], nvars: int):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        clean: CoeffMap = {}
        for exp, c in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for {nvars} variables")
            c = to_scalar(c)
            if c:
                clean[exp] = clean.get(exp, Fraction(0)) + c
                if not clean[exp]:
                    del clean[exp]
        self.coeffs = clean
        self.nvars = nvars

    @classmethod
    def _trusted(cls, coeffs: CoeffMap, nvars: int) -> "WPolynomial":
        """Wrap the result of a ring operation.  Its exponents are already int
        tuples of the right length and its values already scalars, so only
        zero coefficients are dropped; coefficient types are kept as they
        are."""
        out = cls.__new__(cls)
        out.coeffs = {e: c for e, c in coeffs.items() if c}
        out.nvars = nvars
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "WPolynomial":
        return cls({}, nvars)

    @classmethod
    def constant(cls, c, nvars: int) -> "WPolynomial":
        return cls({(0,) * nvars: to_scalar(c)}, nvars)

    @classmethod
    def monomial(cls, exp: Exponent, c=1) -> "WPolynomial":
        return cls({tuple(exp): to_scalar(c)}, len(tuple(exp)))

    @classmethod
    def variable(cls, i: int, nvars: int) -> "WPolynomial":
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls({exp: Fraction(1)}, nvars)

    # -- ring structure ---------------------------------------------------

    def _check_compatible(self, other: "WPolynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            other = WPolynomial.constant(other, self.nvars)
        self._check_compatible(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out[exp] + c if exp in out else c
        return WPolynomial._trusted(out, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return WPolynomial._trusted({e: -c for e, c in self.coeffs.items()}, self.nvars)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            other = WPolynomial.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            c = to_scalar(other)
            return WPolynomial._trusted({e: v * c for e, v in self.coeffs.items()}, self.nvars)
        self._check_compatible(other)
        out: CoeffMap = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return WPolynomial._trusted(out, self.nvars)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        if len(self.coeffs) == 2 and k:
            # Binomial theorem: k + 1 distinct, nonzero terms and no products
            # of polynomials.
            (e1, c1), (e2, c2) = self.coeffs.items()
            p1, p2 = [Fraction(1)], [Fraction(1)]
            for _ in range(k):
                p1.append(p1[-1] * c1)
                p2.append(p2[-1] * c2)
            out = {}
            binomial = 1  # C(k, i), carried from i to i + 1
            for i in range(k + 1):
                exp = tuple(i * x + (k - i) * y for x, y in zip(e1, e2))
                out[exp] = binomial * p1[i] * p2[k - i]
                binomial = binomial * (k - i) // (i + 1)
            return WPolynomial._trusted(out, self.nvars)
        out = WPolynomial.constant(1, self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, WPolynomial):
            return self.nvars == other.nvars and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, QuadExt)):
            return self == WPolynomial.constant(other, self.nvars)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"WPolynomial({self.coeffs!r}, nvars={self.nvars})"

    def __str__(self):
        return format_polynomial(self)

    # -- structure queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def total_degree(self):
        """Largest total degree of a term; -inf for the zero polynomial."""
        if not self.coeffs:
            return -INFINITY
        return max(sum(e) for e in self.coeffs)

    def multiplicity(self):
        """Smallest total degree of a term (order of vanishing at the origin);
        +inf for the zero polynomial."""
        if not self.coeffs:
            return INFINITY
        return min(sum(e) for e in self.coeffs)

    def min_weighted_degree(self, weights: Sequence[int]):
        """min over terms of <weights, exponent>; +inf for zero."""
        if not self.coeffs:
            return INFINITY
        return min(sum(w * e for w, e in zip(weights, exp)) for exp in self.coeffs)


# -- monomial bases and jets --------------------------------------------------


def compositions(total: int, parts: int) -> Iterable[Exponent]:
    """Every tuple of `parts` non-negative integers summing to `total`, in
    ascending lexicographic order; the empty tuple is the one composition of
    0 into no parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def graded_lex_monomials(nvars: int, max_degree: int) -> list[Exponent]:
    """All exponent tuples of total degree <= max_degree in graded lex order
    (degree first, descending exponent tuple within a degree)."""
    out: list[Exponent] = []
    for d in range(max_degree + 1):
        out.extend(sorted(compositions(d, nvars), reverse=True))
    return out


def jet_basis_size(nvars: int, order: int) -> int:
    return math.comb(nvars + order, nvars)


# -- parsing and formatting ---------------------------------------------------

# The most coefficient products that parsing spends on one power or product,
# weighed as rational products: under 1 s on a 2-core Xeon (5-6 us each).
# A product of sqrt(2) coefficients costs about five rational ones.
MAX_PARSE_PRODUCTS = 1 << 17
QUADRATIC_PRODUCT_WEIGHT = 5


def _power_terms(f: WPolynomial, m: int) -> int:
    """Upper bound on the term count of f^m: a multiset of m terms of f, of
    total degree at most m * deg f."""
    return min(
        math.comb(m + len(f.coeffs) - 1, m),
        math.comb(m * f.total_degree() + f.nvars, f.nvars),
    )


def power_products(f: WPolynomial, k: int, limit: int) -> int:
    """Upper bound on the coefficient products of f^k by binary powering, from
    k, the term count and degree of f and its number of variables.  Counting
    stops once it passes `limit`."""
    total, done, square = 0, 0, 1  # out = f^done, base = f^square
    while k and total <= limit:
        if k & 1:
            if done:
                total += _power_terms(f, done) * _power_terms(f, square)
            done += square
        k >>= 1
        if k:
            total += _power_terms(f, square) ** 2
            square *= 2
    return total


# Caps on a power of a base of one or two terms, from the estimates of
# `power_bits`: the bits of all of its coefficients (memory), and the product
# of those with the bits of its largest coefficient (time: each coefficient
# is built by products and gcds on numbers of up to that size).  A
# coefficient a + b*sqrt(2) with a and b both nonzero multiplies the time
# estimate by QUADRATIC_POWER_WEIGHT: such a power took 10-15 times as long
# per bit product.  At the caps the slowest powers measured on a 2-core Xeon
# take about 1 s: `(2/3+5/7*sqrt(2))^52428*s` 1.0 s, `(2/3*s+5/7*t)^3529`
# 0.9 s, `(2/3)^524287*s` 0.8 s.  `(s+t)^6000` is 5 times under the time cap
# (0.14 s); `(s+t)^20000` is over both, and would take 109 MB.
MAX_POWER_BITS = 1 << 27
MAX_POWER_WORK = 1 << 40
QUADRATIC_POWER_WEIGHT = 16


def _size(c) -> int:
    """About log2 of |numerator| * denominator of a coefficient: each bit length
    less one, so that 1 has size 0.  A sqrt(2) part adds one."""
    if isinstance(c, QuadExt):
        return max(_size(c.a), _size(c.b)) + 1
    return (abs(c.numerator).bit_length() or 1) + c.denominator.bit_length() - 2


def power_bits(f: WPolynomial, k: int) -> tuple[int, int]:
    """(largest, total): estimated bits of the largest coefficient of f^k and
    of all of its coefficients, for f of at most two terms.  A coefficient c
    raised to the k-th power has about k * size(c) bits; a binomial C(k, i) has
    fewer than k + 1, and f^k has k + 1 terms when f has two."""
    largest = k * max(map(_size, f.coeffs.values()), default=0) + 1
    if len(f.coeffs) < 2:
        return largest, largest
    largest += k
    return largest, (k + 1) * largest


def _power_work(f: WPolynomial, k: int) -> tuple[int, int]:
    """(total, work): the memory and time estimates that MAX_POWER_BITS and
    MAX_POWER_WORK cap, for f^k with f of at most two terms."""
    largest, total = power_bits(f, k)
    weight = 1
    for c in f.coeffs.values():
        if isinstance(c, QuadExt) and c.a and c.b:
            weight = QUADRATIC_POWER_WEIGHT
    return total, largest * total * weight


def _product_limit(*factors: WPolynomial) -> int:
    """MAX_PARSE_PRODUCTS counted in products of these factors' coefficients."""
    if any(isinstance(c, QuadExt) for f in factors for c in f.coeffs.values()):
        return MAX_PARSE_PRODUCTS // QUADRATIC_PRODUCT_WEIGHT
    return MAX_PARSE_PRODUCTS


def _too_large(what: str) -> ValueError:
    return ValueError(
        f"polynomial too large to expand: {what} takes more than {MAX_PARSE_PRODUCTS} "
        "coefficient products"
    )


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<pow>\*\*|\^)|(?P<op>[()+\-*/]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    pos, tokens = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot tokenize polynomial at: {text[pos:]!r}")
        pos = m.end()
        if m.group("num"):
            tokens.append(("num", m.group("num")))
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        elif m.group("pow"):
            tokens.append(("op", "^"))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


class _Parser:
    """Recursive-descent parser for +, -, *, /, ^ over variables and rational
    or sqrt(2) literals; no implicit multiplication.  A unary minus negates
    the whole factor after it, so 2*-s^2 is -2*s^2."""

    def __init__(self, tokens, names: Sequence[str], sqrt2: bool):
        self.tokens = tokens
        self.pos = 0
        self.names = list(names)
        self.sqrt2 = sqrt2

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.take()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ValueError(f"unexpected token {tok} in polynomial")
        return tok

    def parse(self) -> WPolynomial:
        out = self.expr()
        if self.peek() != (None, None):
            raise ValueError(f"trailing tokens in polynomial: {self.tokens[self.pos:]}")
        return out

    def expr(self) -> WPolynomial:
        sign = 1
        if self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            sign = -1 if self.take()[1] == "-" else 1
        out = self.term() * sign
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            t = self.term()
            out = out + t if op == "+" else out - t
        return out

    def term(self) -> WPolynomial:
        out = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.take()[1]
            f = self.factor()
            if op == "*":
                if len(out.coeffs) * len(f.coeffs) > _product_limit(out, f):
                    raise _too_large(f"a product of {len(out.coeffs)} by {len(f.coeffs)} terms")
                out = out * f
            else:
                if f.total_degree() != 0:
                    raise ValueError("division only allowed by nonzero constants")
                out = out * (Fraction(1) / f.coeffs[(0,) * f.nvars])
        return out

    def factor(self) -> WPolynomial:
        if self.peek() == ("op", "-"):
            self.take()
            return -self.factor()
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            if self.peek() == ("op", "-"):
                raise ValueError("negative exponents are not allowed")
            digits = self.expect("num")[1]
            k = int(digits)
            power = f"the power {k}" if len(digits) <= 12 else f"a power of {len(digits)} digits"
            if len(base.coeffs) > 2:  # two terms expand binomially, with no products
                limit = _product_limit(base)
                if power_products(base, k, limit) > limit:
                    raise _too_large(f"a {len(base.coeffs)}-term base to {power}")
            else:
                total, work = _power_work(base, k)
                what = f"polynomial too large to expand: a {len(base.coeffs)}-term base to {power}"
                if total > MAX_POWER_BITS:
                    raise ValueError(f"{what} has more than {MAX_POWER_BITS} coefficient bits")
                if work > MAX_POWER_WORK:
                    raise ValueError(f"{what} takes more than {MAX_POWER_WORK} bit products")
            base = base**k
        return base

    def atom(self) -> WPolynomial:
        kind, value = self.take()
        n = len(self.names)
        if kind == "num":
            return WPolynomial.constant(Fraction(int(value)), n)
        if kind == "name":
            if value == "sqrt":
                self.expect("op", "(")
                d = int(self.expect("num")[1])
                self.expect("op", ")")
                if not self.sqrt2:
                    raise ValueError("sqrt(...) is not allowed in this context")
                if d != QuadExt.D:
                    raise ValueError(f"sqrt({d}) not allowed here (expected sqrt({QuadExt.D}))")
                return WPolynomial.constant(QuadExt(Fraction(0), Fraction(1)), n)
            if value in self.names:
                return WPolynomial.variable(self.names.index(value), n)
            raise ValueError(f"unknown variable {value!r} (expected one of {self.names})")
        if (kind, value) == ("op", "("):
            out = self.expr()
            self.expect("op", ")")
            return out
        raise ValueError(f"unexpected token {(kind, value)} in polynomial")


def parse_polynomial(
    text: str, names: Sequence[str] = ("s", "t", "u"), sqrt2: bool = False
) -> WPolynomial:
    """Parse a polynomial string such as "t^2 - 2*s^2" or "y^2 + 2*sqrt(2)*s*y".

    names fixes the variable set (arity = len(names)); sqrt(2) literals are
    accepted only when sqrt2 is set.
    """
    return _Parser(_tokenize(text), names, sqrt2).parse()


def format_polynomial(f: WPolynomial) -> str:
    """Human-readable form with terms in descending graded lex order, in the
    variables s, t, u (x0, x1, ... beyond three)."""
    if f.is_zero():
        return "0"
    names = ["s", "t", "u"][: f.nvars] if f.nvars <= 3 else [f"x{i}" for i in range(f.nvars)]
    parts = []
    for exp in sorted(f.coeffs, key=lambda e: (-sum(e), tuple(-x for x in e))):
        c = f.coeffs[exp]
        factors = []
        for name, e in zip(names, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if isinstance(c, QuadExt) and not c.is_rational:
            coeff_str = f"({c})"
        else:
            cf = c.a if isinstance(c, QuadExt) else c
            if not factors:
                coeff_str = str(cf)
            elif cf == 1:
                coeff_str = ""
            elif cf == -1:
                coeff_str = "-"
            else:
                coeff_str = str(cf)
        body = "*".join(factors)
        if coeff_str in ("", "-"):
            text = coeff_str + body
        elif body:
            text = f"{coeff_str}*{body}"
        else:
            text = coeff_str
        parts.append(text)
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out
