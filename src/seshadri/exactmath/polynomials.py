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
from typing import Dict, Iterable, NamedTuple, Sequence, Tuple

from .scalars import MAX_NUMBER_DIGITS, QuadExt, Scalar, rational_parts, to_scalar

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
        if not k:
            return WPolynomial.constant(1, self.nvars)
        if len(self.coeffs) < 2:
            return WPolynomial._trusted(
                {tuple(k * x for x in e): c**k for e, c in self.coeffs.items()}, self.nvars
            )
        if len(self.coeffs) == 2:
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
        # Repeated multiplication: each step multiplies by the few terms of
        # self, where squaring would multiply two long term lists of large
        # coefficients.
        out = self
        for _ in range(k - 1):
            out = out * self
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

# One budget for the work of expanding a parsed polynomial, and of the
# twisted rewrite in `seshadri.valuations`, in estimated bit products: each
# coefficient operation costs OPERATION_WORK (the fixed cost of a product of
# small coefficients) plus a bound on its bit products, weighed by
# SQRT2_WEIGHT on QuadExt coefficients.  On a 2-core Xeon the slowest inputs
# at the budget take 0.4-0.8 s (BENCH_16.json, BENCH_18.json).
MAX_WORK = 1 << 42
OPERATION_WORK = 1 << 25
SQRT2_WEIGHT = 2


class BudgetExceeded(ValueError):
    """Work over MAX_WORK, or a number of more than MAX_NUMBER_DIGITS digits,
    refused before it runs."""


def _log2(x: int) -> int:
    """ceil(log2(x)) for x >= 1, and 1 for 0."""
    return (x - 1).bit_length()


def _operation(bit_products: int, quad: bool, count: int = 1) -> int:
    """The work of count coefficient operations of bit_products in all.  On
    QuadExt coefficients the fixed cost weighs SQRT2_WEIGHT and the bit
    products 3 * SQRT2_WEIGHT: a QuadExt product costs 0.5-1.0 times a
    Fraction one on small coefficients, and 3.5-4.6 times its bit products on
    coefficients of 2000 bits (BENCH_18.json)."""
    if quad:
        return SQRT2_WEIGHT * (count * OPERATION_WORK + 3 * bit_products)
    return count * OPERATION_WORK + bit_products


class _Sized(NamedTuple):
    """A parsed polynomial and the bounds that the parser carries with it, so
    that charging an operation never walks the coefficients.  Over a common
    denominator of at most 2^den, each coefficient a + b*sqrt(2) has
    |a| + sqrt(2)*|b| at most 2^mag.  quad marks QuadExt coefficients."""

    poly: WPolynomial
    mag: int
    den: int
    quad: bool


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
            if len(m.group("num")) > MAX_NUMBER_DIGITS:
                raise BudgetExceeded(f"a number of more than {MAX_NUMBER_DIGITS} digits")
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
    the whole factor after it, so 2*-s^2 is -2*s^2.  Every operation is
    charged to one running total before it runs; past MAX_WORK the parser
    raises BudgetExceeded."""

    def __init__(self, tokens, names: Sequence[str], sqrt2: bool):
        self.tokens = tokens
        self.pos = 0
        self.names = list(names)
        self.sqrt2 = sqrt2
        self.work = 0

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

    def spend(self, work: int, what: str):
        self.work += work
        if self.work > MAX_WORK:
            raise BudgetExceeded(
                f"polynomial too large to expand: {what} takes the parse past its budget of "
                f"{MAX_WORK} bit products"
            )

    def parse(self) -> WPolynomial:
        out = self.expr()
        if self.peek() != (None, None):
            raise ValueError(f"trailing tokens in polynomial: {self.tokens[self.pos:]}")
        return out.poly

    def expr(self) -> _Sized:
        negate = self.peek() in (("op", "+"), ("op", "-")) and self.take()[1] == "-"
        out = self.term()
        if negate:
            out = self.negate(out)
        if not (self.peek()[0] == "op" and self.peek()[1] in "+-"):
            return out
        # Terms are added in place: a copy of the sum per term costs its square.
        coeffs, mag, den, quad = dict(out.poly.coeffs), out.mag, out.den, out.quad
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            minus = self.take()[1] == "-"
            t = self.term()
            # Only a term that meets one of the sum adds coefficients.
            hits = len(coeffs.keys() & t.poly.coeffs.keys())
            mag = max(mag + t.den, t.mag + den) + (hits > 0)
            den += t.den
            quad = quad or t.quad
            n = len(t.poly.coeffs)
            work = n * OPERATION_WORK + hits * _operation((mag + den + 2) ** 2, False)
            self.spend(work, f"a sum of {len(coeffs)} and {n} terms")
            for e, c in t.poly.coeffs.items():
                if minus:
                    c = -c
                coeffs[e] = coeffs[e] + c if e in coeffs else c
        return _Sized(WPolynomial._trusted(coeffs, len(self.names)), mag, den, quad)

    def term(self) -> _Sized:
        out = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.take()[1]
            f = self.factor()
            if op == "/":
                if f.poly.total_degree() != 0:
                    raise ValueError("division only allowed by nonzero constants")
                f = self.constant(Fraction(1) / f.poly.coeffs[(0,) * f.poly.nvars])
            out = self.product(out, f)
        return out

    def product(self, f: _Sized, g: _Sized) -> _Sized:
        nf, ng = len(f.poly.coeffs), len(g.poly.coeffs)
        # each coefficient is a sum of at most min(nf, ng) products
        mag, den, quad = f.mag + g.mag + _log2(min(nf, ng)), f.den + g.den, f.quad or g.quad
        # A term of f times those of g makes ng distinct terms, so at most
        # nf*ng - max(nf, ng) products are added into a term already made.
        adds = max(nf * ng - max(nf, ng), 0)
        bits = nf * ng * (f.mag + f.den + 2) * (g.mag + g.den + 2) + adds * (mag + den + 2) ** 2
        self.spend(_operation(bits, quad, nf * ng), f"a product of {nf} by {ng} terms")
        return _Sized(f.poly * g.poly, mag, den, quad)

    def negate(self, f: _Sized) -> _Sized:
        self.spend(len(f.poly.coeffs) * OPERATION_WORK, f"a negation of {len(f.poly.coeffs)} terms")
        return f._replace(poly=-f.poly)

    def power(self, f: _Sized, k: int, digits: str) -> _Sized:
        """f^k, whose coefficients are at most the k-th power of the sum of
        those of f.  c^k takes two products per bit of k, on operands that at
        most double per bit: square bit products in all.  A binomial takes
        four products per term of f^k.  A longer base is multiplied k - 1
        times by its terms, and f^(k-1) has at most C(k-1 + terms-1, k-1)
        terms, and at most C((k-1) deg f + n, n)."""
        terms = len(f.poly.coeffs)
        mag, den = k * (f.mag + _log2(terms)), k * f.den
        square = (mag + den + 2) ** 2
        if terms < 2:
            work = _operation(square, f.quad, 2 * k.bit_length())
        elif terms == 2:  # unweighted: ((2/3+5/7*sqrt(2))*s+t)^1824 takes 0.65 s
            work = 4 * (k + 1) * _operation(square, False)
        else:
            n, steps, deg = f.poly.nvars, max(k - 1, 0), f.poly.total_degree()
            longest = min(math.comb(steps + terms - 1, steps), math.comb(steps * deg + n, n))
            work = steps * longest * terms * _operation(square, f.quad)
        power = f"the power {k}" if len(digits) <= 12 else f"a power of {len(digits)} digits"
        self.spend(work, f"a {terms}-term base to {power}")
        return _Sized(f.poly**k, mag, den, f.quad)

    def factor(self) -> _Sized:
        if self.peek() == ("op", "-"):
            self.take()
            return self.negate(self.factor())
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            if self.peek() == ("op", "-"):
                raise ValueError("negative exponents are not allowed")
            digits = self.expect("num")[1]
            base = self.power(base, int(digits), digits)
        return base

    def constant(self, c: Scalar) -> _Sized:
        a, b = rational_parts(c)
        den = math.lcm(a.denominator, b.denominator)
        # over den, |a| + sqrt(2)*|b| < |a| + 2*|b|
        top = abs(a.numerator) * (den // a.denominator) + 2 * abs(b.numerator) * (den // b.denominator)
        quad = isinstance(c, QuadExt)
        return _Sized(WPolynomial.constant(c, len(self.names)), _log2(top), _log2(den), quad)

    def atom(self) -> _Sized:
        kind, value = self.take()
        n = len(self.names)
        if kind == "num":
            return self.constant(Fraction(int(value)))
        if kind == "name":
            if value == "sqrt":
                self.expect("op", "(")
                d = int(self.expect("num")[1])
                self.expect("op", ")")
                if not self.sqrt2:
                    raise ValueError("sqrt(...) is not allowed in this context")
                if d != QuadExt.D:
                    raise ValueError(f"sqrt({d}) not allowed here (expected sqrt({QuadExt.D}))")
                return self.constant(QuadExt(Fraction(0), Fraction(1)))
            if value in self.names:
                return _Sized(WPolynomial.variable(self.names.index(value), n), 0, 0, False)
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
    accepted only when sqrt2 is set.  An expansion past MAX_WORK raises
    BudgetExceeded before it runs.
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
