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
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

from .scalars import MAX_NUMBER_DIGITS, QuadExt, Scalar, _normal, _parts, numeral_has_more_digits, to_scalar

Exponent = Tuple[int, ...]
CoeffMap = Dict[Exponent, Scalar]

INFINITY = math.inf
_ONE = Fraction(1)


class WPolynomial:
    """Exact multivariate polynomial.

    coeffs maps exponent tuples (one entry per variable) to nonzero scalars;
    zero coefficients are dropped on construction.
    """

    __slots__ = ("coeffs", "nvars")

    def __init__(self, coeffs: CoeffMap, nvars: int):
        clean: CoeffMap = {}
        for exp, c in coeffs.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for {nvars} variables")
            c = to_scalar(c)
            if c:
                clean[exp] = c
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
    def constant(cls, c, nvars: int) -> "WPolynomial":
        return cls._trusted({(0,) * nvars: to_scalar(c)}, nvars)

    @classmethod
    def variable(cls, i: int, nvars: int) -> "WPolynomial":
        return cls._trusted({(0,) * i + (1,) + (0,) * (nvars - i - 1): _ONE}, nvars)

    # -- ring structure ---------------------------------------------------

    def _check_compatible(self, other: "WPolynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")

    def __add__(self, other: "WPolynomial"):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out[exp] + c if exp in out else c
        return WPolynomial._trusted(out, self.nvars)

    def __neg__(self):
        return WPolynomial._trusted({e: -c for e, c in self.coeffs.items()}, self.nvars)

    def __sub__(self, other: "WPolynomial"):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            c = to_scalar(other)
            return WPolynomial._trusted({e: v * c for e, v in self.coeffs.items()}, self.nvars)
        self._check_compatible(other)
        if len(self.coeffs) == 1 or len(other.coeffs) == 1:
            # By a monomial, no two products meet: each is one scalar product.
            # The parser's products of a constant by a variable take this
            # path, which skips the kernel's common denominators (measured
            # with and without it in BENCH_22.json).
            return WPolynomial._trusted(
                {
                    tuple(map(add, e1, e2)): c1 * c2
                    for e1, c1 in self.coeffs.items()
                    for e2, c2 in other.coeffs.items()
                },
                self.nvars,
            )
        # Each pair of terms multiplies as integers over d1*d2.  irr holds the
        # sqrt(2) parts of the exponents that a QuadExt factor reached: they
        # become QuadExt, the rest Fraction, the types that scalar products
        # and sums would give them.
        d1, terms1 = integer_terms(self.coeffs)
        d2, terms2 = integer_terms(other.coeffs)
        rat: dict = {}
        irr: dict = {}
        for e1, x1, y1, q1 in terms1:
            for e2, x2, y2, q2 in terms2:
                e = tuple(map(add, e1, e2))
                if q1 or q2:
                    rat[e] = rat.get(e, 0) + x1 * x2 + 2 * y1 * y2
                    irr[e] = irr.get(e, 0) + x1 * y2 + y1 * x2
                else:
                    rat[e] = rat.get(e, 0) + x1 * x2
        return WPolynomial._trusted(_from_integers(rat, irr, d1 * d2), self.nvars)

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
            # of polynomials.  Term i is C(k, i) * c1^i * c2^(k-i) over
            # d1^i * d2^(k-i), reduced once; its type is that of the scalar
            # product, a QuadExt where a QuadExt factor reached it.
            (e1, c1), (e2, c2) = self.coeffs.items()
            p1, p2 = _powers(c1, k), _powers(c2, k)
            q1, q2 = isinstance(c1, QuadExt), isinstance(c2, QuadExt)
            out = {}
            binomial = 1  # C(k, i), carried from i to i + 1
            for i in range(k + 1):
                exp = tuple(i * x + (k - i) * y for x, y in zip(e1, e2))
                (x1, y1, d1), (x2, y2, d2) = p1[i], p2[k - i]
                x, y = binomial * (x1 * x2 + 2 * y1 * y2), binomial * (x1 * y2 + y1 * x2)
                out[exp] = _normal(x, y, d1 * d2) if (q1 and i) or (q2 and i < k) else Fraction(x, d1 * d2)
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


# -- the integer kernel of products ------------------------------------------


def integer_terms(coeffs: CoeffMap) -> tuple[int, list]:
    """coeffs over their least common denominator den: den, and for each term
    (exponent, x, y, quad), its coefficient (x + y*sqrt(2))/den, and quad set
    where that is a QuadExt."""
    parts = [(e, _parts(c), isinstance(c, QuadExt)) for e, c in coeffs.items()]
    den = math.lcm(*(d for _, (_, _, d), _ in parts))
    return den, [(e, x * (den // d), y * (den // d), q) for e, (x, y, d), q in parts]


def _from_integers(rat: dict, irr: dict, den: int) -> CoeffMap:
    """The nonzero coefficients over den > 0, each reduced once: the QuadExt
    (rat[e] + irr[e]*sqrt(2))/den where irr has e, the Fraction rat[e]/den
    elsewhere."""
    out: CoeffMap = {}
    for e, x in rat.items():
        if e in irr:
            y = irr[e]
            if x or y:
                out[e] = _normal(x, y, den)
        elif x:
            out[e] = Fraction(x, den)
    return out


def _powers(c: Scalar, k: int) -> list[tuple[int, int, int]]:
    """c^i for i = 0..k, with c = (x + y*sqrt(2))/d, as unreduced triples
    (x_i, y_i, d^i) with x_i + y_i*sqrt(2) = (x + y*sqrt(2))^i."""
    x, y, d = _parts(c)
    out = [(1, 0, 1)]
    for _ in range(k):
        px, py, pd = out[-1]
        out.append((px * x + 2 * py * y, px * y + py * x, pd * d))
    return out


# -- monomial bases and jets --------------------------------------------------


def graded_lex_monomials(nvars: int, max_degree: int) -> list[Exponent]:
    """All exponent tuples of total degree <= max_degree in graded lex order
    (degree first, descending exponent tuple within a degree)."""
    if nvars == 0:
        return [()]
    # by_degree[t] holds the tuples of degree t over the last variables, in
    # descending order; one variable more puts each first exponent a, from t
    # down to 0, before the tuples of degree t - a.
    by_degree: list[list[Exponent]] = [[(t,)] for t in range(max_degree + 1)]
    for _ in range(nvars - 1):
        by_degree = [
            [(a,) + rest for a in range(t, -1, -1) for rest in by_degree[t - a]]
            for t in range(max_degree + 1)
        ]
    return [e for level in by_degree for e in level]


def jet_basis_size(nvars: int, order: int) -> int:
    return math.comb(nvars + order, nvars)


# -- parsing and formatting ---------------------------------------------------

# One budget for the work of expanding a parsed polynomial, and of the
# twisted rewrite in `seshadri.valuations`, in estimated bit products: each
# coefficient operation costs OPERATION_WORK (the fixed cost of a product of
# small coefficients) plus a bound on its bit products, weighed by
# SQRT2_WEIGHT on QuadExt coefficients.  On a 2-core Xeon the slowest inputs
# at the budget take 0.3-0.6 s (BENCH_19.json).
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
    products 3 * SQRT2_WEIGHT.  In the integer kernel of products a QuadExt
    term product costs 1.1-1.3 times a Fraction one on small coefficients,
    2.4-3.7 times on 2000-bit ones over one denominator, and 6-7.5 times over
    distinct 100-bit denominators, where a QuadExt's two denominators double
    the bits of the common one (BENCH_19.json)."""
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


class _Factor(NamedTuple):
    """A factor of a term as written: base^k after `negations` unary minuses,
    a divisor where divide is set.  digits is the text of k, None where no
    exponent is written (k = 1).  charges are the (work, what) spent to parse
    base, in order."""

    base: _Sized
    k: int
    digits: Optional[str]
    negations: int
    divide: bool
    charges: list[tuple[int, str]]


# One match per token: a number, a name, an operator, or (the last group) any
# other character, which is no token.  Each match takes the whitespace before
# its token, so the matches tile the text up to its trailing whitespace.
_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|\S)")
# An operator's text is never that of a number or a name, so the parser tells
# the operators apart by their text alone.
_OPERATORS = {op: ("op", op) for op in "()+-*/^"}
_OPERATORS["**"] = _OPERATORS["^"]
_SIGNS = frozenset("+-")
_PRODUCTS = frozenset("*/")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_END = (None, None)  # what the parser reads past the last token
_SQRT2 = QuadExt(0, 1)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    append = tokens.append
    for token in _TOKEN_RE.findall(text):
        op = _OPERATORS.get(token)
        if op is not None:
            append(op)
        elif token[0].isdecimal():  # what \d matches
            if numeral_has_more_digits(token):
                raise BudgetExceeded(f"a number of more than {MAX_NUMBER_DIGITS} digits")
            append(("num", token))
        elif token[0] in _NAME_START:
            append(("name", token))
        else:
            # the text from the end of the last token, whitespace included
            pos = [m.start() for m in _TOKEN_RE.finditer(text)][len(tokens)]
            raise ValueError(f"cannot tokenize polynomial at: {text[pos:]!r}")
    return tokens


def _unexpected(token) -> ValueError:
    """The parse error at token, naming its text or the end of the text."""
    if token == _END:
        return ValueError("unexpected end of polynomial")
    return ValueError(f"unexpected {token[1]!r} in polynomial")


class _Parser:
    """Recursive-descent parser for +, -, *, /, ^ over variables and rational
    or sqrt(2) literals; no implicit multiplication.  A unary minus negates
    the whole factor after it, so 2*-s^2 is -2*s^2.  Every operation is
    charged to one running total before it runs; past MAX_WORK the parser
    raises BudgetExceeded."""

    def __init__(self, tokens, names: Sequence[str], sqrt2: bool):
        # _END closes the list, so reading a token needs no bounds check; a
        # parse that takes it stops with an error at once.
        self.tokens = [*tokens, _END]
        self.pos = 0
        self.names = list(names)
        self.sqrt2 = sqrt2
        self.work = 0
        self.charges: list[tuple[int, str]] = []  # every spend, in order

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.take()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise _unexpected(tok)
        return tok

    def spend(self, work: int, what: str):
        self.charges.append((work, what))
        self.work += work
        if self.work > MAX_WORK:
            raise BudgetExceeded(
                f"polynomial too large to expand: {what} takes the parse past its budget of "
                f"{MAX_WORK} bit products"
            )

    def end(self):
        if self.peek() is not _END:
            raise ValueError(f"trailing tokens in polynomial: {self.tokens[self.pos:-1]}")

    def parse(self) -> WPolynomial:
        out = self.expr()
        self.end()
        return out.poly

    def parse_product(self) -> tuple[bool, list[_Factor]]:
        """Whether the top-level term has a leading minus, and its factors,
        each base parsed and charged, none of their powers, negations or
        products.  A top-level sum is one factor, multiplied out and charged
        as `expr` does."""
        negate = self.sign()
        factors = list(self.factors())
        if self.at_sum():
            out = self.sum(negate, self.multiply(factors))
            negate, factors = False, [_Factor(out, 1, None, 0, False, self.charges[:])]
        self.end()
        return negate, factors

    def sign(self) -> bool:
        """Read a leading + or -; whether it was a -."""
        return self.peek()[1] in _SIGNS and self.take()[1] == "-"

    def at_sum(self) -> bool:
        return self.peek()[1] in _SIGNS

    def expr(self) -> _Sized:
        return self.sum(self.sign(), self.term())

    def sum(self, negate: bool, out: _Sized) -> _Sized:
        """The first term out, negated if negate is set, plus the terms that
        follow it."""
        if negate:
            out = self.negate(out)
        if not self.at_sum():
            return out
        # Terms are added in place: a copy of the sum per term costs its square.
        coeffs, mag, den, quad = dict(out.poly.coeffs), out.mag, out.den, out.quad
        while self.at_sum():
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
        return self.multiply(self.factors())

    def factors(self) -> Iterator[_Factor]:
        """The factors of a term, each yielded as soon as it is parsed, so
        that `multiply` charges a term's work in the order of its text."""
        # The hottest loop of a parse reads the tokens in place of peek and take.
        tokens, divide = self.tokens, False
        while True:
            negations = 0
            while tokens[self.pos][1] == "-":
                self.pos += 1
                negations += 1
            start = len(self.charges)
            base, k, digits = self.atom(), 1, None
            if tokens[self.pos][1] == "^":
                self.pos += 1
                if tokens[self.pos][1] == "-":
                    raise ValueError("negative exponents are not allowed")
                digits = self.expect("num")[1]
                k = int(digits)
            # base^k is a nonzero constant iff k = 0 (0^0 = 1) or base is one
            if divide and k and base.poly.total_degree() != 0:
                raise ValueError("division only allowed by nonzero constants")
            yield _Factor(base, k, digits, negations, divide, self.charges[start:])
            op = tokens[self.pos][1]
            if op not in _PRODUCTS:
                return
            self.pos += 1
            divide = op == "/"

    def multiply(self, factors: Iterable[_Factor]) -> _Sized:
        """The product of factors, each power, negation and product charged
        before it runs."""
        out = None
        for base, k, digits, negations, divide, _ in factors:
            f = base if digits is None else self.power(base, k, digits)
            for _ in range(negations):
                f = self.negate(f)
            if divide:
                f = self.constant(Fraction(1) / f.poly.coeffs[(0,) * f.poly.nvars])
            out = f if out is None else self.product(out, f)
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

    def constant(self, c: Scalar) -> _Sized:
        x, y, den = _parts(c)
        # over den, |x| + sqrt(2)*|y| < |x| + 2*|y|
        quad = isinstance(c, QuadExt)
        return _Sized(WPolynomial.constant(c, len(self.names)), _log2(abs(x) + 2 * abs(y)), _log2(den), quad)

    def atom(self) -> _Sized:
        kind, value = self.take()
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
                return self.constant(_SQRT2)
            if value in self.names:
                return _Sized(WPolynomial.variable(self.names.index(value), len(self.names)), 0, 0, False)
            raise ValueError(f"unknown variable {value!r} (expected one of {self.names})")
        if (kind, value) == ("op", "("):
            out = self.expr()
            self.expect("op", ")")
            return out
        raise _unexpected((kind, value))


def parse_polynomial(
    text: str, names: Sequence[str] = ("s", "t", "u"), sqrt2: bool = False
) -> WPolynomial:
    """Parse a polynomial string such as "t^2 - 2*s^2" or "y^2 + 2*sqrt(2)*s*y".

    names fixes the variable set (arity = len(names)); sqrt(2) literals are
    accepted only when sqrt2 is set.  An expansion past MAX_WORK raises
    BudgetExceeded before it runs.
    """
    return _Parser(_tokenize(text), names, sqrt2).parse()


class Product(list):
    """The top-level term of a text as the product of powers it is written
    as, [(base, k), ...], with the parser that read it."""

    def __init__(self, parser: _Parser):
        self._parser = parser
        self._negate, self._factors = parser.parse_product()
        super().__init__((f.base.poly, f.k) for f in self._factors if not f.divide)

    def expand(self) -> WPolynomial:
        """parse_polynomial of the text, from the bases already parsed.  The
        budget starts again, and each base's parse charges are spent again
        just before its own power, so every charge of parse_polynomial is
        spent in its order: the same total, and past MAX_WORK the same
        BudgetExceeded."""
        parser = self._parser
        parser.work = 0

        def replayed():
            for f in self._factors:
                for work, what in f.charges:
                    parser.spend(work, what)
                yield f

        out = parser.multiply(replayed())
        return (parser.negate(out) if self._negate else out).poly


def parse_product(
    text: str, names: Sequence[str] = ("s", "t", "u"), sqrt2: bool = False
) -> Product:
    """The top-level term of text as the product of powers it is written as,
    [(base, k), ...]: equal to parse_polynomial(text) up to a nonzero
    constant factor, the unary minuses and the divisors, which are left out.
    Each base, an atom or a parenthesised sum, is expanded and charged as in
    parse_polynomial; the powers and products of the top-level term are
    neither run nor charged until `expand` is called.  A top-level sum is the
    one factor (sum, 1)."""
    return Product(_Parser(_tokenize(text), names, sqrt2))


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
