"""Tests for the exact-arithmetic substrate: Q(sqrt(2)) scalars, weighted
polynomials, and fraction-free linear algebra over Q."""

import copy
import importlib
import itertools
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seshadri.exactmath import (
    INFINITY,
    MAX_NUMBER_DIGITS,
    ExactMatrix,
    QuadExt,
    WPolynomial,
    exact_rank,
    format_polynomial,
    format_scalar,
    graded_lex_monomials,
    negative_definite_solve,
    parse_polynomial,
    parse_product,
)
from seshadri.exactmath import linalg as linalg_module
from seshadri.exactmath.polynomials import (
    MAX_WORK,
    OPERATION_WORK,
    SQRT2_WEIGHT,
    BudgetExceeded,
    _Parser,
    _tokenize,
)
from seshadri.exactmath.scalars import as_fractions, more_digits, power_has_more_digits
from seshadri.valuations import MonomialValuation, Twist, _expand_twist

from conftest import EXACTMATH_EXPORTS, monomial, parse_scalar, rational_parts


def conjugate(x: QuadExt) -> QuadExt:
    """a - b*sqrt(2) for x = a + b*sqrt(2)."""
    return QuadExt(x.a, -x.b)


def norm(x: QuadExt) -> Fraction:
    """The field norm a^2 - 2*b^2 of x = a + b*sqrt(2), from its integer parts."""
    num, irr, den = x._v
    return Fraction(num * num - 2 * irr * irr, den * den)


# -- strategies ----------------------------------------------------------------

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def quad_scalars(draw):
    return QuadExt(draw(small_fractions), draw(small_fractions))


@st.composite
def polynomials(draw, nvars=2, max_degree=4, max_terms=5):
    coeffs = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, max_degree)) for _ in range(nvars))
        coeffs[e] = draw(small_fractions)
    return WPolynomial(coeffs, nvars)


def nonzero(strategy):
    return strategy.filter(lambda f: not f.is_zero())


# -- the package ------------------------------------------------------------------


def test_every_name_the_package_exports_is_its_submodules_object():
    import seshadri.exactmath as package

    for name, submodule in EXACTMATH_EXPORTS.items():
        defined = getattr(importlib.import_module(f"seshadri.exactmath.{submodule}"), name)
        assert getattr(package, name) is defined, name
        assert vars(package)[name] is defined, name  # kept after the first access
    # A name the package does not export is no attribute, as a traced layer
    # such as exactmath.rref expects.
    assert getattr(package, "rref", None) is None
    with pytest.raises(AttributeError, match="no attribute 'certified_suffix_rank'"):
        package.certified_suffix_rank


# -- scalars -------------------------------------------------------------------


def test_quadext_checks_every_construction_and_normalises_its_parts():
    x = QuadExt(1, 2)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    with pytest.raises(TypeError):
        QuadExt(0.5, 1)


@given(quad_scalars(), small_fractions)
def test_quadext_times_a_rational_matches_the_field_product(x, q):
    product = x * q
    assert product == x * QuadExt(q, Fraction(0)) == q * x == x * QuadExt(q, 0)
    assert type(product.a) is Fraction and type(product.b) is Fraction
    assert x * 3 == x * QuadExt(3, 0)


def test_quadext_basic_arithmetic():
    r2 = QuadExt(Fraction(0), Fraction(1))
    assert r2 * r2 == 2
    assert (1 + r2) * (1 - r2) == -1
    assert (1 + r2) - r2 == 1
    assert r2**3 == 2 * r2
    assert (r2 / r2) == 1
    assert 1 / (1 + r2) == -1 + r2  # (1+sqrt2)^-1 = sqrt2 - 1


def test_quadext_division_matches_multiplication():
    a = QuadExt(Fraction(3, 4), Fraction(-2, 5))
    b = QuadExt(Fraction(1, 3), Fraction(7, 2))
    assert (a / b) * b == a


@given(quad_scalars())
def test_quadext_norm_identity(x):
    # (a + b sqrt D)(a - b sqrt D) = a^2 - D b^2
    prod = x * conjugate(x)
    assert prod == x.a**2 - 2 * x.b**2
    assert prod == norm(x)


@given(quad_scalars(), quad_scalars(), quad_scalars())
def test_quadext_ring_laws(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x


# The Fraction-pair arithmetic that QuadExt ran on before it held integer
# numerators: the oracle for its results, its equality and its hash.

rationals = st.one_of(
    small_fractions,
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
)
wide_quads = st.builds(QuadExt, rationals, rationals)
operands = st.one_of(wide_quads, rationals, st.integers(-50, 50))


def _pair(x):
    return (x.a, x.b) if isinstance(x, QuadExt) else (Fraction(x), Fraction(0))


def _pair_mul(p, q):
    return p[0] * q[0] + 2 * p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _pair_div(p, q):
    n = q[0] * q[0] - 2 * q[1] * q[1]
    return _pair_mul(p, (q[0] / n, -q[1] / n))


def _assert_normal_form(x):
    # den > 0, content 1, and the parts a = x/den, b = y/den.
    num, irr, den = x._v
    assert den > 0 and math.gcd(num, irr, den) == 1
    assert (Fraction(num, den), Fraction(irr, den)) == (x.a, x.b)


@settings(max_examples=200, deadline=None)
@given(wide_quads, operands, st.integers(0, 7))
@example(QuadExt(Fraction(1, 6), Fraction(1, 10)), QuadExt(Fraction(1, 3), Fraction(-1, 10)), 2)
@example(QuadExt(3, 1), QuadExt(3, -1), 3)  # (3+sqrt(2))(3-sqrt(2)) = 7: no common content
@example(QuadExt(0, 1), QuadExt(0, 1), 4)  # sqrt(2)*sqrt(2) = 2
def test_quadext_arithmetic_matches_the_fraction_pair_oracle(x, y, k):
    p, q = _pair(x), _pair(y)
    results = {
        "x + y": (x + y, (p[0] + q[0], p[1] + q[1])),
        "y + x": (y + x, (p[0] + q[0], p[1] + q[1])),
        "x - y": (x - y, (p[0] - q[0], p[1] - q[1])),
        "y - x": (y - x, (q[0] - p[0], q[1] - p[1])),
        "x * y": (x * y, _pair_mul(p, q)),
        "y * x": (y * x, _pair_mul(p, q)),
        "-x": (-x, (-p[0], -p[1])),
        "x ** k": (x**k, (Fraction(1), Fraction(0))),
        "conjugate": (conjugate(x), (p[0], -p[1])),
    }
    for _ in range(k):
        results["x ** k"] = (results["x ** k"][0], _pair_mul(results["x ** k"][1], p))
    if y:
        results["x / y"] = (x / y, _pair_div(p, q))
    if x:
        results["y / x"] = (y / x, _pair_div(q, p))
    for what, (got, want) in results.items():
        assert isinstance(got, QuadExt), what
        assert (got.a, got.b) == want, what
        _assert_normal_form(got)
        assert got == QuadExt(*want), what
    assert norm(x) == p[0] * p[0] - 2 * p[1] * p[1] and type(norm(x)) is Fraction
    assert x.is_rational == (p[1] == 0) and bool(x) == (p != (0, 0))
    _assert_normal_form(x)


@settings(max_examples=150, deadline=None)
@given(wide_quads, wide_quads, rationals)
def test_quadext_equality_and_hash_agree_with_the_oracle_and_with_fraction(x, y, q):
    assert (x == y) == (_pair(x) == _pair(y))
    assert hash(x) == hash(QuadExt(x.a, x.b)) and x == QuadExt(x.a, x.b)
    # A value reached by another route is equal and hashes alike.
    if y:
        assert (x * y) / y == x and hash((x * y) / y) == hash(x)
    # With b = 0 a QuadExt is its rational part: equal, the same hash, the
    # same dict key.
    r = QuadExt(q, 0)
    assert r == q and q == r and hash(r) == hash(q) and {q: 1}[r] == 1
    assert (r == q + 1) is False and r != q + 1
    assert (x == x.a) == (x.b == 0)
    assert (QuadExt(q, 1) == q) is False
    assert QuadExt(q.numerator, 0) == q.numerator and hash(QuadExt(q.numerator, 0)) == hash(q.numerator)


def test_quadext_is_immutable_and_copies_by_value():
    x = QuadExt(Fraction(1, 2), Fraction(-3, 4))
    for name in ("a", "b", "_v", "c"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    with pytest.raises(AttributeError):
        del x._v
    assert x == QuadExt(Fraction(1, 2), Fraction(-3, 4))
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


@given(quad_scalars())
def test_quadext_format_parse_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


@given(small_fractions)
def test_fraction_format_parse_round_trip(q):
    assert parse_scalar(format_scalar(q)) == q


def test_format_scalar_examples():
    assert format_scalar(Fraction(4, 5)) == "4/5"
    assert format_scalar(Fraction(3)) == "3"
    assert format_scalar(QuadExt(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3*sqrt(2)"


def test_as_fractions_keeps_a_fraction_and_converts_the_rest():
    half = Fraction(1, 2)
    point = as_fractions([half, 3, "2/6"])
    assert point == (half, Fraction(3), Fraction(1, 3))
    assert point[0] is half and all(type(c) is Fraction for c in point)


@pytest.mark.parametrize("digits", [1, 2, 7, 60, MAX_NUMBER_DIGITS])
def test_more_digits_reads_the_absolute_numerator_and_the_denominator(digits):
    most, over = 10**digits - 1, 10**digits
    cases = [
        (most, False),
        (over, True),
        (-most, False),
        (-over, True),
        (0, False),
        (Fraction(1, most), False),
        (Fraction(1, over), True),
        (Fraction(-1, over), True),
        (Fraction(-most, most - 1), False),
        (Fraction(-over, most), True),
    ]
    assert [more_digits(x, digits) for x, _ in cases] == [expected for _, expected in cases]


@pytest.mark.parametrize("digits", range(1, 61))
def test_power_has_more_digits_is_one_sided(digits):
    # True only where, for each y of at most divisor_bits bits, the numerator
    # of x^n / y in lowest terms has more than `digits` digits.  The extremes
    # are x = 2^(L-1), the least of its bit length, and y = 2^(divisor_bits-1),
    # which divides x^n.  n runs from below (3*digits + divisor_bits)/(L-1) to
    # past the threshold (4*digits + divisor_bits)/(L-1), where it decides.
    rng = random.Random(f"power-digits:{digits}")
    for _ in range(4):
        length = rng.randint(2, 12)
        divisor_bits = rng.choice([0, rng.randint(1, 40)])
        xs = [2 ** (length - 1), 2**length - 1, rng.randrange(2 ** (length - 1), 2**length)]
        ys = [1]
        if divisor_bits:
            ys = [2 ** (divisor_bits - 1), 2**divisor_bits - 1, rng.randrange(1, 2**divisor_bits)]
        threshold = -(-(4 * digits + divisor_bits) // (length - 1))
        for x in xs:
            assert power_has_more_digits(x, threshold, digits, divisor_bits)
            for n in range((3 * digits + divisor_bits) // (length - 1) - 1, threshold + 2):
                if power_has_more_digits(x, n, digits, divisor_bits):
                    assert all(len(str(Fraction(x**n, y).numerator)) > digits for y in ys), (x, n)


# -- polynomials ---------------------------------------------------------------


def test_multiplicity_product_of_linear_forms():
    st_poly = parse_polynomial("s*t", ("s", "t"))
    assert st_poly.multiplicity() == 2


def test_multiplicity_lowest_degree_term_wins():
    f = parse_polynomial("t^2 + s^7", ("s", "t"))
    assert f.multiplicity() == 2


def test_multiplicity_of_zero_is_infinite():
    assert WPolynomial({}, 2).multiplicity() == INFINITY


def test_the_zero_polynomial_is_false_and_a_constant_equals_its_scalar():
    zero = WPolynomial({}, 2)
    assert not zero and zero.total_degree() == -INFINITY
    assert WPolynomial.constant(3, 2) == 3 and WPolynomial.constant(3, 2) != 4


@given(nonzero(polynomials()), nonzero(polynomials()))
@settings(max_examples=60)
def test_multiplicity_is_additive_on_products(f, g):
    assert (f * g).multiplicity() == f.multiplicity() + g.multiplicity()


def test_graded_lex_order_is_degree_then_reverse_lex():
    # The empty tuple is the one monomial in no variables.
    assert graded_lex_monomials(0, 2) == [()]
    assert graded_lex_monomials(2, 2) == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]


@pytest.mark.parametrize("nvars", range(5))
def test_graded_lex_monomials_are_every_tuple_sorted_by_degree_then_descending(nvars):
    for degree in range(9):
        tuples = itertools.product(range(degree + 1), repeat=nvars)
        expected = sorted((e for e in tuples if sum(e) <= degree), key=lambda e: (-sum(e), e), reverse=True)
        assert graded_lex_monomials(nvars, degree) == expected


def test_polynomial_parse_format_round_trip():
    texts = ("s*t", "t^2 + s^7", "1 + 2*s + 3*t", "(s - 1)^2", "s^2/4 - t/3", "s - s", "1 - s*t", "sqrt(2)*s - t")
    for text in texts:
        f = parse_polynomial(text, ("s", "t"), sqrt2=True)
        assert parse_polynomial(format_polynomial(f), ("s", "t"), sqrt2=True) == f
    assert [format_polynomial(parse_polynomial(t, ("s", "t"), sqrt2=True)) for t in texts[-3:]] == [
        "0",
        "-s*t+1",
        "(0+1*sqrt(2))*s-t",
    ]


def test_parse_polynomial_sqrt_token_requires_discriminant():
    f = parse_polynomial("t^2 - 2*s^2 + sqrt(2)*s*t", ("s", "t"), sqrt2=True)
    assert f.coeffs[(1, 1)] == QuadExt(Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        parse_polynomial("sqrt(2)*s", ("s", "t"))


def test_parse_polynomial_reads_no_other_square_root():
    with pytest.raises(ValueError, match=r"sqrt\(3\) not allowed here \(expected sqrt\(2\)\)"):
        parse_polynomial("sqrt(3)*s", ("s", "t"), sqrt2=True)


_MATCH_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<pow>\*\*|\^)|(?P<op>[()+\-*/]))"
)


def _tokenize_by_match(text):
    """The oracle of _tokenize: one re.match per token, each token's kind read
    off its named group."""
    pos, tokens = 0, []
    while pos < len(text):
        m = _MATCH_TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].isspace():  # trailing whitespace is no token
                break
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


def _outcome(tokenize, text):
    try:
        return tokenize(text)
    except ValueError as exc:
        return type(exc), str(exc)


_TOKEN_PIECES = st.one_of(
    st.sampled_from(["s", "t", "u", "sqrt", "x_1", "_", "Z9", "2", "10", "007", "**", "*", "^"]),
    st.sampled_from(list("()+-*/^")),
    st.sampled_from(list(" \t\n\r\f\v\x1c\x85\xa0\u2003\u3000")),  # ASCII and Unicode whitespace
    st.sampled_from(list("\u0663\uff10\uff17\u07c0")),  # Unicode decimal digits, which \d reads
    # no token: superscript two and one half are digits, but not decimal ones
    st.sampled_from(list("$.!\u00e9[\u00df\u00b2\u00bd\x00")),
    st.builds(lambda n, digit: digit * n, st.integers(4295, 4305), st.sampled_from("9\u0663")),
    st.text(max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_TOKEN_PIECES, max_size=12).map("".join))
@example("s $")
@example("s^2  \t")
@example("  ")
@example("9" * 4301 + " $")
@example("$ " + "9" * 4301)
def test_tokenize_matches_the_token_by_token_oracle(text):
    # The same tokens, or the same error with the same message: the text
    # from the end of the last token, its whitespace included.
    assert _outcome(_tokenize, text) == _outcome(_tokenize_by_match, text)


def test_unary_minus_after_an_operator_negates_the_whole_factor():
    names = ("s", "t")
    s2, t2 = monomial((2, 0)), monomial((0, 2))
    assert parse_polynomial("2*-s^2", names) == -2 * s2
    assert parse_polynomial("3*-2^2", names) == WPolynomial.constant(-12, 2)
    assert parse_polynomial("s--t^2", names) == monomial((1, 0)) + t2
    assert parse_polynomial("t^2 + -t^2", names).is_zero()
    # Unchanged: a leading minus, a parenthesised base and negative exponents.
    assert parse_polynomial("-s^2", names) == -s2
    assert parse_polynomial("(-s)^2", names) == s2
    with pytest.raises(ValueError, match="negative exponents"):
        parse_polynomial("2^-1", names)


@pytest.mark.parametrize(
    "text",
    [
        "-s^2*(s+t)^3/3*(s-t)",
        "-(s+t)^2*s",
        "-(s+t)^2+s*t",
        "s*(s+t)^10321",
        "(s+t)^3000*((s-t)^2000)*s",
        # The bases alone are under the budget. Parsed in the order of the
        # text, the power 7000 runs before the base (s-t)^6900 is parsed, and
        # that base's power is the one that takes the parse past the budget.
        "(s+t)^7000*((s-t)^6900)",
        "((s-t)^6900)*(s+t)^7000",
    ],
)
def test_a_parsed_product_expands_to_what_parse_polynomial_gives(text):
    names = ("s", "t")
    try:
        expected = parse_polynomial(text, names)
    except BudgetExceeded as exc:
        with pytest.raises(BudgetExceeded) as refusal:
            parse_product(text, names).expand()
        assert str(refusal.value) == str(exc)
    else:
        assert parse_product(text, names).expand() == expected


def _parse_charges(text, sqrt2=True):
    """(polynomial, [(work, what)]): what the parser charges, operation by
    operation, for text, with no budget."""
    parser = _Parser(_tokenize(text), ("s", "t", "u"), sqrt2)
    charges = []
    parser.spend = lambda work, what: charges.append((work, what))
    return parser.parse(), charges


@pytest.mark.parametrize("text", ("s+t+1", "s^3+t^2+s*t+1", "s+t+u+1", "sqrt(2)*s+t-1", "s*t+u^2+s+2"))
def test_the_power_charge_bounds_the_products_of_the_power(monkeypatch, text):
    base = parse_polynomial(text, ("s", "t", "u"), sqrt2=True)
    products = []
    multiply = WPolynomial.__mul__

    def counting(self, other):
        products.append(len(self.coeffs) * len(other.coeffs))
        return multiply(self, other)

    expected = WPolynomial.constant(1, 3)
    for k in range(13):
        products.clear()
        monkeypatch.setattr(WPolynomial, "__mul__", counting)
        power = base**k
        monkeypatch.setattr(WPolynomial, "__mul__", multiply)
        assert power == expected, k
        _, charges = _parse_charges(f"({text})^{k}")
        assert charges[-1][1] == f"a {len(base.coeffs)}-term base to the power {k}"
        # the fixed part of the charge alone pays for every coefficient product
        assert sum(products) * OPERATION_WORK <= charges[-1][0], k
        expected = expected * base


def test_a_power_over_the_parse_cap_is_refused_before_it_is_expanded(monkeypatch):
    # (s+t+1)^44 stays under the budget (about 0.2 s); ^45 is over it, and
    # ^80 would take about 3.4 s.
    parse_polynomial("(s+t+1)^44", ("s", "t"))

    def refused(self, k):
        pytest.fail("a power over the budget was expanded")

    monkeypatch.setattr(WPolynomial, "__pow__", refused)
    for k in ("45", "80", "9" * 4000):
        power = f"the power {k}" if len(k) <= 12 else f"a power of {len(k)} digits"
        message = f"^polynomial too large to expand: a 3-term base to {power} takes the parse past"
        with pytest.raises(BudgetExceeded, match=message):
            parse_polynomial(f"(s+t+1)^{k}", ("s", "t"))


@pytest.mark.parametrize(
    "text,names",
    [("(s^100+t+1)^4", ("s", "t")), ("(s^10+t^10+sqrt(2)*s*t)^10", ("s", "t")),
     ("(s^20+t^20+u^20)^5", ("s", "t", "u"))],
)
def test_a_sparse_power_of_high_degree_is_charged_by_its_terms(text, names):
    # f^(k-1) has at most C(k-1 + terms-1, k-1) terms, far fewer here than
    # the monomials of its degree: (s^100+t+1)^4 multiplies 3 times by 3
    # terms, at most 10 terms a time.
    parser = _Parser(_tokenize(text), names, True)
    power = parser.parse()
    assert power == parse_polynomial(text[1 : text.index(")^")], names, sqrt2=True) ** int(text.split("^")[-1])
    assert parser.work < MAX_WORK // 10


def _bits(c) -> int:
    """Bit lengths of numerator and denominator together, of the larger part
    of a sqrt(2) coefficient."""
    if isinstance(c, QuadExt):
        return max(_bits(c.a), _bits(c.b))
    return abs(c.numerator).bit_length() + c.denominator.bit_length()


def _assert_carried_bounds(sized):
    """The bounds that the parser carries with a polynomial hold for it."""
    parts = [rational_parts(c) for c in sized.poly.coeffs.values()]
    den = math.lcm(1, *(x.denominator for pair in parts for x in pair))
    assert den <= 2**sized.den
    for a, b in parts:
        # |a| + sqrt(2)*|b| <= 2^mag over the common denominator
        room = 2**sized.mag - abs(a * den)
        assert room >= 0 and 2 * (b * den) ** 2 <= room**2
        assert max(_bits(a), _bits(b)) <= sized.mag + sized.den + 2


@pytest.mark.parametrize(
    "text",
    ["3", "2/3", "1+sqrt(2)", "2/3+5/7*sqrt(2)", "s+t", "3*s-7*t", "2/3*s+5/7*t", "sqrt(2)*s+t/3",
     "(1+sqrt(2))*s+t", "10^20*s+t"],
)
def test_power_bits_estimates_the_coefficients_of_a_power(monkeypatch, text):
    # The carried bound holds for the power and is within a factor 4 of the
    # bits of its largest coefficient (3.1 for sqrt(2)*s+t/3, whose
    # coefficients have smaller denominators than their common one).
    powers = []
    power = _Parser.power

    def recording(self, f, k, digits):
        powers.append(power(self, f, k, digits))
        return powers[-1]

    monkeypatch.setattr(_Parser, "power", recording)
    for k in (8, 16, 40, 100):
        parse_polynomial(f"({text})^{k}", ("s", "t"), sqrt2=True)
        sized = powers[-1]
        _assert_carried_bounds(sized)
        assert sized.mag + sized.den + 2 <= 4 * max(map(_bits, sized.poly.coeffs.values())), k


@pytest.mark.parametrize(
    "text,message",
    [
        ("3^10000000*s", "a 1-term base to the power 10000000"),
        ("(s+t)^20000", "a 2-term base to the power 20000"),
        ("(s+t)^10321", "a 2-term base to the power 10321"),
        ("(10^200*s+t)^400", "a 2-term base to the power 400"),
        ("(2/3+5/7*sqrt(2))^80000*s", "a 1-term base to the power 80000"),
        (f"(s+t)^{'9' * 4000}", "a 2-term base to a power of 4000 digits"),
        ("3^1048575*3^1048575*s", "a 1-term base to the power 1048575"),
        ("*".join(["3^1048575"] * 8) + "*s", "a 1-term base to the power 1048575"),
    ],
    ids=["one-term", "two-term-bits", "two-term-work", "large-coefficient", "sqrt2", "4000-digits",
         "product-of-powers", "product-of-8-powers"],
)
def test_a_one_or_two_term_power_over_the_bit_caps_is_refused_before_it_is_expanded(
    monkeypatch, text, message
):
    # Unchecked, 3^10000000 takes about 8.5 s, (s+t)^20000 109 MB and eight
    # factors 3^1048575 8.9 s.  The powers inside the bases (10^200) are
    # expanded.
    power = WPolynomial.__pow__

    def refused(self, k):
        if k > 1000:
            pytest.fail("a power over the budget was expanded")
        return power(self, k)

    monkeypatch.setattr(WPolynomial, "__pow__", refused)
    with pytest.raises(BudgetExceeded, match=f"^polynomial too large to expand: {re.escape(message)} takes"):
        parse_polynomial(text, ("s", "t"), sqrt2=True)


def test_the_power_bit_caps_admit_estimates_equal_to_them(monkeypatch):
    names = ("s", "t")
    # s+t: one addition (the fixed cost), and coefficients of magnitude 2^0.
    # (s+t)^3 then has coefficients of at most 2^(3*(0+1)) = 8 (bits 3+0+2),
    # and takes 4 * (3+1) operations on them.
    work = OPERATION_WORK + 16 * (OPERATION_WORK + 5**2)
    assert _parse_charges("(s+t)^3", sqrt2=False)[1] == [
        (OPERATION_WORK, "a sum of 1 and 1 terms"),
        (16 * (OPERATION_WORK + 5**2), "a 2-term base to the power 3"),
    ]
    expected = parse_polynomial("s^3+3*s^2*t+3*s*t^2+t^3", names)
    monkeypatch.setattr("seshadri.exactmath.polynomials.MAX_WORK", work)
    assert parse_polynomial("(s+t)^3", names) == expected
    monkeypatch.setattr("seshadri.exactmath.polynomials.MAX_WORK", work - 1)
    with pytest.raises(BudgetExceeded, match="the power 3 takes the parse past its budget of"):
        parse_polynomial("(s+t)^3", names)
    # A binomial is computed on its coefficients, without products of
    # polynomials, and its work does not weigh sqrt(2): (sqrt(2)*s+t)^3
    # has coefficients of at most 2^(3*(1+1)) (sqrt(2) counts as 2).
    assert _parse_charges("(sqrt(2)*s+t)^3")[1][-1] == (16 * (OPERATION_WORK + 8**2), "a 2-term base to the power 3")


def test_the_parse_cap_weighs_products_and_sqrt2_coefficients(monkeypatch):
    names = ("s", "t")

    def parser_work(text, sqrt2):
        return sum(work for work, _ in _parse_charges(text, sqrt2)[1])

    # Two additions each for (s+t+1) and (s-t+2), then 3 x 3 coefficient
    # products of 2 by 3 bits (magnitudes 2^0 and 2^1), and 9 - 3 of them
    # added into terms already made (bits only, the fixed cost is the
    # product's), on magnitudes of at most 2^(0 + 1 + ceil(log2 3)) = 8
    # (5 bits).
    work = 4 * OPERATION_WORK + 9 * (OPERATION_WORK + 2 * 3) + 6 * 5**2
    monkeypatch.setattr("seshadri.exactmath.polynomials.MAX_WORK", work)
    assert parse_polynomial("(s+t+1)*(s-t+2)", names) == parse_polynomial("s^2-t^2+3*s+t+2", names)
    monkeypatch.setattr("seshadri.exactmath.polynomials.MAX_WORK", work - 1)
    with pytest.raises(BudgetExceeded, match="a product of 3 by 3 terms takes the parse past"):
        parse_polynomial("(s+t+1)*(s-t+2)", names)
    # Admitting sqrt(2) alone weighs nothing.
    assert parser_work("(s+t+1)*(s-t+2)", sqrt2=True) == parser_work("(s+t+1)*(s-t+2)", sqrt2=False)
    # With sqrt(2) in a factor, each product weighs SQRT2_WEIGHT, and its bit
    # products weigh 3 times more; sqrt(2)*s is one such product of 1 by 1
    # terms.
    first = SQRT2_WEIGHT * (OPERATION_WORK + 3 * 3 * 2)
    work = first + 4 * OPERATION_WORK + SQRT2_WEIGHT * (9 * OPERATION_WORK + 3 * (9 * 3 * 3 + 6 * 6**2))
    monkeypatch.setattr("seshadri.exactmath.polynomials.MAX_WORK", work)
    parse_polynomial("(sqrt(2)*s+t+1)*(s-t+2)", names, sqrt2=True)
    monkeypatch.setattr("seshadri.exactmath.polynomials.MAX_WORK", work - 1)
    with pytest.raises(BudgetExceeded, match="a product of 3 by 3 terms"):
        parse_polynomial("(sqrt(2)*s+t+1)*(s-t+2)", names, sqrt2=True)


def test_a_long_sum_is_parsed_in_linear_time(monkeypatch):
    # Each term is added into one dict; copying the sum at each `+` built
    # dicts of 1, 2, ..., 1999 entries.
    text = "+".join(f"s^{i % 50}*t^{i // 50}" for i in range(2000))
    built = []
    trusted = WPolynomial._trusted.__func__

    def counting(cls, coeffs, nvars):
        built.append(len(coeffs))
        return trusted(cls, coeffs, nvars)

    monkeypatch.setattr(WPolynomial, "_trusted", classmethod(counting))
    f = parse_polynomial(text, ("s", "t"))
    assert len(f.coeffs) == 2000
    assert sum(built) <= 10 * 2000


def test_a_sum_of_20000_terms_is_refused_within_the_budget(monkeypatch):
    # Each term s^a*t^b costs two powers, a product and an addition; the
    # budget runs out after about 10500 terms (about 0.8 s), and no more
    # terms are parsed.
    text = "+".join(f"s^{i % 97}*t^{i // 97}" for i in range(20000))
    terms = []
    term = _Parser.term

    def counting(self):
        terms.append(self.pos)
        return term(self)

    monkeypatch.setattr(_Parser, "term", counting)
    with pytest.raises(BudgetExceeded, match="takes the parse past its budget"):
        parse_polynomial(text, ("s", "t"))
    assert 5000 < len(terms) < 12000


def _expressions():
    # Variables and 1 are drawn often: products of sums of them are where the
    # bounds are tightest.
    leaves = st.one_of(
        st.sampled_from(["s", "t", "1", "sqrt(2)"]),
        st.sampled_from(["s", "t", "1"]),
        st.integers(0, 300).map(str),
        st.tuples(st.integers(-50, 50), st.integers(1, 50)).map(lambda p: f"({p[0]}/{p[1]})"),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*"), children).map(lambda x: f"({x[0]}{x[1]}{x[2]})"),
            st.tuples(children, st.integers(0, 4)).map(lambda x: f"({x[0]})^{x[1]}"),
            children.map(lambda x: f"(-{x})"),
        )

    return st.recursive(leaves, extend, max_leaves=7)


@settings(max_examples=150, deadline=None)
@given(_expressions())
@example("((s+t)*(s+t))")
@example("(((1/2)+sqrt(2)*s)*((1/3)-s))^3")
def test_the_carried_bounds_and_charges_are_one_sided(term_products, text):
    # Every intermediate result keeps the bounds the parser carries with it,
    # and every product and power is charged at least the fixed cost of each
    # coefficient product that it runs, counted by `term_products`.
    charges = []

    def checking(method):
        def wrapper(*args):
            out = method(*args)
            _assert_carried_bounds(out)
            return out

        return wrapper

    with term_products() as counted, pytest.MonkeyPatch.context() as patch:

        def recording(self, work, what):
            charges.append((work, what, len(counted)))
            self.work += work

        for name in ("expr", "sum", "term", "multiply", "atom", "product", "power", "negate", "constant"):
            patch.setattr(_Parser, name, checking(getattr(_Parser, name)))
        patch.setattr(_Parser, "spend", recording)
        _Parser(_tokenize(text), ("s", "t"), True).parse()
        total = len(counted)
    marks = [count for _, _, count in charges] + [total]
    for (work, what, start), end in zip(charges, marks[1:]):
        if what.startswith("a product") or "base to" in what:
            assert (end - start) * OPERATION_WORK <= work, what


def test_weighted_degrees():
    f = WPolynomial({(2, 0): Fraction(1), (0, 1): Fraction(1)}, 2)
    assert f.min_weighted_degree((1, 3)) == 2
    assert f.min_weighted_degree((1, 2)) == 2
    assert WPolynomial({}, 2).min_weighted_degree((1, 3)) == INFINITY


@st.composite
def quad_polynomials(draw, nvars=2, max_degree=3, max_terms=5):
    coeffs = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, max_degree)) for _ in range(nvars))
        coeffs[e] = draw(st.one_of(small_fractions, quad_scalars()))
    return WPolynomial(coeffs, nvars)


@settings(max_examples=80, deadline=None)
@given(quad_polynomials(), quad_polynomials(), small_fractions)
def test_ring_ops_match_the_validating_constructor_and_store_no_zeros(f, g, c):
    # Sums and products are rebuilt from the raw term lists: repeated
    # exponents summed here, and zeros dropped by the validating constructor.
    def summed(terms):
        out = {}
        for e, c in terms:
            out[e] = out.get(e, 0) + c
        return out

    products = [
        (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        for e1, c1 in f.coeffs.items()
        for e2, c2 in g.coeffs.items()
    ]
    assert f + g == WPolynomial(summed([*f.coeffs.items(), *g.coeffs.items()]), 2)
    assert f * g == WPolynomial(summed(products), 2)
    assert f * c == WPolynomial({e: v * c for e, v in f.coeffs.items()}, 2)
    assert (f - f).coeffs == {}
    for h in (f + g, f - g, -f, f * g, f * c, f * 0):
        assert all(h.coeffs.values())


@settings(max_examples=40, deadline=None)
@given(polynomials(max_degree=3), polynomials(max_degree=3))
def test_ring_ops_on_rational_polynomials_keep_fraction_coefficients(f, g):
    for h in (f + g, f - g, f * g, f * 3):
        assert all(type(v) is Fraction for v in h.coeffs.values())


def test_conjugate_product_equals_and_hashes_like_the_rational_norm_form():
    names = ("s", "t")
    h = parse_polynomial("t - sqrt(2)*s", names, sqrt2=True) * parse_polynomial(
        "t + sqrt(2)*s", names, sqrt2=True
    )
    expected = parse_polynomial("t^2-2*s^2", names)
    assert h == expected
    assert hash(h) == hash(expected)
    # 1*1 stays rational; -sqrt(2)*sqrt(2) stays a QuadExt with zero sqrt(2) part.
    assert {e: type(v) for e, v in h.coeffs.items()} == {(0, 2): Fraction, (2, 0): QuadExt}


# The scalar double loop that WPolynomial products ran before the integer
# kernel: one scalar product and one scalar sum per pair of terms.  It is the
# oracle for the kernel's values, for the type of each coefficient (a QuadExt
# where a QuadExt factor reached it) and for the zeros it drops.


def loop_product(f, g):
    out = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if c}


_denominators = st.one_of(
    st.integers(1, 12), st.sampled_from([2**61 - 1, 3**40, 10**30]), st.integers(1, 2**90)
)
_kernel_rationals = st.builds(
    Fraction, st.one_of(st.integers(-9, 9), st.integers(-(2**90), 2**90)), _denominators
)
_kernel_coefficients = st.one_of(
    _kernel_rationals,
    st.builds(QuadExt, _kernel_rationals, _kernel_rationals),
    st.builds(QuadExt, _kernel_rationals, st.just(0)),  # rational-valued
    st.builds(QuadExt, st.just(0), _kernel_rationals),  # a rational-valued square
)


@st.composite
def kernel_polynomials(draw, max_terms=5):
    exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
    terms = draw(st.dictionaries(exponents, _kernel_coefficients, max_size=max_terms))
    return WPolynomial(terms, 2)


@st.composite
def kernel_factors(draw):
    """Two polynomials; in half the draws the second is the first with some
    signs flipped, so that its cross terms cancel, as in (t - sqrt(2)*s) *
    (t + sqrt(2)*s)."""
    f = draw(kernel_polynomials())
    if draw(st.booleans()):
        return f, draw(kernel_polynomials())
    flips = draw(st.lists(st.booleans(), min_size=len(f.coeffs), max_size=len(f.coeffs)))
    return f, WPolynomial({e: -c if flip else c for (e, c), flip in zip(f.coeffs.items(), flips)}, 2)


def _assert_same_coefficients(got: WPolynomial, want: dict):
    assert got.coeffs == want
    assert {e: type(c) for e, c in got.coeffs.items()} == {e: type(c) for e, c in want.items()}
    for c in got.coeffs.values():
        if isinstance(c, QuadExt):
            _assert_normal_form(c)


@settings(max_examples=200, deadline=None)
@given(kernel_factors())
@example((parse_polynomial("t-sqrt(2)*s", ("s", "t"), True), parse_polynomial("t+sqrt(2)*s", ("s", "t"), True)))
@example((WPolynomial({(1, 0): QuadExt(0, Fraction(1, 2)), (0, 1): Fraction(1, 3)}, 2),) * 2)
def test_polynomial_products_match_the_scalar_double_loop(factors):
    f, g = factors
    _assert_same_coefficients(f * g, loop_product(f, g))
    _assert_same_coefficients(g * f, loop_product(g, f))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=2, unique=True),
    _kernel_coefficients.filter(bool),
    _kernel_coefficients.filter(bool),
    st.integers(0, 6),
)
@example([(0, 1), (2, 0)], Fraction(1), QuadExt(0, -1), 12)  # (t - sqrt(2)*s^2)^12
@example([(0, 1), (1, 0)], QuadExt(0, Fraction(1, 2)), QuadExt(Fraction(2, 3), 0), 1)
def test_two_term_powers_match_the_scalar_double_loop(exponents, c1, c2, k):
    base = WPolynomial(dict(zip(exponents, (c1, c2))), 2)
    expected = WPolynomial.constant(1, 2)
    for _ in range(k):
        expected = WPolynomial._trusted(loop_product(expected, base), 2)
    _assert_same_coefficients(base**k, expected.coeffs)


@settings(max_examples=150, deadline=None)
@given(kernel_polynomials(max_terms=6), st.integers(1, 3))
@example(WPolynomial({(0, 3): QuadExt(Fraction(1, 6), Fraction(1, 10)), (1, 0): Fraction(2, 15)}, 2), 1)
def test_rewrite_coefficients_match_the_fraction_pair_construction(f, e):
    # The rewrite before it read integer numerators: the parts as Fractions,
    # multiplied back over their common denominator, and each output built as
    # QuadExt(Fraction(rat, den), Fraction(irr, den)).
    parts = [(exp, *rational_parts(c)) for exp, c in f.coeffs.items()]
    den = math.lcm(1, *(x.denominator for _, alpha, beta in parts for x in (alpha, beta)))
    pairs = [(a, b, int(alpha * den), int(beta * den)) for (a, b), alpha, beta in parts]
    expected = {
        key: QuadExt(Fraction(rat, den), Fraction(irr, den))
        for key, (rat, irr) in _expand_twist(pairs, e).items()
        if rat or irr
    }
    _assert_same_coefficients(MonomialValuation((1, 2), Twist(e)).rewrite_all([f])[0], expected)


# -- linear algebra ------------------------------------------------------------


def _integer_rows(rows):
    """Rational rows times the lcm of all their denominators: integer rows with
    the same rank, and the same solution when the last row is a right-hand
    side."""
    den = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows]


def _rank(rows):
    return exact_rank(ExactMatrix.from_integer_rows(_integer_rows(rows)))


def test_rank_of_identity():
    assert _rank([[1, 0], [0, 1]]) == 2


def test_rank_ignores_repeated_rows():
    assert _rank([[1, 2, 3], [1, 2, 3], [0, 1, 1]]) == 2


def test_rank_of_cubic_jet_map_through_one_point():
    # Plane cubics vanishing at the origin: the nine monomials of degree 1..3.
    # Their order-2 jet matrix at a random rational point has full rank 6.
    # The coefficient of u^beta in (u + x)^alpha is prod C(a_i, b_i) x_i^(a_i - b_i).
    basis = [e for e in graded_lex_monomials(2, 3) if sum(e) >= 1]
    assert len(basis) == 9
    x = (Fraction(2, 3), Fraction(5, 7))

    def taylor(alpha, beta):
        return math.prod(math.comb(a, b) * c ** max(a - b, 0) for a, b, c in zip(alpha, beta, x))

    m = ExactMatrix.from_integer_rows(
        _integer_rows([[taylor(alpha, beta) for alpha in basis] for beta in graded_lex_monomials(2, 2)])
    )
    assert (m.rows, m.cols) == (6, 9)
    assert exact_rank(m) == 6


@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=3, max_size=3))
def test_rank_invariant_under_row_swap_and_scaling(rows):
    assert _rank(rows[::-1]) == _rank(rows)
    assert _rank([[Fraction(5, 3) * x for x in rows[0]], rows[1], rows[2]]) == _rank(rows)


def _random_rank_deficient(rng, nrows, ncols, rank):
    """A product of random nrows x rank and rank x ncols rational matrices,
    with an occasional row made zero."""
    left = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rank)] for _ in range(nrows)]
    right = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ncols)] for _ in range(rank)]
    rows = [
        [sum((row[k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(ncols)]
        for row in left
    ]
    if rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
    return rows


def _large_rank_deficient(rng):
    """A product of random rational matrices whose numerators have a few
    hundred bits, with one row and one column made zero."""
    nrows, ncols = rng.randint(2, 8), rng.randint(2, 8)
    rank = rng.randint(1, min(nrows, ncols))

    def entry():
        return Fraction(rng.randint(-(2**200), 2**200), rng.randint(1, 2**40))

    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    zero_col = rng.randrange(ncols)
    for row in right:
        row[zero_col] = Fraction(0)
    rows = [
        [sum((row[k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(ncols)]
        for row in left
    ]
    rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
    return rows


def _seeded_rank_deficient(seed):
    """Seeds 0..11: small entries; seeds 12..23: `_large_rank_deficient`."""
    rng = random.Random(seed)
    if seed >= 12:
        return _large_rank_deficient(rng)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    return _random_rank_deficient(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))


@pytest.mark.parametrize("seed", range(24))
def test_integer_and_field_bareiss_agree_on_rank_deficient_matrices(seed):
    # Rational entries are scaled to integer rows and eliminated by primitive
    # rows: each changed row is divided by the gcd of its entries.  The rank,
    # and the rank of every column suffix, must be sympy's.
    sympy = pytest.importorskip("sympy")
    rows = _seeded_rank_deficient(seed)
    matrix = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])
    expected = matrix.rank()
    assert _rank(rows) == expected
    suffix_ranks = [matrix[:, t:].rank() for t in range(matrix.cols)] + [0]
    assert linalg_module.exact_suffix_ranks(_integer_rows(rows)) == suffix_ranks


def _bareiss(a):
    """Forward fraction-free elimination of the integer rows a, in place
    (Bareiss, Math. Comp. 22, 1968): each row below the pivot becomes
    (lead * row - row[col] * pivot_row) // previous_lead, so every entry is a
    minor of the input.  Yields (source, column, pivot) at each step, with
    the pivot rows taken as `linalg._primitive_pivots` takes them."""
    nrows, ncols = len(a), (len(a[0]) if a else 0)
    r, prev = 0, 1
    for col in range(ncols):
        if r == nrows:
            return
        source = next((i for i in range(r, nrows) if a[i][col]), None)
        if source is None:
            continue
        a[r], a[source] = a[source], a[r]
        top, lead = a[r][col:], a[r][col]
        yield source, col, lead
        for i in range(r + 1, nrows):
            factor = a[i][col]
            a[i][col:] = [(lead * x - factor * y) // prev for x, y in zip(a[i][col:], top)]
        r, prev = r + 1, lead


@pytest.mark.parametrize("seed", range(24))
def test_primitive_rows_never_outgrow_the_bareiss_rows(seed):
    # The bound in linalg._primitive_pivots's docstring: on the same rows the
    # primitive elimination takes the row swaps and pivot columns of Bareiss,
    # and each of its final entries is at most the Bareiss entry in size, so
    # in bits.
    rows = _integer_rows(_seeded_rank_deficient(seed))
    primitive, bareiss = [list(row) for row in rows], [list(row) for row in rows]
    steps = [(source, col) for source, col, _ in linalg_module._primitive_pivots(primitive)]
    assert steps == [(source, col) for source, col, _ in _bareiss(bareiss)]
    for ours, theirs in zip(primitive, bareiss):
        assert all(abs(x) <= abs(y) for x, y in zip(ours, theirs))
    assert max(abs(x).bit_length() for row in primitive for x in row) <= max(
        abs(x).bit_length() for row in bareiss for x in row
    )


def _as_fractions(solution):
    """A solve's (numerators, q) as the Fractions numerators / q, after
    checking that they are integers in lowest terms with q > 0."""
    if solution is None:
        return None
    numerators, q = solution
    assert all(type(x) is int for x in [*numerators, q])
    assert q > 0 and math.gcd(q, *numerators) == 1
    return [Fraction(x, q) for x in numerators]


def _solve(g, rhs):
    *rows, b = _integer_rows([*g, rhs])
    return _as_fractions(negative_definite_solve(rows, b))


def test_solve_unique():
    numerators, q = negative_definite_solve([[-2, 1], [1, -3]], [0, 5])
    sol = _as_fractions((numerators, q))
    assert sol == [Fraction(-1), Fraction(-2)]
    # (-1, -2) is integral, so its denominator in lowest terms is 1.
    assert all(type(x) is int for x in numerators) and q == 1
    assert negative_definite_solve([[-2, 1], [1, -2]], [1, 0]) == ([-2, -1], 3)
    assert negative_definite_solve([[-1, -2], [-2, -5]], [1, 2]) == ([-1, 0], 1)
    assert negative_definite_solve([[-6]], [4]) == ([-2], 3)
    assert negative_definite_solve([[-6]], [0]) == ([0], 1)
    assert negative_definite_solve([], []) == ([], 1)
    # -x/2 = 1/3 over the denominator 6: -3x = 2.
    assert _solve([[Fraction(-1, 2)]], [Fraction(1, 3)]) == [Fraction(-2, 3)]
    assert negative_definite_solve([[-1, -1], [-2, -2]], [1, 1]) is None
    with pytest.raises(ValueError, match="square"):
        negative_definite_solve([[-1, 0]], [1])
    with pytest.raises(ValueError, match="square"):
        negative_definite_solve([[-1]], [1, 2])
    with pytest.raises(ValueError, match="square"):
        negative_definite_solve([[-1, 0], [0]], [1, 2])


def test_negative_definiteness():
    def definite(rows):
        # With rhs 0 a singular G gives no pivot in the rhs column either.
        answers = {negative_definite_solve(rows, [b] * len(rows)) is not None for b in (0, 1)}
        assert len(answers) == 1
        return answers.pop()

    assert definite([[-2, 1], [1, -2]])
    assert not definite([[-2, 3], [3, -2]])
    assert not definite([[0]])
    assert not definite([[-10, 1], [1, 0]])
    # A zero leading minor: a swapping elimination of -G sees only positive
    # pivots in the first, and the second has no pivot in its last column.
    assert not definite([[0, -1], [-1, 0]])
    assert not definite([[-1, 0], [0, 0]])
    # Semidefinite: -(v v^T) for v = (1, 2) has the leading minors 1 and 0;
    # taking 1 more off its last entry makes it definite.
    assert not definite([[-1, -2], [-2, -4]])
    assert definite([[-1, -2], [-2, -5]])
    # 1 x 1, and the empty form, which is negative definite.
    assert definite([[-6]])
    assert not definite([[6]])
    assert definite([])


# -- definiteness and solve against sympy ------------------------------------------


def _random_entry(rng):
    if rng.random() < 0.75:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Fraction(0)


def _to_sympy(sympy, x):
    return sympy.Rational(x.numerator, x.denominator)


def _same(sympy, ours, theirs) -> bool:
    return type(ours) is Fraction and _to_sympy(sympy, ours) == theirs


@pytest.mark.parametrize("seed", range(40))
def test_negative_definiteness_matches_sylvester(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"definite:{seed}")
    n = rng.randint(1, 5)
    a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    if seed % 2:
        # -(A^T A) - c*I: negative definite for c > 0, semi-definite for c = 0.
        c = Fraction(rng.randint(0, 2), 2)
        g = [
            [
                -sum((a[k][i] * a[k][j] for k in range(n)), Fraction(0)) - (c if i == j else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
    else:
        g = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
    # Drawn after g, so each seed keeps the g it has always drawn.
    rhs = [_random_entry(rng) for _ in range(n)]
    minus_g = sympy.Matrix([[-_to_sympy(sympy, x) for x in row] for row in g])
    definite = all(minus_g[:k, :k].det() > 0 for k in range(1, n + 1))
    solution = _solve(g, rhs)
    if not definite:
        assert solution is None
        return
    expected = (-minus_g).LUsolve(sympy.Matrix([_to_sympy(sympy, b) for b in rhs]))
    assert len(solution) == n
    assert all(_same(sympy, x, expected[i]) for i, x in enumerate(solution))


# -- binomial powers -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.one_of(small_fractions.filter(bool), quad_scalars().filter(bool)),
    st.one_of(small_fractions.filter(bool), quad_scalars().filter(bool)),
    st.integers(0, 7),
)
def test_two_term_power_matches_repeated_multiplication(e1, e2, c1, c2, k):
    base = WPolynomial({e1: c1, e2: c2}, 2)
    expected = WPolynomial.constant(1, 2)
    for _ in range(k):
        expected = expected * base
    power = base**k
    assert power == expected
    assert all(power.coeffs.values())
    if len(base.coeffs) == 2:
        assert len(power.coeffs) == k + 1
