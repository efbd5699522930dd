"""Tests for the exact-arithmetic substrate: Q(sqrt(2)) scalars, weighted
polynomials, and fraction-free linear algebra over Q."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seshadri.exactmath import (
    INFINITY,
    ExactMatrix,
    QuadExt,
    WPolynomial,
    exact_rank,
    format_polynomial,
    format_scalar,
    graded_lex_monomials,
    negative_definite_solve,
    parse_polynomial,
    parse_scalar,
)
from seshadri.exactmath.polynomials import MAX_PARSE_PRODUCTS, power_bits, power_products

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
    prod = x * x.conjugate()
    assert prod == x.a**2 - 2 * x.b**2
    assert prod == x.norm()


@given(quad_scalars(), quad_scalars(), quad_scalars())
def test_quadext_ring_laws(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x


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


# -- polynomials ---------------------------------------------------------------


def test_multiplicity_product_of_linear_forms():
    st_poly = parse_polynomial("s*t", ("s", "t"))
    assert st_poly.multiplicity() == 2


def test_multiplicity_lowest_degree_term_wins():
    f = parse_polynomial("t^2 + s^7", ("s", "t"))
    assert f.multiplicity() == 2


def test_multiplicity_of_zero_is_infinite():
    assert WPolynomial.zero(2).multiplicity() == INFINITY


@given(nonzero(polynomials()), nonzero(polynomials()))
@settings(max_examples=60)
def test_multiplicity_is_additive_on_products(f, g):
    assert (f * g).multiplicity() == f.multiplicity() + g.multiplicity()


def test_graded_lex_order_is_degree_then_reverse_lex():
    assert graded_lex_monomials(2, 2) == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]


def test_polynomial_parse_format_round_trip():
    for text in ("s*t", "t^2 + s^7", "1 + 2*s + 3*t", "(s - 1)^2", "s^2/4 - t/3"):
        f = parse_polynomial(text, ("s", "t"))
        assert parse_polynomial(format_polynomial(f), ("s", "t")) == f


def test_parse_polynomial_sqrt_token_requires_discriminant():
    f = parse_polynomial("t^2 - 2*s^2 + sqrt(2)*s*t", ("s", "t"), sqrt2=True)
    assert f.coeffs[(1, 1)] == QuadExt(Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        parse_polynomial("sqrt(2)*s", ("s", "t"))


def test_parse_polynomial_reads_no_other_square_root():
    with pytest.raises(ValueError, match=r"sqrt\(3\) not allowed here \(expected sqrt\(2\)\)"):
        parse_polynomial("sqrt(3)*s", ("s", "t"), sqrt2=True)


def test_unary_minus_after_an_operator_negates_the_whole_factor():
    names = ("s", "t")
    s2, t2 = WPolynomial.monomial((2, 0)), WPolynomial.monomial((0, 2))
    assert parse_polynomial("2*-s^2", names) == -2 * s2
    assert parse_polynomial("3*-2^2", names) == WPolynomial.constant(-12, 2)
    assert parse_polynomial("s--t^2", names) == WPolynomial.monomial((1, 0)) + t2
    assert parse_polynomial("t^2 + -t^2", names).is_zero()
    # Unchanged: a leading minus, a parenthesised base and negative exponents.
    assert parse_polynomial("-s^2", names) == -s2
    assert parse_polynomial("(-s)^2", names) == s2
    with pytest.raises(ValueError, match="negative exponents"):
        parse_polynomial("2^-1", names)


@pytest.mark.parametrize("text", ("s+t+1", "s^3+t^2+s*t+1", "s+t+u+1", "sqrt(2)*s+t-1", "s*t+u^2+s+2"))
def test_power_products_bounds_the_products_of_binary_powering(monkeypatch, text):
    base = parse_polynomial(text, ("s", "t", "u"), sqrt2=True)
    products = []
    multiply = WPolynomial.__mul__

    def counting(self, other):
        if isinstance(other, WPolynomial) and len(self.coeffs) > 1:
            products.append(len(self.coeffs) * len(other.coeffs))
        return multiply(self, other)

    expected = WPolynomial.constant(1, 3)
    for k in range(13):
        products.clear()
        monkeypatch.setattr(WPolynomial, "__mul__", counting)
        power = base**k
        monkeypatch.setattr(WPolynomial, "__mul__", multiply)
        assert power == expected, k
        # the bound leaves out the product by the starting constant 1
        assert sum(products) <= power_products(base, k, math.inf), k
        expected = expected * base


def test_a_power_over_the_parse_cap_is_refused_before_it_is_expanded(monkeypatch):
    # (s+t+1)^49 stays under the cap (about 0.7 s); ^50 is over it, and ^80
    # would take about 3.4 s.
    base = parse_polynomial("s+t+1", ("s", "t"))
    assert power_products(base, 49, MAX_PARSE_PRODUCTS) <= MAX_PARSE_PRODUCTS
    assert power_products(base, 50, MAX_PARSE_PRODUCTS) > MAX_PARSE_PRODUCTS

    def refused(self, k):
        pytest.fail("a power over the cap was expanded")

    monkeypatch.setattr(WPolynomial, "__pow__", refused)
    for k in ("50", "80", "9" * 4000):
        power = f"the power {k}" if len(k) <= 12 else f"a power of {len(k)} digits"
        message = f"^polynomial too large to expand: a 3-term base to {power} takes more than"
        with pytest.raises(ValueError, match=message):
            parse_polynomial(f"(s+t+1)^{k}", ("s", "t"))


def _log_size(c) -> int:
    """bit lengths of |numerator| and denominator, less one each; the larger
    part's for a sqrt(2) coefficient."""
    if isinstance(c, QuadExt):
        return max(_log_size(c.a), _log_size(c.b))
    return max(abs(c.numerator).bit_length() - 1, 0) + c.denominator.bit_length() - 1


@pytest.mark.parametrize(
    "text",
    ["3", "2/3", "1+sqrt(2)", "2/3+5/7*sqrt(2)", "s+t", "3*s-7*t", "2/3*s+5/7*t", "sqrt(2)*s+t/3",
     "(1+sqrt(2))*s+t", "10^20*s+t"],
)
def test_power_bits_estimates_the_coefficients_of_a_power(text):
    base = parse_polynomial(text, ("s", "t"), sqrt2=True)
    for k in (8, 16, 40, 100):
        largest, total = power_bits(base, k)
        sizes = [_log_size(c) + 1 for c in (base**k).coeffs.values()]
        assert largest / 2 <= max(sizes) <= 2 * largest, k
        assert total / 4 <= sum(sizes) <= 2 * total, k


@pytest.mark.parametrize(
    "text,message",
    [
        ("3^10000000*s", "a 1-term base to the power 10000000 takes more than"),
        ("(s+t)^20000", "a 2-term base to the power 20000 has more than"),
        ("(s+t)^10321", "a 2-term base to the power 10321 takes more than"),
        ("(10^200*s+t)^400", "a 2-term base to the power 400 takes more than"),
        ("(2/3+5/7*sqrt(2))^52429*s", "a 1-term base to the power 52429 takes more than"),
        (f"(s+t)^{'9' * 4000}", "a 2-term base to a power of 4000 digits has more than"),
    ],
    ids=["one-term", "two-term-bits", "two-term-work", "large-coefficient", "sqrt2", "4000-digits"],
)
def test_a_one_or_two_term_power_over_the_bit_caps_is_refused_before_it_is_expanded(
    monkeypatch, text, message
):
    # Unchecked, 3^10000000 takes about 8.5 s and (s+t)^20000 109 MB.  The
    # powers inside the bases (10^200) are expanded.
    power = WPolynomial.__pow__

    def refused(self, k):
        if k > 1000:
            pytest.fail("a power over the cap was expanded")
        return power(self, k)

    monkeypatch.setattr(WPolynomial, "__pow__", refused)
    with pytest.raises(ValueError, match=f"^polynomial too large to expand: {re.escape(message)}"):
        parse_polynomial(text, ("s", "t"), sqrt2=True)


def test_the_power_bit_caps_admit_estimates_equal_to_them(monkeypatch):
    caps = "seshadri.exactmath.polynomials."
    names = ("s", "t")
    # (s+t)^3: a largest coefficient of 3 + 1 bits, 4 * 4 = 16 in all, and
    # 4 * 16 = 64 bit products.
    assert power_bits(parse_polynomial("s+t", names), 3) == (4, 16)
    expected = parse_polynomial("s^3+3*s^2*t+3*s*t^2+t^3", names)
    monkeypatch.setattr(caps + "MAX_POWER_BITS", 16)
    monkeypatch.setattr(caps + "MAX_POWER_WORK", 64)
    assert parse_polynomial("(s+t)^3", names) == expected
    monkeypatch.setattr(caps + "MAX_POWER_BITS", 15)
    with pytest.raises(ValueError, match="has more than 15 coefficient bits$"):
        parse_polynomial("(s+t)^3", names)
    monkeypatch.setattr(caps + "MAX_POWER_BITS", 16)
    monkeypatch.setattr(caps + "MAX_POWER_WORK", 63)
    with pytest.raises(ValueError, match="takes more than 63 bit products$"):
        parse_polynomial("(s+t)^3", names)
    # ((1+sqrt(2))*s+t)^3: 3 * 1 + 3 + 1 = 7 bits, 28 in all, and 7 * 28 = 196
    # bit products, times 16 for a coefficient with both parts nonzero; a
    # sqrt(2) coefficient with one part zero is not weighed.
    monkeypatch.setattr(caps + "MAX_POWER_BITS", 28)
    monkeypatch.setattr(caps + "MAX_POWER_WORK", 196 * 16)
    parse_polynomial("((1+sqrt(2))*s+t)^3", names, sqrt2=True)
    monkeypatch.setattr(caps + "MAX_POWER_WORK", 196 * 16 - 1)
    with pytest.raises(ValueError, match="takes more than"):
        parse_polynomial("((1+sqrt(2))*s+t)^3", names, sqrt2=True)
    monkeypatch.setattr(caps + "MAX_POWER_WORK", 196)
    parse_polynomial("(sqrt(2)*s+t)^3", names, sqrt2=True)


def test_the_parse_cap_weighs_products_and_sqrt2_coefficients(monkeypatch):
    names = ("s", "t")
    # 3 x 3 terms: 9 products, each worth five rational ones with sqrt(2)
    monkeypatch.setattr("seshadri.exactmath.polynomials.MAX_PARSE_PRODUCTS", 9)
    assert parse_polynomial("(s+t+1)*(s-t+2)", names) == parse_polynomial("s^2-t^2+3*s+t+2", names)
    monkeypatch.setattr("seshadri.exactmath.polynomials.MAX_PARSE_PRODUCTS", 8)
    with pytest.raises(ValueError, match="a product of 3 by 3 terms takes more than 8"):
        parse_polynomial("(s+t+1)*(s-t+2)", names)
    monkeypatch.setattr("seshadri.exactmath.polynomials.MAX_PARSE_PRODUCTS", 45)
    parse_polynomial("(sqrt(2)*s+t+1)*(s-t+2)", names, sqrt2=True)
    monkeypatch.setattr("seshadri.exactmath.polynomials.MAX_PARSE_PRODUCTS", 44)
    with pytest.raises(ValueError, match="a product of 3 by 3 terms"):
        parse_polynomial("(sqrt(2)*s+t+1)*(s-t+2)", names, sqrt2=True)


def test_weighted_degrees():
    f = WPolynomial({(2, 0): Fraction(1), (0, 1): Fraction(1)}, 2)
    assert f.min_weighted_degree((1, 3)) == 2
    assert f.min_weighted_degree((1, 2)) == 2
    assert WPolynomial.zero(2).min_weighted_degree((1, 3)) == INFINITY


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
    # The validating constructor sums repeated exponents and drops zeros, so
    # it rebuilds sums and products from the raw term lists.
    products = [
        (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        for e1, c1 in f.coeffs.items()
        for e2, c2 in g.coeffs.items()
    ]
    assert f + g == WPolynomial(list(f.coeffs.items()) + list(g.coeffs.items()), 2)
    assert f * g == WPolynomial(products, 2)
    assert f * c == WPolynomial([(e, v * c) for e, v in f.coeffs.items()], 2)
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


# -- linear algebra ------------------------------------------------------------


def test_rank_of_identity():
    assert exact_rank(ExactMatrix.from_rows([[1, 0], [0, 1]])) == 2


def test_rank_ignores_repeated_rows():
    m = ExactMatrix.from_rows([[1, 2, 3], [1, 2, 3], [0, 1, 1]])
    assert exact_rank(m) == 2


def test_rank_of_cubic_jet_map_through_one_point():
    # Plane cubics vanishing at the origin: the nine monomials of degree 1..3.
    # Their order-2 jet matrix at a random rational point has full rank 6.
    # The coefficient of u^beta in (u + x)^alpha is prod C(a_i, b_i) x_i^(a_i - b_i).
    basis = [e for e in graded_lex_monomials(2, 3) if sum(e) >= 1]
    assert len(basis) == 9
    x = (Fraction(2, 3), Fraction(5, 7))

    def taylor(alpha, beta):
        return math.prod(math.comb(a, b) * c ** max(a - b, 0) for a, b, c in zip(alpha, beta, x))

    m = ExactMatrix.from_rows(
        [[taylor(alpha, beta) for alpha in basis] for beta in graded_lex_monomials(2, 2)]
    )
    assert (m.rows, m.cols) == (6, 9)
    assert exact_rank(m) == 6


@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=3, max_size=3))
def test_rank_invariant_under_row_swap_and_scaling(rows):
    m = ExactMatrix.from_rows([[Fraction(x) for x in row] for row in rows])
    r = [list(row) for row in m.entries]
    swapped = ExactMatrix.from_rows([r[2], r[1], r[0]])
    scaled = ExactMatrix.from_rows([[Fraction(5, 3) * x for x in r[0]], r[1], r[2]])
    assert exact_rank(swapped) == exact_rank(m)
    assert exact_rank(scaled) == exact_rank(m)


def test_rank_over_quadratic_extension():
    # Linear algebra runs over Q only: a sqrt(2) entry is refused on entry.
    r2 = QuadExt(Fraction(0), Fraction(1))
    with pytest.raises(TypeError, match="integer or Fraction"):
        ExactMatrix.from_rows([[1, r2], [r2, 2]])
    with pytest.raises(TypeError, match="integer or Fraction"):
        ExactMatrix.from_rows([[1, QuadExt(2, 0)]])


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


@pytest.mark.parametrize("seed", range(12))
def test_integer_and_field_bareiss_agree_on_rank_deficient_matrices(seed):
    # Rational entries are scaled to integer rows and eliminated with floor
    # division by the previous pivot; the rank must be sympy's.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    rows = _random_rank_deficient(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
    expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]).rank()
    assert exact_rank(ExactMatrix.from_rows(rows)) == expected


def test_solve_unique():
    m = ExactMatrix.from_rows([[-2, 1], [1, -3]])
    sol = negative_definite_solve(m, [0, 5])
    assert sol == [Fraction(-1), Fraction(-2)]
    assert all(type(x) is Fraction for x in sol)
    half = ExactMatrix.from_rows([[Fraction(-1, 2)]])
    assert negative_definite_solve(half, [Fraction(1, 3)]) == [Fraction(-2, 3)]
    singular = ExactMatrix.from_rows([[-1, -1], [-2, -2]])
    assert negative_definite_solve(singular, [1, 1]) is None
    with pytest.raises(ValueError, match="square"):
        negative_definite_solve(ExactMatrix.from_rows([[-1, 0]]), [1])
    with pytest.raises(ValueError, match="square"):
        negative_definite_solve(ExactMatrix.from_rows([[-1]]), [1, 2])


def test_negative_definiteness():
    def definite(rows):
        # With rhs 0 a singular G gives no pivot in the rhs column either.
        g = ExactMatrix.from_rows(rows)
        answers = {negative_definite_solve(g, [b] * len(rows)) is not None for b in (0, 1)}
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
    solution = negative_definite_solve(ExactMatrix.from_rows(g), rhs)
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
