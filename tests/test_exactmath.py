"""Tests for the exact-arithmetic substrate: Q(sqrt(2)) scalars, weighted
polynomials with jet extraction, and fraction-free linear algebra over Q."""

import math
import random
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
    is_negative_definite,
    jet_basis_size,
    jet_coefficients,
    multiplicity_at,
    nullspace_basis,
    parse_polynomial,
    parse_scalar,
    rref,
    solve_unique,
)

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
    assert multiplicity_at(st_poly, (0, 0)) == 2


def test_multiplicity_lowest_degree_term_wins():
    f = parse_polynomial("t^2 + s^7", ("s", "t"))
    assert multiplicity_at(f, (0, 0)) == 2


def test_multiplicity_of_zero_is_infinite():
    assert multiplicity_at(WPolynomial.zero(2), (0, 0)) == INFINITY
    assert WPolynomial.zero(2).multiplicity() == INFINITY


def test_multiplicity_at_shifted_point():
    f = parse_polynomial("(s - 1)^2 * t", ("s", "t"))
    assert multiplicity_at(f, (1, 0)) == 3
    assert multiplicity_at(f, (0, 0)) == 1


@given(nonzero(polynomials()), nonzero(polynomials()))
@settings(max_examples=60)
def test_multiplicity_is_additive_on_products(f, g):
    x = (Fraction(0), Fraction(0))
    assert multiplicity_at(f * g, x) == multiplicity_at(f, x) + multiplicity_at(g, x)


def test_jet_coefficients_reads_off_linear_terms():
    f = parse_polynomial("1 + 2*s + 3*t", ("s", "t"))
    assert jet_coefficients(f, (0, 0), 1) == [1, 2, 3]


def test_jet_coefficients_double_root():
    f = parse_polynomial("(s - 1)^2", ("s",))
    assert jet_coefficients(f, (Fraction(1),), 1) == [0, 0]


def test_jet_coefficients_product_at_shifted_point():
    # s*t at (1,1) expands to 1 + u + v + u*v in shifted coordinates.
    f = parse_polynomial("s*t", ("s", "t"))
    assert jet_coefficients(f, (1, 1), 2) == [1, 1, 1, 0, 1, 0]


def test_jet_coefficients_length():
    f = parse_polynomial("s^2 + t^3", ("s", "t"))
    for order in range(4):
        assert len(jet_coefficients(f, (2, 3), order)) == jet_basis_size(2, order)


@given(polynomials(), polynomials(), small_fractions, small_fractions)
@settings(max_examples=40)
def test_jet_coefficients_linear_in_the_polynomial(f, g, a, b):
    x = (Fraction(1, 2), Fraction(-1, 3))
    lhs = jet_coefficients(a * f + b * g, x, 3)
    jf = jet_coefficients(f, x, 3)
    jg = jet_coefficients(g, x, 3)
    assert lhs == [a * u + b * v for u, v in zip(jf, jg)]


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


def test_weighted_degrees():
    f = WPolynomial({(2, 0): Fraction(1), (0, 1): Fraction(1)}, 2)
    assert f.min_weighted_degree((1, 3)) == 2
    assert f.max_weighted_degree((1, 3)) == 3
    assert not f.is_weighted_homogeneous((1, 3))
    assert f.is_weighted_homogeneous((1, 2))


def test_substitute_variable():
    # t |-> u + s^2 inside t^2: (u + s^2)^2
    f = WPolynomial({(0, 2): Fraction(1)}, 2)
    g = WPolynomial({(0, 1): Fraction(1), (2, 0): Fraction(1)}, 2)
    expected = parse_polynomial("t^2 + 2*s^2*t + s^4", ("s", "t"))
    assert f.substitute(1, g) == expected


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
    point = (Fraction(2, 3), Fraction(-5, 7))
    substituted = f.substitute(1, g)
    assert substituted.evaluate(point) == f.evaluate((point[0], g.evaluate(point)))
    for h in (f + g, f - g, -f, f * g, f * c, f * 0, substituted):
        assert all(h.coeffs.values())


@settings(max_examples=40, deadline=None)
@given(polynomials(max_degree=3), polynomials(max_degree=3))
def test_ring_ops_on_rational_polynomials_keep_fraction_coefficients(f, g):
    for h in (f + g, f - g, f * g, f * 3, f.substitute(0, g)):
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
    basis = [e for e in graded_lex_monomials(2, 3) if sum(e) >= 1]
    assert len(basis) == 9
    x = (Fraction(2, 3), Fraction(5, 7))
    cols = [jet_coefficients(WPolynomial.monomial(e), x, 2) for e in basis]
    m = ExactMatrix.from_rows([[col[i] for col in cols] for i in range(6)])
    assert (m.rows, m.cols) == (6, 9)
    assert exact_rank(m) == 6


@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=3, max_size=3))
def test_rank_invariant_under_row_swap_and_scaling(rows):
    m = ExactMatrix.from_rows([[Fraction(x) for x in row] for row in rows])
    r = m.row_list()
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


def test_rref_and_nullspace():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    _, pivots = rref(m)
    assert pivots == [0]
    basis = nullspace_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert all(
            sum(m.entries[i][j] * v[j] for j in range(3)) == 0 for i in range(2)
        )


def test_solve_unique():
    m = ExactMatrix.from_rows([[2, 1], [1, 3]])
    sol = solve_unique(m, [5, 10])
    assert sol == [Fraction(1), Fraction(3)]
    singular = ExactMatrix.from_rows([[1, 1], [2, 2]])
    with pytest.raises(ValueError):
        solve_unique(singular, [1, 1])


def test_negative_definiteness():
    assert is_negative_definite(ExactMatrix.from_rows([[-2, 1], [1, -2]]))
    assert not is_negative_definite(ExactMatrix.from_rows([[-2, 3], [3, -2]]))
    assert not is_negative_definite(ExactMatrix.from_rows([[0]]))
    assert not is_negative_definite(ExactMatrix.from_rows([[-10, 1], [1, 0]]))
    # A zero leading minor: a swapping elimination of -G sees only positive
    # pivots in the first, and the second has no pivot in its last column.
    assert not is_negative_definite(ExactMatrix.from_rows([[0, -1], [-1, 0]]))
    assert not is_negative_definite(ExactMatrix.from_rows([[-1, 0], [0, 0]]))


# -- rref, nullspace and solve against sympy ---------------------------------------


def _random_entry(rng):
    if rng.random() < 0.75:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Fraction(0)


def _random_matrix(rng, nrows, ncols):
    """A seeded matrix that is often rank-deficient: a product of random
    nrows x rank and rank x ncols factors, sometimes with a zero row."""
    rank = rng.randint(1, max(1, min(nrows, ncols)))
    left = [[_random_entry(rng) for _ in range(rank)] for _ in range(nrows)]
    right = [[_random_entry(rng) for _ in range(ncols)] for _ in range(rank)]
    rows = [
        [sum((row[k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(ncols)]
        for row in left
    ]
    if nrows > 1 and rng.random() < 0.4:
        rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
    return rows


def _to_sympy(sympy, x):
    return sympy.Rational(x.numerator, x.denominator)


def _sympy_rref(sympy, rows, ncols):
    """sympy's rref of the rational matrix, as lists of rows."""
    matrix = sympy.Matrix(len(rows), ncols, [_to_sympy(sympy, x) for row in rows for x in row])
    reduced, pivots = matrix.rref()
    return [[reduced[i, j] for j in range(ncols)] for i in range(len(rows))], list(pivots)


def _same(sympy, ours, theirs) -> bool:
    return type(ours) is Fraction and _to_sympy(sympy, ours) == theirs


_SHAPES = [(0, 0), (1, 1), (1, 5), (5, 1), (3, 3), (4, 6), (6, 4), (5, 5)]


# The one `field` value keeps the test ids `...-rational`, and the random
# streams "rref:False:..." and "solve:False:..." keep the matrices those ids
# have always drawn.
@pytest.mark.parametrize("field", ["rational"])
@pytest.mark.parametrize("shape", _SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("seed", range(3))
def test_rref_and_nullspace_match_sympy(field, shape, seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"rref:False:{shape}:{seed}")
    nrows, ncols = shape
    rows = _random_matrix(rng, nrows, ncols) if nrows else []
    m = ExactMatrix.from_rows(rows)
    expected, expected_pivots = _sympy_rref(sympy, rows, ncols)
    reduced, pivots = rref(m)
    assert pivots == expected_pivots
    assert len(reduced) == nrows
    for ours, theirs in zip(reduced, expected):
        assert len(ours) == ncols
        assert all(_same(sympy, x, y) for x, y in zip(ours, theirs))
    # sympy's nullspace basis uses the same convention: 1 at a free column,
    # minus the rref entries at the pivot columns.
    free = [c for c in range(ncols) if c not in expected_pivots]
    basis = nullspace_basis(m)
    assert len(basis) == len(free)
    for f, v in zip(free, basis):
        theirs = [sympy.Integer(0)] * ncols
        theirs[f] = sympy.Integer(1)
        for r, p in enumerate(expected_pivots):
            theirs[p] = -expected[r][f]
        assert all(_same(sympy, x, y) for x, y in zip(v, theirs))


@pytest.mark.parametrize("field", ["rational"])
@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("seed", range(4))
def test_solve_unique_matches_sympy(field, n, seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"solve:False:{n}:{seed}")
    rows = [[_random_entry(rng) for _ in range(n)] for _ in range(n)]
    rhs = [_random_entry(rng) for _ in range(n)]
    augmented, pivots = _sympy_rref(sympy, [row + [b] for row, b in zip(rows, rhs)], n + 1)
    m = ExactMatrix.from_rows(rows)
    if pivots != list(range(n)):
        with pytest.raises(ValueError, match="singular"):
            solve_unique(m, rhs)
        return
    solution = solve_unique(m, rhs)
    assert all(_same(sympy, x, augmented[i][n]) for i, x in enumerate(solution))


def test_rref_of_a_singular_system_keeps_zero_rows():
    reduced, pivots = rref(ExactMatrix.from_rows([[2, 4, 6], [1, 2, 3], [0, 0, 0]]))
    assert pivots == [0]
    assert reduced == [[1, 2, 3], [0, 0, 0], [0, 0, 0]]
    assert all(type(x) is Fraction for row in reduced for x in row)


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
    minus_g = sympy.Matrix([[-_to_sympy(sympy, x) for x in row] for row in g])
    expected = all(minus_g[:k, :k].det() > 0 for k in range(1, n + 1))
    assert is_negative_definite(ExactMatrix.from_rows(g)) is expected


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
