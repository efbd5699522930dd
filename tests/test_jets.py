"""Tests for jet separation of linear systems and moving-Seshadri estimates."""

import random
import time
from fractions import Fraction

import pytest

import seshadri.jets as jets_module
from seshadri.exactmath import (
    ExactMatrix,
    QuadExt,
    WPolynomial,
    graded_lex_monomials,
    jet_basis_size,
    jet_coefficients,
    nullspace_basis,
)
from seshadri.jets import (
    CurveBound,
    LinearSystem,
    MultConstraint,
    SeshadriEstimate,
    SpanConstraint,
    blowup_anticanonical_series,
    blowup_line_bound,
    jet_separation,
    moving_seshadri_lower,
    random_rational_point,
    seshadri_upper_via_curve,
)

ORIGIN = (Fraction(0), Fraction(0))


def small_point(rng, nvars):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(nvars))


# -- jet separation ------------------------------------------------------------


def test_complete_cubics_separate_3_jets():
    rng = random.Random(2)
    x = random_rational_point(rng, 2)
    assert jet_separation(LinearSystem(2, 3), x) == 3


def test_cubics_through_a_point_separate_2_jets_elsewhere():
    rng = random.Random(3)
    system = LinearSystem(2, 3, [MultConstraint(ORIGIN, 1)])
    assert system.dimension == 9
    x = random_rational_point(rng, 2)
    assert jet_separation(system, x) == 2


def test_empty_system_has_base_point_everywhere():
    system = LinearSystem(2, 3, [MultConstraint(ORIGIN, 4)])
    assert system.dimension == 0
    assert jet_separation(system, (Fraction(1), Fraction(2))) == -1


def test_base_point_gives_minus_one():
    system = LinearSystem(2, 3, [MultConstraint(ORIGIN, 1)])
    assert jet_separation(system, ORIGIN) == -1


def test_high_order_vanishing_lowers_separation_at_the_point():
    # At the assigned point itself, jets of order < the forced multiplicity
    # all vanish, so separation fails at s = 0 already.
    system = LinearSystem(2, 4, [MultConstraint(ORIGIN, 2)])
    assert jet_separation(system, ORIGIN) == -1


def test_span_constraint_restricts_the_system():
    # Restrict degree-1 polynomials to span{1, s+t}: order-1 jets at a point
    # need 3 independent directions, so separation drops to 0.
    full = LinearSystem(2, 1)
    one = WPolynomial.constant(1, 2)
    s_plus_t = WPolynomial({(1, 0): 1, (0, 1): 1}, 2)
    system = LinearSystem(2, 1, [SpanConstraint((one, s_plus_t))])
    assert system.dimension == 2
    x = (Fraction(1, 3), Fraction(2, 5))
    assert jet_separation(full, x) == 1
    assert jet_separation(system, x) == 0


def test_span_constraint_with_a_sqrt2_coefficient_is_refused():
    # Systems are linear algebra over Q: an irrational span coefficient
    # raises when the constraint matrix is first built.
    one = WPolynomial.constant(1, 2)
    twisted = WPolynomial({(1, 0): 1, (0, 1): QuadExt(0, 1)}, 2)
    with pytest.raises(TypeError, match="integer or Fraction"):
        LinearSystem(2, 1, [SpanConstraint((one, twisted))])


@pytest.mark.parametrize(
    "nvars,degree",
    [(1, d) for d in range(1, 17)]
    + [(2, d) for d in range(1, 9)]
    + [(3, d) for d in range(1, 5)],
)
def test_complete_systems_separate_exactly_degree_jets(nvars, degree):
    # s(O(m*d)) = m*d at every point; the grid covers m <= 4, d <= 4 per
    # ambient dimension, capped so the largest rank computation stays small.
    rng = random.Random(100 * nvars + degree)
    x = small_point(rng, nvars)
    assert jet_separation(LinearSystem(nvars, degree), x) == degree


def test_five_random_points_agree_on_the_generic_value():
    rng = random.Random(17)
    system = LinearSystem(2, 3, [MultConstraint(ORIGIN, 1)])
    values = [jet_separation(system, random_rational_point(rng, 2)) for _ in range(5)]
    assert max(values) == 2
    assert all(v == 2 for v in values)


# -- curve bounds --------------------------------------------------------------


def test_curve_bound_line_through_base_point():
    assert seshadri_upper_via_curve(Fraction(3), 1, True) == CurveBound(Fraction(3), True)


def test_curve_bound_arithmetic():
    assert seshadri_upper_via_curve(Fraction(4), 2, False) == CurveBound(Fraction(2), False)
    assert seshadri_upper_via_curve(Fraction(0), 1, False) == CurveBound(Fraction(0), False)


def test_curve_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        seshadri_upper_via_curve(Fraction(3), 0, False)
    with pytest.raises(ValueError):
        seshadri_upper_via_curve(Fraction(-1), 1, False)


# -- moving Seshadri estimates ---------------------------------------------------


def test_complete_series_lower_bound_is_the_degree():
    rng = random.Random(5)
    x = small_point(rng, 2)
    est = moving_seshadri_lower(lambda m: LinearSystem(2, 3 * m), x, 2)
    assert est.lower == 3
    assert est.s_values == (3, 6)
    assert est.upper is None and not est.certified_equal


def test_blowup_series_lower_bound_certified_by_line():
    rng = random.Random(6)
    series = blowup_anticanonical_series(2, ORIGIN)
    x = random_rational_point(rng, 2)
    est = moving_seshadri_lower(series, x, 3, blowup_line_bound(2))
    assert est.s_values == (2, 4, 6)
    assert est.lower == 2
    assert est.upper == 2
    assert est.certified_equal


def test_empty_series_gives_minus_one():
    series = blowup_anticanonical_series(2, ORIGIN)

    def starved(m):
        # degree 3m but multiplicity 3m forced at the base point: no sections
        # separate jets at a second point beyond the trivial cone directions
        return LinearSystem(2, 3 * m, [MultConstraint(ORIGIN, 4 * m)])

    x = (Fraction(1), Fraction(1))
    est = moving_seshadri_lower(starved, x, 1)
    assert est.lower == -1
    del series


def test_blowup_lower_never_exceeds_ambient_seshadri():
    # The blowup value 2 never exceeds eps(-K of the plane) = 3, for any m_max.
    series = blowup_anticanonical_series(2, ORIGIN)
    rng = random.Random(8)
    x = random_rational_point(rng, 2)
    for m_max in (1, 2, 3, 4):
        est = moving_seshadri_lower(series, x, m_max)
        assert est.lower <= 3


def test_strict_curve_bound_holds_per_multiple():
    # Viewing the same systems inside the plane, the line through the assigned
    # base point meets the base locus: the per-m separation stays strictly
    # below m times the bound (degree 3, multiplicity 1).
    rng = random.Random(9)
    series = blowup_anticanonical_series(2, ORIGIN)
    x = random_rational_point(rng, 2)
    bound = seshadri_upper_via_curve(Fraction(3), 1, True)
    est = moving_seshadri_lower(series, x, 3, bound)
    assert bound.strict
    for m, s in zip(est.m_values, est.s_values):
        assert s < m * bound.bound
    assert not est.certified_equal


def test_estimate_rejects_lower_above_upper():
    with pytest.raises(ValueError):
        SeshadriEstimate(
            lower=Fraction(3),
            upper=Fraction(2),
            m_values=(1,),
            s_values=(3,),
        )


def test_linear_system_dimension_bound():
    system = LinearSystem(2, 3, [MultConstraint(ORIGIN, 2)])
    assert system.dimension == 10 - 3
    assert system.dimension <= 10


def test_random_point_heights_are_bounded():
    rng = random.Random(10)
    for _ in range(20):
        p = random_rational_point(rng, 3, height=50)
        assert len(p) == 3
        assert all(abs(c.numerator) <= 50 and c.denominator <= 50 for c in p)


# -- input validation -------------------------------------------------------------


def test_constraint_point_of_the_wrong_arity_is_rejected():
    with pytest.raises(ValueError, match="point arity mismatch"):
        LinearSystem(2, 3, [MultConstraint((Fraction(1),), 1)])


def test_evaluation_point_of_the_wrong_arity_is_rejected():
    system = LinearSystem(2, 3, [MultConstraint(ORIGIN, 1)])
    with pytest.raises(ValueError, match="point arity mismatch"):
        jet_separation(system, (Fraction(1),))
    with pytest.raises(ValueError, match="point arity mismatch"):
        jet_separation(system, (Fraction(1), Fraction(2), Fraction(3)))


# -- oracle: nullspace basis, shifted jets, sympy rank -----------------------------
#
# A separate route: the jets of the monomials at a constraint point come from
# WPolynomial.shift, W is an explicit nullspace basis of the constraint matrix,
# and every rank is sympy's.


def _sympy_rank(rows):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(
        [[sympy.Rational(int(x.numerator), int(x.denominator)) for x in row] for row in rows]
    ).rank()


def _oracle(nvars, degree, constraints, point):
    """(dimension, s(W, x)) by the separate route."""
    sympy = pytest.importorskip("sympy")
    monomials = graded_lex_monomials(nvars, degree)
    rows = []
    for c in constraints:
        if isinstance(c, MultConstraint):
            cols = [jet_coefficients(WPolynomial.monomial(e), c.point, c.order - 1) for e in monomials]
            rows.extend([col[i] for col in cols] for i in range(len(cols[0])))
        else:
            span = sympy.Matrix(
                [[sympy.Rational(str(f.coeffs.get(e, 0))) for e in monomials] for f in c.basis]
                or [[0] * len(monomials)]
            )
            rows.extend([Fraction(str(v)) for v in vec] for vec in span.nullspace())
    if rows:
        basis = nullspace_basis(ExactMatrix.from_rows(rows))
    else:
        basis = [[Fraction(int(i == j)) for j in range(len(monomials))] for i in range(len(monomials))]
    members = [WPolynomial(dict(zip(monomials, v)), nvars) for v in basis]
    if not members:
        return 0, -1
    best = -1
    for s in range(degree + 1):
        target = jet_basis_size(nvars, s)
        if target > len(members):
            break
        if _sympy_rank([jet_coefficients(f, point, s) for f in members]) < target:
            break
        best = s
    return len(members), best


def _random_system(rng):
    nvars = rng.randint(1, 3)
    degree = rng.randint(2, 5 if nvars < 3 else 3)
    monomials = graded_lex_monomials(nvars, degree)
    points = [small_point(rng, nvars) for _ in range(rng.randint(1, 2))]
    constraints = [MultConstraint(p, rng.randint(1, degree - 1)) for p in points]
    for _ in range(rng.choice((0, 0, 1, 2))):
        # Most monomials, plus a few random combinations: a large span.
        kept = rng.sample(monomials, max(0, len(monomials) - rng.randint(1, 3)))
        combos = [
            {e: rng.randint(-3, 3) for e in rng.sample(monomials, min(3, len(monomials)))}
            for _ in range(rng.randint(0, 2))
        ]
        basis = [WPolynomial.monomial(e) for e in kept] + [WPolynomial(c, nvars) for c in combos]
        constraints.append(SpanConstraint(tuple(basis)))
    rng.shuffle(constraints)
    # A random point, a constraint point, and a point on the line through the
    # constraint points (or through the origin), where separation can drop.
    ends = points if len(points) == 2 else [(Fraction(0),) * nvars, points[0]]
    line = tuple(2 * b - a for a, b in zip(*ends))
    evaluation = [small_point(rng, nvars), points[0], line]
    return nvars, degree, constraints, evaluation


@pytest.mark.parametrize("seed", range(40))
def test_engine_matches_the_nullspace_oracle(seed):
    rng = random.Random(1000 + seed)
    nvars, degree, constraints, evaluation = _random_system(rng)
    system = LinearSystem(nvars, degree, constraints)
    for x in evaluation:
        dimension, s = _oracle(nvars, degree, constraints, x)
        assert system.dimension == dimension
        assert jet_separation(system, x) == s


# -- the modular certificate and its exact fallbacks --------------------------------

P = 2**61 - 1


def _count_exact_ranks(monkeypatch):
    calls = []
    original = jets_module.exact_rank

    def counted(matrix):
        calls.append((matrix.rows, matrix.cols))
        return original(matrix)

    monkeypatch.setattr(jets_module, "exact_rank", counted)
    return calls


def test_prime_is_the_mersenne_prime_2_61_minus_1():
    assert jets_module.PRIME == P


@pytest.mark.parametrize("seed", range(10))
def test_pivot_columns_count_the_rank_of_every_column_suffix(seed):
    # Small entries: the modular rank is the rank over Q.
    rng = random.Random(f"pivots:{seed}")
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 7)
    rows = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1:
        rows[-1] = [a - b for a, b in zip(rows[0], rows[1])]
    pivots = jets_module._pivot_columns(rows)
    for t in range(ncols + 1):
        suffix = [[Fraction(x) for x in row[t:]] for row in rows]
        assert sum(p >= t for p in pivots) == (_sympy_rank(suffix) if t < ncols else 0)


def test_full_separation_is_certified_without_exact_elimination(monkeypatch):
    calls = _count_exact_ranks(monkeypatch)
    system = LinearSystem(2, 6, [MultConstraint(ORIGIN, 2)])
    x = random_rational_point(random.Random(11), 2)
    # Sextics double at the origin: s = 4 at x. The stop at s = 5 comes from
    # the rank (21 jets against dimension 25), and only that step is decided
    # exactly; every order up to 4 is certified by the modular rank alone.
    assert jet_separation(LinearSystem(2, 3), x) == 3
    assert calls == []
    assert jet_separation(system, x) == 4
    assert len(calls) == 1


def test_blowup_series_separates_n_times_m_jets_with_one_exact_rank(monkeypatch):
    # The anticanonical systems of P^n blown up at a point separate n*m jets
    # at a very general point. The shifted constraint matrix keeps its rank
    # modulo PRIME there, so only the order where separation stops is ranked
    # exactly.
    calls = _count_exact_ranks(monkeypatch)
    rng = random.Random(29)
    start = time.monotonic()
    for n, m_max in ((2, 6), (3, 3)):
        series = blowup_anticanonical_series(n, random_rational_point(rng, n))
        x = random_rational_point(rng, n)
        for m in range(1, m_max + 1):
            system = series(m)
            assert len(jets_module._pivot_columns(system._rows_at(x))) == system._rank
            calls.clear()
            assert jet_separation(system, x) == n * m
            assert len(calls) <= 1
    assert time.monotonic() - start < 10.0


def test_point_congruent_to_the_base_point_falls_back_to_exact():
    # x = p + (PRIME, 0) reduces to the base point modulo PRIME, where the
    # modular rank is deficient already at s = 0; over Q, x is an ordinary
    # point and the cubics through p separate its 2-jets.
    p = (Fraction(1, 3), Fraction(2, 5))
    system = LinearSystem(2, 3, [MultConstraint(p, 1)])
    x = (p[0] + P, p[1])
    assert jet_separation(system, x) == 2
    assert _oracle(2, 3, system.constraints, x) == (9, 2)
    assert jet_separation(system, p) == -1


def test_base_points_congruent_modulo_the_prime_are_ranked_exactly(monkeypatch):
    # Two distinct points that agree modulo PRIME: the constraint matrix loses
    # rank modulo PRIME only, so its rank (and every jet rank) is exact.
    calls = _count_exact_ranks(monkeypatch)
    p, q = (Fraction(1), Fraction(2)), (Fraction(1 + P), Fraction(2))
    constraints = [MultConstraint(p, 1), MultConstraint(q, 1)]
    system = LinearSystem(2, 3, constraints)
    assert system.dimension == 8
    assert calls == [(2, 10)]
    x = (Fraction(-3, 7), Fraction(5, 4))
    assert jet_separation(system, x) == _oracle(2, 3, constraints, x)[1] == 2


@pytest.mark.parametrize("where", ["constraint", "evaluation"])
def test_denominator_divisible_by_the_prime_is_decided_exactly(where):
    odd = (Fraction(1, P), Fraction(3, 2))
    ordinary = (Fraction(-2, 3), Fraction(1, 5))
    p, x = (odd, ordinary) if where == "constraint" else (ordinary, odd)
    constraints = [MultConstraint(p, 2)]
    system = LinearSystem(2, 4, constraints)
    assert (system.dimension, jet_separation(system, x)) == _oracle(2, 4, constraints, x) == (12, 2)
    assert jet_separation(system, p) == -1


def test_empty_span_leaves_no_members():
    system = LinearSystem(2, 2, [SpanConstraint(())])
    assert system.dimension == 0
    assert jet_separation(system, (Fraction(1), Fraction(2))) == -1


def test_span_members_flat_at_a_point_stop_separation_there():
    # W = span{1, (y - 1)^2}: every member has zero derivative at y = 1, so W
    # separates only 0-jets there, but all 1-jets at y = 0. At y = 1 the
    # modular rank falls short and the exact rank decides.
    one = WPolynomial.constant(1, 1)
    square = WPolynomial({(2,): 1, (1,): -2, (0,): 1}, 1)
    system = LinearSystem(1, 2, [SpanConstraint((one, square))])
    assert system.dimension == 2
    assert jet_separation(system, (Fraction(1),)) == 0
    assert jet_separation(system, (Fraction(0),)) == 1
    assert jet_separation(system, (Fraction(1 + P),)) == 1
