"""Tests for jet separation of linear systems and moving-Seshadri estimates."""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import seshadri.exactmath.linalg as linalg_module
import seshadri.jets as jets_module
from seshadri import cli
from seshadri.exactmath import ExactMatrix, exact_rank, graded_lex_monomials, jet_basis_size
from seshadri.jets import (
    CurveBound,
    LinearSystem,
    MultConstraint,
    _jet_rows,
    _taylor_tables,
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
    assert est["lower"] == 3
    assert est["s_values"] == [3, 6]
    assert est["upper"] is None and not est["certified"]


def test_blowup_series_lower_bound_certified_by_line():
    rng = random.Random(6)
    series = blowup_anticanonical_series(2, ORIGIN)
    x = random_rational_point(rng, 2)
    est = moving_seshadri_lower(series, x, 3, blowup_line_bound(2))
    assert est["s_values"] == [2, 4, 6]
    assert est["lower"] == 2
    assert est["upper"] == 2
    assert est["certified"]


def test_empty_series_gives_minus_one():
    series = blowup_anticanonical_series(2, ORIGIN)

    def starved(m):
        # degree 3m but multiplicity 3m forced at the base point: no sections
        # separate jets at a second point beyond the trivial cone directions
        return LinearSystem(2, 3 * m, [MultConstraint(ORIGIN, 4 * m)])

    x = (Fraction(1), Fraction(1))
    est = moving_seshadri_lower(starved, x, 1)
    assert est["lower"] == -1
    del series


def test_blowup_lower_never_exceeds_ambient_seshadri():
    # The blowup value 2 never exceeds eps(-K of the plane) = 3, for any m_max.
    series = blowup_anticanonical_series(2, ORIGIN)
    rng = random.Random(8)
    x = random_rational_point(rng, 2)
    for m_max in (1, 2, 3, 4):
        est = moving_seshadri_lower(series, x, m_max)
        assert est["lower"] <= 3


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
    for m, s in enumerate(est["s_values"], 1):
        assert s < m * bound.bound
    assert not est["certified"]


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


# -- oracle: sympy nullspace, closed-form jets, sympy rank ---------------------------
#
# A separate route: the jets of the monomials come from the closed form of
# (u + x)^alpha, W is sympy's nullspace basis of the constraint matrix, and
# every rank is sympy's.


def _sympy_matrix(rows):
    """The rational rows as a sympy DomainMatrix over QQ."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    entries = [[sympy.QQ(int(x.numerator), int(x.denominator)) for x in row] for row in rows]
    return DomainMatrix(entries, (len(rows), len(rows[0])), sympy.QQ)


def _sympy_rank(rows):
    return _sympy_matrix(rows).rank()


def _taylor_coefficient(alpha, beta, x):
    """The coefficient of u^beta in (u + x)^alpha, the order-|beta| Taylor
    coefficient of the monomial alpha at x: prod C(a_i, b_i) x_i^(a_i - b_i),
    and 0 unless beta <= alpha."""
    if any(b > a for a, b in zip(alpha, beta)):
        return Fraction(0)
    terms = (math.comb(a, b) * c ** (a - b) for a, b, c in zip(alpha, beta, x))
    return math.prod(terms, start=Fraction(1))


def _oracle(nvars, degree, constraints, point):
    """(dimension, s(W, x)) by the separate route."""
    monomials = graded_lex_monomials(nvars, degree)
    rows = [
        [_taylor_coefficient(alpha, beta, c.point) for alpha in monomials]
        for c in constraints
        for beta in graded_lex_monomials(nvars, c.order - 1)
    ]
    if rows:
        kernel = _sympy_matrix(rows).nullspace().to_list()
        basis = [[Fraction(int(x.numerator), int(x.denominator)) for x in v] for v in kernel]
    else:
        basis = [[Fraction(int(i == j)) for j in range(len(monomials))] for i in range(len(monomials))]
    if not basis:
        return 0, -1
    # jets[beta][alpha]: the order-|beta| Taylor coefficient of alpha at the
    # point; the jets of order <= s are the first |J_s| rows.
    jets = [[_taylor_coefficient(alpha, beta, point) for alpha in monomials] for beta in monomials]
    best = -1
    for s in range(degree + 1):
        target = jet_basis_size(nvars, s)
        if target > len(basis):
            break
        member_jets = [[sum(a * b for a, b in zip(row, v)) for row in jets[:target]] for v in basis]
        if _sympy_rank(member_jets) < target:
            break
        best = s
    return len(basis), best


def _random_system(rng):
    nvars = rng.randint(1, 3)
    degree = rng.randint(2, 5 if nvars < 3 else 3)
    points = [small_point(rng, nvars) for _ in range(rng.randint(1, 2))]
    constraints = [MultConstraint(p, rng.randint(1, degree - 1)) for p in points]
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


def _monomials_of_degree(nvars, low, high):
    """The number of exponent tuples of nvars entries with total degree in
    [low, high], counted one by one."""
    return sum(low <= sum(e) <= high for e in itertools.product(range(high + 1), repeat=nvars))


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("degree", range(9))
def test_systems_of_no_or_one_constraint_are_counted_not_eliminated(nvars, degree):
    # No constraint: every form of degree <= d, which separates d-jets at any
    # point. Order k at p: the forms in u = y - p with no term of degree < k.
    rng = random.Random(f"counted:{nvars}:{degree}")
    x, p = small_point(rng, nvars), small_point(rng, nvars)
    free = LinearSystem(nvars, degree)
    assert free.dimension == _monomials_of_degree(nvars, 0, degree)
    assert jet_separation(free, x) == degree
    systems = [LinearSystem(nvars, degree, [MultConstraint(p, k)]) for k in range(1, degree + 2)]
    for k, system in enumerate(systems, 1):
        assert system.dimension == _monomials_of_degree(nvars, k, degree)
    # Neither kind builds the monomials to count them.
    assert all("monomials" not in w.__dict__ for w in [free] + systems)
    # The separate route, where its sympy work is small.
    if jet_basis_size(nvars, degree) <= 15:
        assert (free.dimension, degree) == _oracle(nvars, degree, [], x)
        for system in systems:
            for y in (x, p):
                assert (system.dimension, jet_separation(system, y)) == _oracle(nvars, degree, system.constraints, y)


def test_a_system_of_no_constraint_at_a_huge_degree_answers_at_once():
    # C(2003, 3) monomials, about 1.3e9: building them ran out of memory. The
    # child's address space is capped, so that a regression fails the test
    # rather than filling the machine.
    code = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (500 * 2**20, 500 * 2**20))\n"
        "from seshadri import cli\n"
        "start = time.monotonic()\n"
        "code = cli.main(['jets', '{\"n\":3,\"d\":2000,\"m_max\":1,\"point\":[1,2,3]}'])\n"
        "print(time.monotonic() - start, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["s_values"] == [2000]
    assert float(proc.stderr) < 0.5


# -- the row kernel -------------------------------------------------------------------


def _product_rows(tables, betas, monomials):
    """The jet rows one entry at a time: each entry is the product of its n
    table lookups."""
    rows = []
    for beta in betas:
        factors = [table[b] for table, b in zip(tables, beta)]
        rows.append([math.prod(f[a] for f, a in zip(factors, alpha)) for alpha in monomials])
    return rows


def _kernel_point(rng, nvars):
    """Seeded coordinates: all ones, or a mix of zeros, ones, negatives and
    fractions of up to three digits."""
    if rng.random() < 0.2:
        return (Fraction(1),) * nvars
    entries = [Fraction(0), Fraction(1), Fraction(-1), Fraction(-3, 7)]
    return tuple(
        rng.choice(entries) if rng.random() < 0.4 else Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        for _ in range(nvars)
    )


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("degree", range(9))
def test_jet_rows_are_the_scaled_taylor_coefficients(nvars, degree):
    rng = random.Random(f"rows:{nvars}:{degree}")
    monomials = graded_lex_monomials(nvars, degree)
    for _ in range(3):
        x = _kernel_point(rng, nvars)
        tables = _taylor_tables(x, degree, degree)
        # A leading block of jets, as LinearSystem takes, and a sample of
        # rows in any order.
        top = rng.randint(0, min(degree, 2))
        for betas in (monomials[: jet_basis_size(nvars, top)], rng.sample(monomials, min(8, len(monomials)))):
            rows = _jet_rows(tables, betas, monomials)
            assert rows == _product_rows(tables, betas, monomials)
            for beta, row in zip(betas, rows):
                # The documented row scale: prod_i q_i^(degree - beta_i).
                scale = math.prod(c.denominator ** (degree - b) for c, b in zip(x, beta))
                assert row == [_taylor_coefficient(alpha, beta, x) * scale for alpha in monomials]
                assert all(type(entry) is int for entry in row)


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_jet_rows_are_new_lists(nvars):
    # A caller owns the rows it gets: no row may be another row, a lifted
    # table row kept for a later call, or a table row.
    degree = 4
    monomials = graded_lex_monomials(nvars, degree)
    tables = _taylor_tables(tuple(Fraction(i + 2, 3) for i in range(nvars)), degree, degree)
    betas = [monomials[1], monomials[1], monomials[0], monomials[-1], monomials[0]]
    first = _jet_rows(tables, betas, monomials)
    second = _jet_rows(tables, betas, monomials)
    assert first == second == _product_rows(tables, betas, monomials)
    tables_rows = [row for table in tables for row in table]
    ids = [id(row) for row in first + second + tables_rows]
    assert len(set(ids)) == len(ids)


# -- the modular certificate and its exact fallbacks --------------------------------

P = 2**61 - 1


def _count_exact_ranks(monkeypatch):
    calls = []
    original = linalg_module.exact_rank

    def counted(matrix):
        calls.append((matrix.rows, matrix.cols))
        return original(matrix)

    monkeypatch.setattr(linalg_module, "exact_rank", counted)
    return calls


def test_prime_is_the_mersenne_prime_2_61_minus_1():
    assert linalg_module.PRIME == P


@pytest.mark.parametrize("seed", range(10))
def test_pivot_columns_count_the_rank_of_every_column_suffix(seed):
    # Small entries: the modular rank is the rank over Q.
    rng = random.Random(f"pivots:{seed}")
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 7)
    rows = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1:
        rows[-1] = [a - b for a, b in zip(rows[0], rows[1])]
    pivots = linalg_module._pivot_columns(rows)
    for t in range(ncols + 1):
        suffix = [[Fraction(x) for x in row[t:]] for row in rows]
        assert sum(p >= t for p in pivots) == (_sympy_rank(suffix) if t < ncols else 0)


@pytest.mark.parametrize("seed", range(10))
def test_certified_suffix_rank_is_the_rank_of_every_column_suffix(seed, monkeypatch):
    # A last row of multiples of PRIME vanishes modulo PRIME, so the modular
    # count falls short of the rank over Q and exact_rank decides; the bound
    # is the rank itself or the number of rows.
    calls = _count_exact_ranks(monkeypatch)
    rng = random.Random(f"certified:{seed}")
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 7)
    rows = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(ncols)] for _ in range(nrows)]
    if seed % 2:
        rows[-1] = [P * rng.randint(-2, 2) for _ in range(ncols)]
    ranks = [_sympy_rank([[Fraction(x) for x in row[t:]] for row in rows]) for t in range(ncols)] + [0]
    for bound in {ranks[0], nrows}:
        rank = linalg_module.certified_suffix_rank(rows, bound)
        assert [rank(t) for t in range(ncols + 1)] == ranks
    # With the bound nrows, the modular rank at t = 0 is short of it.
    assert calls or not seed % 2


def test_full_separation_is_certified_without_exact_elimination(monkeypatch):
    calls = _count_exact_ranks(monkeypatch)
    constraints = [MultConstraint(ORIGIN, 2), MultConstraint((1, 1), 1)]
    system = LinearSystem(2, 6, constraints)
    # Two constraints take the shifted path. Sextics double at the origin and
    # through (1, 1), at x on the axis x_1 = 0 through the double point: the
    # stop at s = 5 comes from the rank (21 jets against dimension 24), and
    # only that step is decided exactly; every order up to 4 is certified by
    # the modular rank alone.
    x = (Fraction(0), random_rational_point(random.Random(11), 1)[0])
    assert jet_separation(LinearSystem(2, 3), x) == 3
    assert calls == []
    assert jet_separation(system, x) == _oracle(2, 6, constraints, x)[1] == 4
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
            assert len(linalg_module._pivot_columns(system._rows_at(x))) == system._rank
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


def test_constraint_of_another_kind_is_refused():
    with pytest.raises(TypeError, match="unknown constraint"):
        LinearSystem(2, 2, [(ORIGIN, 1)])


def test_span_members_flat_at_a_point_stop_separation_there(monkeypatch):
    # W = quartics in y with a double root at y = 1 and a root at y = -1:
    # every member is flat at 1, a base point, and W separates all 1-jets at
    # y = 0. At y = 1 + PRIME, which reduces to the double point modulo PRIME,
    # the modular rank falls short and the exact rank decides; two
    # constraints keep the system on that path.
    calls = _count_exact_ranks(monkeypatch)
    constraints = [MultConstraint((1,), 2), MultConstraint((-1,), 1)]
    system = LinearSystem(1, 4, constraints)
    assert system.dimension == 2
    for y, s in ((0, 1), (1, -1)):
        assert jet_separation(system, (Fraction(y),)) == _oracle(1, 4, constraints, (Fraction(y),))[1] == s
    calls.clear()
    far = (Fraction(1 + P),)
    assert jet_separation(system, far) == _oracle(1, 4, constraints, far)[1] == 1
    assert len(calls) >= 1


# -- step A: one constraint, read off the binomial matrix ---------------------------


def _one_point_system(rng):
    nvars = rng.randint(1, 3)
    degree = rng.randint(1, (8, 5, 3)[nvars - 1])
    p = small_point(rng, nvars)
    return LinearSystem(nvars, degree, [MultConstraint(p, rng.randint(1, degree + 2))])


def _sharing(x, p, shared):
    """x with the coordinates i in `shared` taken from p."""
    return tuple(b if i in shared else a for i, (a, b) in enumerate(zip(x, p)))


@pytest.mark.parametrize("seed", range(30))
def test_step_a_matches_the_shifted_path(seed):
    rng = random.Random(f"step-a:{seed}")
    system = _one_point_system(rng)
    (constraint,) = system.constraints
    p = constraint.point
    n = system.nvars
    # The constraint twice cuts out the same W, and a system of two
    # constraints always takes the shifted path.
    twin = LinearSystem(n, system.degree, [constraint, constraint])
    assert system.dimension == twin.dimension
    x = small_point(rng, n)
    while any(a == b for a, b in zip(x, p)):
        x = small_point(rng, n)
    # Z = {i : y_i = p_i}: none, a random subset, and all (y = p).
    some = set(rng.sample(range(n), rng.randint(0, n)))
    for y in (x, _sharing(x, p, some), p):
        assert jet_separation(system, y) == jet_separation(twin, y)
        # Every column suffix of C' at y, not only the one where separation stops.
        shifted = system._rows_at(y)
        size = len(system.monomials)
        expected = [exact_rank(ExactMatrix.from_integer_rows(row[t:] for row in shifted)) for t in range(size)]
        assert system._suffix_ranks(y) == expected + [0]
        assert system._suffix_ranks(y)[0] == system._rank


def test_step_a_shifts_no_rows_and_ranks_nothing_exactly(monkeypatch):
    # Step A serves every point of a one-constraint system: a very general
    # one, one on coordinate hyperplanes through the base point p, and p.
    # The anticanonical systems of the blowup at p are invariant under the
    # affine maps fixing p, which move any x != p to any other, so each
    # x != p has s = n*m.
    calls = _count_exact_ranks(monkeypatch)

    def refused(*args):
        raise AssertionError("the shifted path ran")

    monkeypatch.setattr(LinearSystem, "_rows_at", refused)
    monkeypatch.setattr(jets_module, "certified_suffix_rank", refused)
    rng = random.Random(31)
    for n, m in ((1, 5), (2, 4), (3, 2)):
        p = random_rational_point(rng, n)
        system = blowup_anticanonical_series(n, p)(m)
        x = random_rational_point(rng, n)
        assert jet_separation(system, x) == n * m
        for k in range(1, n):
            for shared in itertools.combinations(range(n), k):
                assert jet_separation(system, _sharing(x, p, shared)) == n * m
        assert jet_separation(system, p) == -1
    assert calls == []


def test_readme_jets_example_with_m_max_8_is_quick(capsys):
    # The blowup of P^2 at a point separates 2m jets of -mK at a very general
    # point (see test_blowup_series_separates_n_times_m_jets_with_one_exact_rank).
    system = '{"n":2,"d":3,"constraints":[{"type":"mult","point":[0,0],"order":1}],"point":"random","m_max":8}'
    start = time.monotonic()
    assert cli.main(["jets", system]) == 0
    assert time.monotonic() - start < 5.0
    record = json.loads(capsys.readouterr().out)
    assert record["s_values"] == [2 * m for m in range(1, 9)]
    assert record["lower"] == "2"


@pytest.mark.parametrize("degree, order, m_max", [(4, 3, 2), (3, 2, 3), (3, 2, 4)])
def test_point_sharing_a_long_coordinate_with_the_constraint_is_quick(degree, order, m_max, capsys):
    # x_1 = p_1 with 20-digit coordinates: step A ranks B_Z, C' at a 0/1
    # point, whose binomial entries do not grow with the coordinates.
    p = [
        "12345678901234567891/98765432109876543",
        "-31415926535897932384/27182818284590452353",
        "16180339887498948482/14142135623730950488",
    ]
    x = [p[0], "-27182818284590452353/31415926535897932384", "98765432109876543210/12345678901234567"]
    constraint = {"type": "mult", "point": p, "order": order}
    system = json.dumps({"n": 3, "d": degree, "constraints": [constraint], "point": x, "m_max": m_max})
    start = time.monotonic()
    assert cli.main(["jets", system]) == 0
    assert time.monotonic() - start < 0.5
    assert json.loads(capsys.readouterr().out)["s_values"] == list(range(1, m_max + 1))


# -- several constraints: the del Pezzo surfaces of degree 7, 6 and 5 -----------------


@pytest.mark.parametrize("r", [2, 3, 4])
def test_plane_blown_up_at_r_points_has_epsilon_two(r):
    # -K of P^2 blown up at r general points: degree 3m, multiplicity >= m at
    # each point. The line through x and a blown-up point has -K.L = 3 - 1 = 2
    # and multiplicity 1 at x, so s(m) <= 2m; s(1) = 2 meets it. Up to m = 3
    # the shifted path runs its modular certificate, and for r = 2 and 3 its
    # exact stop step too.
    rng = random.Random(f"del-pezzo:{r}")
    points = [random_rational_point(rng, 2) for _ in range(r)]
    x = random_rational_point(rng, 2)

    def series(m):
        return LinearSystem(2, 3 * m, [MultConstraint(p, m) for p in points])

    start = time.monotonic()
    est = moving_seshadri_lower(series, x, 3, seshadri_upper_via_curve(Fraction(2), 1, False))
    assert time.monotonic() - start < 2.0
    assert est["s_values"][0] == 2
    assert est["lower"] == est["upper"] == 2
    assert est["certified"]
