"""Tests for monomial/twisted valuations, the two-sided multiplicity
comparison, and minimal multiplicities in valuation ideals."""

import math
import random
import re
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seshadri.exactmath import (
    INFINITY,
    QuadExt,
    WPolynomial,
    parse_polynomial,
    parse_product,
)
from seshadri import valuations
from seshadri.exactmath import polynomials
from seshadri.exactmath.scalars import TOO_LONG
from seshadri.valuations import (
    MonomialValuation,
    Twist,
    _expand_twist,
    discrepancy,
    galois_min_mult,
    ideal_min_multiplicity,
    izumi_check,
    maximal_ideal_valuation,
    valuation_eval,
)

from conftest import emit_refusal, monomial, rational_parts

ST = ("s", "t")
SQRT2 = QuadExt(Fraction(0), Fraction(1))


def poly(text, names=ST):
    return parse_polynomial(text, names)


# -- strategies ------------------------------------------------------------------

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def nonzero_polys(draw, nvars=2, max_degree=4):
    coeffs = {}
    for _ in range(draw(st.integers(1, 4))):
        e = tuple(draw(st.integers(0, max_degree)) for _ in range(nvars))
        coeffs[e] = draw(small_fractions)
    f = WPolynomial(coeffs, nvars)
    if f.is_zero():
        f = f + WPolynomial.constant(1, nvars)
    return f


@st.composite
def monomial_valuations(draw):
    n = draw(st.integers(2, 3))
    weights = tuple(draw(st.integers(1, 6)) for _ in range(n))
    return MonomialValuation(weights)


# -- evaluation ------------------------------------------------------------------


def test_eval_weighted_minimum():
    nu = MonomialValuation((1, 3))
    assert valuation_eval(nu, poly("t^2 + s^7")) == 6


def test_eval_multiplicity_valuation():
    nu = MonomialValuation((1, 1))
    assert valuation_eval(nu, poly("s*t")) == 2


def test_eval_twisted_norm_form():
    nu = MonomialValuation((1, 2), Twist(1))
    assert valuation_eval(nu, poly("t^2 - 2*s^2")) == 3


def test_eval_zero_is_infinite():
    nu = MonomialValuation((1, 2))
    assert valuation_eval(nu, WPolynomial({}, 2)) == INFINITY


def test_twist_sees_through_the_substitution():
    # t^2 - 2s^2 = (t - sqrt2 s)(t + sqrt2 s): the twist centered on the first
    # branch raises the valuation above the naive weighted degree 2.
    nu_plain = MonomialValuation((1, 2))
    nu_twisted = MonomialValuation((1, 2), Twist(1))
    f = poly("t^2 - 2*s^2")
    assert valuation_eval(nu_plain, f) == 2
    assert valuation_eval(nu_twisted, f) == 3


def test_validation_of_weights_and_twists():
    with pytest.raises(ValueError):
        MonomialValuation((1, 0))
    with pytest.raises(ValueError):
        MonomialValuation((1, 1, 1), Twist(1))  # twists live on two variables
    with pytest.raises(ValueError):
        Twist(0)


@given(monomial_valuations(), st.data())
@settings(max_examples=80)
def test_valuation_multiplicative_untwisted(nu, data):
    n = len(nu.weights)
    f = data.draw(nonzero_polys(nvars=n))
    g = data.draw(nonzero_polys(nvars=n))
    assert valuation_eval(nu, f * g) == valuation_eval(nu, f) + valuation_eval(nu, g)


@given(st.integers(1, 3), st.data())
@settings(max_examples=60)
def test_valuation_multiplicative_twisted(e, data):
    nu = MonomialValuation((1, data.draw(st.integers(1, 4))), Twist(e))
    f = data.draw(nonzero_polys())
    g = data.draw(nonzero_polys())
    assert valuation_eval(nu, f * g) == valuation_eval(nu, f) + valuation_eval(nu, g)


# -- products of powers, valued factor by factor -----------------------------------

_ZERO_BASES = ["0", "(s-s)", "(t-t)"]
# (valuation, variables, bases, divisors), twisted with e = 1 and 2 and untwisted in 3 variables
_PRODUCT_CASES = {
    "twisted-1": (
        MonomialValuation((1, 2), Twist(1)),
        ST,
        ["s", "t", "3", "(t-sqrt(2)*s)", "(t+sqrt(2)*s)", "(t^2-2*s^2)", "(s+t)", "(1+sqrt(2)*t)"],
        ["3", "(1+sqrt(2))", "2^3"],
    ),
    "twisted-2": (
        MonomialValuation((2, 3), Twist(2)),
        ST,
        ["s", "t", "(t-sqrt(2)*s^2)", "(t+sqrt(2)*s^2)", "(t^2-2*s^4)", "(s/3-t)", "(sqrt(2)*s*t+t^2)"],
        ["(2/7)", "(1-sqrt(2))^2"],
    ),
    "untwisted-3": (
        MonomialValuation((1, 2, 3)),
        ("s", "t", "u"),
        ["s", "t", "u", "5", "(s+t+u)", "(u-s^2)", "(1+u)", "(2*s*t+u^3)", "(t/5-u)"],
        ["3", "(2/7)", "2^3"],
    ),
}


@st.composite
def _products_of_powers(draw, bases, divisors):
    """A product of powers as text: a leading sign, then factors of a base,
    zero or not, to a power 0..4 or none, each maybe after a unary minus,
    joined by * or by division by a nonzero constant (0^0 and s^0 among
    them)."""
    divisors = [*divisors, "(0)^0", "(s)^0"]

    def factor():
        base = draw(st.sampled_from(bases + _ZERO_BASES))
        power = draw(st.sampled_from(["", "^0", "^1", "^2", "^3", "^4"]))
        return draw(st.sampled_from(["", "", "-"])) + base + power

    text = draw(st.sampled_from(["", "", "-", "+"])) + factor()
    for _ in range(draw(st.integers(0, 3))):
        text += "/" + draw(st.sampled_from(divisors)) if draw(st.booleans()) else "*" + factor()
    return text


@pytest.mark.parametrize("case", _PRODUCT_CASES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_product_of_powers_is_valued_as_its_expansion(case, data):
    # The oracle is the expanded product: nu(prod g^k) = sum k*nu(g), and
    # likewise mult, with +inf where a base to a power k > 0 is zero.
    nu, names, bases, divisors = _PRODUCT_CASES[case]
    text = data.draw(_products_of_powers(bases, divisors))
    sqrt2 = nu.twist is not None
    factors = parse_product(text, names, sqrt2)
    expanded = parse_polynomial(text, names, sqrt2)
    assert valuation_eval(nu, factors) == valuation_eval(nu, expanded)
    assert izumi_check(nu, factors) == izumi_check(nu, expanded)


# -- discrepancy and the two-sided comparison ------------------------------------


def test_discrepancy_examples():
    assert discrepancy(MonomialValuation((1, 4))) == 4
    assert discrepancy(MonomialValuation((1, 1, 1))) == 2
    assert discrepancy(MonomialValuation((2, 3))) == 4
    assert discrepancy(MonomialValuation((1, 2), Twist(1))) == 2  # twist-invariant


def test_maximal_ideal_valuation():
    assert maximal_ideal_valuation(MonomialValuation((2, 5))) == 2
    # twisted: nu(t) = min(w_t, w_s * e) after substitution
    assert maximal_ideal_valuation(MonomialValuation((1, 2), Twist(1))) == 1
    assert maximal_ideal_valuation(MonomialValuation((2, 5), Twist(2))) == 2


def test_izumi_example_upper_attained():
    check = izumi_check(MonomialValuation((1, 3)), poly("t^2 + s^7"))
    assert (check["lower"], check["value"], check["upper"], check["holds"]) == (2, 6, 6, True)


def test_izumi_example_equality_throughout():
    check = izumi_check(MonomialValuation((1, 1)), poly("s"))
    assert (check["lower"], check["value"], check["upper"], check["holds"]) == (1, 1, 1, True)


def test_izumi_example_linear_form():
    check = izumi_check(MonomialValuation((2, 5)), poly("s + t"))
    assert (check["lower"], check["value"], check["upper"], check["holds"]) == (2, 2, 6, True)


def test_izumi_zero_polynomial_holds_trivially():
    check = izumi_check(MonomialValuation((2, 5)), WPolynomial({}, 2))
    assert check["holds"]
    assert check["value"] == INFINITY


def test_izumi_constant_polynomial():
    check = izumi_check(MonomialValuation((2, 5)), WPolynomial.constant(7, 2))
    assert (check["lower"], check["value"], check["upper"], check["holds"]) == (0, 0, 0, True)


def test_izumi_twisted_flags_the_convention():
    check = izumi_check(MonomialValuation((1, 2), Twist(1)), poly("t^2 - 2*s^2"))
    assert check["holds"]
    assert check["note"] is not None


@given(monomial_valuations(), st.data())
@settings(max_examples=100)
def test_izumi_holds_for_random_pairs(nu, data):
    f = data.draw(nonzero_polys(nvars=len(nu.weights), max_degree=6))
    assert izumi_check(nu, f)["holds"]


# -- minimal multiplicity in valuation ideals -------------------------------------


def test_min_mult_examples():
    assert ideal_min_multiplicity(MonomialValuation((1, 2)), 3) == (3, Fraction(1))
    assert ideal_min_multiplicity(MonomialValuation((2, 3)), 3) == (4, Fraction(4, 3))
    assert ideal_min_multiplicity(MonomialValuation((1, 1, 2)), 2) == (3, Fraction(3, 2))


def test_min_mult_rejects_twisted_and_restricted_queries():
    with pytest.raises(ValueError):
        ideal_min_multiplicity(MonomialValuation((1, 2), Twist(1)), 1)
    # the level is checked before the twist
    with pytest.raises(ValueError, match="ideal level k must be >= 1"):
        ideal_min_multiplicity(MonomialValuation((1, 2), Twist(1)), 0)


def exhaustive_min_mult(weights, k):
    a = sum(weights) - 1
    target = a * k
    # an L1-minimal lattice point never puts more on a coordinate than the
    # smallest power of it that clears the target on its own
    ranges = [range(-(-target // w) + 1) for w in weights]
    best = math.inf
    for v in product(*ranges):
        if sum(w * e for w, e in zip(weights, v)) >= target:
            best = min(best, sum(v))
    return best


@pytest.mark.parametrize("k", range(1, 5))
def test_min_mult_matches_exhaustive_lattice_scan(k):
    for n in (2, 3):
        for weights in product(range(1, 6), repeat=n):
            min_mult, lam = ideal_min_multiplicity(MonomialValuation(weights), k)
            assert min_mult == exhaustive_min_mult(weights, k)
            assert lam == Fraction(min_mult, k)


@pytest.mark.parametrize("w1,w2", [(1, 1), (1, 3), (2, 3), (2, 5), (4, 5), (3, 3)])
def test_lambda_closed_form_at_multiples_of_the_top_weight(w1, w2):
    # at k = w2 and 2*w2 the ratio hits 1 + (w1 - 1)/w2 exactly
    for k in (w2, 2 * w2):
        _, lam = ideal_min_multiplicity(MonomialValuation((w1, w2)), k)
        assert lam == 1 + Fraction(w1 - 1, w2)


@pytest.mark.parametrize("m", range(1, 6))
def test_sharp_case_ratio_one_for_1_m_valuations(m):
    for k in (m, 2 * m, 3 * m):
        min_mult, lam = ideal_min_multiplicity(MonomialValuation((1, m)), k)
        assert lam == 1
        assert min_mult == k


# -- quadratic-twist ideals: rational members ---------------------------------------


def twisted_ideal_contains(m: int, k: int, f: WPolynomial) -> bool:
    """Membership test for (s^m, y)^k with y = t - sqrt(2)*s^(m-1): rewrite f
    in (s, y) and check every monomial s^a y^b satisfies a >= m*max(k-b, 0)."""
    (g,) = MonomialValuation((1, 1), Twist(m - 1)).rewrite_all([f])
    return all(a >= m * max(k - b, 0) for a, b in g.coeffs)


def test_galois_min_mult_m2_k1():
    result = galois_min_mult(2, 1)
    assert result["min_mult"] == 2
    assert result["bound"] == Fraction(4, 3)
    assert result["witness"].multiplicity() == 2
    assert twisted_ideal_contains(2, 1, result["witness"])


def test_galois_m2_k1_norm_form_is_a_member():
    # (t - sqrt2 s)(t + sqrt2 s) is the classical rational member of least
    # multiplicity; the whole degree-2 piece is in fact rational here.
    assert twisted_ideal_contains(2, 1, poly("t^2 - 2*s^2"))
    assert twisted_ideal_contains(2, 1, poly("s^2"))
    assert twisted_ideal_contains(2, 1, poly("s*t"))
    assert twisted_ideal_contains(2, 1, poly("t^2"))
    assert not twisted_ideal_contains(2, 1, poly("s"))
    assert not twisted_ideal_contains(2, 1, poly("t"))


def test_galois_min_mult_m2_k3_attains_the_bound():
    result = galois_min_mult(2, 3)
    assert result["min_mult"] == 4
    assert result["bound"] == Fraction(4)
    assert result["witness"] == poly("(t^2 - 2*s^2)^2")
    assert twisted_ideal_contains(2, 3, result["witness"])


def test_galois_min_mult_m3_k2():
    result = galois_min_mult(3, 2)
    assert result["bound"] == Fraction(12, 5)
    assert result["min_mult"] >= 3  # ceil(12/5)
    assert twisted_ideal_contains(3, 2, result["witness"])


@pytest.mark.parametrize("m", (2, 3))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_galois_lower_bound_all_small_cases(m, k):
    result = galois_min_mult(m, k)
    assert result["bound"] == Fraction(2 * m * k, 2 * m - 1)
    assert result["min_mult"] >= math.ceil(result["bound"])
    assert result["witness"].multiplicity() == result["min_mult"]
    assert all(isinstance(c, Fraction) for c in result["witness"].coeffs.values())
    assert twisted_ideal_contains(m, k, result["witness"])


def test_galois_rejects_bad_parameters():
    with pytest.raises(ValueError):
        galois_min_mult(1, 1)
    with pytest.raises(ValueError):
        galois_min_mult(2, 0)


@pytest.mark.parametrize("m", range(2, 7))
def test_norm_form_is_a_rational_member_of_multiplicity_2k(m):
    # (t^2 - 2 s^(2m-2))^k = y^k conj(y)^k bounds the Galois scan: a rational
    # member of multiplicity 2k, weighted-homogeneous of degree 2k(m-1).
    for k in range(1, 13):
        f = poly(f"(t^2 - 2*s^{2 * m - 2})^{k}")
        assert twisted_ideal_contains(m, k, f)
        assert {a + (m - 1) * b for a, b in f.coeffs} == {2 * k * (m - 1)}
        assert f.multiplicity() == 2 * k
        assert all(isinstance(c, Fraction) for c in f.coeffs.values())


def test_galois_min_mult_m200_k200_within_budget():
    # The minimum is read off the norm form and the witness off a closed
    # form; no elimination runs, so the largest probed case stays well inside
    # half a second.
    start = time.perf_counter()
    result = galois_min_mult(200, 200)
    elapsed = time.perf_counter() - start
    assert result["witness"].multiplicity() == result["min_mult"]
    assert elapsed < 0.5, f"galois_min_mult(200, 200) took {elapsed:.2f}s"


def test_twisted_ideal_membership_scales_with_level():
    # s^(2k) is always in the k-th power of (s^2, t - sqrt2 s)
    for k in (1, 2, 3):
        assert twisted_ideal_contains(2, k, poly(f"s^{2 * k}"))
        assert not twisted_ideal_contains(2, k + 1, poly(f"s^{2 * k}"))


def test_sqrt2_constant():
    assert SQRT2 * SQRT2 == 2
    assert not SQRT2.is_rational


# -- the valuations kernels against their QuadExt and brute-force forms -------------


def test_norm_form_multiples_span_the_rational_members():
    # The fact galois_min_mult rests on: with N = t^2 - 2*s^(2m-2),
    # b = max(0, mk - L) and r = L - 2(m-1)b, the rational members of weighted
    # degree L are spanned by N^b * s^(r-(m-1)j) * t^j for j = 0..r//(m-1),
    # and there are none when r < 0.  The members come from the QuadExt oracle.
    for m in range(2, 7):
        norm = poly(f"t^2 - 2*s^{2 * m - 2}")
        for k in range(1, 5):
            for level in range(k * (m - 1), 2 * k * (m - 1) + 1):
                b = max(0, m * k - level)
                r = level - 2 * (m - 1) * b
                basis = [
                    norm**b * WPolynomial({(r - (m - 1) * j, j): Fraction(1)}, 2)
                    for j in range(r // (m - 1) + 1)
                ]
                for f in basis:
                    assert twisted_ideal_contains(m, k, f), (m, k, level)
                    assert {a + (m - 1) * j for a, j in f.coeffs} == {level}
                columns, members = _field_rational_members(m, k, level)
                dimension = _sympy_matrix(members).rank() if members else 0
                assert dimension == (r // (m - 1) + 1 if r >= 0 else 0), (m, k, level)
                if basis:
                    rows = [[f.coeffs.get(col, Fraction(0)) for col in columns] for f in basis]
                    assert _sympy_matrix(rows).rank() == dimension
                    assert _sympy_matrix(members + rows).rank() == dimension


def test_single_weight_min_mult():
    assert ideal_min_multiplicity(MonomialValuation((3,)), 5) == (4, Fraction(4, 5))


@pytest.mark.parametrize("weights", [(3,), (1, 1), (2, 5), (1, 2, 3), (5, 1, 4), (1, 1, 1, 2)])
@pytest.mark.parametrize("k", [1, 4, 7])
def test_lattice_scan_raises_on_a_closed_form_one_too_large(weights, k):
    # The exhaustive scan finds a lattice point reaching the target at the
    # closed form and none below it, so a closed form one too large fails.
    target = (sum(weights) - 1) * k
    closed = -(-target // max(weights))
    assert exhaustive_min_mult(weights, k) == closed
    assert ideal_min_multiplicity(MonomialValuation(weights), k) == (closed, Fraction(closed, k))


# -- the integer-pair rewrite and Galois scan against their field forms -------------


def _random_quad_polynomial(rng):
    coeffs = {}
    for _ in range(rng.randint(0, 6)):
        rational = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        if rng.random() < 0.5:
            c = QuadExt(rational, Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
        else:
            c = rational
        coeffs[(rng.randint(0, 4), rng.randint(0, 5))] = c
    return WPolynomial(coeffs, 2)


# 45 random cases; `stream` only selects the random stream of a case.
@pytest.mark.parametrize("stream", [2, 3, 5])
@pytest.mark.parametrize("seed", range(15))
def test_rewrite_matches_substitution(stream, seed):
    rng = random.Random(f"rewrite:{stream}:{seed}")
    e = rng.randint(1, 3)
    nu = MonomialValuation((1, 2), Twist(e))
    f = _random_quad_polynomial(rng)
    # t -> t + sqrt(2)*s^e, one factor at a time.
    twisted_t = WPolynomial({(0, 1): Fraction(1), (e, 0): SQRT2}, 2)
    expected = WPolynomial({}, 2)
    for (a, b), c in f.coeffs.items():
        term = monomial((a, 0), c)
        for _ in range(b):
            term = term * twisted_t
        expected = expected + term
    rewritten = nu.rewrite_all([f])[0]
    assert rewritten == expected
    assert all(rewritten.coeffs.values())
    assert valuation_eval(nu, f) == expected.min_weighted_degree((1, 2))
    # The charge counts each output that the loop makes, zero or not: with
    # OPERATION_WORK at 4 rather than 0 it grows by a step's third (1) per
    # step and 2 * 4 per output.
    made = []

    def recording(pairs, e):
        made.append(_expand_twist(pairs, e))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(valuations, "_expand_twist", recording)
        nu.rewrite_all([f])
    steps = sum(b + 1 for _, b in f.coeffs)
    outputs = (_rewrite_charge(nu, f, 4) - _rewrite_charge(nu, f, 0) - steps) / 8
    assert len(made[0]) <= outputs


def _rewrite_charge(nu, f, operation):
    """What nu.rewrite_all([f]) charges with OPERATION_WORK set to operation, read
    from its refusal under a budget of -1."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomials, "OPERATION_WORK", operation)
        patch.setattr(polynomials, "MAX_WORK", -1)
        with pytest.raises(polynomials.BudgetExceeded) as refusal:
            nu.rewrite_all([f])
    return int(re.search(r"it takes about (\d+) bit products", str(refusal.value)).group(1))


def _sympy_matrix(rows):
    """The rational rows as a sympy DomainMatrix over QQ."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    entries = [[sympy.QQ(x.numerator, x.denominator) for x in row] for row in rows]
    return DomainMatrix(entries, (len(rows), len(rows[0])), sympy.QQ)


def _fraction(x):
    return Fraction(int(x.numerator), int(x.denominator))


def _field_rational_members(m, k, level):
    """The (s, t)-exponents of weighted degree `level`, in increasing total
    degree, and a spanning set of the rational members of that piece of
    (s^m, t - sqrt(2)*s^(m-1))^k, through QuadExt expansions and sympy's
    nullspace."""
    generators = [
        (level - (m - 1) * b, b)
        for b in range(level // (m - 1) + 1)
        if level - (m - 1) * b >= m * max(k - b, 0)
    ]
    columns = sorted(
        {(level - (m - 1) * j, j) for j in range(level // (m - 1) + 1)},
        key=lambda e: (sum(e), e),
    )
    # entries[col][r]: generator r's coefficient at column col in (s, t).
    entries = {col: [Fraction(0)] * len(generators) for col in columns}
    for r, (a, b) in enumerate(generators):
        for j in range(b + 1):
            entries[(a + (m - 1) * (b - j), j)][r] = math.comb(b, j) * (-SQRT2) ** (b - j)
    parts = {col: [rational_parts(x) for x in row] for col, row in entries.items()}
    n = len(generators)
    # sum_r (x_r + sqrt(2) y_r) * (p_r + sqrt(2) q_r) is rational iff
    # sum_r x_r q_r + y_r p_r = 0 at every column.
    eqs = [[q for _, q in parts[col]] + [p for p, _ in parts[col]] for col in columns]
    members = []
    for vec in _sympy_matrix(eqs).nullspace().to_list() if generators else []:
        v = [_fraction(x) for x in vec]
        member = [
            sum(
                (v[r] * p + 2 * v[n + r] * q for r, (p, q) in enumerate(parts[col])),
                Fraction(0),
            )
            for col in columns
        ]
        if any(member):
            members.append(member)
    return columns, members


def _galois_by_field_linear_algebra(m, k):
    """galois_min_mult(m, k) recomputed level by level from
    `_field_rational_members` and sympy's rref, scanning levels upward
    until no deeper level can beat the best multiplicity."""
    best, witness = None, None
    level = k * (m - 1)
    while best is None or level <= (m - 1) * best:
        columns, members = _field_rational_members(m, k, level)
        if members:
            matrix, pivots = _sympy_matrix(members).rref()
            reduced = [[_fraction(x) for x in matrix.to_list()[0]]]
            mult = sum(columns[pivots[0]])
            if best is None or mult < best:
                best = mult
                denominator = math.lcm(*(x.denominator for x in reduced[0]))
                scaled = [x * denominator for x in reduced[0]]
                g = math.gcd(*(x.numerator for x in scaled))
                witness = WPolynomial({col: x / g for col, x in zip(columns, scaled)}, 2)
        level += 1
    return best, witness


@pytest.mark.parametrize("m", range(2, 7))
def test_galois_scan_matches_field_linear_algebra(m):
    for k in range(1, 13):
        result = galois_min_mult(m, k)
        assert (result["min_mult"], result["witness"]) == _galois_by_field_linear_algebra(m, k)
        coefficients = result["witness"].coeffs.values()
        assert all(type(c) is Fraction and c.denominator == 1 for c in coefficients)


def _galois_by_long_division(m, k):
    """galois_min_mult(m, k) as it was computed before its closed forms: the
    first level of least multiplicity by a scan of every level, and the
    witness t^top - R by integer long division of t^top by N^b."""

    def split(level):
        b = max(0, m * k - level)
        return b, level - 2 * (m - 1) * b

    def least_mult(level):
        b, r = split(level)
        return 2 * b + r - (m - 2) * (r // (m - 1)) if r >= 0 else math.inf

    level = min(range(k * (m - 1), 2 * k * (m - 1) + 1), key=least_mult)
    b, r = split(level)
    top = 2 * b + r // (m - 1)
    # rem[d] is the coefficient of t^d; N^b has C(b, i) * (-2)^(b-i) at t^(2i).
    norm = [math.comb(b, i) * (-2) ** (b - i) for i in range(b + 1)]
    rem = [0] * top + [1]
    for d in range(top, 2 * b - 1, -1):
        q = rem[d]
        if q:
            for i, coeff in enumerate(norm):
                rem[d - 2 * b + 2 * i] -= q * coeff
    terms = {d: -x for d, x in enumerate(rem[: 2 * b]) if x}
    terms[top] = 1
    witness = WPolynomial({(level - (m - 1) * d, d): x for d, x in terms.items()}, 2)
    return least_mult(level), witness


def test_galois_closed_forms_match_the_scan_and_the_long_division():
    # The level from four candidates, and the witness coefficients from their
    # closed form: the same answer, in the same term order, for every m and k
    # up to 30 and 40, and for a few larger ones.
    pairs = [(m, k) for m in range(2, 31) for k in range(1, 41)]
    for m, k in pairs + [(2, 700), (3, 500), (7, 300), (200, 200), (31, 97)]:
        result = galois_min_mult(m, k)
        min_mult, witness = _galois_by_long_division(m, k)
        assert result["min_mult"] == min_mult, (m, k)
        assert list(result["witness"].coeffs.items()) == list(witness.coeffs.items()), (m, k)


def _galois_record(m, k):
    """The fields of galois_min_mult(m, k), in its order, with the witness
    built whatever its size."""
    level, b, top = valuations._galois_shape(m, k)
    terms = {2 * i + top % 2: c for i, c in enumerate(valuations._witness_coefficients(b, top))}
    terms[top] = 1
    witness = WPolynomial({(level - (m - 1) * d, d): x for d, x in terms.items()}, 2)
    bound = Fraction(2 * m * k, 2 * m - 1)
    return {"m": m, "k": k, "min_mult": valuations._least_mult(m, k, level), "bound": bound, "witness": witness}


def _fields_over(m, k, digits):
    """The fields of `_galois_record(m, k)`, in its order, with a number of
    more than `digits` digits."""
    record = _galois_record(m, k)
    witness = record["witness"]
    numbers = {
        "min_mult": [record["min_mult"]],
        "bound": [record["bound"].numerator, record["bound"].denominator],
        "witness": [abs(c.numerator) for c in witness.coeffs.values()] + [x for e in witness.coeffs for x in e],
    }
    return [field for field, xs in numbers.items() if len(str(max(xs))) > digits]


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 60), st.integers(1, 400), st.integers(1, 200))
def test_the_galois_digit_check_matches_the_built_answer(m, k, digits):
    # The witness check at any digit limit against the built witness; at the
    # limit of 4300 digits none of these witnesses is over.
    over = valuations._witness_exceeds_digits(m, *valuations._galois_shape(m, k), digits)
    assert over == ("witness" in _fields_over(m, k, digits))
    assert galois_min_mult(m, k) == _galois_record(m, k)


@pytest.mark.parametrize(
    ("m", "k", "field"),
    [
        (2, 10**4000, "witness"),
        (3, 10**12, "witness"),
        (10**9, 10**9, "witness"),
        (2, 9 * 10**4299, "min_mult"),
        (10**4299, 50, "bound"),
        (10**4000, 3, None),
        (10**4299 + 1, 2, None),
    ],
    ids=["k-4001-digits", "k-10^12", "m-k-10^9", "k-4300-digits", "m-4300-digits", "m-4001-digits", "m-4300-digits-k-2"],
)
def test_the_galois_digit_check_decides_huge_parameters_at_once(m, k, field):
    # No level is scanned and no coefficient of a witness that is over is
    # built: k(m-1) levels and coefficients of at least 2^n would take
    # forever.  At k = 9*10^4299 min_mult, at least 4k/3, is the first field
    # too long; at m = 10^4299, k = 50 the bound's numerator 2mk is.  Where
    # b = 0 the witness is one monomial whose exponents stay below m; at
    # k = 2 it is -2*s^(2m-1) + s*t^2, whose exponent 2m - 1 is below the
    # bound's 4m.
    start = time.perf_counter()
    refusal = emit_refusal(galois_min_mult(m, k))
    assert time.perf_counter() - start < 0.1
    assert refusal == (field and f"the answer's {field} has a number of more than 4300 digits")


def test_the_witness_digit_check_reads_its_exponents():
    # At m = 10^4300 - 1, the largest m of at most 4300 digits, and k = 2 the
    # witness is -2*s^(2m-1) + s*t^2: only its exponent 2m - 1 is too long,
    # and it is left unbuilt.  The answer names the bound, 4m, first, as it
    # does with the witness built.
    m = 10**4300 - 1
    assert valuations._witness_exceeds_digits(m, *valuations._galois_shape(m, 2), 4300)
    record = galois_min_mult(m, 2)
    assert record["witness"] is TOO_LONG
    refusal = "the answer's bound has a number of more than 4300 digits"
    assert emit_refusal(record) == emit_refusal(_galois_record(m, 2)) == refusal
