"""Tests for the anticanonical volume bound M(n, eps) and its grid oracle."""

import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from seshadri.bounds import (
    best_volume_bound,
    conjectured_optimal_comparison,
    grid_volume_bound_minimum,
    volume_bound_exceeds_digits,
)
from seshadri.wps import wps_anticanonical_volume

ONE = Fraction(1)


# -- the raw two-term bound ----------------------------------------------------


@dataclass(frozen=True)
class VolumeBoundParams:
    """A feasible choice of the free parameters (a, b, c) for dimension n and
    Seshadri lower bound eps."""

    n: int
    eps: Fraction
    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        for name in ("eps", "a", "b", "c"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.n < 1:
            raise ValueError("dimension n must be >= 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        for name in ("a", "b", "c"):
            if getattr(self, name) <= 0:
                raise ValueError(f"constraint violated: {name} must be positive")
        if self.a + self.b + self.c >= 1:
            raise ValueError("constraint violated: a + b + c must be < 1")
        if (self.n - 1 + self.eps) * self.a < self.n - 1 + self.eps / 2:
            raise ValueError("constraint violated: (n-1+eps)*a must be >= n-1+eps/2")


def volume_bound(params: VolumeBoundParams) -> Fraction:
    """max{b^-n (1-eps/2)^n, c^-n n^n} for a feasible parameter choice."""
    n, eps = params.n, params.eps
    term_b = ((1 - eps / 2) / params.b) ** n
    term_c = (Fraction(n) / params.c) ** n
    return max(term_b, term_c)


def volume_bound_predicate(vol: Fraction, n: int, eps: Fraction) -> bool:
    """vol <= M(n, eps) for the closed-form bound."""
    return Fraction(vol) <= best_volume_bound(n, eps)["M"]


def test_volume_bound_example_n2():
    params = VolumeBoundParams(2, ONE, Fraction(3, 4), Fraction(1, 8), Fraction(1, 16))
    assert volume_bound(params) == 1024


def test_volume_bound_example_n1():
    params = VolumeBoundParams(1, ONE, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
    assert volume_bound(params) == 8


def test_params_reject_infeasible_a():
    with pytest.raises(ValueError, match="a"):
        VolumeBoundParams(2, ONE, Fraction(1, 2), Fraction(1, 8), Fraction(1, 16))


def test_params_reject_budget_overflow():
    with pytest.raises(ValueError, match="a \\+ b \\+ c"):
        VolumeBoundParams(2, ONE, Fraction(3, 4), Fraction(1, 8), Fraction(1, 8))


def test_params_reject_nonpositive_entries():
    with pytest.raises(ValueError):
        VolumeBoundParams(2, ONE, Fraction(3, 4), Fraction(0), Fraction(1, 16))
    with pytest.raises(ValueError):
        VolumeBoundParams(2, Fraction(0), Fraction(3, 4), Fraction(1, 8), Fraction(1, 16))
    with pytest.raises(ValueError):
        VolumeBoundParams(0, ONE, Fraction(3, 4), Fraction(1, 8), Fraction(1, 16))


# -- optimized bound -------------------------------------------------------------


def test_best_bound_n2_eps1():
    result = best_volume_bound(2, ONE)
    assert result["M"] == 100
    assert (result["a"], result["b"], result["c"]) == (
        Fraction(3, 4),
        Fraction(1, 20),
        Fraction(1, 5),
    )
    assert not result["attained"]


def test_best_bound_n1_eps1():
    assert best_volume_bound(1, ONE)["M"] == 3


def test_best_bound_monotone_in_eps():
    assert best_volume_bound(2, Fraction(1, 2))["M"] > best_volume_bound(2, ONE)["M"]


def test_best_bound_rejects_out_of_regime_eps():
    with pytest.raises(ValueError):
        best_volume_bound(2, Fraction(0))
    with pytest.raises(ValueError):
        best_volume_bound(2, Fraction(-1))
    with pytest.raises(ValueError):
        best_volume_bound(2, Fraction(2))
    with pytest.raises(ValueError):
        best_volume_bound(2, Fraction(5, 2))


def test_optimal_params_sit_on_the_open_boundary():
    # The infimum is approached as a + b + c -> 1: the reported parameters sum
    # to exactly 1 and are therefore not themselves feasible.
    result = best_volume_bound(3, Fraction(1, 2))
    assert result["a"] + result["b"] + result["c"] == 1
    with pytest.raises(ValueError):
        VolumeBoundParams(3, Fraction(1, 2), result["a"], result["b"], result["c"])


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("eps", (Fraction(1, 4), Fraction(1, 2), ONE))
def test_interior_points_sandwich_the_infimum(n, eps):
    # shrinking b and c by q scales both balanced terms by q^-n exactly
    result = best_volume_bound(n, eps)
    shrink = 1 - Fraction(1, 1000)
    params = VolumeBoundParams(n, eps, result["a"], result["b"] * shrink, result["c"] * shrink)
    assert volume_bound(params) == result["M"] * (ONE / shrink) ** n > result["M"]


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("eps", (Fraction(1, 4), Fraction(1, 2), ONE))
def test_best_bound_growth_window(n, eps):
    m = best_volume_bound(n, eps)["M"]
    assert m <= Fraction(8**n * n ** (2 * n), eps**n)
    assert m >= n**n


# -- grid oracle -----------------------------------------------------------------


def test_grid_confirms_flagship_value():
    assert best_volume_bound(2, ONE)["oracle_checked"]
    assert grid_volume_bound_minimum(2, ONE, 256) == Fraction(65536, 625)


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("eps", (Fraction(1, 2), ONE, Fraction(3, 2)))
def test_grid_never_beats_the_closed_form(n, eps):
    result = best_volume_bound(n, eps)
    closed = result["M"]
    assert result["oracle_checked"]
    for resolution in (16, 64, 256):
        grid = grid_volume_bound_minimum(n, eps, resolution)
        # a coarse grid may contain no feasible triple at all; that never
        # contradicts the closed form, it just fails to probe it
        if grid is None:
            assert resolution == 16
        else:
            assert grid >= closed


def _full_grid_minimum(n, eps, r):
    """volume_bound minimized over every feasible (i, j, k) with i + j + k < r:
    neither the crossing nor the whole-budget shortcut of the oracle."""
    floor_a = (n - 1 + eps / 2) / (n - 1 + eps)
    values = [
        volume_bound(VolumeBoundParams(n, eps, Fraction(i, r), Fraction(j, r), Fraction(k, r)))
        for i in range(1, r)
        if Fraction(i, r) >= floor_a
        for j in range(1, r - i)
        for k in range(1, r - i - j)
    ]
    return min(values, default=None)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize(
    "eps", (Fraction(1, 7), Fraction(1, 2), Fraction(2, 3), ONE, Fraction(3, 2), Fraction(13, 7))
)
def test_grid_oracle_equals_the_full_grid_minimum(n, eps):
    for r in range(3, 17):
        assert grid_volume_bound_minimum(n, eps, r) == _full_grid_minimum(n, eps, r), r


@pytest.mark.parametrize(
    ("n", "eps"), ((0, ONE), (-1, Fraction(1, 2)), (2, Fraction(0)), (2, Fraction(2)), (2, Fraction(-1)))
)
def test_grid_oracle_rejects_invalid_input(n, eps):
    with pytest.raises(ValueError):
        grid_volume_bound_minimum(n, eps)


@pytest.mark.parametrize("resolution", (0, 1, 2, 3, 4))
def test_grid_oracle_without_a_feasible_point_returns_none(resolution):
    assert grid_volume_bound_minimum(2, ONE, resolution) is None


def test_grid_oracle_keeps_the_point_on_the_a_floor():
    # n = 2, eps = 1: the floor of a is exactly 3/4 = 192/256, and the
    # minimum sits there at (j, k) = (13, 50).  The first point past the
    # floor (i = 193) gives a larger value.
    at_floor = volume_bound(VolumeBoundParams(2, ONE, Fraction(192, 256), Fraction(13, 256), Fraction(50, 256)))
    past_floor = min(
        volume_bound(VolumeBoundParams(2, ONE, Fraction(193, 256), Fraction(j, 256), Fraction(62 - j, 256)))
        for j in range(1, 62)
    )
    assert grid_volume_bound_minimum(2, ONE, 256) == at_floor == Fraction(65536, 625) < past_floor


def test_grid_oracle_is_cheap_on_the_toolkit_inputs():
    # every n in 2..6 and every eps = p/q in (0, 2) with q <= 7: 175 pairs
    pairs = {(n, Fraction(p, q)) for n in range(2, 7) for q in range(1, 8) for p in range(1, 2 * q)}
    assert len(pairs) == 175
    start = time.perf_counter()
    assert all(best_volume_bound(n, eps)["oracle_checked"] for n, eps in pairs)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"{elapsed:.2f}s"


def test_grid_minimum_tightens_with_resolution():
    coarse = grid_volume_bound_minimum(2, ONE, 16)
    fine = grid_volume_bound_minimum(2, ONE, 1024)
    closed = best_volume_bound(2, ONE)["M"]
    assert coarse >= fine >= closed


# -- predicate and comparison column -----------------------------------------------


def test_predicate_examples():
    assert volume_bound_predicate(Fraction(8), 2, ONE)
    assert volume_bound_predicate(Fraction(9), 2, ONE)
    assert not volume_bound_predicate(Fraction(101), 2, ONE)


@pytest.mark.parametrize("n", range(2, 5))
def test_family_volumes_inside_their_own_window(n):
    # each member (1,1,d,...,d) has eps = n-1+2/d; its volume obeys the bound
    # computed at half the excess-over-(n-1) part of that window
    for d in range(1, 21):
        vol = wps_anticanonical_volume((1, 1) + (d,) * (n - 1))
        assert volume_bound_predicate(vol, n, Fraction(1, d))


def test_conjectured_comparison_column():
    assert conjectured_optimal_comparison(2, ONE) == 4
    assert conjectured_optimal_comparison(3, Fraction(1, 2)) == 54


# -- the digit count of M, decided before M is computed ------------------------------


@pytest.mark.parametrize("digits", (1, 7, 60, 300))
@pytest.mark.parametrize(
    "eps", (Fraction(1, 1000), Fraction(1, 7), Fraction(1, 2), ONE, Fraction(19, 10))
)
def test_digit_check_matches_the_digits_of_m(digits, eps):
    # Across each boundary: below it M is computed and its digits counted.
    for n in range(1, 80):
        m = best_volume_bound(n, eps)["M"]
        longest = max(len(str(m.numerator)), len(str(m.denominator)))
        assert volume_bound_exceeds_digits(n, eps, digits) == (longest > digits), n


def test_digit_check_validates_like_the_closed_form():
    for n, eps in ((0, ONE), (2, Fraction(0)), (2, Fraction(2))):
        with pytest.raises(ValueError) as closed:
            best_volume_bound(n, eps)
        with pytest.raises(ValueError) as check:
            volume_bound_exceeds_digits(n, eps, 10)
        assert str(check.value) == str(closed.value)
