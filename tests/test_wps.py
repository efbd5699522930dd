"""Tests for weighted projective space invariants and the weighted
hypersurface bound."""

import time
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seshadri.exactmath.scalars import TOO_LONG
from seshadri.wps import (
    MAX_SCAN,
    catalog_seshadri,
    largest_representable,
    whs_record,
    whs_seshadri_bound,
    whs_volume,
    wps_anticanonical_volume,
    wps_record,
    wps_seshadri,
)

from conftest import emit_refusal

# -- Seshadri constants of P(1, a1, ..., an) -----------------------------------


def test_seshadri_projective_space():
    assert wps_seshadri((1, 1, 1, 1)) == 4


def test_seshadri_n2_d2():
    assert wps_seshadri((1, 1, 2)) == 2


def test_seshadri_generic_weights():
    assert wps_seshadri((1, 2, 3)) == 2


def test_volume_examples():
    assert wps_anticanonical_volume((1, 1, 2)) == 8
    assert wps_anticanonical_volume((1, 1, 1)) == 9
    assert wps_anticanonical_volume((1, 2, 3)) == 6


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        wps_seshadri((2, 1, 1))  # not led by 1
    with pytest.raises(ValueError):
        wps_seshadri((1, 3, 2))  # unsorted tail
    with pytest.raises(ValueError):
        wps_seshadri((1, 0, 2))  # nonpositive weight
    with pytest.raises(ValueError):
        wps_seshadri((1,))  # no weights beyond the leading 1


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("d", range(1, 51))
def test_family_1_1_d_closed_forms(n, d):
    w = (1, 1) + (d,) * (n - 1)
    assert wps_seshadri(w) == n - 1 + Fraction(2, d)
    assert wps_anticanonical_volume(w) == Fraction((2 + (n - 1) * d) ** n, d ** (n - 1))


@pytest.mark.parametrize("n", range(2, 6))
def test_family_volume_strictly_increasing_beyond_n(n):
    def vol(d):
        return wps_anticanonical_volume((1, 1) + (d,) * (n - 1))

    for d in range(n, 50):
        assert vol(d + 1) > vol(d)


@pytest.mark.parametrize("n", range(1, 9))
def test_unit_weights_give_projective_space_values(n):
    w = (1,) * (n + 1)
    assert wps_seshadri(w) == n + 1
    assert wps_anticanonical_volume(w) == (n + 1) ** n


# -- weighted hypersurfaces ----------------------------------------------------


def test_whs_bound_equality_case():
    bound, equality = whs_seshadri_bound(3, 2, 3, 5)
    assert (bound, equality) == (Fraction(5, 2), True)


def test_whs_bound_inequality_cases():
    assert whs_seshadri_bound(3, 1, 2, 4) == (Fraction(4), False)
    assert whs_seshadri_bound(2, 1, 2, 4) == (Fraction(2), False)


def test_whs_volume_examples():
    assert whs_volume(3, 2, 3, 5) == Fraction(45, 2)
    assert whs_volume(3, 1, 2, 4) == 16
    assert whs_volume(2, 1, 2, 4) == 2


def test_whs_spec_validation():
    with pytest.raises(ValueError):
        whs_record(3, 3, 2, 4)  # l < k
    with pytest.raises(ValueError):
        whs_record(3, 1, 1, 2)  # l < 2
    with pytest.raises(ValueError):
        whs_record(3, 2, 3, 8)  # d >= n + k + l
    with pytest.raises(ValueError):
        whs_record(3, 2, 3, 0)
    # The spec is checked before the residue scan, which would refuse too.
    k, l = 2**16 + 1, 2**16 + 3
    with pytest.raises(ValueError, match=r"need d < n \+ k \+ l"):
        whs_record(1, k, l, MAX_SCAN * l)


@pytest.mark.parametrize(
    "k,l", [(1, 2), (2, 3), (3, 4), (2, 5), (3, 7), (4, 6), (6, 9), (5, 5), (7, 3), (8, 12), (9, 13)]
)
@pytest.mark.parametrize("d", [*range(1, 13), 29, 47, 61, 100, 143])
def test_largest_representable_against_exhaustive_scan(k, l, d):
    representable = {
        a * k + b * l
        for a in range(d // k + 1)
        for b in range(d // l + 1)
        if a * k + b * l <= d
    }
    m = largest_representable(d, k, l)
    assert m == max(representable)
    assert m <= d and m in representable
    assert all(v not in representable for v in range(m + 1, d + 1))


def _largest_by_a(d, k, l):
    """The largest a*k + b*l <= d, trying every a: an oracle that shares no
    step with Sylvester's bound or the residue scan."""
    return max(a * k + (d - a * k) // l * l for a in range(d // k + 1))


def test_largest_representable_against_every_a_on_both_sides_of_sylvester():
    # With g = gcd(k, l), every multiple g*x with x >= (k/g - 1)(l/g - 1) is
    # representable, and the residues are scanned only below that bound; d
    # runs past it.
    for k in range(1, 10):
        for l in range(1, 13):
            for d in range(1, k * l + k + l):
                assert largest_representable(d, k, l) == _largest_by_a(d, k, l), (d, k, l)


def test_largest_representable_refuses_a_scan_past_its_cap_before_it_runs():
    # Coprime weights just over 2^16: below Sylvester's bound, b runs over
    # min(d // l, k - 1) + 1 values.
    k, l = 2**16 + 1, 2**16 + 3
    d = (MAX_SCAN - 1) * l + 5
    assert largest_representable(d, k, l) == _largest_by_a(d, k, l)
    with pytest.raises(ValueError, match=f"whs with --k {k} --l {l} scans more than {MAX_SCAN} values"):
        largest_representable(MAX_SCAN * l, k, l)
    # Weights of 4300 digits: the refusal comes before a single residue.
    k = 10**4299 + 7
    start = time.monotonic()
    with pytest.raises(ValueError, match="lower --k or --l"):
        largest_representable(10**6 * (k + 2), k, k + 2)
    assert time.monotonic() - start < 0.5


@pytest.mark.parametrize("k", [10**5 + 1, 10**6 + 1, 10**7 + 1, 10**300 + 1])
def test_largest_representable_past_sylvester_is_immediate(k):
    # l = k + 2, n = (k-1)^2 and d = n + k + l - 1 = k^2 + 2 >= (k-1)(l-1):
    # a residue scan would take about k steps.
    l, d = k + 2, k * k + 2
    start = time.monotonic()
    record = whs_record((k - 1) ** 2, k, l, d)
    assert time.monotonic() - start < 0.5
    assert (record["r"], record["m"], record["equality"]) == (k * k - 2 * k, d, True)
    assert record["bound"] == record["volume"] == Fraction(d, k * l)


_WIDE = st.one_of(st.integers(1, 9), st.integers(1, 10**4300 - 1), st.sampled_from([10**4299, 10**4300 - 1]))


@st.composite
def _whs_specs_that_build_quickly(draw):
    """Valid specs with n, k, l, d of at most 4300 digits, as argparse reads
    them, and a volume numerator a^n of at most 100000 bits."""
    k = draw(_WIDE)
    l = max(2, k) + draw(st.one_of(st.integers(0, 9), _WIDE))
    n = draw(st.one_of(st.integers(1, 12), st.integers(1000, 6000)))
    top = n + k + l - 1
    d = draw(st.one_of(st.integers(1, 9), st.integers(max(1, top - 30), top), st.integers(1, top)))
    assume(d <= top and l < 10**4300 and d < 10**4300 and (n + k + l - d).bit_length() * n <= 100_000)
    return n, k, l, d


@settings(max_examples=50, deadline=timedelta(seconds=5))
@given(_whs_specs_that_build_quickly())
@example((1, 10**4300 - 1, 10**4300 - 1, 1))  # r has 4301 digits
@example((4296, 1, 2, 4289))  # a volume of 4300 digits
@example((4297, 1, 2, 4290))  # and of 4301
@example((4300, 1, 2, 4302))  # a = 1
@example((3, 2, 3, 5))
def test_whs_digit_check_names_the_field_that_emit_refuses(spec):
    # emit refuses the record that leaves an unprintable volume unbuilt as it
    # refuses the record built in full, and one it prints was built in full.
    refusal = emit_refusal(whs_record(*spec))
    assert refusal == emit_refusal(_whs_record(*spec))
    if refusal is None:
        assert whs_record(*spec) == _whs_record(*spec)


def _whs_record(n, k, l, d):
    """whs_record(n, k, l, d) with every field built."""
    m = largest_representable(d, k, l)
    r = d - k - l
    bound = Fraction((n - r) * m, k * l)
    fields = {"n": n, "k": k, "l": l, "d": d, "r": r, "m": m, "bound": bound}
    return {**fields, "equality": d <= k * l, "volume": whs_volume(n, k, l, d)}


def test_whs_digit_check_names_the_bound_before_the_volume():
    # d = n/2 with n of 4300 digits: the bound (n - r) m / 2 has about 8600
    # digits, and the volume (n - r)^n d / 2 could never be built.
    n = 10**4299
    start = time.monotonic()
    record = whs_record(n, 1, 2, n // 2)
    assert emit_refusal(record) == "the answer's bound has a number of more than 4300 digits"
    assert time.monotonic() - start < 0.5
    assert record["volume"] is TOO_LONG


@st.composite
def _weight_vectors_that_build_quickly(draw):
    """Weight vectors (1, a1 <= ... <= an) with weights of at most 4300 digits,
    as `--weights` reads them: a few weights of any size after up to 6000
    weights of 1, with a volume numerator s^n of at most 100000 bits."""
    ones = draw(st.one_of(st.integers(0, 5), st.integers(1000, 6000)))
    rest = sorted(draw(st.lists(_WIDE, min_size=0 if ones else 1, max_size=4)))
    weights = (1,) * (1 + ones) + tuple(rest)
    assume(sum(weights).bit_length() * (len(weights) - 1) <= 100_000)
    return weights


def _wps_record(w):
    """wps_record(w) with every field built."""
    return {"weights": list(w), "seshadri": wps_seshadri(w), "volume": wps_anticanonical_volume(w)}


@settings(max_examples=50, deadline=timedelta(seconds=5))
@given(_weight_vectors_that_build_quickly())
@example((1, 10**4300 - 1, 10**4300 - 1))  # seshadri has 4301 digits
@example((1, 10**4300 - 1))  # s = 10^4300: seshadri and volume of 4301 digits
@example((1,) * 1370 + (6,))  # a volume of 4300 digits
@example((1,) * 1370 + (7,))  # and of 4301
@example((1,) * 1372)  # all ones, 4302 digits
@example((1, 1, 2))
def test_wps_digit_check_names_the_field_that_emit_refuses(w):
    refusal = emit_refusal(wps_record(w))
    assert refusal == emit_refusal(_wps_record(w))
    if refusal is None:
        assert wps_record(w) == _wps_record(w)


@pytest.mark.parametrize(
    "weights, message",
    [
        ((2,) * 100_000, "weight vector must be led by 1"),
        ((1,) + (3,) * 100_000 + (2,), "weights a1..an must be sorted ascending"),
        ((1,), "need at least one weight beyond the leading 1"),
    ],
)
def test_wps_digit_check_keeps_the_form_errors(weights, message):
    # Each of the first two has a volume of more than 4300 digits.
    with pytest.raises(ValueError, match=message):
        wps_record(weights)


def test_whs_equality_bound_never_exceeds_dimension():
    # In the equality regime d <= kl with r >= 0, the value is capped by the
    # anticanonical degree n - r, itself at most the dimension n.  (For r < 0
    # the chain n - r <= n fails by definition, so the cap only concerns
    # specs whose degree is at least k + l.)
    for n in range(2, 6):
        for k in range(1, 4):
            for l in range(max(2, k), 6):
                for d in range(k + l, n + k + l):
                    bound, equality = whs_seshadri_bound(n, k, l, d)
                    if equality:
                        assert bound <= n - (d - k - l) <= n


def test_whs_record_fields():
    record = whs_record(3, 2, 3, 5)
    assert record == {
        "n": 3,
        "k": 2,
        "l": 3,
        "d": 5,
        "r": 0,
        "m": 5,
        "bound": Fraction(5, 2),
        "equality": True,
        "volume": Fraction(45, 2),
    }


# -- catalog -------------------------------------------------------------------


def test_catalog_x6():
    value, citation = catalog_seshadri("X6", n=3)
    assert value == 2
    assert "del Pezzo" in citation


def test_catalog_x6_general_dimension():
    assert catalog_seshadri("X6", n=5)[0] == Fraction(10, 3)


def test_catalog_errors():
    with pytest.raises(KeyError):
        catalog_seshadri("unknown-surface")
    with pytest.raises(KeyError):
        catalog_seshadri("ruled", g=2, d=10)  # surfaces.ruled_surface_model
    with pytest.raises(ValueError):
        catalog_seshadri("X6", n=1)
