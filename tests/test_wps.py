"""Tests for weighted projective space invariants and the weighted
hypersurface bound."""

from fractions import Fraction

import pytest

from seshadri.wps import (
    WeightedHypersurfaceSpec,
    WeightVector,
    catalog_seshadri,
    largest_representable,
    whs_record,
    whs_seshadri_bound,
    whs_volume,
    wps_anticanonical_volume,
    wps_seshadri,
)

# -- Seshadri constants of P(1, a1, ..., an) -----------------------------------


def test_seshadri_projective_space():
    assert wps_seshadri(WeightVector((1, 1, 1, 1))) == 4


def test_seshadri_n2_d2():
    assert wps_seshadri(WeightVector((1, 1, 2))) == 2


def test_seshadri_generic_weights():
    assert wps_seshadri(WeightVector((1, 2, 3))) == 2


def test_volume_examples():
    assert wps_anticanonical_volume(WeightVector((1, 1, 2))) == 8
    assert wps_anticanonical_volume(WeightVector((1, 1, 1))) == 9
    assert wps_anticanonical_volume(WeightVector((1, 2, 3))) == 6


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        wps_seshadri(WeightVector((2, 1, 1)))  # not led by 1
    with pytest.raises(ValueError):
        wps_seshadri(WeightVector((1, 3, 2)))  # unsorted tail
    with pytest.raises(ValueError):
        WeightVector((1, 0, 2))  # nonpositive weight
    with pytest.raises(ValueError):
        wps_seshadri(WeightVector((1,)))  # no weights beyond the leading 1


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("d", range(1, 51))
def test_family_1_1_d_closed_forms(n, d):
    w = WeightVector((1, 1) + (d,) * (n - 1))
    assert wps_seshadri(w) == n - 1 + Fraction(2, d)
    assert wps_anticanonical_volume(w) == Fraction((2 + (n - 1) * d) ** n, d ** (n - 1))


@pytest.mark.parametrize("n", range(2, 6))
def test_family_volume_strictly_increasing_beyond_n(n):
    def vol(d):
        return wps_anticanonical_volume(WeightVector((1, 1) + (d,) * (n - 1)))

    for d in range(n, 50):
        assert vol(d + 1) > vol(d)


@pytest.mark.parametrize("n", range(1, 9))
def test_unit_weights_give_projective_space_values(n):
    w = WeightVector((1,) * (n + 1))
    assert wps_seshadri(w) == n + 1
    assert wps_anticanonical_volume(w) == (n + 1) ** n


# -- weighted hypersurfaces ----------------------------------------------------


def test_whs_bound_equality_case():
    bound, equality = whs_seshadri_bound(WeightedHypersurfaceSpec(3, 2, 3, 5))
    assert (bound, equality) == (Fraction(5, 2), True)


def test_whs_bound_inequality_cases():
    assert whs_seshadri_bound(WeightedHypersurfaceSpec(3, 1, 2, 4)) == (Fraction(4), False)
    assert whs_seshadri_bound(WeightedHypersurfaceSpec(2, 1, 2, 4)) == (Fraction(2), False)


def test_whs_volume_examples():
    assert whs_volume(WeightedHypersurfaceSpec(3, 2, 3, 5)) == Fraction(45, 2)
    assert whs_volume(WeightedHypersurfaceSpec(3, 1, 2, 4)) == 16
    assert whs_volume(WeightedHypersurfaceSpec(2, 1, 2, 4)) == 2


def test_whs_spec_validation():
    with pytest.raises(ValueError):
        WeightedHypersurfaceSpec(3, 3, 2, 4)  # l < k
    with pytest.raises(ValueError):
        WeightedHypersurfaceSpec(3, 1, 1, 2)  # l < 2
    with pytest.raises(ValueError):
        WeightedHypersurfaceSpec(3, 2, 3, 8)  # d >= n + k + l
    with pytest.raises(ValueError):
        WeightedHypersurfaceSpec(3, 2, 3, 0)


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


def test_whs_equality_bound_never_exceeds_dimension():
    # In the equality regime d <= kl with r >= 0, the value is capped by the
    # anticanonical degree n - r, itself at most the dimension n.  (For r < 0
    # the chain n - r <= n fails by definition, so the cap only concerns
    # specs whose degree is at least k + l.)
    for n in range(2, 6):
        for k in range(1, 4):
            for l in range(max(2, k), 6):
                for d in range(k + l, n + k + l):
                    spec = WeightedHypersurfaceSpec(n, k, l, d)
                    bound, equality = whs_seshadri_bound(spec)
                    if equality:
                        assert bound <= n - spec.r <= n


def test_whs_record_fields():
    record = whs_record(WeightedHypersurfaceSpec(3, 2, 3, 5))
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


def test_catalog_ruled():
    assert catalog_seshadri("ruled", g=2, d=10)[0] == Fraction(4, 5)
    assert catalog_seshadri("ruled", g=1, d=5)[0] == 1


def test_catalog_errors():
    with pytest.raises(KeyError):
        catalog_seshadri("unknown-surface")
    with pytest.raises(ValueError):
        catalog_seshadri("X6", n=1)
    with pytest.raises(ValueError):
        catalog_seshadri("ruled", g=2, d=2)  # d <= 2g - 2
