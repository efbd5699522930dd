"""Tests for Zariski decompositions on declared curve lattices and Seshadri
constants at a marked point, including the ruled-surface pipeline."""

import random
from fractions import Fraction

import pytest

from seshadri import surfaces
from seshadri.exactmath import ExactMatrix
from seshadri.surfaces import (
    CurveClass,
    DivisorClass,
    SurfaceLattice,
    ruled_surface_lattice,
    ruled_surface_model,
    seshadri_at_marked_point,
    zariski_decomposition,
)


def ruled_minus_k(g, d):
    return DivisorClass((Fraction(2), Fraction(d + 2 - 2 * g)))


def assert_zariski_axioms(lat, divisor, dec):
    p, n = dec.positive, dec.negative
    assert all(c >= 0 for c in dec.coefficients)
    for curve in lat.curves:
        assert lat.pairing(p, curve.divisor) >= 0
    for name in dec.support:
        curve = next(c for c in lat.curves if c.name == name)
        assert lat.pairing(p, curve.divisor) == 0
    assert lat.pairing(p, n) == 0
    assert all(
        a + b == c for a, b, c in zip(p.coords, n.coords, divisor.coords)
    )


_decompose = surfaces.zariski_decomposition


@pytest.fixture(autouse=True)
def _every_decomposition_satisfies_the_axioms(monkeypatch):
    """zariski_decomposition does not re-check its result, so every
    decomposition built in this file, directly or through
    ruled_surface_model, is checked here."""

    def checked(lat, divisor):
        dec = _decompose(lat, divisor)
        assert_zariski_axioms(lat, divisor, dec)
        return dec

    monkeypatch.setattr(surfaces, "zariski_decomposition", checked)
    monkeypatch.setitem(globals(), "zariski_decomposition", checked)


# -- Zariski decomposition -------------------------------------------------------


def test_ruled_2_10_decomposition():
    lat = ruled_surface_lattice(10)
    dec = zariski_decomposition(lat, ruled_minus_k(2, 10))
    assert dec.positive.coords == (Fraction(4, 5), Fraction(8))
    assert dec.negative.coords == (Fraction(6, 5), Fraction(0))
    assert dec.support == ("E",)


def test_nef_divisor_is_its_own_positive_part():
    lat = ruled_surface_lattice(10)
    nef = DivisorClass((Fraction(1), Fraction(10)))  # (E + 10F) pairs >= 0
    dec = zariski_decomposition(lat, nef)
    assert dec.positive == nef
    assert dec.negative.is_zero()
    assert dec.support == ()


def test_negative_section_is_all_negative_part():
    lat = ruled_surface_lattice(10)
    e = DivisorClass((Fraction(1), Fraction(0)))
    dec = zariski_decomposition(lat, e)
    assert dec.positive.is_zero()
    assert dec.negative == e


def test_decomposition_satisfies_axioms_on_random_divisors():
    rng = random.Random(23)
    lat = ruled_surface_lattice(7)
    for _ in range(40):
        divisor = DivisorClass(
            (
                Fraction(rng.randint(0, 12), rng.randint(1, 4)),
                Fraction(rng.randint(0, 12), rng.randint(1, 4)),
            )
        )
        dec = zariski_decomposition(lat, divisor)
        assert_zariski_axioms(lat, divisor, dec)


def test_decomposition_invariant_under_curve_permutation():
    gram = ExactMatrix.from_rows([[-10, 1], [1, 0]])
    e = CurveClass("E", (Fraction(1), Fraction(0)))
    f = CurveClass("F", (Fraction(0), Fraction(1)), through_marked_point=True)
    lat_ef = SurfaceLattice(("E", "F"), gram, (e, f))
    lat_fe = SurfaceLattice(("E", "F"), gram, (f, e))
    divisor = ruled_minus_k(2, 10)
    dec1 = zariski_decomposition(lat_ef, divisor)
    dec2 = zariski_decomposition(lat_fe, divisor)
    assert dec1.positive == dec2.positive
    assert dec1.negative == dec2.negative


def test_decomposition_rejects_indefinite_support():
    # F^2 = 0, so any divisor whose candidate support reaches F has no valid
    # decomposition within the declared curve set.
    lat = ruled_surface_lattice(5)
    with pytest.raises(ValueError, match="negative definite"):
        zariski_decomposition(lat, DivisorClass((Fraction(-1), Fraction(0))))
    with pytest.raises(ValueError, match="negative definite"):
        zariski_decomposition(lat, DivisorClass((Fraction(0), Fraction(-1))))


def test_decomposition_rejects_a_positive_part_of_negative_square():
    # A nef class on a surface has P^2 >= 0, so these declared lattices are
    # impossible: with gram -I, D = -E - F is its own positive part (P^2 = -2),
    # and D = E - F has support {E} and P = -F (P^2 = -1).
    lat = SurfaceLattice(
        ("E", "F"),
        ExactMatrix.from_rows([[-1, 0], [0, -1]]),
        (CurveClass("E", (1, 0)), CurveClass("F", (0, 1))),
    )
    with pytest.raises(ValueError, match=r"P\^2 = -2 < 0.*declared lattice is inconsistent"):
        zariski_decomposition(lat, DivisorClass((-1, -1)))
    only_e = SurfaceLattice(lat.generators, lat.gram, lat.curves[:1])
    with pytest.raises(ValueError, match=r"P\^2 = -1 < 0"):
        zariski_decomposition(only_e, DivisorClass((1, -1)))


def test_lattice_validation():
    asym = ExactMatrix.from_rows([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        SurfaceLattice(("E", "F"), asym, ())
    with pytest.raises(ValueError):
        SurfaceLattice(
            ("E", "F"),
            ExactMatrix.from_rows([[0, 1], [1, 0]]),
            (CurveClass("C", (Fraction(1),)),),  # wrong arity
        )
    with pytest.raises(ValueError, match="duplicate curve name 'E'"):
        SurfaceLattice(
            ("E", "F"),
            ExactMatrix.from_rows([[-10, 1], [1, 0]]),
            (CurveClass("E", (Fraction(1), Fraction(0))), CurveClass("E", (Fraction(0), Fraction(1)))),
        )


# -- Seshadri at the marked point --------------------------------------------------


def test_seshadri_at_marked_point_ruled_2_10():
    lat = ruled_surface_lattice(10)
    p = DivisorClass((Fraction(4, 5), Fraction(8)))
    result = seshadri_at_marked_point(lat, p)
    assert result.value == Fraction(4, 5)
    assert result.certified
    assert result.value_squared == Fraction(16, 25)
    assert result.self_intersection == Fraction(32, 5)


def test_seshadri_zero_pairing_gives_zero():
    gram = ExactMatrix.from_rows([[0, 1], [1, 0]])
    curves = (
        CurveClass("A", (Fraction(1), Fraction(0)), through_marked_point=True),
        CurveClass("B", (Fraction(0), Fraction(1))),
    )
    lat = SurfaceLattice(("A", "B"), gram, curves)
    result = seshadri_at_marked_point(lat, DivisorClass((Fraction(1), Fraction(0))))
    assert result.value == 0
    assert result.certified


def test_seshadri_rejects_non_nef():
    lat = ruled_surface_lattice(10)
    with pytest.raises(ValueError, match="nef"):
        seshadri_at_marked_point(lat, DivisorClass((Fraction(2), Fraction(8))))


def test_seshadri_needs_a_through_curve():
    gram = ExactMatrix.from_rows([[1]])
    lat = SurfaceLattice(("H",), gram, (CurveClass("H", (Fraction(1),)),))
    with pytest.raises(ValueError, match="through"):
        seshadri_at_marked_point(lat, DivisorClass((Fraction(1),)))


def test_seshadri_respects_multiplicity():
    gram = ExactMatrix.from_rows([[1]])
    curves = (CurveClass("C", (Fraction(1),), through_marked_point=True, mult=3),)
    lat = SurfaceLattice(("H",), gram, curves)
    result = seshadri_at_marked_point(lat, DivisorClass((Fraction(1),)))
    assert result.value == Fraction(1, 3)


# -- ruled-surface models -----------------------------------------------------------


def test_ruled_model_flagship_values():
    model = ruled_surface_model(2, 10)
    assert model.epsilon_m == Fraction(4, 5)
    assert model.minus_k.coords == (Fraction(2), Fraction(8))
    assert model.decomposition.positive.coords == (Fraction(4, 5), Fraction(8))
    assert model.decomposition.negative.coords == (Fraction(6, 5), Fraction(0))
    assert model.seshadri.certified


def test_ruled_model_nef_boundary_case():
    model = ruled_surface_model(1, 5)
    assert model.epsilon_m == 1
    assert model.minus_k.coords == (Fraction(2), Fraction(5))
    assert model.decomposition.positive.coords == (Fraction(1), Fraction(5))
    assert model.decomposition.negative.coords == (Fraction(1), Fraction(0))
    assert model.seshadri.value == 1
    assert model.seshadri.certified
    assert model.seshadri.self_intersection == 5


def test_ruled_model_half():
    assert ruled_surface_model(3, 8).epsilon_m == Fraction(1, 2)


@pytest.mark.parametrize("g", range(0, 5))
def test_ruled_family_matches_closed_form(g):
    for d in range(max(1, 2 * g - 1) + 1, 21):
        model = ruled_surface_model(g, d)
        assert model.epsilon_m == 1 - Fraction(2 * g - 2, d)
        # anticanonical volume through the decomposition
        vol = model.seshadri.self_intersection
        assert vol == (1 - Fraction(2 * g - 2, d)) ** 2 * d


def test_ruled_model_meets_the_closed_form_on_a_grid():
    # ruled_surface_model does not check its value; the closed form
    # 1 - (2g-2)/d holds on the whole admissible range.
    for g in range(16):
        for d in range(2 if g == 0 else max(1, 2 * g - 1), 2 * g + 41):
            model = ruled_surface_model(g, d)
            assert model.epsilon_m == 1 - Fraction(2 * g - 2, d)


def test_ruled_model_domain():
    with pytest.raises(ValueError):
        ruled_surface_model(2, 2)  # d <= 2g - 2
    with pytest.raises(ValueError):
        ruled_surface_model(-1, 5)
    with pytest.raises(ValueError):
        ruled_surface_model(0, 1)  # genus 0 needs degree >= 2
    ruled_surface_model(0, 2)


def test_ruled_lattice_shape():
    lat = ruled_surface_lattice(7)
    assert lat.generators == ("E", "F")
    assert lat.gram.entries == ((Fraction(-7), Fraction(1)), (Fraction(1), Fraction(0)))
    through = [c.name for c in lat.curves if c.through_marked_point]
    assert through == ["F"]
