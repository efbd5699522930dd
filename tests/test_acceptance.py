"""Acceptance gate: the toolkit's headline guarantees, each pinned to its
exact expected value and, where one applies, a wall-clock budget.

Every comparison below is exact (integers, Fractions, polynomials); the
budgets are generous ceilings meant to catch algorithmic regressions, not to
benchmark the host."""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from seshadri.bounds import best_volume_bound
from seshadri.cli import main
from seshadri.exactmath import WPolynomial, negative_definite_solve, parse_polynomial
from seshadri.jets import (
    blowup_anticanonical_series,
    blowup_line_bound,
    moving_seshadri_lower,
    random_rational_point,
)
from seshadri.reproduce import CASES, DEFAULT_SEED, run_reproduction
from seshadri.surfaces import (
    DivisorClass,
    ruled_surface_lattice,
    ruled_surface_model,
    seshadri_at_marked_point,
    zariski_decomposition,
)
from seshadri.valuations import (
    MonomialValuation,
    Twist,
    discrepancy,
    galois_min_mult,
    ideal_min_multiplicity,
    izumi_check,
)
from seshadri.wps import (
    catalog_seshadri,
    whs_seshadri_bound,
    whs_volume,
    wps_anticanonical_volume,
    wps_seshadri,
)

from conftest import curve_class


@contextmanager
def budget(seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"budget exceeded: {elapsed:.2f}s >= {seconds}s"


# 1. The weighted projective family P(1,1,d,...,d): closed forms for the
#    anticanonical Seshadri constant and volume, exactly, across the window.


def test_family_closed_forms_are_exact():
    with budget(1.0):
        for n in range(2, 5):
            for d in range(1, 21):
                w = (1, 1) + (d,) * (n - 1)
                assert wps_seshadri(w) == n - 1 + Fraction(2, d)
                assert wps_anticanonical_volume(w) == Fraction(
                    (2 + (n - 1) * d) ** n, d ** (n - 1)
                )


# 2. Jet separation route to epsilon = epsilon_m = n for n = 2: degree-3m
#    plane curves with multiplicity >= m at the marked point separate exactly
#    2m-jets there, and the line bound turns the lower bound into an equality.


def test_blowup_jets_certify_epsilon_two_at_random_points():
    with budget(10.0):
        rng = random.Random(DEFAULT_SEED)
        line = blowup_line_bound(2)
        assert line.bound == 2 and not line.strict
        series = blowup_anticanonical_series(2, (Fraction(0), Fraction(0)))
        for _ in range(3):
            point = random_rational_point(rng, 2)
            estimate = moving_seshadri_lower(series, point, m_max=3, curve_bound=line)
            assert estimate["s_values"] == [2, 4, 6]
            assert estimate["lower"] == estimate["upper"] == 2
            assert estimate["certified"]


# 3. Izumi-type comparison: on 500 randomized (valuation, polynomial) pairs
#    the valuation is sandwiched by multiplicity, with zero failures.


def _random_izumi_pair(rng: random.Random):
    nvars = rng.choice((2, 3))
    weights = tuple(rng.randint(1, 6) for _ in range(nvars))
    twist = None
    if nvars == 2 and rng.random() < 0.3:
        twist = Twist(rng.randint(1, 3))
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        exponent = tuple(rng.randint(0, 6) for _ in range(nvars))
        coeffs[exponent] = Fraction(rng.randint(-9, 9))
    return MonomialValuation(weights, twist), WPolynomial(coeffs, nvars)


def test_izumi_inequality_holds_on_500_random_pairs():
    with budget(5.0):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(500):
            nu, f = _random_izumi_pair(rng)
            check = izumi_check(nu, f)
            assert check["holds"], (nu, f, check)


# 4. Valuation-ideal minimal multiplicities: the closed form agrees with an
#    exhaustive lattice search, and the two pinned growth rates come out.


def _exhaustive_min_mult(weights, k):
    target = (sum(weights) - 1) * k
    # an L1-minimal lattice point never puts more on a coordinate than the
    # smallest power of it that clears the target on its own
    ranges = [range(-(-target // w) + 1) for w in weights]
    return min(
        sum(e)
        for e in product(*ranges)
        if sum(w * x for w, x in zip(weights, e)) >= target
    )


def test_ideal_min_multiplicity_matches_exhaustive_search_and_closed_forms():
    with budget(5.0):
        assert ideal_min_multiplicity(MonomialValuation((1, 1, 2)), 2) == (3, Fraction(3, 2))
        assert ideal_min_multiplicity(MonomialValuation((2, 3)), 3) == (4, Fraction(4, 3))
        for weights in ((1, 1), (1, 2), (2, 3), (2, 5), (1, 1, 2), (1, 2, 3)):
            for k in (1, 2, 3):
                min_mult, growth = ideal_min_multiplicity(MonomialValuation(weights), k)
                assert min_mult == _exhaustive_min_mult(weights, k)
                assert growth == Fraction(min_mult, k)


# 5. Rational members of the Galois-twisted ideal (s^m, t - sqrt(2)s^(m-1))^k
#    need multiplicity >= 2mk/(2m-1); read off the norm form, with the pinned
#    witness.


def test_galois_twisted_ideals_force_extra_multiplicity():
    with budget(60.0):
        assert galois_min_mult(2, 1)["min_mult"] == 2
        flagship = galois_min_mult(2, 3)
        assert flagship["min_mult"] == 4
        assert flagship["witness"] == parse_polynomial("(t^2 - 2*s^2)^2", ("s", "t"))
        for m in (2, 3):
            for k in (1, 2, 3):
                result = galois_min_mult(m, k)
                assert result["bound"] == Fraction(2 * m * k, 2 * m - 1)
                assert result["min_mult"] >= math.ceil(result["bound"])


# 6. Ruled-surface pipeline: Zariski decomposition plus the marked-point
#    Seshadri constant reproduce 1 - (2g-2)/d across the admissible window,
#    with every decomposition axiom asserted on every instance.


def test_ruled_pipeline_reproduces_the_closed_form_with_axioms():
    with budget(2.0):
        for g in range(0, 5):
            for d in range(max(1, 2 * g - 1) + 1, 21):
                lattice = ruled_surface_lattice(d)
                minus_k = DivisorClass((Fraction(2), Fraction(d + 2 - 2 * g)))
                dec = zariski_decomposition(lattice, minus_k)
                positive, negative = dec.positive, dec.negative
                assert all(c >= 0 for c in dec.coefficients)
                assert tuple(
                    p + n for p, n in zip(positive.coords, negative.coords)
                ) == minus_k.coords
                assert all(
                    lattice.pairing(positive, curve_class(c)) >= 0 for c in lattice.curves
                )
                assert lattice.pairing(positive, negative) == 0
                support = [c for c in lattice.curves if c.name in dec.support]
                if support:
                    gram = [
                        [lattice.pairing(curve_class(a), curve_class(b)) for b in support]
                        for a in support
                    ]
                    # Negative definite, and N's coefficients solve
                    # gram * x = (-K.C) on the support.  E, F and -K have
                    # integer coordinates on an integer Gram matrix, so the
                    # system is integral as it stands.
                    rhs = [lattice.pairing(minus_k, curve_class(c)) for c in support]
                    assert all(x.denominator == 1 for row in [*gram, rhs] for x in row)
                    solution = negative_definite_solve(
                        [[x.numerator for x in row] for row in gram],
                        [b.numerator for b in rhs],
                    )
                    assert solution is not None
                    numerators, q = solution
                    solution = [Fraction(x, q) for x in numerators]
                    assert dict(zip((c.name for c in support), solution)) == dict(
                        zip(dec.support, dec.coefficients)
                    )
                marked = seshadri_at_marked_point(lattice, positive)
                assert marked.value == 1 - Fraction(2 * g - 2, d)
                assert marked.certified
        assert ruled_surface_model(2, 10)["epsilon_m"] == Fraction(4, 5)


# 7. Weighted hypersurface bound, its volume, and the sextic catalog entry.


def test_weighted_hypersurface_and_catalog_flagships():
    assert whs_seshadri_bound(3, 2, 3, 5) == (Fraction(5, 2), True)
    assert whs_volume(3, 2, 3, 5) == Fraction(45, 2)
    value, _ = catalog_seshadri("x6", n=3)
    assert value == 2


# 8. The anticanonical volume bound: flagship value M(2,1) = 100 confirmed by
#    the grid oracle at resolution 1/256, and the 8^n n^(2n) / eps^n growth
#    window across small dimensions.


def test_volume_bound_flagship_and_growth_window():
    with budget(30.0):
        assert best_volume_bound(2, Fraction(1))["M"] == 100
        assert best_volume_bound(2, Fraction(1))["oracle_checked"]
        for n in range(1, 6):
            for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                bound = best_volume_bound(n, eps)["M"]
                assert bound <= Fraction(8**n * n ** (2 * n)) / eps**n


# 9. The reproduction table runs clean end to end, and its stated cases cover
#    exactly the frozen manifest below (id, module, operation, expected).

# Ids whose expected values are pinned as published.
STATED_CASE_IDS = tuple(c.id for c in CASES if c.provenance == "stated")


STATED_MANIFEST = {
    "ex1.3-wps-seshadri": ("wps", "wps_seshadri", Fraction(4)),
    "ex1.3-wps-seshadri-n2d2": ("wps", "wps_seshadri", Fraction(2)),
    "ex1.3-wps-volume-n2d2": ("wps", "wps_anticanonical_volume", Fraction(8)),
    "ex7.1-whs-bound-n3k2l3d5": ("wps", "whs_seshadri_bound", (Fraction(5, 2), True)),
    "ex7.1-whs-volume-n3k2l3d5": ("wps", "whs_volume", Fraction(45, 2)),
    "ex7.2-catalog-x6-n3": ("wps", "catalog_seshadri", Fraction(2)),
    "ex7.4-catalog-ruled-g2d10": ("surfaces", "ruled_surface_model", Fraction(4, 5)),
    "ex7.4-ruled-model-g2d10": ("surfaces", "ruled_surface_model", Fraction(4, 5)),
    "ex7.4-seshadri-marked-g2d10": (
        "surfaces",
        "seshadri_at_marked_point",
        (Fraction(4, 5), True),
    ),
    "ex7.4-zariski-g2d10": (
        "surfaces",
        "zariski_decomposition",
        ((Fraction(4, 5), Fraction(8)), (Fraction(6, 5), Fraction(0))),
    ),
    "lem3.7-curve-bound-line": ("jets", "seshadri_upper_via_curve", (Fraction(3), True)),
    "lem6.3-discrepancy-1-4": ("valuations", "discrepancy", 4),
}


def test_reproduce_exits_zero(capsys):
    assert main(["reproduce"]) == 0
    capsys.readouterr()


def test_reproduction_report_passes_every_case():
    report = run_reproduction()
    assert report.ok
    assert report.cases_run == len(CASES) > 0
    assert report.passes == report.cases_run


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5])
def test_reproduce_seeds_a_generator_only_for_the_case_that_draws(monkeypatch, seed):
    from seshadri import jets, reproduce

    seeds, points = [], []

    class Counted(random.Random):
        def __init__(self, x=None):
            seeds.append(x)
            super().__init__(x)

    def recorded(rng, nvars):
        points.append(random_rational_point(rng, nvars))
        return points[-1]

    monkeypatch.setattr(reproduce.random, "Random", Counted)
    monkeypatch.setattr(jets, "random_rational_point", recorded)
    assert run_reproduction("ex7", seed).cases_run > 0
    assert seeds == []
    report = run_reproduction(seed=seed)
    assert report.ok
    case_id = "thm1.6-jets-blowup-n2"
    assert seeds == [f"{seed}:{case_id}"]
    monkeypatch.undo()

    point = random_rational_point(random.Random(f"{seed}:{case_id}"), 2)
    assert points == [point]
    series = blowup_anticanonical_series(2, (Fraction(0), Fraction(0)))
    estimate = moving_seshadri_lower(series, point, 2, blowup_line_bound(2))
    (result,) = [r for r in report.results if r.id == case_id]
    assert result.actual == (estimate["lower"], estimate["certified"])


def test_stated_cases_cover_the_frozen_manifest_exactly():
    assert set(STATED_CASE_IDS) == set(STATED_MANIFEST)
    by_id = {case.id: case for case in CASES}
    for case_id, (module, operation, expected) in STATED_MANIFEST.items():
        case = by_id[case_id]
        assert case.provenance == "stated"
        assert (case.module, case.operation) == (module, operation)
        assert case.expected == expected
        assert case.citation


def test_stated_manifest_values_recompute_from_first_principles():
    assert wps_seshadri((1, 1, 1, 1)) == 4
    assert wps_seshadri((1, 1, 2)) == 2
    assert wps_anticanonical_volume((1, 1, 2)) == 8
    assert ruled_surface_model(2, 10)["epsilon_m"] == Fraction(4, 5)
    assert discrepancy(MonomialValuation((1, 4))) == 4
