"""Frozen reproduction cases: every stated example value re-derived by the
toolkit, plus derived anchors, each with an exact expected value.

Case ids are stable strings; provenance is "stated" for values pinned as
published (see each case's citation), "derived" for values obtained by
evaluating the closed forms, "trivial" for definitional sanity checks.  A
report passes iff every executed case reproduces its expected value exactly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Tuple

from . import DEFAULT_SEED, bounds, jets, surfaces, valuations, wps
from .exactmath.polynomials import WPolynomial


@dataclass(frozen=True)
class ReproductionCase:
    id: str
    module: str
    operation: str
    inputs: dict
    expected: object
    provenance: str  # "stated" | "derived" | "trivial"
    citation: str
    # Called with the case's seed text, f"{seed}:{id}"; a case that draws
    # random points seeds its own random.Random with it.
    run: Callable[[str], object]

    def __post_init__(self):
        if self.provenance not in ("stated", "derived", "trivial"):
            raise ValueError(f"bad provenance {self.provenance!r} on case {self.id}")


@dataclass(frozen=True)
class CaseResult:
    id: str
    passed: bool
    expected: object
    actual: object


@dataclass(frozen=True)
class Report:
    cases_run: int
    passes: int
    failures: Tuple[CaseResult, ...]
    results: Tuple[CaseResult, ...]
    wall_time_seconds: float = field(compare=False, default=0.0)

    @property
    def ok(self) -> bool:
        return not self.failures


def _ruled_g2d10_positive_part() -> surfaces.DivisorClass:
    return surfaces.DivisorClass((Fraction(4, 5), Fraction(8)))


def _zariski_g2d10(_seed) -> tuple:
    lat = surfaces.ruled_surface_lattice(10)
    dec = surfaces.zariski_decomposition(
        lat, surfaces.DivisorClass((Fraction(2), Fraction(8)))
    )
    return dec.positive.coords, dec.negative.coords


def _seshadri_marked_g2d10(_seed) -> tuple:
    lat = surfaces.ruled_surface_lattice(10)
    res = surfaces.seshadri_at_marked_point(lat, _ruled_g2d10_positive_part())
    return res.value, res.certified


def _jets_blowup_n2(seed: str) -> tuple:
    series = jets.blowup_anticanonical_series(2, (Fraction(0), Fraction(0)))
    point = jets.random_rational_point(random.Random(seed), 2)
    estimate = jets.moving_seshadri_lower(series, point, 2, jets.blowup_line_bound(2))
    return estimate["lower"], estimate["certified"]


def _galois_m2k3(_seed) -> tuple:
    res = valuations.galois_min_mult(2, 3)
    return res["min_mult"], res["bound"], res["witness"].coeffs


_SQUARED_NORM_FORM = WPolynomial(
    {(0, 4): Fraction(1), (2, 2): Fraction(-4), (4, 0): Fraction(4)}, 2
)


def _case_table() -> tuple[ReproductionCase, ...]:
    cases = [
        ReproductionCase(
            id="ex1.3-wps-seshadri",
            module="wps",
            operation="wps_seshadri",
            inputs={"weights": (1, 1, 1, 1)},
            expected=Fraction(4),
            provenance="stated",
            citation="anticanonical Seshadri constant of P^3 at a point is n+1 = 4",
            run=lambda _seed: wps.wps_seshadri((1, 1, 1, 1)),
        ),
        ReproductionCase(
            id="ex1.3-wps-seshadri-n2d2",
            module="wps",
            operation="wps_seshadri",
            inputs={"weights": (1, 1, 2)},
            expected=Fraction(2),
            provenance="stated",
            citation="P(1,1,d) family at n=2, d=2: eps(-K) = n-1+2/d = 2",
            run=lambda _seed: wps.wps_seshadri((1, 1, 2)),
        ),
        ReproductionCase(
            id="ex1.3-wps-volume-n2d2",
            module="wps",
            operation="wps_anticanonical_volume",
            inputs={"weights": (1, 1, 2)},
            expected=Fraction(8),
            provenance="stated",
            citation="P(1,1,d) family at n=2, d=2: vol(-K) = (2+(n-1)d)^n/d^(n-1) = 8",
            run=lambda _seed: wps.wps_anticanonical_volume((1, 1, 2)),
        ),
        ReproductionCase(
            id="ex1.3-wps-family-n3d4",
            module="wps",
            operation="wps_seshadri",
            inputs={"weights": (1, 1, 4, 4)},
            expected=Fraction(5, 2),
            provenance="derived",
            citation="P(1,1,d,d) family at n=3, d=4: eps(-K) = n-1+2/d = 5/2",
            run=lambda _seed: wps.wps_seshadri((1, 1, 4, 4)),
        ),
        ReproductionCase(
            id="ex7.1-whs-bound-n3k2l3d5",
            module="wps",
            operation="whs_seshadri_bound",
            inputs={"n": 3, "k": 2, "l": 3, "d": 5},
            expected=(Fraction(5, 2), True),
            provenance="stated",
            citation="degree-5 hypersurface in P(1,1,1,2,3): bound (n-r)m/(kl) = 5/2, "
            "an equality since d <= kl",
            run=lambda _seed: wps.whs_seshadri_bound(3, 2, 3, 5),
        ),
        ReproductionCase(
            id="ex7.1-whs-volume-n3k2l3d5",
            module="wps",
            operation="whs_volume",
            inputs={"n": 3, "k": 2, "l": 3, "d": 5},
            expected=Fraction(45, 2),
            provenance="stated",
            citation="degree-5 hypersurface in P(1,1,1,2,3): vol(-K) = (n-r)^n d/(kl) = 45/2",
            run=lambda _seed: wps.whs_volume(3, 2, 3, 5),
        ),
        ReproductionCase(
            id="ex7.2-catalog-x6-n3",
            module="wps",
            operation="catalog_seshadri",
            inputs={"name": "X6", "n": 3},
            expected=Fraction(2),
            provenance="stated",
            citation="sextic in P(1^(n-1),2,2,3) at n=3: eps(-K) = 2n/3 = 2",
            run=lambda _seed: wps.catalog_seshadri("X6", n=3)[0],
        ),
        ReproductionCase(
            id="ex7.4-catalog-ruled-g2d10",
            module="surfaces",
            operation="ruled_surface_model",
            inputs={"g": 2, "d": 10},
            expected=Fraction(4, 5),
            provenance="stated",
            citation="ruled surface over a genus-2 curve, deg D = 10: "
            "eps_m(-K) = 1-(2g-2)/d = 4/5",
            run=lambda _seed: surfaces.ruled_surface_model(2, 10)["epsilon_m"],
        ),
        ReproductionCase(
            id="lem3.7-curve-bound-line",
            module="jets",
            operation="seshadri_upper_via_curve",
            inputs={"pairing": 3, "mult": 1, "meets_base_locus": True},
            expected=(Fraction(3), True),
            provenance="stated",
            citation="line through the base point of a plane-cubic system: "
            "s(W,x) <= (L.C)/mult = 3, strict",
            run=lambda _seed: (
                lambda cb: (cb.bound, cb.strict)
            )(jets.seshadri_upper_via_curve(3, 1, True)),
        ),
        ReproductionCase(
            id="lem6.3-discrepancy-1-4",
            module="valuations",
            operation="discrepancy",
            inputs={"weights": (1, 4)},
            expected=4,
            provenance="stated",
            citation="monomial valuation nu(s)=1, nu(t)=m has discrepancy "
            "Nb+N-1 = m at N=1, b=m (instance m=4)",
            run=lambda _seed: valuations.discrepancy(valuations.MonomialValuation((1, 4))),
        ),
        ReproductionCase(
            id="ex7.4-zariski-g2d10",
            module="surfaces",
            operation="zariski_decomposition",
            inputs={"g": 2, "d": 10, "D": "-K = 2E+8F"},
            expected=(
                (Fraction(4, 5), Fraction(8)),
                (Fraction(6, 5), Fraction(0)),
            ),
            provenance="stated",
            citation="-K = (1+(2g-2)/d)E + (1-(2g-2)/d)(E+dF) at (g,d)=(2,10): "
            "P = (4/5)(E+10F), N = (6/5)E",
            run=_zariski_g2d10,
        ),
        ReproductionCase(
            id="ex7.4-seshadri-marked-g2d10",
            module="surfaces",
            operation="seshadri_at_marked_point",
            inputs={"g": 2, "d": 10, "L": "P = (4/5)(E+10F)"},
            expected=(Fraction(4, 5), True),
            provenance="stated",
            citation="eps_m(-K) = 4/5 at (g,d)=(2,10), certified by the fiber "
            "through the marked point and the square cap",
            run=_seshadri_marked_g2d10,
        ),
        ReproductionCase(
            id="ex7.4-ruled-model-g2d10",
            module="surfaces",
            operation="ruled_surface_model",
            inputs={"g": 2, "d": 10},
            expected=Fraction(4, 5),
            provenance="stated",
            citation="closed form of the decomposition and of the Seshadri constant "
            "of its positive part on the (g,d)=(2,10) ruled surface",
            run=lambda _seed: surfaces.ruled_surface_model(2, 10)["epsilon_m"],
        ),
        ReproductionCase(
            id="lem6.2-minmult-112-k2",
            module="valuations",
            operation="ideal_min_multiplicity",
            inputs={"weights": (1, 1, 2), "k": 2},
            expected=(3, Fraction(3, 2)),
            provenance="derived",
            citation="valuation ideal of the (1,1,2) monomial valuation at level 2: "
            "lambda = 3/2 = 1+1/m at m=2",
            run=lambda _seed: valuations.ideal_min_multiplicity(valuations.MonomialValuation((1, 1, 2)), 2),
        ),
        ReproductionCase(
            id="lem6.3-minmult-23-k3",
            module="valuations",
            operation="ideal_min_multiplicity",
            inputs={"weights": (2, 3), "k": 3},
            expected=(4, Fraction(4, 3)),
            provenance="derived",
            citation="valuation ideal of the (2,3) monomial valuation at level 3: "
            "lambda = 4/3 = 1+(1-1/N)/b at N=2, b=3/2",
            run=lambda _seed: valuations.ideal_min_multiplicity(valuations.MonomialValuation((2, 3)), 3),
        ),
        ReproductionCase(
            id="lem6.4-twist-eval",
            module="valuations",
            operation="valuation_eval",
            inputs={"weights": (1, 2), "twist_e": 1, "f": "t^2-2*s^2"},
            expected=3,
            provenance="derived",
            citation="(1,2) valuation twisted by y = t-sqrt(2)s: "
            "nu(t^2-2s^2) = nu(y^2+2*sqrt(2)*s*y) = 3",
            run=lambda _seed: valuations.valuation_eval(
                valuations.MonomialValuation((1, 2), valuations.Twist(1)),
                WPolynomial({(0, 2): Fraction(1), (2, 0): Fraction(-2)}, 2),
            ),
        ),
        ReproductionCase(
            id="lem6.4-galois-m2k1",
            module="valuations",
            operation="galois_min_mult",
            inputs={"m": 2, "k": 1},
            expected=(2, Fraction(4, 3)),
            provenance="derived",
            citation="no rational member of (s^2, t-sqrt(2)s) has multiplicity "
            "below 2 >= 4/3",
            run=lambda _seed: (
                lambda res: (res["min_mult"], res["bound"])
            )(valuations.galois_min_mult(2, 1)),
        ),
        ReproductionCase(
            id="lem6.4-galois-m2k3",
            module="valuations",
            operation="galois_min_mult",
            inputs={"m": 2, "k": 3},
            expected=(4, Fraction(4), _SQUARED_NORM_FORM.coeffs),
            provenance="derived",
            citation="rational members of (s^2, t-sqrt(2)s)^3 have multiplicity "
            ">= 4 = (4/3)*3, attained by (t^2-2s^2)^2",
            run=_galois_m2k3,
        ),
        ReproductionCase(
            id="thm4.1-bound-n2eps1",
            module="bounds",
            operation="closed_form_volume_bound",
            inputs={"n": 2, "eps": Fraction(1)},
            expected=Fraction(100),
            provenance="derived",
            citation="closed-form infimum ((n+1-eps/2)/s)^n = ((2+1/2)/(1/4))^2 = 100",
            run=lambda _seed: bounds.closed_form_volume_bound(2, Fraction(1)),
        ),
        ReproductionCase(
            id="thm4.1-bound-n1eps1",
            module="bounds",
            operation="closed_form_volume_bound",
            inputs={"n": 1, "eps": Fraction(1)},
            expected=Fraction(3),
            provenance="derived",
            citation="closed-form infimum ((1+1/2)/(1/2))^1 = 3",
            run=lambda _seed: bounds.closed_form_volume_bound(1, Fraction(1)),
        ),
        ReproductionCase(
            id="thm1.6-jets-blowup-n2",
            module="jets",
            operation="moving_seshadri_lower",
            inputs={"n": 2, "series": "degree 3m with mult >= m at the origin", "m_max": 2},
            expected=(Fraction(2), True),
            provenance="derived",
            citation="anticanonical series of the blowup of P^2 at a point: "
            "s(W_m, x) = 2m, certified by the line through the blown-up point",
            run=_jets_blowup_n2,
        ),
    ]
    ids = [c.id for c in cases]
    if len(set(ids)) != len(ids):
        raise RuntimeError("duplicate reproduction case ids")
    return tuple(sorted(cases, key=lambda c: c.id))


CASES: tuple[ReproductionCase, ...] = _case_table()


def run_reproduction(filter_prefix: Optional[str] = None, seed: int = DEFAULT_SEED) -> Report:
    """Execute all (or id-prefix filtered) cases, each given its own seed
    text f"{seed}:{case id}"; only a case that draws builds a generator from
    it.  Results are assembled in case-id order, so equal seeds give equal
    reports."""
    start = time.perf_counter()
    results = []
    for case in CASES:
        if filter_prefix is not None and not case.id.startswith(filter_prefix):
            continue
        try:
            actual = case.run(f"{seed}:{case.id}")
        except Exception as exc:  # a crashing case is a failure, not an abort
            actual = f"error: {exc}"
        results.append(CaseResult(case.id, actual == case.expected, case.expected, actual))
    elapsed = time.perf_counter() - start
    failures = tuple(r for r in results if not r.passed)
    return Report(
        cases_run=len(results),
        passes=sum(r.passed for r in results),
        failures=failures,
        results=tuple(results),
        wall_time_seconds=elapsed,
    )
