"""Exact-arithmetic toolkit for Seshadri constants and related invariants.

Everything here computes over the rationals (extended by sqrt(2) where a
Galois twist needs it) — no floating point.  The pieces:

- ``exactmath``: rationals plus sqrt(2), weighted polynomials, fraction-free
  linear algebra.
- ``wps``: Seshadri constants and anticanonical volumes of weighted projective
  spaces, and bounds for hypersurfaces inside them.
- ``jets``: jet-separation of constrained linear systems; lower bounds for
  moving Seshadri constants with curve-based upper bounds.
- ``valuations``: monomial and quadratic-twist valuations, log discrepancies,
  a sharp Izumi-type comparison, and minimal multiplicities in valuation
  ideals (for the twisted case, of rational members, read off the norm form).
- ``surfaces``: Zariski decompositions on declared curve lattices and
  Seshadri constants at a marked point; ruled-surface models.
- ``bounds``: the closed-form anticanonical volume bound M(n, eps) with a
  grid oracle.
- ``reproduce``: a frozen table of worked examples re-derived from scratch.
"""

from .bounds import (
    VolumeBoundParams,
    VolumeBoundResult,
    best_volume_bound,
    conjectured_optimal_comparison,
    grid_confirms_best,
    grid_volume_bound_minimum,
    volume_bound,
    volume_bound_predicate,
)
from .exactmath import (
    INFINITY,
    ExactMatrix,
    QuadExt,
    WPolynomial,
    format_polynomial,
    format_scalar,
    jet_basis_size,
    parse_polynomial,
    parse_scalar,
)
from .jets import (
    CurveBound,
    LinearSystem,
    MultConstraint,
    SeshadriEstimate,
    blowup_anticanonical_series,
    blowup_line_bound,
    jet_separation,
    moving_seshadri_lower,
    random_rational_point,
    seshadri_upper_via_curve,
)
from .reproduce import (
    CASES,
    DEFAULT_SEED,
    STATED_CASE_IDS,
    CaseResult,
    Report,
    ReproductionCase,
    run_reproduction,
)
from .surfaces import (
    CurveClass,
    DivisorClass,
    RuledSurfaceModel,
    SeshadriAtPoint,
    SurfaceLattice,
    ZariskiDecomposition,
    ruled_surface_lattice,
    ruled_surface_model,
    seshadri_at_marked_point,
    zariski_decomposition,
)
from .valuations import (
    GaloisMinMult,
    IzumiCheck,
    MonomialValuation,
    Twist,
    ValuationIdealQuery,
    galois_min_mult,
    ideal_min_multiplicity,
    izumi_check,
    twisted_ideal_contains,
    valuation_eval,
)
from .wps import (
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

__version__ = "0.1.0"
