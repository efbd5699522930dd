"""Closed-form invariants of weighted projective spaces and weighted
hypersurfaces: Seshadri constants at the distinguished coordinate point,
anticanonical volumes, the two-weight hypersurface bound, and a small catalog
of known values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Tuple


@dataclass(frozen=True)
class WeightVector:
    """Weights (a0, a1, ..., an) of a weighted projective space.

    For the Seshadri/volume formulas the convention is a0 = 1 and
    a1 <= ... <= an (the distinguished point is [1:0:...:0]).
    """

    weights: Tuple[int, ...]

    def __post_init__(self):
        ws = tuple(int(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if not ws or any(w < 1 for w in ws):
            raise ValueError(f"weights must be a nonempty tuple of positive integers: {ws}")

    @property
    def n(self) -> int:
        return len(self.weights) - 1

    def require_seshadri_form(self):
        ws = self.weights
        if len(ws) < 2:
            raise ValueError("need at least one weight beyond the leading 1")
        if ws[0] != 1:
            raise ValueError(f"weight vector must be led by 1, got {ws}")
        if any(ws[i] > ws[i + 1] for i in range(1, len(ws) - 1)):
            raise ValueError(f"weights a1..an must be sorted ascending, got {ws}")


def wps_seshadri(w: WeightVector) -> Fraction:
    """Anticanonical Seshadri constant of P(1, a1, ..., an) at [1:0:...:0]:
    (1 + a1 + ... + an) / an."""
    w.require_seshadri_form()
    ws = w.weights
    return Fraction(sum(ws), ws[-1])


def wps_anticanonical_volume(w: WeightVector) -> Fraction:
    """Anticanonical self-intersection of P(1, a1, ..., an):
    (1 + a1 + ... + an)^n / (a1 * ... * an)."""
    w.require_seshadri_form()
    ws = w.weights
    n = w.n
    prod = 1
    for a in ws[1:]:
        prod *= a
    return Fraction(sum(ws) ** n, prod)


@dataclass(frozen=True)
class WeightedHypersurfaceSpec:
    """General degree-d hypersurface X_d in P(1^n, k, l) with l >= max(2, k)
    and n + k + l > d (so -K_X is ample of degree n - r, r = d - k - l)."""

    n: int
    k: int
    l: int
    d: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1 or self.l < 1 or self.d < 1:
            raise ValueError("n, k, l, d must be positive integers")
        if self.l < max(2, self.k):
            raise ValueError(f"need l >= max(2, k), got k={self.k}, l={self.l}")
        if self.d >= self.n + self.k + self.l:
            raise ValueError(
                f"need d < n + k + l for an ample anticanonical class, got d={self.d}"
            )

    @property
    def r(self) -> int:
        return self.d - self.k - self.l


def largest_representable(d: int, k: int, l: int) -> int:
    """Largest integer <= d of the form a*k + b*l with a, b >= 0.

    With b copies of the larger weight, the best value is d minus
    (d - b*big) mod small, and that residue repeats with period
    small / gcd(k, l) in b.  So b runs over at most one period, which is at
    most sqrt(d) + 1 values, as small <= big."""
    small, big = sorted((k, l))
    top = min(d // big, small // gcd(k, l) - 1)
    return d - min((d - b * big) % small for b in range(top + 1))


def whs_seshadri_bound(spec: WeightedHypersurfaceSpec) -> tuple[Fraction, bool]:
    """Upper bound (n - r) * m / (k * l) for the anticanonical Seshadri constant
    of X_d, with m the largest integer <= d representable by the weights k, l.
    The flag is True exactly when d <= k*l, the regime where the bound is an
    equality."""
    return _whs_bound(spec, largest_representable(spec.d, spec.k, spec.l))


def _whs_bound(spec: WeightedHypersurfaceSpec, m: int) -> tuple[Fraction, bool]:
    return Fraction((spec.n - spec.r) * m, spec.k * spec.l), spec.d <= spec.k * spec.l


def whs_volume(spec: WeightedHypersurfaceSpec) -> Fraction:
    """Anticanonical volume (n - r)^n * d / (k * l) of X_d."""
    return Fraction((spec.n - spec.r) ** spec.n * spec.d, spec.k * spec.l)


def whs_record(spec: WeightedHypersurfaceSpec) -> dict:
    """CLI-facing record for a weighted hypersurface."""
    m = largest_representable(spec.d, spec.k, spec.l)
    bound, equality = _whs_bound(spec, m)
    return {
        "n": spec.n,
        "k": spec.k,
        "l": spec.l,
        "d": spec.d,
        "r": spec.r,
        "m": m,
        "bound": bound,
        "equality": equality,
        "volume": whs_volume(spec),
    }


def catalog_seshadri(name: str, **params) -> tuple[Fraction, str]:
    """Known Seshadri-constant values that are stored rather than recomputed
    from first principles here.

    Keys:
      - "X6"    (parameter n >= 2): sextic in P(1^(n-1), 2, 2, 3); value 2n/3.
      - "ruled" (parameters g >= 0, d >= 1 with d > 2g-2): geometrically ruled
        surface P(O + O(-D)) over a genus-g curve with deg D = d; value
        1 - (2g-2)/d.
    """
    key = name.lower()
    if key == "x6":
        n = params.get("n")
        if not isinstance(n, int) or n < 2:
            raise ValueError("X6 catalog entry needs an integer parameter n >= 2")
        return Fraction(2 * n, 3), (
            "sextic hypersurface in P(1^(n-1),2,2,3): -K ~ nH and eps(H) = 2/3, "
            "via eps(-K_S) = 4/3 for its degree-2 Gorenstein del Pezzo surface "
            "section (Broustet, Theoreme 1.3)"
        )
    if key in ("ruled", "ruled_surface"):
        g, d = params.get("g"), params.get("d")
        if not isinstance(g, int) or not isinstance(d, int) or g < 0 or d < 1:
            raise ValueError("ruled catalog entry needs integers g >= 0, d >= 1")
        if d <= 2 * g - 2:
            raise ValueError("ruled catalog entry needs d > 2g - 2")
        return 1 - Fraction(2 * g - 2, d), (
            "moving Seshadri constant of -K on P(O + O(-D)) over a genus-g curve, "
            "deg D = d; independently recomputed by the surfaces module via "
            "Zariski decomposition"
        )
    raise KeyError(f"unknown catalog key {name!r} (expected 'X6' or 'ruled')")
