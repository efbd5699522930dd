"""Exact intersection theory on surfaces given by a divisor-class lattice:
Zariski decomposition by iterative support enlargement, Seshadri constants at
a marked point against declared through-curves, and the ruled-surface model
P(O + O(-D)) over a genus-g curve.

Negative curves are declared, never discovered: the declared list is asserted
by the caller to contain every relevant negative class, and that assumption is
echoed in the outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .exactmath import ExactMatrix, is_negative_definite, solve_unique


@dataclass(frozen=True)
class DivisorClass:
    """Rational coordinate vector against the lattice's generator basis."""

    coords: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scaled(self, factor) -> "DivisorClass":
        f = Fraction(factor)
        return DivisorClass(tuple(f * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@dataclass(frozen=True)
class CurveClass:
    """Declared irreducible curve: coordinates, whether it passes through the
    marked point, and its multiplicity there."""

    name: str
    coords: Tuple[Fraction, ...]
    through_marked_point: bool = False
    mult: int = 1

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))
        if self.mult < 1:
            raise ValueError(f"curve {self.name!r} needs multiplicity >= 1")

    @property
    def divisor(self) -> DivisorClass:
        return DivisorClass(self.coords)


@dataclass(frozen=True)
class SurfaceLattice:
    """Named divisor-class basis with a symmetric intersection matrix and a
    declared curve list (asserted complete for negativity purposes)."""

    generators: Tuple[str, ...]
    gram: ExactMatrix
    curves: Tuple[CurveClass, ...]

    def __post_init__(self):
        n = len(self.generators)
        if self.gram.rows != n or self.gram.cols != n:
            raise ValueError("gram matrix size must match the generator count")
        for i in range(n):
            for j in range(n):
                if self.gram.entries[i][j] != self.gram.entries[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        names = set()
        for c in self.curves:
            if len(c.coords) != n:
                raise ValueError(f"curve {c.name!r} has wrong coordinate length")
            if c.name in names:
                raise ValueError(f"duplicate curve name {c.name!r}")
            names.add(c.name)

    def pairing(self, a: DivisorClass, b: DivisorClass) -> Fraction:
        total = Fraction(0)
        for i, x in enumerate(a.coords):
            if not x:
                continue
            for j, y in enumerate(b.coords):
                if y:
                    total += x * y * self.gram.entries[i][j]
        return total

    def self_intersection(self, d: DivisorClass) -> Fraction:
        return self.pairing(d, d)


@dataclass(frozen=True)
class ZariskiDecomposition:
    """D = P + N with P nef against the declared curves, N effective with
    negative-definite support, and P.N = 0."""

    positive: DivisorClass
    negative: DivisorClass
    support: Tuple[str, ...]
    coefficients: Tuple[Fraction, ...]
    assumed_complete_curve_list: bool = True


def zariski_decomposition(lat: SurfaceLattice, d: DivisorClass) -> ZariskiDecomposition:
    """Iterative support enlargement: start from the curves D meets negatively,
    solve for the effective part orthogonalizing them, and grow the support
    until the remainder is nef against every declared curve.  A nef class on a
    surface has P^2 >= 0, so P^2 < 0 means the declared lattice is impossible
    and raises ValueError."""
    dec = _enlarge_support(lat, d)
    p2 = lat.self_intersection(dec.positive)
    if p2 < 0:
        raise ValueError(
            f"the positive part has P^2 = {p2} < 0, but a nef class has P^2 >= 0; "
            "the declared lattice is inconsistent"
        )
    return dec


def _enlarge_support(lat: SurfaceLattice, d: DivisorClass) -> ZariskiDecomposition:
    if len(d.coords) != len(lat.generators):
        raise ValueError("divisor coordinate length mismatch")
    support = [i for i, c in enumerate(lat.curves) if lat.pairing(d, c.divisor) < 0]
    for _ in range(len(lat.curves) + 1):
        if not support:
            zero = DivisorClass((Fraction(0),) * len(lat.generators))
            return ZariskiDecomposition(d, zero, (), ())
        curves = [lat.curves[i] for i in support]
        gram = ExactMatrix.from_rows(
            [[lat.pairing(a.divisor, b.divisor) for b in curves] for a in curves]
        )
        if not is_negative_definite(gram):
            names = ", ".join(c.name for c in curves)
            raise ValueError(
                f"gram matrix on candidate support {{{names}}} is not negative "
                "definite; the declared curve set is inconsistent"
            )
        rhs = [lat.pairing(d, c.divisor) for c in curves]
        coeffs = solve_unique(gram, rhs)
        bad = [c.name for c, x in zip(curves, coeffs) if x < 0]
        if bad:
            raise ValueError(
                f"negative coefficient on {', '.join(bad)}: the divisor is not "
                "pseudo-effective relative to the declared curves"
            )
        negative = DivisorClass((Fraction(0),) * len(lat.generators))
        for c, x in zip(curves, coeffs):
            negative = negative + c.divisor.scaled(x)
        positive = d - negative
        extra = [
            i
            for i, c in enumerate(lat.curves)
            if i not in support and lat.pairing(positive, c.divisor) < 0
        ]
        if not extra:
            # P is nef, P.C = 0 on the support and P.N = 0 by construction:
            # `extra` is empty, so P meets no declared curve negatively; the
            # coefficients solve gram * x = (D.C_i), so P.C_i = D.C_i - N.C_i
            # = 0 for every support curve; and N is a combination of those
            # curves, so P.N = 0.  The tests check all three on every
            # decomposition they build.
            return ZariskiDecomposition(
                positive,
                negative,
                tuple(c.name for c in curves),
                tuple(coeffs),
            )
        support.extend(extra)
    raise RuntimeError("support enlargement failed to terminate")  # unreachable


@dataclass(frozen=True)
class SeshadriAtPoint:
    """min over declared through-curves of (L.C)/mult, with the square cap
    comparison value^2 <= L^2 reported exactly."""

    value: Fraction
    certified: bool
    value_squared: Fraction
    self_intersection: Fraction
    assumed_complete_curve_list: bool = True


def seshadri_at_marked_point(lat: SurfaceLattice, ell: DivisorClass) -> SeshadriAtPoint:
    """Seshadri constant of a nef class at the marked point, computed against
    the declared curves through it; certified when the value passes the
    sqrt(L^2) cap (compared via squares, exactly)."""
    for c in lat.curves:
        if lat.pairing(ell, c.divisor) < 0:
            raise ValueError(f"class is not nef: negative against declared curve {c.name}")
    through = [c for c in lat.curves if c.through_marked_point]
    if not through:
        raise ValueError("no declared curve passes through the marked point")
    value = min(lat.pairing(ell, c.divisor) / c.mult for c in through)
    ell2 = lat.self_intersection(ell)
    return SeshadriAtPoint(value, value * value <= ell2, value * value, ell2)


@dataclass(frozen=True)
class RuledSurfaceModel:
    """Full pipeline record for P(O + O(-D)) over a genus-g curve, deg D = d."""

    g: int
    d: int
    lattice: SurfaceLattice
    minus_k: DivisorClass
    decomposition: ZariskiDecomposition
    seshadri: SeshadriAtPoint

    @property
    def epsilon_m(self) -> Fraction:
        return self.seshadri.value


def ruled_surface_lattice(d: int) -> SurfaceLattice:
    """Lattice of P(O + O(-D)): negative section E (E^2 = -d, missing a very
    general point) and fiber F (F^2 = 0, through it with multiplicity 1)."""
    gram = ExactMatrix.from_rows([[-d, 1], [1, 0]])
    return SurfaceLattice(
        ("E", "F"),
        gram,
        (
            CurveClass("E", (Fraction(1), Fraction(0)), through_marked_point=False),
            CurveClass("F", (Fraction(0), Fraction(1)), through_marked_point=True),
        ),
    )


def ruled_surface_model(g: int, d: int) -> RuledSurfaceModel:
    """Build the ruled-surface lattice, decompose -K = 2E + (d+2-2g)F, and
    compute the moving Seshadri constant of -K at a very general point as the
    Seshadri constant of the positive part; equals 1 - (2g-2)/d throughout the
    admissible range."""
    if g < 0 or d < 1:
        raise ValueError("need genus g >= 0 and degree d >= 1")
    if d <= 2 * g - 2:
        raise ValueError(f"need d > 2g - 2 for a big anticanonical class, got d={d}")
    if g == 0 and d < 2:
        raise ValueError(
            "g=0 needs d >= 2: on P(O + O(-1)) the positive part is -K itself and "
            "its Seshadri constant 2 is not computed by the 1-(2g-2)/d formula"
        )
    lat = ruled_surface_lattice(d)
    minus_k = DivisorClass((Fraction(2), Fraction(d + 2 - 2 * g)))
    decomposition = zariski_decomposition(lat, minus_k)
    seshadri = seshadri_at_marked_point(lat, decomposition.positive)
    return RuledSurfaceModel(g, d, lat, minus_k, decomposition, seshadri)
