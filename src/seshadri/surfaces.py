"""Exact intersection theory on surfaces given by a divisor-class lattice:
Zariski decomposition by iterative support enlargement, Seshadri constants at
a marked point against declared through-curves, and the ruled-surface model
P(O + O(-D)) over a genus-g curve in closed form.

Negative curves are declared, never discovered: the declared list is asserted
by the caller to contain every relevant negative class, and that assumption is
echoed in the outputs.

Intersection numbers are taken on integers, from construction to report.  A
lattice is its generators, its declared curves and two integer matrices over
one positive denominator each: the Gram rows and the curves' coordinate rows.
`SurfaceLattice(generators, gram, curves)` is its one constructor: it forms
both matrices once, checks them on those rows and keeps no Fraction copy of
either.  A class keeps its coordinates twice: as Fractions, which are
reported, and as integer numerators over one positive denominator, which the
arithmetic reads.  So a pairing is integer dots and one Fraction, and
`SurfaceLattice.curve_pairings` gives a class's pairings with every declared
curve from G*d and one integer dot per curve.  The Zariski step takes the
solve's integer numerators over det(-G) and forms N and P as integer rows
over one denominator.  The signs that steer the support scan, the nef test
and the P^2 check are read off integer numerators; only reported values
become Fractions.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import List, Tuple

from .exactmath.linalg import negative_definite_solve
from .exactmath.scalars import as_fractions


def _integral_rows(rows) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """(numerator rows, den) for rows of ints and Fractions: rows[i][j] =
    numerator_rows[i][j] / den, with den the lcm of all their denominators."""
    den = lcm(*[x.denominator for row in rows for x in row])
    if den == 1:
        return tuple([tuple([x.numerator for x in row]) for row in rows]), 1
    return tuple([tuple([x.numerator * (den // x.denominator) for x in row]) for row in rows]), den


def _rationals(row) -> list:
    """row with each entry that is neither an int nor a Fraction read as
    Fraction(x)."""
    return [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in row]


def _check_rows(n: int, gram_rows, curves, curve_rows) -> None:
    """The checks of every lattice, on its integer rows: ValueError unless
    each curve has mult >= 1, the Gram rows form a symmetric n x n matrix,
    and each curve's row has n entries and a name no earlier curve has."""
    for c in curves:
        if c.mult < 1:
            raise ValueError(f"curve {c.name!r} needs multiplicity >= 1")
    if len({len(row) for row in gram_rows}) > 1:
        raise ValueError("ragged matrix")
    if len(gram_rows) != n or (gram_rows and len(gram_rows[0]) != n):
        raise ValueError("gram matrix size must match the generator count")
    if tuple(zip(*gram_rows)) != gram_rows:
        raise ValueError("gram matrix must be symmetric")
    names = set()
    for c, row in zip(curves, curve_rows):
        if len(row) != n:
            raise ValueError(f"curve {c.name!r} has wrong coordinate length")
        if c.name in names:
            raise ValueError(f"duplicate curve name {c.name!r}")
        names.add(c.name)


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


@dataclass(frozen=True)
class DivisorClass:
    """Rational coordinate vector against the lattice's generator basis.
    `integral` holds the same vector as (numerators, den) with den > 0."""

    coords: Tuple[Fraction, ...]
    integral: Tuple[Tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coords = as_fractions(self.coords)
        (numerators,), den = _integral_rows((coords,))
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "integral", (numerators, den))

    @classmethod
    def _of_integers(cls, numerators: Tuple[int, ...], den: int) -> "DivisorClass":
        """The class numerators / den, den > 0; its Fractions are built here,
        once, and its integer form is kept as given.  Being trusted, it fills
        the frozen fields directly."""
        self = object.__new__(cls)
        coords = map(Fraction, numerators) if den == 1 else [Fraction(x, den) for x in numerators]
        self.__dict__.update(coords=tuple(coords), integral=(numerators, den))
        return self


@dataclass(frozen=True)
class CurveClass:
    """Declared irreducible curve: coordinates, as given, whether it passes
    through the marked point, and its multiplicity there, which the lattice
    checks is >= 1."""

    name: str
    coords: Tuple[Fraction, ...]
    through_marked_point: bool = False
    mult: int = 1


@dataclass(frozen=True)
class SurfaceLattice:
    """Named divisor-class basis, a symmetric intersection matrix and a
    declared curve list (asserted complete for negativity purposes).

    The Gram matrix `gram` is kept only as `_gram_rows`, (integer rows, den)
    with den the lcm of its entries' denominators, and the i-th declared
    curve's coordinates only as row i of `_curve_rows`, over the lcm of the
    curves' own denominators.  An int or a Fraction entry is taken as it is,
    and any other is read as Fraction(x).  Both are formed once, here, and
    `_check_rows` checks them.  Two lattices are equal when their
    generators, curves and Gram matrices are."""

    generators: Tuple[str, ...]
    gram: InitVar[Tuple[Tuple[Fraction, ...], ...]]
    curves: Tuple[CurveClass, ...]
    _gram_rows: Tuple[Tuple[Tuple[int, ...], ...], int] = field(init=False)
    _curve_rows: Tuple[Tuple[Tuple[int, ...], ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self, gram):
        gram_rows = _integral_rows(list(map(_rationals, gram)))
        curve_rows = _integral_rows([_rationals(c.coords) for c in self.curves])
        _check_rows(len(self.generators), gram_rows[0], self.curves, curve_rows[0])
        object.__setattr__(self, "_gram_rows", gram_rows)
        object.__setattr__(self, "_curve_rows", curve_rows)

    def _gram_times(self, d: DivisorClass) -> Tuple[List[int], int]:
        """(numerators, den) of G*d."""
        nums, dden = d.integral
        rows, gden = self._gram_rows
        return [_dot(row, nums) for row in rows], gden * dden

    def pairing(self, a: DivisorClass, b: DivisorClass) -> Fraction:
        gb, den = self._gram_times(b)
        nums, aden = a.integral
        return Fraction(_dot(nums, gb), aden * den)

    def curve_pairings(self, d: DivisorClass) -> Tuple[List[int], int]:
        """(numerators, den): d.C = numerators[i] / den for the i-th declared
        curve C, with den > 0: one integer dot of G*d per curve."""
        gd, den = self._gram_times(d)
        rows, cden = self._curve_rows
        return [_dot(row, gd) for row in rows], den * cden

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


def zariski_decomposition(lat: SurfaceLattice, d: DivisorClass) -> ZariskiDecomposition:
    """Iterative support enlargement: start from the curves D meets negatively,
    solve for the effective part orthogonalizing them, and grow the support
    until the remainder is nef against every declared curve.  A nef class on a
    surface has P^2 >= 0, so P^2 < 0 means the declared lattice is impossible
    and raises ValueError."""
    dec = _enlarge_support(lat, d)
    p = dec.positive
    gp, _ = lat._gram_times(p)
    if _dot(p.integral[0], gp) < 0:
        raise ValueError(
            f"the positive part has P^2 = {lat.self_intersection(p)} < 0, but a nef "
            "class has P^2 >= 0; the declared lattice is inconsistent"
        )
    return dec


def _enlarge_support(lat: SurfaceLattice, d: DivisorClass) -> ZariskiDecomposition:
    if len(d.coords) != len(lat.generators):
        raise ValueError("divisor coordinate length mismatch")
    d_dots, _ = lat.curve_pairings(d)
    rows, _ = lat._gram_rows
    curve_rows, cden = lat._curve_rows
    d_nums, dden = d.integral
    support = [i for i, x in enumerate(d_dots) if x < 0]
    for _ in range(len(lat.curves) + 1):
        if not support:
            return ZariskiDecomposition(d, DivisorClass._of_integers((0,) * len(d_nums), 1), (), ())
        # With G = rows / gden, the curves K / cden and D = d_nums / dden, the
        # support Gram is K rows K^T / (gden cden^2) and D.C = d_dots /
        # (gden cden dden).  So y solving (K rows K^T) y = d_dots gives the
        # coefficients y cden / dden; a positive scale changes no sign of a
        # leading minor.
        k = [curve_rows[i] for i in support]
        gk = [[_dot(row, b) for row in rows] for b in k]
        y = negative_definite_solve([[_dot(a, b) for b in gk] for a in k], [d_dots[i] for i in support])
        if y is None:
            names = ", ".join(lat.curves[i].name for i in support)
            raise ValueError(
                f"gram matrix on candidate support {{{names}}} is not negative "
                "definite; the declared curve set is inconsistent"
            )
        # y = a / q with q > 0, so N = (sum a_i K_i) / (q dden) and
        # P = D - N = (q d_nums - sum a_i K_i) / (q dden).
        a, q = y
        bad = [lat.curves[i].name for i, x in zip(support, a) if x < 0]
        if bad:
            raise ValueError(
                f"negative coefficient on {', '.join(bad)}: the divisor is not "
                "pseudo-effective relative to the declared curves"
            )
        n_nums = tuple([_dot(a, column) for column in zip(*k)])
        den = q * dden
        positive = DivisorClass._of_integers(tuple([q * x - n for x, n in zip(d_nums, n_nums)]), den)
        p_dots, _ = lat.curve_pairings(positive)
        extra = [i for i, x in enumerate(p_dots) if x < 0 and i not in support]
        if not extra:
            # P is nef, P.C = 0 on the support and P.N = 0 by construction:
            # `extra` is empty, so P meets no declared curve negatively; the
            # coefficients solve gram * x = (D.C_i), so P.C_i = D.C_i - N.C_i
            # = 0 for every support curve; and N is a combination of those
            # curves, so P.N = 0.  The tests check all three on every
            # decomposition they build.
            return ZariskiDecomposition(
                positive,
                DivisorClass._of_integers(n_nums, den),
                tuple([lat.curves[i].name for i in support]),
                tuple([Fraction(x * cden, den) for x in a]),
            )
        support.extend(extra)
    raise RuntimeError("support enlargement failed to terminate")  # unreachable


@dataclass(frozen=True)
class SeshadriAtPoint:
    """min over declared through-curves of (L.C)/mult, certified when it
    passes the cap value^2 <= L^2."""

    value: Fraction
    certified: bool
    self_intersection: Fraction


def seshadri_at_marked_point(lat: SurfaceLattice, ell: DivisorClass) -> SeshadriAtPoint:
    """Seshadri constant of a nef class at the marked point, computed against
    the declared curves through it; certified when the value passes the
    sqrt(L^2) cap (compared via squares, exactly)."""
    dots, den = lat.curve_pairings(ell)
    for c, x in zip(lat.curves, dots):
        if x < 0:
            raise ValueError(f"class is not nef: negative against declared curve {c.name}")
    through = [(x, c.mult) for c, x in zip(lat.curves, dots) if c.through_marked_point]
    if not through:
        raise ValueError("no declared curve passes through the marked point")
    # The least dots[i] / mult, compared over the lcm of the multiplicities.
    scale = lcm(*[m for _, m in through])
    x, m = min(through, key=lambda pair: pair[0] * (scale // pair[1]))
    value = Fraction(x, den * m)
    ell2 = lat.self_intersection(ell)
    return SeshadriAtPoint(value, value**2 <= ell2, ell2)


def ruled_surface_lattice(d: int) -> SurfaceLattice:
    """Lattice of P(O + O(-D)): negative section E (E^2 = -d, missing a very
    general point) and fiber F (F^2 = 0, through it with multiplicity 1)."""
    return SurfaceLattice(
        ("E", "F"),
        ((-d, 1), (1, 0)),
        (CurveClass("E", (1, 0)), CurveClass("F", (0, 1), True)),
    )


def ruled_surface_model(g: int, d: int) -> dict:
    """The `ruled` record of P(O + O(-D)) over a genus-g curve, deg D = d:
    -K = 2E + bF, b = d + 2 - 2g, its Zariski decomposition P + N, the moving
    Seshadri constant epsilon_m of -K at a very general point, taken as that
    of P, and the volume P^2, in closed form; no lattice is built.  On
    ruled_surface_lattice(d), -K.E = 2 - 2g - d = -a with a = d - 2 + 2g >= 0
    on the admissible range, so N = (a/d) E and P = -K - N = (b/d) E + bF
    meets E in 0 and F in b/d.  F is the one curve through the point, so
    eps = b/d = 1 - (2g-2)/d, certified since eps^2 = b^2/d^2 <= b^2/d = P^2.
    The tests hold every field to zariski_decomposition and
    seshadri_at_marked_point on that lattice."""
    if g < 0 or d < 1:
        raise ValueError("need genus g >= 0 and degree d >= 1")
    if d <= 2 * g - 2:
        raise ValueError(f"need d > 2g - 2 for a big anticanonical class, got d={d}")
    if g == 0 and d < 2:
        raise ValueError(
            "g=0 needs d >= 2: on P(O + O(-1)) the positive part is -K itself and "
            "its Seshadri constant 2 is not computed by the 1-(2g-2)/d formula"
        )
    b = d + 2 - 2 * g
    a = 2 * d - b
    eps, fiber = Fraction(b, d), Fraction(b)
    return {
        "g": g,
        "d": d,
        "minus_K": [Fraction(2), fiber],
        "P": [eps, fiber],
        "N": [Fraction(a, d), Fraction(0)],
        "epsilon_m": eps,
        "certified": True,
        "volume": Fraction(b * b, d),
    }
