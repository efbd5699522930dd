"""Jet-separation engine: exact s(W, x) for explicit linear systems, moving
Seshadri lower bounds over finitely many multiples, and curve-based upper
bounds.

A linear system lives in one fixed affine chart: polynomials of total degree
<= d in n variables, cut down by exact linear constraints.  "Very general
point" is realized by sampling random rational points of large height from an
explicitly passed RNG, so runs are reproducible given the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod
from typing import Callable, Optional, Sequence, Tuple, Union

from .exactmath import (
    Exponent,
    ExactMatrix,
    WPolynomial,
    exact_rank,
    graded_lex_monomials,
    jet_basis_size,
)
from .exactmath.linalg import integral_nullspace, integral_rows

Point = Tuple[Fraction, ...]


def as_point(coords: Sequence) -> Point:
    return tuple(Fraction(c) for c in coords)


def random_rational_point(rng: random.Random, nvars: int, height: int = 1000) -> Point:
    """Random point with numerators in [-height, height] and denominators in
    [1, height]; off any fixed proper closed subset with overwhelming
    probability."""
    return tuple(
        Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(nvars)
    )


@dataclass(frozen=True)
class MultConstraint:
    """Vanishing to order >= order at a point: all jets of order < order are 0."""

    point: Point
    order: int

    def __post_init__(self):
        object.__setattr__(self, "point", as_point(self.point))
        if self.order < 1:
            raise ValueError("multiplicity constraints need order >= 1")


@dataclass(frozen=True)
class SpanConstraint:
    """Membership in the span of an explicit list of polynomials."""

    basis: Tuple[WPolynomial, ...]


Constraint = Union[MultConstraint, SpanConstraint]


# -- the engine -------------------------------------------------------------------
#
# A system W is the kernel of its constraint matrix C, whose rows are linear
# forms on coefficient vectors over the monomials. Let J_s hold the Taylor
# jets of order <= s of the monomials themselves at x. The jets of the members
# of W then have rank
#
#     rank(J_s | W) = rank([C; J_s]) - rank(C).
#
# Move the origin to x: written in the monomials of u = y - x, J_s picks the
# first |J_s| coordinates, so rank([C; J_s]) = |J_s| + rank(C'[:, |J_s|:]),
# where C' is C in those monomials. W separates s-jets at x exactly when the
# column suffix C'[:, |J_s|:] keeps the rank of C.
#
# Every row of C' is scaled to integers, which leaves each rank unchanged, and
# C' is eliminated once modulo PRIME, taking its columns from the last one
# down. The rank of a suffix modulo PRIME is then its number of pivot columns,
# and it is at most the rank over Q. So when the modular rank equals rank(C),
# every order with |J_s| <= the lowest pivot column is proved. Each later
# order is decided by the exact rank of its suffix over Q. Usually that is one
# rank, at the order where separation truly stops. Reduction modulo PRIME can
# also lose rank that Q keeps: x congruent to a constraint point, C losing
# rank modulo PRIME, or a denominator divisible by PRIME (the scaled rows then
# degenerate). In those cases fewer orders are proved, and the exact suffix
# ranks decide the rest.

PRIME = 2**61 - 1


def _taylor_tables(point: Point, degree: int) -> list[list[list[int]]]:
    """tables[i][b][a] = C(a, b) * p^(a - b) * q^(degree - a) for x_i = p/q:
    the coefficient of u^b in (u + x_i)^a, times q^(degree - b); zero for b > a."""
    tables = []
    for c in point:
        p, q = c.numerator, c.denominator
        tables.append(
            [
                [comb(a, b) * p ** (a - b) * q ** (degree - a) if b <= a else 0 for a in range(degree + 1)]
                for b in range(degree + 1)
            ]
        )
    return tables


def _jet_rows(tables, betas: Sequence[Exponent], monomials: Sequence[Exponent]) -> list[list[int]]:
    """Row beta, column alpha: the coefficient of u^beta in (u + x)^alpha, that
    is, the order-|beta| Taylor coefficient of the monomial alpha at x, with the
    row scaled by a positive integer."""
    rows = []
    for beta in betas:
        factors = [table[b] for table, b in zip(tables, beta)]
        rows.append([prod(f[a] for f, a in zip(factors, alpha)) for alpha in monomials])
    return rows


def _pivot_columns(rows: list[list[int]]) -> list[int]:
    """Pivot columns of an integer matrix modulo PRIME, eliminating from the
    last column down, so the rank of the columns [t:] modulo PRIME is the
    number of pivots >= t."""
    pivots: dict[int, list[int]] = {}  # column -> row ending with 1 there
    for row in rows:
        row = [x % PRIME for x in row]
        for col in range(len(row) - 1, -1, -1):
            v = row[col]
            if not v:
                continue
            pivot = pivots.get(col)
            if pivot is None:
                inverse = pow(v, -1, PRIME)
                pivots[col] = [x * inverse % PRIME for x in row[: col + 1]]
                break
            row[: col + 1] = [(x - v * y) % PRIME for x, y in zip(row, pivot)]
    return sorted(pivots)


class LinearSystem:
    """Subspace of the degree <= d polynomials in n variables cut out by exact
    linear constraints, kept as its constraint matrix C; the dimension is
    (number of monomials) - rank(C)."""

    def __init__(self, nvars: int, degree: int, constraints: Sequence[Constraint] = ()):
        if nvars < 1 or degree < 0:
            raise ValueError("need nvars >= 1 and degree >= 0")
        self.nvars = nvars
        self.degree = degree
        self.constraints = tuple(constraints)
        self.monomials = graded_lex_monomials(nvars, degree)
        rows = self._rows_at((Fraction(0),) * nvars)
        # Full row rank modulo PRIME proves full row rank over Q.
        if len(_pivot_columns(rows)) == len(rows):
            self._rank = len(rows)
        else:
            self._rank = exact_rank(ExactMatrix.from_rows(rows))
        self.dimension = len(self.monomials) - self._rank

    def _check_point(self, point: Sequence) -> Point:
        point = as_point(point)
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        return point

    def _to_vector(self, f: WPolynomial) -> list[Fraction]:
        if f.nvars != self.nvars:
            raise ValueError("polynomial arity mismatch")
        if f.total_degree() > self.degree:
            raise ValueError("polynomial degree exceeds the system degree")
        index = {e: i for i, e in enumerate(self.monomials)}
        v = [Fraction(0)] * len(self.monomials)
        for e, c in f.coeffs.items():
            v[index[e]] = c
        return v

    def _rows_at(self, origin: Point) -> list[list[int]]:
        """The rows of C written in the monomials of u = y - origin, each
        scaled to integers."""
        return [row for c in self.constraints for row in self._constraint_rows(c, origin)]

    def _constraint_rows(self, constraint: Constraint, origin: Point) -> list[list[int]]:
        if isinstance(constraint, MultConstraint):
            # Jets of order above the degree vanish on every member.
            top = min(constraint.order - 1, self.degree)
            point = self._check_point(constraint.point)
            tables = _taylor_tables(tuple(a - b for a, b in zip(point, origin)), self.degree)
            betas = self.monomials[: jet_basis_size(self.nvars, top)]
            return _jet_rows(tables, betas, self.monomials)
        if isinstance(constraint, SpanConstraint):
            # f lies in the span iff f is orthogonal to the span's annihilator,
            # taken integral; an empty span spans the zero row.
            span = [self._to_vector(f.shift(origin) if any(origin) else f) for f in constraint.basis]
            span_rows = integral_rows(ExactMatrix.from_rows(span or [[0] * len(self.monomials)]))
            return integral_nullspace(span_rows)[0]
        raise TypeError(f"unknown constraint {constraint!r}")


def jet_separation(system: LinearSystem, point: Sequence) -> int:
    """Largest s >= 0 such that the system surjects onto all Taylor jets of
    order <= s at the point; -1 if the point is a base point (or the system is
    empty)."""
    point = system._check_point(point)
    if system.dimension == 0:
        return -1
    shifted = system._rows_at(point)
    pivots = _pivot_columns(shifted)
    # Every order with |J_s| <= proved is certified modulo PRIME.
    proved = 0
    if len(pivots) == system._rank:
        proved = min(pivots, default=len(system.monomials))
    best = -1
    for s in range(system.degree + 1):
        target = jet_basis_size(system.nvars, s)
        if target > system.dimension:
            break
        if target > proved:
            suffix = ExactMatrix.from_rows([row[target:] for row in shifted])
            if exact_rank(suffix) < system._rank:
                break
        best = s
    return best


@dataclass(frozen=True)
class CurveBound:
    """Upper bound (L.C)/mult_x(C) on jet separation growth; strict when the
    curve meets the base locus."""

    bound: Fraction
    strict: bool


def seshadri_upper_via_curve(
    pairing: Fraction | int, mult: int, meets_base_locus: bool
) -> CurveBound:
    """Curve test: s(W, x) <= (L.C)/mult_x(C) per unit of L, strict if C meets
    the base locus of W."""
    if mult < 1:
        raise ValueError("curve multiplicity at the point must be >= 1")
    pairing = Fraction(pairing)
    if pairing < 0:
        raise ValueError("intersection number L.C must be >= 0")
    return CurveBound(pairing / mult, meets_base_locus)


@dataclass(frozen=True)
class SeshadriEstimate:
    """Best lower bound s(mL, x)/m over the computed m, with an optional curve
    upper bound; certified_equal when the two meet."""

    lower: Fraction
    upper: Optional[Fraction]
    m_values: Tuple[int, ...]
    s_values: Tuple[int, ...]
    certified_equal: bool = field(default=False)

    def __post_init__(self):
        if self.upper is not None and self.lower > self.upper:
            raise ValueError("lower bound exceeds the registered upper bound")


def moving_seshadri_lower(
    series: Callable[[int], LinearSystem],
    point: Sequence,
    m_max: int = 3,
    curve_bound: Optional[CurveBound] = None,
) -> SeshadriEstimate:
    """Evaluate s(series(m), x)/m for 1 <= m <= m_max and keep the best; if a
    curve bound is registered, report it as the upper bound and certify
    equality when reached."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    point = as_point(point)
    m_values = tuple(range(1, m_max + 1))
    s_values = tuple(jet_separation(series(m), point) for m in m_values)
    lower = max(Fraction(s, m) for m, s in zip(m_values, s_values))
    upper = curve_bound.bound if curve_bound is not None else None
    certified = upper is not None and lower == upper
    return SeshadriEstimate(lower, upper, m_values, s_values, certified)


def blowup_anticanonical_series(
    nvars: int, base_point: Sequence
) -> Callable[[int], LinearSystem]:
    """Series m -> {degree m*(n+1) forms with multiplicity >= m at the base
    point}: the anticanonical systems of the blowup of P^n at one point,
    restricted to an affine chart."""
    base_point = as_point(base_point)

    def series(m: int) -> LinearSystem:
        return LinearSystem(nvars, m * (nvars + 1), [MultConstraint(base_point, m)])

    return series


def blowup_line_bound(nvars: int) -> CurveBound:
    """Upper bound from the strict transform of a line through the blown-up
    point: pairing (n+1) - 1 = n with multiplicity 1, away from the base locus."""
    return seshadri_upper_via_curve(Fraction(nvars), 1, False)
