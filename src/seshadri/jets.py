"""Jet-separation engine: exact s(W, x) for explicit linear systems, moving
Seshadri lower bounds over finitely many multiples, and curve-based upper
bounds.

A linear system lives in one fixed affine chart: polynomials of total degree
<= d in n variables that vanish to given orders at given rational points.
"Very general point" is realized by sampling random rational points of large
height from an explicitly passed RNG, so runs are reproducible given the seed.
This module builds the constraint rows; every elimination, over Q or modulo
PRIME, runs in `exactmath.linalg`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from operator import mul, sub
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .exactmath.linalg import certified_suffix_rank, exact_suffix_ranks
from .exactmath.polynomials import Exponent, graded_lex_monomials, jet_basis_size
from .exactmath.scalars import as_fractions

Point = Tuple[Fraction, ...]


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
        object.__setattr__(self, "point", as_fractions(self.point))
        if self.order < 1:
            raise ValueError("multiplicity constraints need order >= 1")


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
# column suffix C'[:, |J_s|:] keeps the rank of C. An order with |J_s| > dim W
# cannot be separated.
#
# Step A, one constraint. Let it be order k at p, top = min(k - 1, d),
# delta = p - x and Z = {i : x_i = p_i}. Row beta of C' (|beta| <= top) has
# the entry prod_i C(alpha_i, beta_i) delta_i^(alpha_i - beta_i) in column
# alpha. Multiplying row beta by prod_{i not in Z} delta_i^beta_i and dividing
# column alpha by prod_{i not in Z} delta_i^alpha_i leaves B_Z[beta][alpha] =
# prod_{i not in Z} C(alpha_i, beta_i) * prod_{i in Z} [alpha_i = beta_i]: C'
# at the 0/1 point e_i = [x_i != p_i] (0^0 = 1), the same matrix for every x
# with that pattern Z. Scaling a row or a column by a nonzero number changes
# the rank of no column suffix, so B_Z is eliminated exactly, once per system
# and pattern (linalg's `exact_suffix_ranks`), and each point reads its stop
# order from the suffix ranks of its B_Z. rank(C) needs no elimination at
# all: B_Z[beta][alpha] is 0 unless beta <= alpha, and 1 when beta = alpha,
# so in graded order the columns |alpha| <= top of B_Z form a unitriangular
# block, and rank(C) = rank(B_Z) = |J_top|.
#
# No constraint: W holds every form of degree <= d, rank(C) = 0, and W
# separates d-jets at every point. So neither case builds the monomials to
# count them: dim W = C(n + d, n) - rank(C). Which engine runs thus depends
# on the number of constraints alone, never on the point.
#
# The shifted path decides every system of several constraints. Every
# row of C' is scaled to integers, which leaves each rank unchanged, and
# linalg's `certified_suffix_rank` ranks its column suffixes against the bound
# rank(C). It eliminates C' once modulo PRIME, taking its columns from the
# last one down. The rank of a suffix modulo PRIME is then its number of pivot
# columns, and it is at most the rank over Q. So when the modular rank equals
# rank(C), every order with |J_s| <= the lowest pivot column is proved. Each
# later order is decided by the exact rank of its suffix over Q, from linalg's
# primitive-row elimination, whose entries stay within the Bareiss minors of
# C' (hundreds of bits). Usually that is one rank, at the order where
# separation truly stops. The rank of C itself comes from the same kernel,
# with the number of rows as the bound, at t = 0.
# Reduction modulo PRIME can also lose rank that Q keeps: x congruent to a
# constraint point, C losing rank modulo PRIME, or a denominator divisible by
# PRIME (the scaled rows then degenerate). In those cases fewer orders are
# proved, and the exact suffix ranks decide the rest.
#
# Every row of B_Z, of C' and of C at the origin comes from `_jet_rows`. Each
# variable has a table of the coefficients of u^b, b <= top, in (u + x_i)^a,
# scaled to integers; each table row is lifted once onto the exponents
# alpha_i of the monomials, and row beta is the elementwise product of its n
# lifted rows, one new list per row.


def _taylor_tables(point: Iterable[Fraction | int], degree: int, top: int) -> list[list[list[int]]]:
    """tables[i][b][a] = C(a, b) * p^(a - b) * q^(degree - a) for x_i = p/q,
    b <= top: the coefficient of u^b in (u + x_i)^a, times q^(degree - b);
    zero for b > a."""
    tables = []
    for c in point:
        p_powers = [c.numerator**e for e in range(degree + 1)]
        q_powers = [c.denominator**e for e in range(degree + 1)]
        tables.append(
            [
                [comb(a, b) * p_powers[a - b] * q_powers[degree - a] if b <= a else 0 for a in range(degree + 1)]
                for b in range(top + 1)
            ]
        )
    return tables


def _jet_rows(tables, betas: Sequence[Exponent], monomials: Sequence[Exponent]) -> list[list[int]]:
    """Row beta, column alpha: the coefficient of u^beta in (u + x)^alpha, that
    is, the order-|beta| Taylor coefficient of the monomial alpha at x, with the
    row scaled by a positive integer.

    The entry is the product over i of tables[i][beta_i][alpha_i], so the
    tables hold the rows b up to the largest beta_i.  Each table row
    tables[i][b] is lifted once onto the exponents alpha_i of the columns,
    and row beta is the elementwise product of its n lifted rows, a new list
    that the caller owns."""
    lifted = []  # lifted[i][b][j] = tables[i][b][monomials[j][i]]
    for i, table in enumerate(tables):
        column = [alpha[i] for alpha in monomials]
        lifted.append([list(map(row.__getitem__, column)) for row in table])
    rows = []
    for beta in betas:
        factors = [by_order[b] for by_order, b in zip(lifted, beta)]
        row = factors[0]
        for factor in factors[1:]:
            row = map(mul, row, factor)
        rows.append(list(row))
    return rows


class LinearSystem:
    """Subspace of the degree <= d polynomials in n variables cut out by
    multiplicity constraints, kept as its constraint matrix C (the Taylor
    jets below each constraint's order at its point); the dimension is
    (number of monomials) - rank(C)."""

    def __init__(self, nvars: int, degree: int, constraints: Sequence[MultConstraint] = ()):
        if nvars < 1 or degree < 0:
            raise ValueError("need nvars >= 1 and degree >= 0")
        self.nvars = nvars
        self.degree = degree
        self.constraints = tuple(constraints)
        for constraint in self.constraints:
            if not isinstance(constraint, MultConstraint):
                raise TypeError(f"unknown constraint {constraint!r}")
            self._check_point(constraint.point)
        if not self.constraints:
            self._rank = 0
        elif len(self.constraints) == 1:
            # rank(B) = |J_top|, as the engine notes above show.
            self._rank = jet_basis_size(nvars, self._top(self.constraints[0]))
        else:
            rows = self._rows_at((Fraction(0),) * nvars)
            self._rank = certified_suffix_rank(rows, len(rows))(0)
        self.dimension = jet_basis_size(nvars, degree) - self._rank
        self._ranks_by_pattern: dict[tuple[bool, ...], list[int]] = {}  # step A, see _suffix_ranks

    @cached_property
    def monomials(self) -> list[Exponent]:
        """The monomials of degree <= d in graded lex order: the columns of
        every row; built only by a system that builds rows."""
        return graded_lex_monomials(self.nvars, self.degree)

    def _check_point(self, point: Sequence) -> Point:
        point = as_fractions(point)
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        return point

    def _top(self, constraint: MultConstraint) -> int:
        """The highest jet order the constraint sets to 0; jets of order above
        the degree vanish on every member."""
        return min(constraint.order - 1, self.degree)

    def _rows_at(self, origin: Point) -> list[list[int]]:
        """The rows of C written in the monomials of u = y - origin, each
        scaled to integers."""
        return [row for c in self.constraints for row in self._constraint_rows(c, map(sub, c.point, origin))]

    def _constraint_rows(self, constraint: MultConstraint, delta: Iterable[Fraction | int]) -> list[list[int]]:
        top = self._top(constraint)
        betas = self.monomials[: jet_basis_size(self.nvars, top)]
        return _jet_rows(_taylor_tables(delta, self.degree, top), betas, self.monomials)

    def _suffix_ranks(self, point: Point) -> list[int]:
        """Step A, one constraint at p: ranks[t] is the rank of the columns
        [t:] of B_Z, and so of C' at every x with Z = {i : x_i = p_i}; B_Z is
        eliminated exactly once per system and pattern."""
        (constraint,) = self.constraints
        pattern = tuple([p != x for p, x in zip(constraint.point, point)])
        ranks = self._ranks_by_pattern.get(pattern)
        if ranks is None:
            rows = self._constraint_rows(constraint, map(int, pattern))
            ranks = self._ranks_by_pattern[pattern] = exact_suffix_ranks(rows)
        return ranks


def jet_separation(system: LinearSystem, point: Sequence) -> int:
    """Largest s >= 0 such that the system surjects onto all Taylor jets of
    order <= s at the point; -1 if the point is a base point (or the system is
    empty)."""
    point = system._check_point(point)
    if system.dimension == 0:
        return -1
    constraints = system.constraints
    if not constraints:
        return system.degree  # all forms of degree <= d separate d-jets
    if len(constraints) == 1:
        suffix_rank = system._suffix_ranks(point).__getitem__
    else:
        suffix_rank = certified_suffix_rank(system._rows_at(point), system._rank)
    best = -1
    for s in range(system.degree + 1):
        target = jet_basis_size(system.nvars, s)
        if target > system.dimension or suffix_rank(target) < system._rank:
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


def moving_seshadri_lower(
    series: Callable[[int], LinearSystem],
    point: Sequence,
    m_max: int = 3,
    curve_bound: Optional[CurveBound] = None,
) -> dict:
    """The `jets` record: s_values = s(series(m), x) for 1 <= m <= m_max, the
    best lower bound s/m over them, the upper bound of a registered curve
    (None without one), and whether the two meet.  A curve bound below the
    lower bound, or a strict one that it reaches, contradicts the jets and
    raises ValueError."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    point = as_fractions(point)
    s_values = [jet_separation(series(m), point) for m in range(1, m_max + 1)]
    lower = max(Fraction(s, m) for m, s in enumerate(s_values, 1))
    upper = None
    if curve_bound is not None:
        upper = curve_bound.bound
        if lower > upper:
            raise ValueError("lower bound exceeds the registered upper bound")
        if curve_bound.strict and lower == upper:
            raise ValueError("lower bound reaches the registered strict upper bound")
    return {"s_values": s_values, "lower": lower, "upper": upper, "certified": lower == upper}


def blowup_anticanonical_series(
    nvars: int, base_point: Sequence
) -> Callable[[int], LinearSystem]:
    """Series m -> {degree m*(n+1) forms with multiplicity >= m at the base
    point}: the anticanonical systems of the blowup of P^n at one point,
    restricted to an affine chart."""
    base_point = as_fractions(base_point)

    def series(m: int) -> LinearSystem:
        return LinearSystem(nvars, m * (nvars + 1), [MultConstraint(base_point, m)])

    return series


def blowup_line_bound(nvars: int) -> CurveBound:
    """Upper bound from the strict transform of a line through the blown-up
    point: pairing (n+1) - 1 = n with multiplicity 1, away from the base locus."""
    return seshadri_upper_via_curve(Fraction(nvars), 1, False)
