"""Exact linear algebra: fraction-free rank, determinants, rref, nullspaces.

Rank, row reduction and the definiteness test first scale each row by the lcm
of its denominators and then run fraction-free (Bareiss) elimination, so
intermediate entries stay in Z (or Z[sqrt(D)]) and never blow up the way naive
Gaussian elimination over Q can.  Row reduction divides each pivot row by its
lead only once, at the end.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, List, Sequence

from .scalars import QuadExt, Scalar, to_scalar

Row = List[Scalar]


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable matrix of exact scalars."""

    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ExactMatrix":
        return cls(tuple(tuple(to_scalar(x) for x in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row_list(self) -> list[Row]:
        return [list(r) for r in self.entries]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(tuple(zip(*self.entries))) if self.entries else self

    def rank(self) -> int:
        return exact_rank(self)


def _denominator_lcm(x: Scalar) -> int:
    if isinstance(x, QuadExt):
        return lcm(x.a.denominator, x.b.denominator)
    return x.denominator


def _integral_rows(m: ExactMatrix) -> tuple[list[Row], Callable]:
    """The rows of m, each scaled by the lcm of its denominators, and the exact
    division for them: all-rational input becomes Python integers with floor
    division, quadratic input Z[sqrt(D)] with field division.  Scaling a row
    by a positive integer changes no rank, pivot column or sign of a minor."""
    if all(isinstance(x, Fraction) for row in m.entries for x in row):
        out = []
        for row in m.entries:
            scale = lcm(*(x.denominator for x in row))
            out.append([x.numerator * (scale // x.denominator) for x in row])
        return out, operator.floordiv
    out = []
    for row in m.entries:
        scale = 1
        for x in row:
            scale = lcm(scale, _denominator_lcm(x))
        out.append([x * scale for x in row])
    return out, operator.truediv


def exact_rank(m: ExactMatrix) -> int:
    """Rank over the coefficient field via fraction-free (Bareiss) elimination.

    Every entry after a step is a minor of the cleared matrix, so dividing by
    the previous pivot is exact."""
    a, divide = _integral_rows(m)
    nrows, ncols = len(a), (len(a[0]) if a else 0)
    rank = 0
    denom: Scalar = 1
    for col in range(ncols):
        if rank == nrows:
            break
        pivot = next((i for i in range(rank, nrows) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top, lead = a[rank][col:], a[rank][col]
        for i in range(rank + 1, nrows):
            factor = a[i][col]
            a[i][col:] = [divide(lead * x - factor * y, denom) for x, y in zip(a[i][col:], top)]
        denom = lead
        rank += 1
    return rank


def fraction_free_rref(
    a: list[Row], divide: Callable = operator.floordiv
) -> tuple[list[int], Scalar]:
    """Fraction-free Gauss-Jordan elimination of integral rows, in place;
    returns (pivot columns, lead).

    Each step replaces every other row, above the pivot as well as below, by
    (lead * row - row[col] * pivot_row) / previous_lead.  Every entry stays a
    minor of the input, so each division is exact (`divide` is floor division
    on Python integers, field division on Z[sqrt(D)]).  At the end row r is
    `lead` times row r of the reduced row echelon form for r < rank, with
    `lead` the last pivot (1 when there is none), and the other rows are zero.
    """
    nrows, ncols = len(a), (len(a[0]) if a else 0)
    pivots: list[int] = []
    prev: Scalar = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        top = a[r]
        lead = top[col]
        for i, row in enumerate(a):
            if i != r:
                factor = row[col]
                a[i] = [divide(lead * x - factor * y, prev) for x, y in zip(row, top)]
        prev = lead
        pivots.append(col)
    return pivots, prev


def determinant(m: ExactMatrix) -> Scalar:
    """Exact determinant (Bareiss, with denominator tracking)."""
    n = m.rows
    if n != m.cols:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    a = [list(r) for r in m.entries]
    sign = 1
    denom: Scalar = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                a[i][j] = (a[col][col] * a[i][j] - a[i][col] * a[col][j]) / denom
            a[i][col] = Fraction(0)
        denom = a[col][col]
    return sign * a[n - 1][n - 1]


def rref(m: ExactMatrix) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form over the field; returns (rows, pivot columns)."""
    a, divide = _integral_rows(m)
    pivots, lead = fraction_free_rref(a, divide)
    if divide is operator.floordiv:
        reduced = [[Fraction(x, lead) for x in row] for row in a[: len(pivots)]]
    else:
        reduced = [[x / lead for x in row] for row in a[: len(pivots)]]
    return reduced + [[Fraction(0)] * m.cols for _ in range(m.rows - len(pivots))], pivots


def nullspace_basis(m: ExactMatrix) -> list[list[Scalar]]:
    """Basis of {v : M v = 0}, one vector per free column of the rref."""
    a, pivots = rref(m)
    ncols = m.cols
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v: list[Scalar] = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -a[r][f]
        basis.append(v)
    return basis


def solve_unique(m: ExactMatrix, rhs: Sequence) -> list[Scalar]:
    """Solve M x = rhs when M is square and invertible."""
    n = m.rows
    if n != m.cols or len(rhs) != n:
        raise ValueError("solve_unique needs a square system")
    aug = ExactMatrix.from_rows(
        [list(row) + [to_scalar(b)] for row, b in zip(m.entries, rhs)]
    )
    a, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("singular system in solve_unique")
    return [a[i][n] for i in range(n)]


def is_negative_definite(g: ExactMatrix) -> bool:
    """Sylvester test on -G: every leading principal minor of -G is positive.

    Fraction-free elimination of -G without row swaps makes its k-th pivot the
    k-th leading principal minor of the row-scaled -G, which has the sign of
    that minor of -G; the test stops at the first pivot <= 0."""
    n = g.rows
    if n != g.cols:
        raise ValueError("definiteness of a non-square matrix")
    a, divide = _integral_rows(g)
    a = [[-x for x in row] for row in a]
    prev: Scalar = 1
    for k in range(n):
        lead, top = a[k][k], a[k][k + 1 :]
        if lead <= 0:
            return False
        for i in range(k + 1, n):
            factor = a[i][k]
            a[i][k + 1 :] = [
                divide(lead * x - factor * y, prev) for x, y in zip(a[i][k + 1 :], top)
            ]
        prev = lead
    return True
