"""Exact linear algebra: fraction-free rank, determinants, rref, nullspaces.

Rank and determinant use Bareiss elimination after clearing denominators, so
intermediate entries stay in Z (or Z[sqrt(D)]) and never blow up the way naive
Gaussian elimination over Q can.  Row reduction and nullspace extraction work
directly over the coefficient field.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Sequence

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


def _cleared_rows(m: ExactMatrix) -> list[Row]:
    """Scale each row by the lcm of its denominators: entries land in Z or
    Z[sqrt(D)] without changing rank."""
    out = []
    for row in m.entries:
        scale = 1
        for x in row:
            scale = lcm(scale, _denominator_lcm(x))
        out.append([x * scale for x in row])
    return out


def _integer_rows(m: ExactMatrix) -> list[list[int]]:
    """The rows of an all-rational matrix scaled by their denominators' lcm,
    as Python integers."""
    out = []
    for row in m.entries:
        scale = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def exact_rank(m: ExactMatrix) -> int:
    """Rank over the coefficient field via fraction-free (Bareiss) elimination.

    Every entry after a step is a minor of the cleared matrix, so dividing by
    the previous pivot is exact: rational input runs on Python integers with
    floor division, quadratic input on Z[sqrt(D)] with field division."""
    if all(isinstance(x, Fraction) for row in m.entries for x in row):
        a, divide = _integer_rows(m), operator.floordiv
    else:
        a, divide = _cleared_rows(m), operator.truediv
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
    a = m.row_list()
    nrows, ncols = len(a), (len(a[0]) if a else 0)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Fraction(1) / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][col]:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    return a, pivots


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
    """Sylvester test on -G: every leading principal minor of -G is positive."""
    n = g.rows
    if n != g.cols:
        raise ValueError("definiteness of a non-square matrix")
    for k in range(1, n + 1):
        minor = ExactMatrix.from_rows(
            [[-g.entries[i][j] for j in range(k)] for i in range(k)]
        )
        if determinant(minor) <= 0:
            return False
    return True
