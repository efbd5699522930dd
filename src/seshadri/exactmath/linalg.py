"""Exact linear algebra over Q: fraction-free rank, rref, nullspaces.

Entries are ints or Fractions; a QuadExt entry is rejected.  Each row is
first scaled by the lcm of its denominators, so it becomes a row of Python
integers.  Two fraction-free kernels (Bareiss, Math. Comp. 22, 1968)
eliminate those rows in place; a step replaces a row by (lead * row -
row[col] * pivot_row) // previous_lead, so every entry is a minor of the
input and each division is exact.  The forward kernel `_bareiss` yields
(source row, pivot column, pivot) at each step: `exact_rank` counts the
steps, and `is_negative_definite` wants n positive pivots taken from the
diagonal without a swap.  The Gauss-Jordan kernel `fraction_free_rref` also
clears above each pivot; `rref` and `solve_unique` divide by its final lead
once.  `integral_nullspace` reads one kernel vector per free column off it,
`lead` times the rref basis vector, which `nullspace_basis` divides by
`lead`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, List, Sequence

from .scalars import _as_fraction

Row = List[int]


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable matrix of rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ExactMatrix":
        return cls(tuple(tuple(_as_fraction(x) for x in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row_list(self) -> list[list[Fraction]]:
        return [list(r) for r in self.entries]


def integral_rows(m: ExactMatrix) -> list[Row]:
    """The rows of m, each scaled by the lcm of its denominators to Python
    integers.  Scaling a row by a positive integer changes no rank, pivot
    column or sign of a minor."""
    out = []
    for row in m.entries:
        scale = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def _bareiss(a: list[Row]) -> Iterator[tuple[int, int, int]]:
    """Forward fraction-free elimination of the integer rows a, in place.

    Step r takes the next column with a nonzero entry in rows r.., moves the
    first such row (its source) to row r, yields (source, column, pivot) and
    then clears the column below row r.  The pivot of step r is the minor of
    the rows now in places 0..r on the pivot columns so far."""
    nrows, ncols = len(a), (len(a[0]) if a else 0)
    r, prev = 0, 1
    for col in range(ncols):
        if r == nrows:
            return
        source = next((i for i in range(r, nrows) if a[i][col]), None)
        if source is None:
            continue
        a[r], a[source] = a[source], a[r]
        top, lead = a[r][col:], a[r][col]
        yield source, col, lead
        for i in range(r + 1, nrows):
            factor = a[i][col]
            a[i][col:] = [(lead * x - factor * y) // prev for x, y in zip(a[i][col:], top)]
        r, prev = r + 1, lead


def exact_rank(m: ExactMatrix) -> int:
    """Rank over Q: the number of Bareiss steps."""
    return sum(1 for _ in _bareiss(integral_rows(m)))


def fraction_free_rref(a: list[Row]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place;
    returns (pivot columns, lead).

    Each step replaces every other row, above the pivot as well as below, by
    (lead * row - row[col] * pivot_row) // previous_lead.  Every entry stays a
    minor of the input, so each division is exact.  At the end row r is
    `lead` times row r of the reduced row echelon form for r < rank, with
    `lead` the last pivot (1 when there is none), and the other rows are zero.
    """
    nrows, ncols = len(a), (len(a[0]) if a else 0)
    pivots: list[int] = []
    prev = 1
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
                a[i] = [(lead * x - factor * y) // prev for x, y in zip(row, top)]
        prev = lead
        pivots.append(col)
    return pivots, prev


def integral_nullspace(a: list[Row]) -> tuple[list[Row], int]:
    """Kernel of the integer rows a, eliminated in place by
    `fraction_free_rref`; returns (vectors, lead).

    There is one vector per free column f, in increasing order: `lead` at f,
    minus column f of the reduced rows at the pivot columns and 0 elsewhere.
    That is `lead` times the rref basis vector, so its entries stay integers."""
    ncols = len(a[0]) if a else 0
    pivots, lead = fraction_free_rref(a)
    vectors = []
    for free in sorted(set(range(ncols)).difference(pivots)):
        v = [0] * ncols
        v[free] = lead
        for r, col in enumerate(pivots):
            v[col] = -a[r][free]
        vectors.append(v)
    return vectors, lead


def rref(m: ExactMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rows, pivot columns)."""
    a = integral_rows(m)
    pivots, lead = fraction_free_rref(a)
    reduced = [[Fraction(x, lead) for x in row] for row in a[: len(pivots)]]
    return reduced + [[Fraction(0)] * m.cols for _ in range(m.rows - len(pivots))], pivots


def nullspace_basis(m: ExactMatrix) -> list[list[Fraction]]:
    """Basis of {v : M v = 0}, one vector per free column of the rref: 1 there
    and minus the rref entries at the pivot columns."""
    vectors, lead = integral_nullspace(integral_rows(m))
    return [[Fraction(x, lead) for x in v] for v in vectors]


def solve_unique(m: ExactMatrix, rhs: Sequence) -> list[Fraction]:
    """Solve M x = rhs when M is square and invertible."""
    n = m.rows
    if n != m.cols or len(rhs) != n:
        raise ValueError("solve_unique needs a square system")
    aug = ExactMatrix.from_rows([list(row) + [b] for row, b in zip(m.entries, rhs)])
    a, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("singular system in solve_unique")
    return [a[i][n] for i in range(n)]


def is_negative_definite(g: ExactMatrix) -> bool:
    """Sylvester test on -G: every leading principal minor of -G is positive.

    While Bareiss elimination of the row-scaled -G takes its pivots from the
    diagonal without a swap, the k-th pivot is the k-th leading principal
    minor, which has the sign of that minor of -G.  A swap or a skipped
    column means that minor is 0, so the test fails there, as it does at the
    first pivot <= 0."""
    n = g.rows
    if n != g.cols:
        raise ValueError("definiteness of a non-square matrix")
    a = [[-x for x in row] for row in integral_rows(g)]
    steps = 0
    for source, col, pivot in _bareiss(a):
        if not (source == col == steps and pivot > 0):
            return False
        steps += 1
    return steps == n
