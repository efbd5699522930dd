"""Exact linear algebra over Q on integer rows: fraction-free rank and the
Zariski solve.  A caller scales rational values to one denominator first.

One fraction-free kernel (Bareiss, Math. Comp. 22, 1968), `_bareiss`,
eliminates the rows in place; a step replaces each row below the pivot by
(lead * row - row[col] * pivot_row) // previous_lead, so every entry is a
minor of the input and each division is exact.  It yields (source row, pivot
column, pivot) at each step: `exact_rank` counts the steps, and
`negative_definite_solve` wants n positive pivots taken from the diagonal
without a swap, then back-substitutes on the echelon rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, List, Sequence

Row = List[int]


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable matrix of integer rows: the argument of `exact_rank`."""

    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_integer_rows(cls, rows: Iterable[Sequence[int]]) -> "ExactMatrix":
        return cls(tuple(map(tuple, rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


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
    return sum(1 for _ in _bareiss([list(r) for r in m.entries]))


def negative_definite_solve(g: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[Fraction] | None:
    """The solution x of G x = rhs when the integer matrix G is negative
    definite, else None.

    One Bareiss pass over [-G | -rhs].  While it takes its pivots from the
    diagonal without a swap, the k-th pivot is the k-th leading principal
    minor of -G.  By Sylvester's criterion G is negative definite exactly
    when all n of them are positive; a swap or a skipped column means a
    minor is 0.  The rows are then upper triangular, and back substitution
    gives x."""
    n = len(g)
    if any(len(row) != n for row in g) or len(rhs) != n:
        raise ValueError("negative_definite_solve needs a square system")
    a = [[-x for x in row] + [-b] for row, b in zip(g, rhs)]
    steps = 0
    for source, col, pivot in _bareiss(a):
        if not (source == col == steps and pivot > 0):
            return None
        steps += 1
    if steps < n:
        return None
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        x[i] = Fraction(row[n] - sum(row[j] * x[j] for j in range(i + 1, n)), row[i])
    return x
