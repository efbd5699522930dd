"""Exact linear algebra on integer rows: the one module that eliminates, over
Q or modulo PRIME.  A caller scales rational values to one denominator first.

One fraction-free kernel (Bareiss, Math. Comp. 22, 1968), `_bareiss`,
eliminates the rows in place; a step replaces each row below the pivot by
(lead * row - row[col] * pivot_row) // previous_lead, so every entry is a
minor of the input and each division is exact.  It yields (source row, pivot
column, pivot) at each step:
- `exact_rank` counts the steps;
- `exact_suffix_ranks` runs it once on the columns reversed, so the rank of
  every column suffix is its number of pivot columns;
- `negative_definite_solve` wants n positive pivots taken from the diagonal
  without a swap, then back-substitutes on the echelon rows, fraction-free.

`_pivot_columns` eliminates modulo PRIME from the last column down, and
`certified_suffix_rank` rests on it: the modular rank of a column suffix is
at most its rank over Q, so a modular rank that reaches a known upper bound
proves the rank, and only the other suffixes go to `exact_rank`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Sequence

Row = List[int]

PRIME = 2**61 - 1


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


def exact_suffix_ranks(rows: Sequence[Row]) -> list[int]:
    """ranks[t] = the rank over Q of the columns [t:] of the integer rows, for
    t = 0..ncols: one Bareiss pass with the columns reversed, after which the
    rank of the suffix [t:] is its number of pivot columns."""
    ncols = len(rows[0]) if rows else 0
    pivots = {ncols - 1 - col for _, col, _ in _bareiss([row[::-1] for row in rows])}
    ranks = [0] * (ncols + 1)
    for t in range(ncols - 1, -1, -1):
        ranks[t] = ranks[t + 1] + (t in pivots)
    return ranks


def _pivot_columns(rows: Sequence[Row]) -> list[int]:
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


def certified_suffix_rank(rows: Sequence[Row], bound: int) -> Callable[[int], int]:
    """t -> the rank over Q of the columns [t:] of the integer rows, given
    that the rows have rank at most bound over Q.  The rows are eliminated
    once modulo PRIME; a suffix whose count of pivots >= t reaches bound has
    rank bound, and any other suffix goes to `exact_rank`."""
    pivots = _pivot_columns(rows)

    def rank(t: int) -> int:
        if sum(p >= t for p in pivots) >= bound:
            return bound
        return exact_rank(ExactMatrix.from_integer_rows(row[t:] for row in rows))

    return rank


def negative_definite_solve(g: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[list[int], int] | None:
    """(numerators, det) with G x = rhs at x = numerators / det, det > 0,
    when the integer matrix G is negative definite, else None.

    One Bareiss pass over [-G | -rhs].  While it takes its pivots from the
    diagonal without a swap, the k-th pivot is the k-th leading principal
    minor of -G.  By Sylvester's criterion G is negative definite exactly
    when all n of them are positive; a swap or a skipped column means a
    minor is 0.  The rows are then upper triangular, and the last pivot is
    det = det(-G).  By Cramer's rule det * x is integral, so back
    substitution for det * x divides exactly."""
    n = len(g)
    if any(len(row) != n for row in g) or len(rhs) != n:
        raise ValueError("negative_definite_solve needs a square system")
    a = [[-x for x in row] + [-b] for row, b in zip(g, rhs)]
    steps, det = 0, 1
    for source, col, pivot in _bareiss(a):
        if not (source == col == steps and pivot > 0):
            return None
        steps, det = steps + 1, pivot
    if steps < n:
        return None
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        x[i] = (det * row[n] - sum(row[j] * x[j] for j in range(i + 1, n))) // row[i]
    return x, det
