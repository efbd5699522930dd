"""Exact linear algebra on integer rows: the one module that eliminates, over
Q or modulo PRIME.  A caller scales rational values to one denominator first.

One kernel eliminates over Q, in place: `_primitive_pivots` keeps every row
it changes primitive (divided by the gcd of its entries), so its entries
stay no larger than the Bareiss minors; its docstring gives the argument.
It yields each pivot as it takes it.  `exact_rank` counts the pivots,
`exact_suffix_ranks` runs it once on the columns reversed, so the rank of
every column suffix is its number of pivot columns, and
`negative_definite_solve` reads the signs of the pivots of [-G | -rhs] and
then back-substitutes on the echelon rows, on integers.

`_pivot_columns` eliminates modulo PRIME from the last column down, and
`certified_suffix_rank` rests on it: the modular rank of a column suffix is
at most its rank over Q, so a modular rank that reaches a known upper bound
proves the rank, and only the other suffixes go to `exact_rank`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
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


def _primitive_pivots(a: list[Row]) -> Iterator[tuple[int, int, int]]:
    """Elimination over Q of the integer rows a, in place, by primitive rows.

    Step r takes the next column with a nonzero entry in rows r.., moves the
    first such row (its source) to row r, yields (source, column, lead) with
    lead its entry there, and then eliminates below it.  A row below whose
    entry f in the pivot column is nonzero becomes (lead/g) * row - (f/g) *
    pivot_row with g = gcd(lead, f), divided by the gcd of its entries; a row
    with f = 0 is left as it is.  The yielded columns are the pivot columns,
    so their count is the rank.

    Each row is a nonzero rational multiple of the Bareiss row (Bareiss,
    Math. Comp. 22, 1968) at the same step, where Bareiss makes row i
    (lead_B * B_i - f_B * B_r) / prev, prev the previous Bareiss pivot, and
    so keeps every entry a minor of the input.  By induction: say row i is
    a * B_i and the pivot row is b * B_r, with lead_B and f_B the Bareiss
    entries in the pivot column.  With f != 0 the new row here is
    a * b * prev / (g * content) times the Bareiss row; with f = 0 the row
    stays, a * prev / lead_B times it.  So the rows have the same zero
    entries, the same swaps follow, and the pivot columns, hence every rank,
    are the Bareiss ones.  A row changed here is primitive, so it is +-(the
    Bareiss row divided by its content); a row never changed is the Bareiss
    row divided by the last pivot, an integer.  No entry is therefore larger
    than the Bareiss entry, a minor of the input, which Hadamard's bound
    caps."""
    nrows, ncols = len(a), (len(a[0]) if a else 0)
    r = 0
    for col in range(ncols):
        if r == nrows:
            return
        source = next((i for i in range(r, nrows) if a[i][col]), None)
        if source is None:
            continue
        a[r], a[source] = a[source], a[r]
        top = a[r][col:]
        lead = top[0]
        yield source, col, lead
        for i in range(r + 1, nrows):
            f = a[i][col]
            if f:
                g = gcd(lead, f)
                u, v = lead // g, f // g
                row = [u * x - v * y for x, y in zip(a[i][col:], top)]
                content = gcd(*row)
                a[i][col:] = [x // content for x in row] if content > 1 else row
        r += 1


def exact_rank(m: ExactMatrix) -> int:
    """Rank over Q: the number of pivot columns."""
    return sum(1 for _ in _primitive_pivots([list(r) for r in m.entries]))


def exact_suffix_ranks(rows: Sequence[Row]) -> list[int]:
    """ranks[t] = the rank over Q of the columns [t:] of the integer rows, for
    t = 0..ncols: one elimination with the columns reversed, after which the
    rank of the suffix [t:] is its number of pivot columns."""
    ncols = len(rows[0]) if rows else 0
    pivots = {ncols - 1 - col for _, col, _ in _primitive_pivots([row[::-1] for row in rows])}
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
    """(numerators, q) in lowest terms, q > 0, with G x = rhs at
    x = numerators / q, when the integer matrix G is negative definite, else
    None.

    One `_primitive_pivots` pass over [-G | -rhs].  By Sylvester's criterion
    G is negative definite exactly when the n leading principal minors of -G
    are positive, and while the pivots come from the diagonal without a swap
    these are the Bareiss pivots.  If every pivot so far was positive, then
    so was every Bareiss pivot, and each row is a positive multiple of the
    Bareiss row at the same step: in the induction of `_primitive_pivots`,
    a changed row's factor a * b * prev / (g * content) and an unchanged
    row's a * prev / lead_B are then positive.  So the k-th pivot has the
    sign of the k-th minor, and a swap, a skipped column or a pivot <= 0
    means G is not negative definite.  The rows are then upper triangular,
    and back substitution keeps x over one denominator, the product of the
    positive pivots, reduced at the end."""
    n = len(g)
    if any(len(row) != n for row in g) or len(rhs) != n:
        raise ValueError("negative_definite_solve needs a square system")
    a = [[-x for x in row] + [-b] for row, b in zip(g, rhs)]
    steps = 0
    for source, col, pivot in _primitive_pivots(a):
        if not (source == col == steps and pivot > 0):
            return None
        steps += 1
    if steps < n:
        return None
    # x_j = x[j] / q is known for j > i, and x_i = (row[n] - sum row[j] x_j)
    # / row[i]; x[i] is still 0 when the known ones move over q * row[i].
    x, q = [0] * n, 1
    for i in range(n - 1, -1, -1):
        row = a[i]
        t = q * row[n] - sum(row[j] * x[j] for j in range(i + 1, n))
        x = [v * row[i] for v in x]
        x[i], q = t, q * row[i]
    h = gcd(q, *x)
    return [v // h for v in x], q // h
