"""Explicit anticanonical volume bound in terms of the dimension n and a
Seshadri lower bound eps: the two-term constant max{b^-n (1-eps/2)^n, c^-n n^n}
over the feasible parameter region

    a, b, c > 0,  a + b + c < 1,  (n-1+eps)*a >= n-1+eps/2,

its closed-form infimum, and an independent grid-search oracle that runs on
integers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .exactmath.scalars import more_digits, power_has_more_digits


def _closed_form(n: int, eps: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """(a, s, base) of the closed form for valid (n, eps): a at its
    constraint floor, s = 1 - a and M = base^n with base = (n+1-eps/2)/s."""
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps >= 2:
        raise ValueError(
            "eps >= 2 is outside the construction's regime: the 1 - eps/2 "
            "multiplier must stay positive"
        )
    a = (n - 1 + eps / 2) / (n - 1 + eps)
    s = 1 - a  # = (eps/2) / (n-1+eps)
    return a, s, (n + 1 - eps / 2) / s


def closed_form_volume_bound(n: int, eps: Fraction) -> Fraction:
    """M(n, eps) alone, without the grid oracle of `best_volume_bound`."""
    return _closed_form(n, Fraction(eps))[2] ** n


def best_volume_bound(n: int, eps: Fraction) -> dict:
    """The `bounds` record of M(n, eps), the infimum of the two-term constant
    over the open feasible region.  Closed form: put a at its constraint
    floor, then split the remaining budget s = 1 - a so the two max-terms
    agree, giving M = ((n+1-eps/2)/s)^n.  The infimum is never attained (the
    optimum sits on the boundary a + b + c = 1), and `oracle_checked` is
    True when no point of the grid oracle at its resolution 256 beats it."""
    eps = Fraction(eps)
    a, s, base = _closed_form(n, eps)
    denom = (1 - eps / 2) + n
    m = base**n
    grid = grid_volume_bound_minimum(n, eps)
    return {
        "n": n,
        "eps": eps,
        "M": m,
        "a": a,
        "b": s * (1 - eps / 2) / denom,
        "c": s * Fraction(n) / denom,
        "attained": False,
        "oracle_checked": grid is None or grid >= m,
        "conjectured_optimal_comparison": conjectured_optimal_comparison(n, eps),
    }


def volume_bound_exceeds_digits(n: int, eps: Fraction, digits: int) -> bool:
    """True when the numerator or the denominator of M(n, eps) has more than
    `digits` decimal digits, decided before M is computed.

    M = base^n with the base in lowest terms, so the parts of M are the n-th
    powers of the parts of the base."""
    base = _closed_form(n, Fraction(eps))[2]
    top = max(base.numerator, base.denominator)
    return power_has_more_digits(top, n, digits, 0) or more_digits(base**n, digits)


def grid_volume_bound_minimum(
    n: int, eps: Fraction, resolution: int = 256
) -> Optional[Fraction]:
    """Minimum of max{b^-n (1-eps/2)^n, c^-n n^n} over the feasible grid
    (a, b, c) = (i/R, j/R, k/R), an independent oracle for the closed form.

    For fixed a the max of a decreasing and an increasing term is minimized
    where they cross, so only the grid neighbours of the crossing need to be
    evaluated; spending the whole remaining budget on b + c always helps.

    The search runs on integers.  With eps = e/f in lowest terms, a = i/R is
    feasible when 2(f(n-1)+e)*i >= (2f(n-1)+e)*R, the crossing for a budget
    B = j + k is at j = B(2f-e)/(2f(n+1)-e), and a point's value is the n-th
    power of max((2f-e)R/(2f*j), nR/k).  x -> x^n is increasing on x > 0, so
    the bases are compared by cross-multiplication and only the least is
    raised to the n-th power.
    """
    eps = Fraction(eps)
    if eps <= 0 or eps >= 2:
        raise ValueError("grid oracle needs 0 < eps < 2")
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    e, f = eps.numerator, eps.denominator
    r = resolution
    feasible_i, feasible_r = 2 * (f * (n - 1) + e), (2 * f * (n - 1) + e) * r
    b_num, b_den = 2 * f - e, 2 * f  # 1 - eps/2
    crossing_den = 2 * f * (n + 1) - e  # (1 - eps/2 + n) * 2f
    best: Optional[tuple[int, int]] = None  # (num, den) of the least base
    for i in range(1, r - 1):
        if feasible_i * i < feasible_r:
            continue
        budget = r - 1 - i  # j + k <= budget, both >= 1
        if budget < 2:
            continue
        floor = budget * b_num // crossing_den
        for j in (floor, floor + 1):
            j = min(max(j, 1), budget - 1)
            k = budget - j
            # max((1 - eps/2)/b, n/c) with b = j/R and c = k/R
            if b_num * k >= b_den * n * j:
                num, den = b_num * r, b_den * j
            else:
                num, den = n * r, k
            if best is None or num * best[1] < best[0] * den:
                best = (num, den)
    return None if best is None else Fraction(*best) ** n


def conjectured_optimal_comparison(n: int, eps: Fraction) -> Fraction:
    """Comparison column n^n/eps (the conjectured optimal order); reported,
    never asserted."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return Fraction(n**n) / eps
