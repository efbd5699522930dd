"""Monomial and quadratic-twisted valuations on affine space.

Covers valuation evaluation, log discrepancies, the two-sided multiplicity
comparison (Izumi-type inequality), minimal multiplicities of valuation
ideals, and the minimal multiplicity of rational members of the twisted ideal
(s^m, t - sqrt(2)*s^(m-1))^k, read off the norm form t^2 - 2*s^(2m-2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .exactmath import polynomials
from .exactmath.polynomials import INFINITY, WPolynomial
from .exactmath.scalars import MAX_NUMBER_DIGITS, TOO_LONG, _normal, more_digits, power_has_more_digits


@dataclass(frozen=True)
class Twist:
    """Coordinate change t -> t - sqrt(2)*s^e ahead of monomial evaluation:
    the valuation measures exponents in (s, y) with y = t - sqrt(2)*s^e."""

    e: int

    def __post_init__(self):
        if self.e < 1:
            raise ValueError("twist exponent e must be >= 1")


@dataclass(frozen=True)
class MonomialValuation:
    """Divisorial valuation with nu(x_i) = weights[i]; an optional twist (only
    in two variables) replaces the second coordinate by y = t - sqrt(2)*s^e."""

    weights: Tuple[int, ...]
    twist: Optional[Twist] = None

    def __post_init__(self):
        ws = tuple(int(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if not ws or any(w < 1 for w in ws):
            raise ValueError(f"weights must be positive integers, got {ws}")
        if self.twist is not None and len(ws) != 2:
            raise ValueError("twisted valuations are only supported in two variables")

    @property
    def nvars(self) -> int:
        return len(self.weights)

    def rewrite_all(self, fs: Sequence[WPolynomial]) -> list[WPolynomial]:
        """Each of fs in the valuation's coordinates: t = y + sqrt(2)*s^e
        substituted when twisted, unchanged otherwise.  The loops of all of
        them are charged together before any runs.

        With f's coefficients alpha + beta*sqrt(2) over one common
        denominator, t^b = sum_j C(b, j) y^j (sqrt(2) s^e)^(b-j) is expanded
        on integer pairs: sqrt(2)^n is 2^(n//2), times sqrt(2) when n is odd,
        which turns (alpha, beta) into (2*beta, alpha).  Only the nonzero
        output terms become QuadExt values."""
        if self.twist is None:
            return list(fs)
        if any(f.nvars != 2 for f in fs):
            raise ValueError("twisted valuations act on two-variable polynomials")
        e, work, plans = self.twist.e, 0, []
        for f in fs:
            den, terms = polynomials.integer_terms(f.coeffs)
            pairs = [(a, b, x, y) for (a, b), x, y, _ in terms]
            work += _twist_work(pairs, e, den.bit_length())
            plans.append((den, pairs))
        if work > polynomials.MAX_WORK:
            raise polynomials.BudgetExceeded(
                f"too large for the twisted rewrite: it takes about {work} bit products, over "
                f"the budget of {polynomials.MAX_WORK}"
            )
        out = []
        for den, pairs in plans:
            terms = _expand_twist(pairs, e).items()
            coeffs = {key: _normal(rat, irr, den) for key, (rat, irr) in terms if rat or irr}
            out.append(WPolynomial._trusted(coeffs, 2))
        return out


def _twist_work(pairs, e: int, d: int) -> int:
    """The work of `_expand_twist` on pairs over a denominator of d bits.
    Step j of s^a t^b works on integers of the bits of alpha or beta, 2*b
    and den, at a third of an operation's fixed cost (1.3-2.4 against 6 us),
    and makes the output (a + e*(b - j), j): (max b + 1) per distinct
    a + e*b at most.  Each output is reduced by one three-way gcd with den,
    charged two operations and 8 units a pair of bits, about 21 us for 2600
    by 1300 bits, which take 13-17 us."""
    work = steps = top = most = 0
    for _, b, x, y in pairs:
        bits = max(abs(x), abs(y)).bit_length() + 2 * b + d
        work += (b + 1) * (polynomials.OPERATION_WORK // 3 + bits * bits)
        steps, top, most = steps + b + 1, max(top, bits), max(most, b)
    outputs = min(steps, (most + 1) * len({a + e * b for a, b, _, _ in pairs}))
    return work + outputs * 2 * (polynomials.OPERATION_WORK + 8 * top * d)


def _expand_twist(pairs, e: int) -> dict:
    """The loop of `MonomialValuation.rewrite_all`: integer pairs by (s, y) exponents."""
    out: dict = {}
    for a, b, alpha, beta in pairs:
        binomial = 1  # C(b, j), carried from j to j + 1
        for j in range(b + 1):
            n = b - j
            x, y = (2 * beta, alpha) if n & 1 else (alpha, beta)
            scale = binomial << (n // 2)
            key = (a + e * n, j)
            rat, irr = out.get(key, (0, 0))
            out[key] = (rat + x * scale, irr + y * scale)
            binomial = binomial * n // (j + 1)
    return out


Factors = Sequence[Tuple[WPolynomial, int]]


def _factors(f: WPolynomial | Factors) -> list[Tuple[WPolynomial, int]]:
    """f as a product of powers [(g, k), ...], a polynomial being f^1,
    without the factors g^0 = 1."""
    return [(f, 1)] if isinstance(f, WPolynomial) else [(g, k) for g, k in f if k]


def valuation_eval(nu: MonomialValuation, f: WPolynomial | Factors):
    """nu(f): min over terms of <weights, exponent> after the twist rewrite;
    +inf iff f = 0.  f is a polynomial or a product of powers [(g, k), ...]
    (`parse_product`): nu is a valuation, so nu(g^k * h) = k*nu(g) + nu(h),
    and the product is never expanded."""
    factors = _factors(f)
    if any(g.nvars != nu.nvars for g, _ in factors):
        raise ValueError("polynomial/valuation arity mismatch")
    if any(g.is_zero() for g, _ in factors):
        return INFINITY
    rewritten = nu.rewrite_all([g for g, _ in factors])
    return sum(k * h.min_weighted_degree(nu.weights) for h, (_, k) in zip(rewritten, factors))


def discrepancy(nu: MonomialValuation) -> int:
    """Log discrepancy minus one: sum(weights) - 1.  A twist is a local
    coordinate change and does not affect it."""
    return sum(nu.weights) - 1


def maximal_ideal_valuation(nu: MonomialValuation) -> int:
    """nu(m_x) = min over coordinate functions of their valuation."""
    if nu.twist is None:
        return min(nu.weights)
    w0, w1 = nu.weights
    # nu(s) = w0; nu(t) = nu(y + sqrt(2)*s^e) = min(w1, w0*e).
    return min(w0, w1, w0 * nu.twist.e)


def izumi_check(nu: MonomialValuation, f: WPolynomial | Factors) -> dict:
    """Two-sided comparison nu(m_x)*mult <= nu(f) <= (sum(w)-1)*mult for a
    valuation centered at the origin, as the fields lower, value, upper,
    holds and note of the `izumi` record.  The zero polynomial reports all
    three quantities as +inf and holds trivially."""
    note = None
    if nu.twist is not None:
        note = "nu(m_x) computed as min over coordinate functions after the twist rewrite"
    factors = _factors(f)
    if any(g.is_zero() for g, _ in factors):
        lower = value = upper = INFINITY
    else:
        # mult is the valuation ord at the origin, additive on products too
        mult = sum(k * g.multiplicity() for g, k in factors)
        value = valuation_eval(nu, factors)
        lower = maximal_ideal_valuation(nu) * mult
        upper = discrepancy(nu) * mult
    holds = lower <= value <= upper
    return {"lower": lower, "value": value, "upper": upper, "holds": holds, "note": note}


def ideal_min_multiplicity(nu: MonomialValuation, k: int) -> tuple[int, Fraction]:
    """Minimal multiplicity of a nonzero member of the level-k valuation ideal
    I_k = {f : nu(f) >= discrepancy(nu) * k}, k >= 1, for an untwisted
    monomial valuation, and lambda = min_mult / k.

    Closed form ceil(a*k / max(w)) with a = sum(w) - 1: a lattice point v
    has <w, v> <= |v| * max(w), and v = closed * e_max reaches a*k.
    """
    if k < 1:
        raise ValueError("ideal level k must be >= 1")
    if nu.twist is not None:
        raise ValueError("twisted valuations: use galois_min_mult instead")
    target = discrepancy(nu) * k
    closed = -(-target // max(nu.weights))  # ceil
    return closed, Fraction(closed, k)


# -- rational members of the twisted ideal (s^m, t - sqrt(2)*s^(m-1))^k -------


def _least_mult(m: int, k: int, level: int):
    """The least multiplicity of a rational member of the twisted ideal at
    `level` (see galois_min_mult), and inf where the level has none."""
    b = max(0, m * k - level)
    r = level - 2 * (m - 1) * b
    return 2 * b + r - (m - 2) * (r // (m - 1)) if r >= 0 else math.inf


def _galois_shape(m: int, k: int) -> tuple[int, int, int]:
    """(level, b, top) of the witness: the first level in k(m-1)..2k(m-1) of
    least `_least_mult`, the power b of N that divides the witness, and the
    t-degree top of its leading term.

    Levels below L0 = ceil(2m(m-1)k/(2m-1)) have no members.  From L0 up to
    mk - 1 (b >= 1), and from mk on (b = 0), one level more adds 1 to the
    least multiplicity, except where r // (m-1) grows by one more than the
    rest of the run: there it adds 3 - m, and after m - 1 levels it has
    added 1.  So each run has its first minimum at its first level or at its
    first such step, and four candidates hold the first minimum of both."""
    if m < 2 or k < 1:
        raise ValueError("need m >= 2 and k >= 1")
    first = -(-2 * m * (m - 1) * k // (2 * m - 1))
    step = m - 1 - ((2 * m - 1) * first - 2 * m * (m - 1) * k) % (m - 1)
    candidates = {first, first + step, m * k, (m - 1) * -(-m * k // (m - 1))}
    levels = sorted(c for c in candidates if k * (m - 1) <= c <= 2 * k * (m - 1))
    level = min(levels, key=lambda level: _least_mult(m, k, level))
    b = max(0, m * k - level)
    return level, b, 2 * b + (level - 2 * (m - 1) * b) // (m - 1)


def _witness_coefficients(b: int, top: int) -> list[int]:
    """The coefficients of t^(2i + top % 2), i = 0..b-1, in t^top - R, where R
    is t^top mod (t^2 - 2)^b.  With n = top // 2 and x = t^2, x^n is
    sum_j C(n, j) 2^(n-j) (x-2)^j, and R keeps the terms j < b; the rest has
    (-1)^(b-i) 2^(n-i) C(n, i) C(n-1-i, b-1-i) at x^i for i < b, by
    sum_{l >= L} (-1)^l C(a, l) = (-1)^L C(a-1, L-1).  Each coefficient
    follows from the one before it."""
    if not b:
        return []
    n = top // 2
    out = [(-1) ** b * 2**n * math.comb(n - 1, b - 1)]
    for i in range(b - 1):
        out.append(-out[-1] * (n - i) * (b - 1 - i) // (2 * (i + 1) * (n - 1 - i)))
    return out


def _witness_exceeds_digits(m: int, level: int, b: int, top: int, digits: int) -> bool:
    """Whether the witness of shape (level, b, top) (see `_galois_shape`) has
    a coefficient or an exponent of more than `digits` digits, decided
    without building it.  Its coefficients 2^(n-i) C(n, i) C(n-1-i, b-1-i)
    in absolute value are a product of log-concave sequences in i, so they
    rise to one peak and fall; the first is at least 2^n."""
    # the largest exponents: top, and the s-exponent of the lowest t-degree
    if more_digits(max(top, level - (m - 1) * (top % 2 if b else top)), digits):
        return True
    if not b:
        return False
    n = top // 2
    if power_has_more_digits(2, n, digits, 0):
        return True
    lo, hi = 0, b - 1
    while lo < hi:  # the peak: the first i whose successor is no larger
        i = (lo + hi) // 2
        if (n - i) * (b - 1 - i) > 2 * (i + 1) * (n - 1 - i):
            lo = i + 1
        else:
            hi = i
    return more_digits(2 ** (n - lo) * math.comb(n, lo) * math.comb(n - 1 - lo, b - 1 - lo), digits)


def galois_min_mult(m: int, k: int) -> dict:
    """The `galois` record: m, k, the minimal multiplicity min_mult at the
    origin of a nonzero rational member of I = (s^m, y)^k,
    y = t - sqrt(2)*s^(m-1), read off the norm form, the comparison bound
    2mk/(2m-1), and a canonical minimal witness.

    Under wt(s) = 1, wt(t) = wt(y) = m - 1, the piece of I of weighted degree
    `level` >= k(m-1) is y^b times every form of degree level - (m-1)b, with
    b = max(0, mk - level).  A rational member is fixed by sqrt(2) -> -sqrt(2),
    so conj(y)^b divides it as well: it is N^b * g, with the norm form
    N = y*conj(y) = t^2 - 2*s^(2m-2) and g a rational form of degree
    r = level - 2(m-1)b.  The members of the level are therefore spanned by
    N^b * s^(r-(m-1)j) * t^j for j = 0..r//(m-1) (none when r < 0), and their
    least multiplicity is 2b + r - (m-2)*(r//(m-1)).  N^k has multiplicity 2k
    at level 2k(m-1), and a member of degree `level` has multiplicity at least
    level/(m-1), so the levels k(m-1)..2k(m-1) hold the minimum.  The witness
    is the first row of the reduced echelon form of the span at the first
    level reaching it, with the columns by decreasing t-exponent, which is
    increasing total degree (for m = 2, increasing s-exponent).  With
    J = r//(m-1), that row is the member t^(2b+J) - R whose R has t-degree
    below 2b: R is t^(2b+J) mod N^b, and N^b is monic in t, so the row has
    lead 1 and integer coefficients with no content to remove, which
    `_witness_coefficients` gives in closed form.  A witness with a number
    of more than MAX_NUMBER_DIGITS digits is left as TOO_LONG.
    """
    level, b, top = _galois_shape(m, k)
    witness = TOO_LONG
    if not _witness_exceeds_digits(m, level, b, top, MAX_NUMBER_DIGITS):
        # The level fixes the s-exponent of each power of t.
        terms = {2 * i + top % 2: c for i, c in enumerate(_witness_coefficients(b, top))}
        terms[top] = 1
        witness = WPolynomial({(level - (m - 1) * d, d): x for d, x in terms.items()}, 2)
    return {
        "m": m,
        "k": k,
        "min_mult": _least_mult(m, k, level),
        "bound": Fraction(2 * m * k, 2 * m - 1),
        "witness": witness,
    }
