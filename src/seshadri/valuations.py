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
from typing import Optional, Tuple

from .exactmath import INFINITY, QuadExt, WPolynomial, rational_parts

SQRT2 = QuadExt(Fraction(0), Fraction(1))


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

    def rewrite(self, f: WPolynomial) -> WPolynomial:
        """Express f in the valuation's coordinates: substitute
        t = y + sqrt(2)*s^e when twisted, identity otherwise.

        With f's coefficients alpha + beta*sqrt(2) over one common
        denominator, t^b = sum_j C(b, j) y^j (sqrt(2) s^e)^(b-j) is expanded
        on integer pairs: sqrt(2)^n is 2^(n//2), times sqrt(2) when n is odd,
        which turns (alpha, beta) into (2*beta, alpha).  Only the nonzero
        output terms become QuadExt values."""
        if self.twist is None:
            return f
        if f.nvars != 2:
            raise ValueError("twisted valuations act on two-variable polynomials")
        e = self.twist.e
        parts = [(exp, *rational_parts(coeff)) for exp, coeff in f.coeffs.items()]
        den = math.lcm(*(x.denominator for _, alpha, beta in parts for x in (alpha, beta)))
        out: dict = {}
        for (a, b), alpha, beta in parts:
            alpha, beta = int(alpha * den), int(beta * den)
            binomial = 1  # C(b, j), carried from j to j + 1
            for j in range(b + 1):
                n = b - j
                x, y = (2 * beta, alpha) if n & 1 else (alpha, beta)
                scale = binomial << (n // 2)
                key = (a + e * n, j)
                rat, irr = out.get(key, (0, 0))
                out[key] = (rat + x * scale, irr + y * scale)
                binomial = binomial * n // (j + 1)
        coeffs = {
            key: QuadExt(Fraction(rat, den), Fraction(irr, den))
            for key, (rat, irr) in out.items()
            if rat or irr
        }
        return WPolynomial._trusted(coeffs, 2)


def valuation_eval(nu: MonomialValuation, f: WPolynomial):
    """nu(f): min over terms of <weights, exponent> after the twist rewrite;
    +inf iff f = 0."""
    if f.nvars != nu.nvars:
        raise ValueError("polynomial/valuation arity mismatch")
    g = nu.rewrite(f)
    return g.min_weighted_degree(nu.weights)


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


@dataclass(frozen=True)
class IzumiCheck:
    lower: object
    value: object
    upper: object
    holds: bool
    note: Optional[str] = None


def izumi_check(nu: MonomialValuation, f: WPolynomial) -> IzumiCheck:
    """Two-sided comparison nu(m_x)*mult <= nu(f) <= (sum(w)-1)*mult for a
    valuation centered at the origin.  The zero polynomial reports all three
    quantities as +inf and holds trivially."""
    note = None
    if nu.twist is not None:
        note = "nu(m_x) computed as min over coordinate functions after the twist rewrite"
    if f.is_zero():
        return IzumiCheck(INFINITY, INFINITY, INFINITY, True, note)
    mult = f.multiplicity()
    value = valuation_eval(nu, f)
    lower = maximal_ideal_valuation(nu) * mult
    upper = discrepancy(nu) * mult
    return IzumiCheck(lower, value, upper, lower <= value <= upper, note)


@dataclass(frozen=True)
class ValuationIdealQuery:
    """Level-k valuation ideal I_k = {f : nu(f) >= discrepancy(nu) * k}."""

    valuation: MonomialValuation
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("ideal level k must be >= 1")


def ideal_min_multiplicity(query: ValuationIdealQuery) -> tuple[int, Fraction]:
    """Minimal multiplicity of a nonzero member of I_k for an untwisted
    monomial valuation, and lambda = min_mult / k.

    Closed form ceil(a*k / max(w)) with a = sum(w) - 1: a lattice point v
    has <w, v> <= |v| * max(w), and v = closed * e_max reaches a*k.
    """
    nu = query.valuation
    if nu.twist is not None:
        raise ValueError("twisted valuations: use galois_min_mult instead")
    target = discrepancy(nu) * query.k
    closed = -(-target // max(nu.weights))  # ceil
    return closed, Fraction(closed, query.k)


# -- rational members of the twisted ideal (s^m, t - sqrt(2)*s^(m-1))^k -------


@dataclass(frozen=True)
class GaloisMinMult:
    """Minimal multiplicity over nonzero rational members of the twisted
    ideal, the 2mk/(2m-1) comparison bound, and a canonical minimal witness."""

    min_mult: int
    bound: Fraction
    witness: WPolynomial


def galois_min_mult(m: int, k: int) -> GaloisMinMult:
    """Minimal multiplicity at the origin of a nonzero rational member of
    I = (s^m, y)^k, y = t - sqrt(2)*s^(m-1), read off the norm form.

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
    below 2b: R is t^(2b+J) mod N^b, and N^b is monic in t, so integer long
    division gives it with lead 1 and no content to remove.
    """
    if m < 2 or k < 1:
        raise ValueError("need m >= 2 and k >= 1")

    def split(level: int) -> tuple[int, int]:
        b = max(0, m * k - level)
        return b, level - 2 * (m - 1) * b

    def least_mult(level: int):
        b, r = split(level)
        return 2 * b + r - (m - 2) * (r // (m - 1)) if r >= 0 else math.inf

    level = min(range(k * (m - 1), 2 * k * (m - 1) + 1), key=least_mult)
    b, r = split(level)
    top = 2 * b + r // (m - 1)
    # rem[d] is the coefficient of t^d (the level fixes the s-exponent); N^b
    # has C(b, i) * (-2)^(b-i) at t^(2i).
    norm = [math.comb(b, i) * (-2) ** (b - i) for i in range(b + 1)]
    rem = [0] * top + [1]
    for d in range(top, 2 * b - 1, -1):
        q = rem[d]
        if q:
            for i, coeff in enumerate(norm):
                rem[d - 2 * b + 2 * i] -= q * coeff
    terms = {d: -x for d, x in enumerate(rem[: 2 * b]) if x}
    terms[top] = 1
    witness = WPolynomial({(level - (m - 1) * d, d): x for d, x in terms.items()}, 2)
    return GaloisMinMult(least_mult(level), Fraction(2 * m * k, 2 * m - 1), witness)


def twisted_ideal_contains(m: int, k: int, f: WPolynomial) -> bool:
    """Membership test for (s^m, y)^k with y = t - sqrt(2)*s^(m-1): rewrite f
    in (s, y) and check every monomial s^a y^b satisfies a >= m*max(k-b, 0)."""
    nu = MonomialValuation((1, 1), Twist(m - 1))
    g = nu.rewrite(f)
    return all(a >= m * max(k - b, 0) for a, b in g.coeffs)
