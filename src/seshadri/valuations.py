"""Monomial and quadratic-twisted valuations on affine space.

Covers valuation evaluation, log discrepancies, the two-sided multiplicity
comparison (Izumi-type inequality), minimal multiplicities of valuation
ideals, and a graded brute-force certifier for the minimal multiplicity of
rational members of the twisted ideal (s^m, t - sqrt(2)*s^(m-1))^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .exactmath import INFINITY, QuadExt, WPolynomial, rational_parts
from .exactmath.linalg import fraction_free_rref, integral_nullspace

SQRT2 = QuadExt(Fraction(0), Fraction(1), 2)


@dataclass(frozen=True)
class Twist:
    """Coordinate change t -> t - c*s^e ahead of monomial evaluation: the
    valuation measures exponents in (s, y) with y = t - c*s^e."""

    e: int
    c: QuadExt = SQRT2

    def __post_init__(self):
        if self.e < 1:
            raise ValueError("twist exponent e must be >= 1")
        if not isinstance(self.c, QuadExt) or self.c.is_rational:
            raise ValueError("twist constant must be a quadratic irrational")


@dataclass(frozen=True)
class MonomialValuation:
    """Divisorial valuation with nu(x_i) = weights[i]; an optional twist (only
    in two variables) replaces the second coordinate by y = t - c*s^e."""

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
        """Express f in the valuation's coordinates: substitute t = y + c*s^e
        when twisted, identity otherwise.

        With c = (p + q*sqrt(D))/r and f's coefficients over one common
        denominator, t^b = sum_j C(b, j) y^j (c s^e)^(b-j) is expanded on
        integer pairs; only the nonzero output terms become QuadExt values."""
        if self.twist is None:
            return f
        if f.nvars != 2:
            raise ValueError("twisted valuations act on two-variable polynomials")
        e, c = self.twist.e, self.twist.c
        D = c.D
        r = math.lcm(c.a.denominator, c.b.denominator)
        p, q = c.a.numerator * (r // c.a.denominator), c.b.numerator * (r // c.b.denominator)
        for coeff in f.coeffs.values():
            if isinstance(coeff, QuadExt) and coeff.D != D:
                raise ValueError(f"mixed quadratic fields: sqrt({coeff.D}) vs sqrt({D})")
        parts = [(exp, *rational_parts(coeff)) for exp, coeff in f.coeffs.items()]
        den = math.lcm(*(x.denominator for _, alpha, beta in parts for x in (alpha, beta)))
        top = max((b for (_, b), _, _ in parts), default=0)
        den_r = den * r**top
        out: dict = {}
        for (a, b), alpha, beta in parts:
            # (alpha + beta*sqrt(D)) over den_r: the term's own r^(b-j) is
            # topped up to r^top.
            alpha, beta = int(alpha * den), int(beta * den)
            for j, (x, y) in enumerate(_binomial_pairs(b, p, q, D)):
                scale = r ** (top - b + j)
                key = (a + e * (b - j), j)
                rat, irr = out.get(key, (0, 0))
                out[key] = (
                    rat + (alpha * x + D * beta * y) * scale,
                    irr + (alpha * y + beta * x) * scale,
                )
        coeffs = {
            key: QuadExt(Fraction(rat, den_r), Fraction(irr, den_r), D)
            for key, (rat, irr) in out.items()
            if rat or irr
        }
        return WPolynomial._trusted(coeffs, 2, f.weights)


def _binomial_pairs(b: int, p: int, q: int, D: int) -> list[tuple[int, int]]:
    """C(b, j) * (p + q*sqrt(D))^(b - j) for j = 0..b, each as an integer pair
    (rational part, sqrt(D) part)."""
    powers = [(1, 0)]
    for _ in range(b):
        x, y = powers[-1]
        powers.append((x * p + D * y * q, x * q + y * p))
    return [
        (math.comb(b, j) * powers[b - j][0], math.comb(b, j) * powers[b - j][1])
        for j in range(b + 1)
    ]


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
    # nu(s) = w0; nu(t) = nu(y + c*s^e) = min(w1, w0*e).
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
    """Level-k valuation ideal I_k = {f : nu(f) >= discrepancy(nu) * k}, with
    an optional restriction to rational-coefficient members."""

    valuation: MonomialValuation
    k: int
    field_restriction: bool = False

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
    if query.field_restriction:
        raise ValueError("field restriction only applies to twisted ideals; use galois_min_mult")
    target = discrepancy(nu) * query.k
    closed = -(-target // max(nu.weights))  # ceil
    return closed, Fraction(closed, query.k)


# -- rational members of the twisted ideal (s^m, t - sqrt(2)*s^(m-1))^k -------


@dataclass(frozen=True)
class GaloisMinMult:
    """Brute-force certificate: minimal multiplicity over nonzero rational
    members of the twisted ideal, the 2mk/(2m-1) comparison bound, and a
    canonical minimal witness."""

    min_mult: int
    bound: Fraction
    witness: Optional[WPolynomial]


def _twisted_monomial_in_st(a: int, b: int, m: int) -> dict:
    """Coefficients of s^a * y^b in (s, t), where y = t - sqrt(2)*s^(m-1), as
    integer pairs (rational part, sqrt(2) part)."""
    return {
        (a + (m - 1) * (b - j), j): pair for j, pair in enumerate(_binomial_pairs(b, 0, -1, 2))
    }


def _rational_members_of_piece(m: int, k: int, level: int):
    """Rational-coefficient members of the weight-`level` graded piece of
    (s^m, y)^k, wt(s) = 1, wt(t) = wt(y) = m - 1; returns (columns, vectors)
    where columns are (s,t)-exponents and vectors span the rational members."""
    generators = []
    for b in range(level // (m - 1) + 1):
        a = level - (m - 1) * b
        if a >= m * max(k - b, 0):
            generators.append((a, b))
    if not generators:
        return [], []
    columns = sorted(
        {(level - (m - 1) * j, j) for j in range(level // (m - 1) + 1)},
        key=lambda e: (e[0] + e[1], e),
    )
    # by_column[col][r] = (rat, irr): generator r's coefficient rat + irr*sqrt(2).
    col_index = {e: i for i, e in enumerate(columns)}
    by_column = [[(0, 0)] * len(generators) for _ in columns]
    for r, (a, b) in enumerate(generators):
        for exp, pair in _twisted_monomial_in_st(a, b, m).items():
            by_column[col_index[exp]][r] = pair
    # c_r = a_r + sqrt(2) b_r: the combination is rational iff for every
    # column the sqrt(2)-part sum a_r*irr + b_r*rat vanishes.
    n = len(generators)
    eqs = [[irr for _, irr in pairs] + [rat for rat, _ in pairs] for pairs in by_column]
    members = []
    for kernel in integral_nullspace(eqs)[0]:
        a_part, b_part = kernel[:n], kernel[n:]
        vec = [
            sum(a_r * rat + 2 * irr * b_r for a_r, b_r, (rat, irr) in zip(a_part, b_part, pairs))
            for pairs in by_column
        ]
        if any(vec):
            members.append(vec)
    return columns, members


def galois_min_mult(
    m: int, k: int, degree_cap: Optional[int] = None
) -> GaloisMinMult:
    """Scan the weighted-graded pieces of (s^m, t - sqrt(2)*s^(m-1))^k for
    rational-coefficient members of minimal multiplicity at the origin.

    The scan runs over weighted degrees up to degree_cap (default 4mk, doubled
    automatically up to 16mk if nothing is found); once a member of
    multiplicity mu is known, degrees beyond (m-1)*mu cannot improve it and the
    scan stops.  The result always satisfies min_mult >= ceil(2mk/(2m-1)).
    """
    if m < 2 or k < 1:
        raise ValueError("need m >= 2 and k >= 1")
    cap = degree_cap if degree_cap is not None else 4 * m * k
    if cap < 1:
        raise ValueError("degree_cap must be >= 1")
    ceiling = max(16 * m * k, cap)
    bound = Fraction(2 * m * k, 2 * m - 1)
    best_mult: float | int = INFINITY
    best_witness: Optional[WPolynomial] = None
    while True:
        for level in range(k * (m - 1), cap + 1):
            if best_mult is not INFINITY and level > (m - 1) * best_mult:
                break
            columns, members = _rational_members_of_piece(m, k, level)
            if members:
                # The first reduced row, divided by its lead, is the first row
                # of the rref of the members' span; the witness is its
                # primitive integer multiple.
                pivots, lead = fraction_free_rref(members)
                first_row = members[0]
                mult = sum(columns[pivots[0]])
                if mult < best_mult:
                    best_mult = mult
                    g = math.gcd(*first_row) * (1 if lead > 0 else -1)
                    best_witness = WPolynomial(
                        {columns[i]: x // g for i, x in enumerate(first_row) if x}, 2
                    )
        # Minimality is proved once every level up to (m-1)*best_mult has been
        # scanned: deeper pieces only contain higher-multiplicity members.
        if best_mult is not INFINITY and (m - 1) * best_mult <= cap:
            break
        if cap >= ceiling:
            if best_mult is not INFINITY:
                raise RuntimeError(
                    f"found multiplicity {best_mult} but could not certify minimality "
                    f"within weighted degree {cap}; raise degree_cap"
                )
            raise RuntimeError(
                f"no rational member of (s^{m}, t-sqrt(2)*s^{m-1})^{k} found up to "
                f"weighted degree {cap}"
            )
        cap = min(2 * cap, ceiling)
    min_mult = int(best_mult)
    if min_mult < -(-2 * m * k // (2 * m - 1)):
        raise AssertionError(
            f"brute force found multiplicity {min_mult} below the 2mk/(2m-1) bound"
        )
    return GaloisMinMult(min_mult, bound, best_witness)


def twisted_ideal_contains(m: int, k: int, f: WPolynomial) -> bool:
    """Membership test for (s^m, y)^k with y = t - sqrt(2)*s^(m-1): rewrite f
    in (s, y) and check every monomial s^a y^b satisfies a >= m*max(k-b, 0)."""
    nu = MonomialValuation((1, 1), Twist(m - 1))
    g = nu.rewrite(f)
    return all(a >= m * max(k - b, 0) for a, b in g.coeffs)
