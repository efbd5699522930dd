"""Closed-form invariants of weighted projective spaces and weighted
hypersurfaces: Seshadri constants at the distinguished coordinate point,
anticanonical volumes, the two-weight hypersurface bound, and a small catalog
of known values.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from .exactmath.scalars import MAX_NUMBER_DIGITS, TOO_LONG, power_has_more_digits


def _check_weights(ws: tuple[int, ...]) -> None:
    """ValueError unless ws are the weights (1, a1, ..., an) of the formulas
    below: positive, with n >= 1, led by 1 and a1 <= ... <= an (the
    distinguished point is [1:0:...:0]), checked in that order."""
    if not ws or any(w < 1 for w in ws):
        raise ValueError(f"weights must be a nonempty tuple of positive integers: {ws}")
    if len(ws) < 2:
        raise ValueError("need at least one weight beyond the leading 1")
    if ws[0] != 1:
        raise ValueError(f"weight vector must be led by 1, got {ws}")
    if any(ws[i] > ws[i + 1] for i in range(1, len(ws) - 1)):
        raise ValueError(f"weights a1..an must be sorted ascending, got {ws}")


def wps_seshadri(ws: tuple[int, ...]) -> Fraction:
    """Anticanonical Seshadri constant of P(1, a1, ..., an) at [1:0:...:0]:
    (1 + a1 + ... + an) / an."""
    _check_weights(ws)
    return Fraction(sum(ws), ws[-1])


def wps_anticanonical_volume(ws: tuple[int, ...]) -> Fraction:
    """Anticanonical self-intersection of P(1, a1, ..., an):
    (1 + a1 + ... + an)^n / (a1 * ... * an)."""
    _check_weights(ws)
    return _wps_volume(ws)


def _wps_volume(ws: tuple[int, ...]) -> Fraction:
    return Fraction(sum(ws) ** (len(ws) - 1), prod(ws[1:]))


def wps_record(ws: tuple[int, ...]) -> dict:
    """CLI-facing record for a weighted projective space, its form checked
    once, by wps_seshadri.  A volume that `power_has_more_digits` shows is
    over MAX_NUMBER_DIGITS digits is left as TOO_LONG: its product
    a1 * ... * an has at most bits(a1) + ... + bits(an) bits."""
    seshadri = wps_seshadri(ws)
    over = power_has_more_digits(sum(ws), len(ws) - 1, MAX_NUMBER_DIGITS, sum(map(int.bit_length, ws[1:])))
    return {
        "weights": list(ws),
        "seshadri": seshadri,
        "volume": TOO_LONG if over else _wps_volume(ws),
    }


def _check_whs(n: int, k: int, l: int, d: int) -> None:
    """ValueError unless (n, k, l, d) specify a general degree-d hypersurface
    X_d in P(1^n, k, l) with l >= max(2, k) and n + k + l > d (so -K_X is
    ample of degree n - r, r = d - k - l)."""
    if n < 1 or k < 1 or l < 1 or d < 1:
        raise ValueError("n, k, l, d must be positive integers")
    if l < max(2, k):
        raise ValueError(f"need l >= max(2, k), got k={k}, l={l}")
    if d >= n + k + l:
        raise ValueError(f"need d < n + k + l for an ample anticanonical class, got d={d}")


# The most values of b that `largest_representable` scans: about 0.2 s at
# 6.5 us per value with weights of 4300 digits, and 7 ms at 0.2 us with
# weights of 7 digits, on a 2-core Xeon.  `whs` scans once.
MAX_SCAN = 2**15


def largest_representable(d: int, k: int, l: int) -> int:
    """Largest integer <= d of the form a*k + b*l with a, b >= 0.

    Every such value is a multiple of g = gcd(k, l), and by Sylvester every
    multiple g*x with x >= (k/g - 1)(l/g - 1) is one, so from there on the
    answer is g*(d // g).  Below that, with b copies of the larger weight,
    the best value is d minus (d - b*big) mod small, and that residue
    repeats with period small / g in b, so b runs over at most one period;
    more than MAX_SCAN values of b raise ValueError before the scan."""
    g = gcd(k, l)
    if d // g >= (k // g - 1) * (l // g - 1):
        return d // g * g
    small, big = sorted((k, l))
    top = min(d // big, small // g - 1)
    if top >= MAX_SCAN:
        raise ValueError(
            f"whs with --k {k} --l {l} scans more than {MAX_SCAN} values for m; lower --k or --l"
        )
    return d - min((d - b * big) % small for b in range(top + 1))


def whs_seshadri_bound(n: int, k: int, l: int, d: int) -> tuple[Fraction, bool]:
    """Upper bound (n - r) * m / (k * l) for the anticanonical Seshadri constant
    of X_d, with m the largest integer <= d representable by the weights k, l.
    The flag is True exactly when d <= k*l, the regime where the bound is an
    equality."""
    _check_whs(n, k, l, d)
    return _whs_bound(n, k, l, d, largest_representable(d, k, l))


def _whs_bound(n: int, k: int, l: int, d: int, m: int) -> tuple[Fraction, bool]:
    return Fraction((n + k + l - d) * m, k * l), d <= k * l


def whs_volume(n: int, k: int, l: int, d: int) -> Fraction:
    """Anticanonical volume (n - r)^n * d / (k * l) of X_d."""
    _check_whs(n, k, l, d)
    return _whs_volume(n, k, l, d)


def _whs_volume(n: int, k: int, l: int, d: int) -> Fraction:
    return Fraction((n + k + l - d) ** n * d, k * l)


def whs_record(n: int, k: int, l: int, d: int) -> dict:
    """CLI-facing record for a weighted hypersurface, its spec checked first.
    The volume is a^n d / (kl) with a = n - r >= 1, and its numerator in
    lowest terms is at least that of a^n / (kl); one that
    `power_has_more_digits` shows is over MAX_NUMBER_DIGITS digits is left as
    TOO_LONG.

    `largest_representable` may refuse before emit reads r, but no n, k, l,
    d below 10^MAX_NUMBER_DIGITS, as the CLI reads them, meet both refusals:
    an r that is over needs k + l >= 10^MAX_NUMBER_DIGITS, and then a scan
    that is over needs d >= MAX_SCAN * max(k, l) > 10^MAX_NUMBER_DIGITS."""
    _check_whs(n, k, l, d)
    m = largest_representable(d, k, l)
    bound, equality = _whs_bound(n, k, l, d, m)
    over = power_has_more_digits(n + k + l - d, n, MAX_NUMBER_DIGITS, (k * l).bit_length())
    return {
        "n": n,
        "k": k,
        "l": l,
        "d": d,
        "r": d - k - l,
        "m": m,
        "bound": bound,
        "equality": equality,
        "volume": TOO_LONG if over else _whs_volume(n, k, l, d),
    }


def catalog_seshadri(name: str, **params) -> tuple[Fraction, str]:
    """Known Seshadri-constant values that are stored rather than recomputed
    from first principles here.

    Keys:
      - "X6"    (parameter n >= 2): sextic in P(1^(n-1), 2, 2, 3); value 2n/3.
      - "ruled" (parameters g >= 0, d >= 1 with d > 2g-2, and d >= 2 when
        g = 0): geometrically ruled surface P(O + O(-D)) over a genus-g curve
        with deg D = d; value 1 - (2g-2)/d.
    """
    key = name.lower()
    if key == "x6":
        n = params.get("n")
        if not isinstance(n, int) or n < 2:
            raise ValueError("X6 catalog entry needs an integer parameter n >= 2")
        return Fraction(2 * n, 3), (
            "sextic hypersurface in P(1^(n-1),2,2,3): -K ~ nH and eps(H) = 2/3, "
            "via eps(-K_S) = 4/3 for its degree-2 Gorenstein del Pezzo surface "
            "section (Broustet, Theoreme 1.3)"
        )
    if key in ("ruled", "ruled_surface"):
        g, d = params.get("g"), params.get("d")
        if not isinstance(g, int) or not isinstance(d, int) or g < 0 or d < 1:
            raise ValueError("ruled catalog entry needs integers g >= 0, d >= 1")
        if d <= 2 * g - 2:
            raise ValueError("ruled catalog entry needs d > 2g - 2")
        if g == 0 and d < 2:
            raise ValueError(
                "ruled catalog entry needs d >= 2 at g = 0: P(O + O(-1)) is P^2 blown "
                "up at a point, where eps(-K) = 2, not 1-(2g-2)/d"
            )
        return 1 - Fraction(2 * g - 2, d), (
            "moving Seshadri constant of -K on P(O + O(-D)) over a genus-g curve, "
            "deg D = d; the closed form of surfaces.ruled_surface_model, which the "
            "tests hold to the Zariski decomposition and the marked-point constant"
        )
    raise KeyError(f"unknown catalog key {name!r} (expected 'X6' or 'ruled')")
