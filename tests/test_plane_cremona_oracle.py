"""Plane systems held to Cremona reduction, an oracle that shares no code with
the jets engine and whose reduction runs no elimination.

Let S be P^2 blown up at r <= 8 points in general position, a del Pezzo
surface.  Then h^0(dH - sum m_i E_i) depends only on (d; m) and is found by
reduction (Nagata, Mem. Coll. Sci. Kyoto 33, 1960; Harbourne, Trans. AMS
289, 1985):
  1. sort the m_i descending and clip negative ones to 0 (E_i splits off);
  2. if d < 0, h^0 = 0;
  3. if d >= m_1 + m_2 + m_3 the class is nef, so h^0 = chi =
     C(d+2, 2) - sum C(m_i+1, 2) by Kawamata-Viehweg with -K ample;
  4. otherwise apply the quadratic Cremona move
     (d; m_1, m_2, m_3, ...) -> (2d - m_1 - m_2 - m_3;
     d - m_2 - m_3, d - m_1 - m_3, d - m_1 - m_2, ...), which lowers d,
     and repeat.

A LinearSystem of degree d in two variables with mult constraints of orders
m_i at distinct points is H^0(dH - sum m_i E_i), so its dimension is that
h^0.  With the point x as one more blown-up point, s(W, x) is the largest s
with h^0(d; m, s+1) = h^0(d; m) - C(s+2, 2), read from s = 0 up, and -1 when
h^0 = 0.  So the draws keep r + 1 <= 7 points, and general position is
checked exactly: no three collinear and no six on a conic.  A draw that
fails the check is skipped, since there the reduction can be wrong.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from seshadri.jets import LinearSystem, MultConstraint, jet_separation


def cremona_h0(d, mults):
    """h^0(dH - sum m_i E_i) on P^2 blown up at points in general position,
    at most 8 of them, by Cremona reduction."""
    while True:
        m = sorted((max(0, x) for x in mults), reverse=True)
        m1, m2, m3, *rest = m + [0] * (3 - len(m))
        if d < 0:
            return 0
        if d >= m1 + m2 + m3:
            return comb(d + 2, 2) - sum(comb(x + 1, 2) for x in m)
        d, mults = 2 * d - m1 - m2 - m3, [d - m2 - m3, d - m1 - m3, d - m1 - m2, *rest]


def cremona_jet_separation(d, mults):
    """s(L(d; m), x) at one more general point x, from `cremona_h0`."""
    h0 = cremona_h0(d, mults)
    best = -1
    for s in range(d + 1):
        if cremona_h0(d, [*mults, s + 1]) != h0 - comb(s + 2, 2):
            break
        best = s
    return best


def _det(rows):
    """Determinant of a square Fraction matrix by Gaussian elimination."""
    a = [list(row) for row in rows]
    n, det = len(a), Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            factor = a[i][col] / a[col][col]
            a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    return det


def general_position(points):
    """Distinct, no three on a line and no six on a conic."""
    if len(set(points)) < len(points):
        return False
    if any(not _det([[x, y, 1] for x, y in triple]) for triple in combinations(points, 3)):
        return False
    return all(
        _det([[x * x, x * y, y * y, x, y, 1] for x, y in six]) for six in combinations(points, 6)
    )


def test_reduction_on_known_values():
    # Plane forms, and P^2 blown up at one or two points: chi.
    assert cremona_h0(3, []) == 10
    assert cremona_h0(3, [1]) == 9
    # A conic through five points, and none through six.
    assert cremona_h0(2, [1] * 5) == 1
    assert cremona_h0(2, [1] * 6) == 0
    # Special systems: the double line through two points, three lines
    # through a triple point, one of them through a second point, and the
    # double conic through five points, where chi is 0.
    assert cremona_h0(2, [2, 2]) == 1
    assert cremona_h0(3, [3, 1]) == 3
    assert cremona_h0(4, [2] * 5) == 1
    # Quartics with three double points move to conics.
    assert cremona_h0(4, [2, 2, 2]) == 6
    # On the cubic surface: -K, the conic bundle -K - E_1, and -2K, with
    # h^0(-mK) = 1 + m(m+1)/2 K^2.
    assert cremona_h0(3, [1] * 6) == 4
    assert cremona_h0(3, [2, 1, 1, 1, 1, 1]) == 2
    assert cremona_h0(6, [2] * 6) == 10
    # The del Pezzo series of P^2 blown up at six points: s(-mK, x) for
    # m = 1..6 at a seventh general point.
    assert [cremona_jet_separation(3 * m, [m] * 6) for m in range(1, 7)] == [1, 2, 4, 5, 7, 8]


def _draw(rng, height):
    r = rng.randint(2, 6)

    def coordinate():
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    points = [(coordinate(), coordinate()) for _ in range(r + 1)]
    mults = [rng.randint(1, 3) for _ in range(r)]
    d = rng.randint(max(mults), 2 * max(mults) + 3)
    return d, mults, points


# Heights 3 and 1000: special position is common at the first, so some draws
# are skipped; the second gives multi-digit coordinates.
@pytest.mark.parametrize("seed", range(24))
def test_plane_systems_match_cremona_reduction(seed):
    height = 1000 if seed % 2 else 3
    d, mults, points = _draw(random.Random(f"cremona:{seed}"), height)
    if not general_position(points):
        pytest.skip("the points are in special position")
    *base, x = points
    system = LinearSystem(2, d, [MultConstraint(p, m) for p, m in zip(base, mults)])
    assert system.dimension == cremona_h0(d, mults)
    assert jet_separation(system, x) == cremona_jet_separation(d, mults)
