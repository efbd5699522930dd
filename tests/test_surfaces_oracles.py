"""Oracles for the integer surface engine: the pairings against the Fraction
double loop they replaced, the Zariski decomposition against the largest nef
class below D found by brute force over subsets of the declared curves, and
time budgets on the del Pezzo lattices and a ruled sweep.  Each oracle uses
only this file's own Fraction arithmetic."""

import io
import itertools
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seshadri import cli
from seshadri.surfaces import (
    CurveClass,
    DivisorClass,
    SurfaceLattice,
    ruled_surface_lattice,
    seshadri_at_marked_point,
    zariski_decomposition,
)

from conftest import curve_class


def loop_pairing(gram, a, b) -> Fraction:
    """sum over i, j of a_i * b_j * G_ij, one Fraction product at a time."""
    total = Fraction(0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            total += Fraction(x) * Fraction(y) * Fraction(gram[i][j])
    return total


# -- the pairings against the Fraction double loop ------------------------------

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def lattices_with_classes(draw):
    n = draw(st.integers(1, 4))
    upper = {(i, j): draw(rationals) for i in range(n) for j in range(i, n)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    curves = tuple(
        CurveClass(
            f"C{k}",
            tuple(draw(rationals) for _ in range(n)),
            through_marked_point=draw(st.booleans()),
            mult=draw(st.integers(1, 4)),
        )
        for k in range(draw(st.integers(1, 5)))
    )
    lat = SurfaceLattice(tuple(f"G{i}" for i in range(n)), gram, curves)
    a, b = (DivisorClass(tuple(draw(rationals) for _ in range(n))) for _ in range(2))
    return lat, gram, a, b


@settings(max_examples=100, deadline=None)
@given(lattices_with_classes())
def test_pairings_equal_the_fraction_double_loop(drawn):
    lat, gram, a, b = drawn
    assert lat.pairing(a, b) == loop_pairing(gram, a.coords, b.coords)
    assert lat.self_intersection(a) == loop_pairing(gram, a.coords, a.coords)
    numerators, den = lat.curve_pairings(a)
    assert den > 0
    assert [Fraction(x, den) for x in numerators] == [
        loop_pairing(gram, a.coords, c.coords) for c in lat.curves
    ]


@settings(max_examples=100, deadline=None)
@given(lattices_with_classes())
def test_seshadri_at_the_marked_point_equals_the_fraction_minimum(drawn):
    lat, gram, ell, _ = drawn
    dots = [loop_pairing(gram, ell.coords, c.coords) for c in lat.curves]
    through = [x / c.mult for c, x in zip(lat.curves, dots) if c.through_marked_point]
    if any(x < 0 for x in dots):
        with pytest.raises(ValueError, match="not nef"):
            seshadri_at_marked_point(lat, ell)
    elif not through:
        with pytest.raises(ValueError, match="no declared curve"):
            seshadri_at_marked_point(lat, ell)
    else:
        result = seshadri_at_marked_point(lat, ell)
        ell2 = loop_pairing(gram, ell.coords, ell.coords)
        assert (result.value, result.self_intersection) == (min(through), ell2)
        assert result.certified == (min(through) ** 2 <= ell2)


def test_curve_pairings_keep_each_curves_own_denominator():
    # Three curves over the denominators 2, 3 and 5, against a Gram matrix over
    # 7: the common denominator of the pairings is the product of all four.
    gram = [[Fraction(1, 7), Fraction(2)], [Fraction(2), Fraction(-3, 7)]]
    curves = tuple(
        CurveClass(name, coords)
        for name, coords in (
            ("A", (Fraction(1, 2), Fraction(1))),
            ("B", (Fraction(2, 3), Fraction(-1, 3))),
            ("C", (Fraction(0), Fraction(4, 5))),
        )
    )
    lat = SurfaceLattice(("X", "Y"), gram, curves)
    d = DivisorClass((Fraction(3, 4), Fraction(-1)))
    numerators, den = lat.curve_pairings(d)
    assert den > 0 and den % (2 * 3 * 5 * 7 * 4) == 0
    assert [Fraction(x, den) for x in numerators] == [
        loop_pairing(gram, d.coords, c.coords) for c in curves
    ]


def test_a_class_paired_in_two_lattices_meets_each_gram_matrix():
    # A class keeps G*d for the last Gram matrix it was paired with, so
    # pairing it in turn in two lattices must form G*d again each time.
    curves = (CurveClass("A", (1, 0)), CurveClass("B", (Fraction(1, 2), 1)))
    grams = ([[-2, 1], [1, 0]], [[Fraction(1, 3), 2], [2, -5]])
    lattices = [SurfaceLattice(("X", "Y"), gram, curves) for gram in grams]
    d = DivisorClass((Fraction(3, 2), -1))
    for _ in range(2):
        for lat, gram in zip(lattices, grams):
            assert lat.self_intersection(d) == loop_pairing(gram, d.coords, d.coords)
            numerators, den = lat.curve_pairings(d)
            assert [Fraction(x, den) for x in numerators] == [
                loop_pairing(gram, d.coords, c.coords) for c in curves
            ]


# -- the Zariski decomposition against the largest nef class below D -----------


def solve(matrix, rhs):
    """x with matrix * x = rhs by Gaussian elimination on Fractions; the matrix
    is negative definite, so every pivot on the diagonal is nonzero."""
    n = len(rhs)
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        for i in range(col + 1, n):
            factor = a[i][col] / a[col][col]
            a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (a[i][n] - sum(a[i][j] * x[j] for j in range(i + 1, n))) / a[i][i]
    return x


def negative_definite(matrix) -> bool:
    a = [list(row) for row in matrix]
    for col in range(len(a)):
        if a[col][col] >= 0:
            return False
        for i in range(col + 1, len(a)):
            factor = a[i][col] / a[col][col]
            a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    return True


def largest_nef_class_below(gram, curves, d):
    """Every class P = D - sum x_i C_i with x_i >= 0 on a subset S of the
    curves, P.C = 0 for C in S and P.C >= 0 for every curve, as (x, P).  The
    Zariski positive part is the largest nef class P <= D (Fujita; Bauer,
    J. Algebraic Geom. 18, 2009), and it is orthogonal to the curves of its
    negative part, so it is the one whose x is least in every coordinate."""
    k = len(curves)
    candidates = []
    for size in range(k + 1):
        for subset in itertools.combinations(range(k), size):
            block = [[loop_pairing(gram, curves[i], curves[j]) for j in subset] for i in subset]
            rhs = [loop_pairing(gram, d, curves[i]) for i in subset]
            x = [Fraction(0)] * k
            for i, value in zip(subset, solve(block, rhs)):
                x[i] = value
            p = [dj - sum(xi * c[j] for xi, c in zip(x, curves)) for j, dj in enumerate(d)]
            if min(x, default=0) >= 0 and all(loop_pairing(gram, p, c) >= 0 for c in curves):
                candidates.append((x, p))
    least = [min(x[i] for x, _ in candidates) for i in range(k)] if candidates else None
    return next(((x, p) for x, p in candidates if x == least), None), candidates


@st.composite
def negative_configurations(draw):
    """A class H with H^2 > 0 meeting k declared curves with nonnegative
    intersections, whose own intersection matrix is negative definite, and a
    divisor D = a*H + sum d_i C_i."""
    k = draw(st.integers(1, 4))
    meet = {(i, j): draw(st.integers(0, 2)) for i in range(k) for j in range(i + 1, k)}
    block = [[0] * k for _ in range(k)]
    for (i, j), m in meet.items():
        block[i][j] = block[j][i] = m
    for i in range(k):
        block[i][i] = -(sum(block[i]) + draw(st.integers(0, 3)))
    if not negative_definite([[Fraction(x) for x in row] for row in block]):
        block = [[-1 if i == j else 0 for j in range(k)] for i in range(k)]
    h = [draw(st.integers(1, 3))] + [draw(st.integers(0, 2)) for _ in range(k)]
    gram = [h] + [[h[i + 1]] + block[i] for i in range(k)]
    curves = [tuple(1 if j == i + 1 else 0 for j in range(k + 1)) for i in range(k)]
    q = draw(st.integers(1, 3))
    d = [Fraction(draw(st.integers(0, 4)), q)] + [Fraction(draw(st.integers(-1, 5)), q) for _ in range(k)]
    return gram, curves, d


@settings(max_examples=80, deadline=None)
@given(negative_configurations())
def test_zariski_decomposition_is_the_largest_nef_class_below_d(drawn):
    gram, curves, d = drawn
    lat = SurfaceLattice(
        tuple(f"G{i}" for i in range(len(d))),
        gram,
        tuple(CurveClass(f"C{i}", c) for i, c in enumerate(curves)),
    )
    best, candidates = largest_nef_class_below(gram, curves, d)
    if not candidates:
        with pytest.raises(ValueError):
            zariski_decomposition(lat, DivisorClass(tuple(d)))
        return
    # The least x is attained: it is one of the candidates.
    assert best is not None
    x, p = best
    if loop_pairing(gram, p, p) < 0:
        with pytest.raises(ValueError, match=r"P\^2"):
            zariski_decomposition(lat, DivisorClass(tuple(d)))
        return
    dec = zariski_decomposition(lat, DivisorClass(tuple(d)))
    assert list(dec.positive.coords) == p
    support = {f"C{i}": xi for i, xi in enumerate(x) if xi}
    assert dict(zip(dec.support, dec.coefficients)) == support


@st.composite
def rescaled_configurations(draw):
    """A negative configuration and a diagonal change of basis G_i -> t_i G_i,
    with each t_i = p/q nonzero."""
    gram, curves, d = draw(negative_configurations())
    signs, tops, bottoms = st.sampled_from((1, -1)), st.integers(1, 7), st.integers(1, 7)
    t = [Fraction(draw(signs) * draw(tops), draw(bottoms)) for _ in d]
    return gram, curves, d, t


@settings(max_examples=80, deadline=None)
@given(rescaled_configurations())
@example(([[1, 0], [0, -1]], [(0, 1)], [Fraction(1), Fraction(2)], [Fraction(2, 3), Fraction(5, 7)]))
def test_the_decomposition_is_unchanged_by_a_rational_change_of_basis(drawn):
    # In the basis t_i G_i a class has coordinates c_i / t_i and the Gram
    # matrix is t_i t_j G_ij, so every pairing, the support and the
    # coefficients stay, and P goes to P_i / t_i.  The Gram matrix, the curves
    # and D each get denominators here, which the integer solve must undo.
    gram, curves, d, t = drawn
    lat = SurfaceLattice(
        tuple(f"G{i}" for i in range(len(d))),
        [[t[i] * t[j] * x for j, x in enumerate(row)] for i, row in enumerate(gram)],
        tuple(CurveClass(f"C{i}", tuple(c / s for c, s in zip(curve, t))) for i, curve in enumerate(curves)),
    )
    divisor = DivisorClass(tuple(x / s for x, s in zip(d, t)))
    best, candidates = largest_nef_class_below(gram, curves, d)
    if not candidates or loop_pairing(gram, best[1], best[1]) < 0:
        with pytest.raises(ValueError):
            zariski_decomposition(lat, divisor)
        return
    x, p = best
    dec = zariski_decomposition(lat, divisor)
    assert list(dec.positive.coords) == [pi / s for pi, s in zip(p, t)]
    assert dict(zip(dec.support, dec.coefficients)) == {f"C{i}": xi for i, xi in enumerate(x) if xi}


# -- the integer rows of a zariski description against the Fraction lattice -----


def written(value: Fraction, form: int):
    """value as a zariski description may write it: 0 an int, 1 an integral
    float (both when it is integral), 2 a "p/q" text over twice its
    denominator, 3 its own text."""
    if value.denominator == 1 and form < 2:
        return float(value) if form else int(value)
    if form == 2:
        return f"{2 * value.numerator}/{2 * value.denominator}"
    return str(value)


@settings(max_examples=80, deadline=None)
@given(rescaled_configurations(), st.randoms(use_true_random=False))
def test_a_lattice_read_as_integer_rows_is_the_one_built_from_fractions(drawn, rng):
    # The rescaled configurations put denominators on the Gram matrix, the
    # curves and D; each entry is written in one of the forms at random.
    gram, curves, d, t = drawn
    gram = [[t[i] * t[j] * x for j, x in enumerate(row)] for i, row in enumerate(gram)]
    curves = [tuple(c / s for c, s in zip(curve, t)) for curve in curves]
    d = [x / s for x, s in zip(d, t)]
    marks = [(rng.random() < 0.5, rng.randint(1, 3)) for _ in curves]
    generators = tuple(f"G{i}" for i in range(len(d)))
    expected = SurfaceLattice(
        generators,
        gram,
        tuple(CurveClass(f"C{i}", c, through, mult) for i, (c, (through, mult)) in enumerate(zip(curves, marks))),
    )

    def form(values):
        return [written(x, rng.randrange(4)) for x in values]

    desc = {
        "generators": list(generators),
        "gram": [form(row) for row in gram],
        "curves": [
            {"name": f"C{i}", "coords": form(c), "through": through, "mult": mult}
            for i, (c, (through, mult)) in enumerate(zip(curves, marks))
        ],
        "D": form(d),
    }
    lat = cli._lattice_from_json(json.loads(json.dumps(desc)))
    assert lat == expected
    assert (lat._gram_rows, lat._curve_rows) == (expected._gram_rows, expected._curve_rows)
    assert all(type(x) is int for rows, _ in (lat._gram_rows, lat._curve_rows) for row in rows for x in row)
    assert list(map(curve_class, lat.curves)) == list(map(curve_class, expected.curves))
    # The decomposition the CLI prints is the Fraction lattice's.
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["zariski", json.dumps(desc)])
    try:
        dec = zariski_decomposition(expected, DivisorClass(tuple(d)))
    except ValueError as exc:
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {' '.join(str(exc).split())}\n")
        return
    assert (code, err.getvalue()) == (0, "")
    record = json.loads(out.getvalue())
    assert record["P"] == [str(x) for x in dec.positive.coords]
    assert record["N"] == [str(x) for x in dec.negative.coords]
    assert record["support"] == list(dec.support)
    assert record["coefficients"] == [str(x) for x in dec.coefficients]


def test_the_ruled_lattice_is_the_one_built_from_fractions():
    for d in range(1, 41):
        expected = SurfaceLattice(
            ("E", "F"),
            [[Fraction(-d), Fraction(1)], [Fraction(1), Fraction(0)]],
            (CurveClass("E", (Fraction(1), Fraction(0))), CurveClass("F", (Fraction(0), Fraction(1)), True)),
        )
        lat = ruled_surface_lattice(d)
        assert lat == expected
        assert (lat._gram_rows, lat._curve_rows) == (expected._gram_rows, expected._curve_rows)
        assert all(type(x) is int for rows, _ in (lat._gram_rows, lat._curve_rows) for row in rows for x in row)
        assert list(map(curve_class, lat.curves)) == list(map(curve_class, expected.curves))


# -- time budgets -----------------------------------------------------------------


def del_pezzo(r):
    """P^2 blown up at r <= 5 general points, with every negative curve declared:
    the exceptional curves, the lines through two points and, for r = 5, the
    conic through all five.  D = H + sum i*E_i meets E_i in -i and every other
    curve nonnegatively, so its positive part is the nef class H."""
    n = r + 1
    gram = [[(1 if i == 0 else -1) if i == j else 0 for j in range(n)] for i in range(n)]
    curves = [tuple(1 if j == i else 0 for j in range(n)) for i in range(1, n)]
    curves += [
        (1,) + tuple(-1 if c in pair else 0 for c in range(1, n))
        for pair in itertools.combinations(range(1, n), 2)
    ]
    if r == 5:
        curves.append((2,) + (-1,) * r)
    d = (1,) + tuple(range(1, n))
    lat = SurfaceLattice(
        tuple(f"G{i}" for i in range(n)),
        gram,
        tuple(CurveClass(f"C{i}", c) for i, c in enumerate(curves)),
    )
    return lat, DivisorClass(tuple(d))


def test_del_pezzo_decompositions_are_quick():
    # About 6.5 ms in all on a 2-core Xeon machine.
    start = time.perf_counter()
    for r in range(1, 6):
        lat, d = del_pezzo(r)
        for _ in range(10):
            dec = zariski_decomposition(lat, d)
        assert dec.positive.coords == (1,) + (0,) * r
        assert dec.support == tuple(f"C{i}" for i in range(r))
        assert dec.coefficients == tuple(range(1, r + 1))
    assert time.perf_counter() - start < 2.0


def test_a_ruled_sweep_to_degree_20_is_quick():
    # 73 rows, about 6 ms on a 2-core Xeon machine.
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(["ruled", "--sweep", "--g-max", "3", "--d-max", "20"])
    elapsed = time.perf_counter() - start
    assert code == 0 and out.getvalue().count('"epsilon_m"') == 73
    assert elapsed < 2.0
