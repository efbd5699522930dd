"""Seeded request streams for the benchmark workloads, and the references
their answers are checked against.

A workload is an endless sequence of blocks. Every block of a workload has the
same composition (the same request slots, with the same shapes and shares);
the seed only draws the points, polynomials, lattices and parameters inside
each slot and shuffles the order. Keeping the mix fixed keeps the latency
percentiles comparable from seed to seed.

Nothing here imports the package under test. Every reference is a closed form
or a check recomputed with this file's own arithmetic.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

import speed

Check = Callable[[str, object], Optional[str]]


@dataclass(frozen=True)
class Request:
    """One CLI call: ``argv`` goes to ``cli.main``; ``check(stdout, expected)``
    returns None when the answer meets the reference, else the reason."""

    slot: str
    argv: tuple[str, ...]
    expected: object
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: Callable[[int], Iterator[list[Request]]]
    # Requests run once per seed after the timed loop, outside any timing.
    closing: Callable[[int], list[Request]]
    # Blocks per second of --seconds in a traced run, sized so that the
    # untraced and traced passes together take about --seconds at the commit
    # that defined the benchmark. The batch is fixed by seed and --seconds, so
    # its counts repeat exactly.
    trace_blocks_per_second: float
    # Times are scaled by this probe (see speed.py), whose work is most like
    # the requests'.
    probe: speed.Probe


def _small_point(rng: random.Random, n: int, height: int) -> tuple[Fraction, ...]:
    """Coordinates a/b with 1 <= abs(a), b <= height. No zero coordinate, so
    the cost of shifting to the point stays in one band."""
    return tuple(
        Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height))
        for _ in range(n)
    )


class _Deck:
    """Deals values in a seeded random order, each once per pass, so every
    value comes round equally often whatever the seed."""

    def __init__(self, rng: random.Random, values):
        self.rng, self.values, self.hand = rng, list(values), []

    def deal(self):
        if not self.hand:
            self.hand = list(self.values)
            self.rng.shuffle(self.hand)
        return self.hand.pop()


def _insert_after(rng: random.Random, block: list[Request], original: Request, extra: Request):
    """Put ``extra`` at a random position after ``original``."""
    start = block.index(original) + 1
    block.insert(rng.randint(start, len(block)), extra)


# -- jets -------------------------------------------------------------------------
#
# One multiplicity-k point p and degree D: W_m = {degree mD forms vanishing to
# order mk at p}. At any x != p the forms l^(mk)*g (l linear through p with
# l(x) != 0, g of degree m(D-k)) separate all jets of order m(D-k), and the
# line through p and x caps it there, so s(W_m, x) = m(D-k); p itself is a
# base point, s = -1.

# (slot, n, D, k, m_max, point, curve bound)
_JETS_SLOTS = (
    ("random", 2, 3, 2, 2, "random", False),
    ("random", 2, 5, 2, 1, "random", True),
    ("random", 3, 3, 1, 1, "random", False),
    ("random", 3, 3, 2, 1, "random", True),
    ("random", 3, 1, 1, 3, "random", False),
    ("explicit", 2, 2, 1, 3, "explicit", True),
    ("explicit", 3, 2, 1, 2, "explicit", False),
    ("base", 2, 3, 1, 2, "base", True),
)
# Slots whose system is asked again, at another point, later in the block.
_JETS_REPEATED = (0, 5)


def _jets_request(rng, slot, n, degree, k, m_max, point, curve, p=None) -> Request:
    p = p if p is not None else _small_point(rng, n, 3)
    system = {
        "n": n,
        "d": degree,
        "constraints": [{"type": "mult", "point": [str(c) for c in p], "order": k}],
        "m_max": m_max,
    }
    if point == "random":
        system["point"] = "random"
    elif point == "base":
        system["point"] = [str(c) for c in p]
    else:
        x = p
        while x == p:
            x = _small_point(rng, n, 5)
        system["point"] = [str(c) for c in x]
    upper = None
    if curve:
        system["curve_bound"] = {"pairing": degree - k, "mult": 1, "meets_base_locus": False}
        upper = Fraction(degree - k)
    if point == "base":
        s_values, lower = [-1] * m_max, Fraction(-1, m_max)
    else:
        s_values, lower = [m * (degree - k) for m in range(1, m_max + 1)], Fraction(degree - k)
    expected = {
        "s_values": s_values,
        "lower": lower,
        "upper": upper,
        "certified": upper is not None and lower == upper,
        "system": (n, degree, k, m_max, point, curve, p),
    }
    argv = ("--seed", str(rng.randrange(1, 2**31)), "jets", json.dumps(system, separators=(",", ":")))
    return Request(f"jets.{slot}", argv, expected, _check_jets)


def _check_jets(stdout: str, expected) -> Optional[str]:
    data = json.loads(stdout)
    got = (data["s_values"], Fraction(data["lower"]),
           None if data["upper"] is None else Fraction(data["upper"]), data["certified"])
    want = (expected["s_values"], expected["lower"], expected["upper"], expected["certified"])
    return None if got == want else f"jets answer {got} != reference {want}"


def jets_blocks(seed: int) -> Iterator[list[Request]]:
    rng = random.Random(f"jets:{seed}")
    while True:
        firsts = [_jets_request(rng, *slot) for slot in _JETS_SLOTS]
        block = list(firsts)
        rng.shuffle(block)
        for i in _JETS_REPEATED:
            n, degree, k, m_max, point, curve, p = firsts[i].expected["system"]
            again = _jets_request(rng, "repeat", n, degree, k, m_max, point, curve, p)
            _insert_after(rng, block, firsts[i], again)
        yield block


# -- valuations -------------------------------------------------------------------

# (m, k) pairs of the Galois scan, all within one cost band.
_GALOIS_PAIRS = ((2, 8), (2, 10), (2, 12), (3, 8), (3, 10), (4, 8), (4, 10), (5, 6), (5, 8), (6, 8), (6, 10))


def _galois_request(m: int, k: int) -> Request:
    argv = ("valuation", "--weights", "1,1", "--op", "galois", "--m", str(m), "--k", str(k))
    expected = {"m": m, "k": k, "bound": Fraction(2 * m * k, 2 * m - 1)}
    return Request("valuations.galois", argv, expected, _check_galois)


def _parse_rational_polynomial(text: str) -> dict[tuple[int, int], Fraction]:
    """Terms of a rational polynomial in s, t as printed by the CLI."""
    if "sqrt" in text or "(" in text:
        raise ValueError("coefficient is not rational")
    terms: dict[tuple[int, int], Fraction] = {}
    for chunk in text.replace("-", "+-").split("+"):
        if not chunk:
            continue
        sign = -1 if chunk.startswith("-") else 1
        coeff, exps = Fraction(sign), [0, 0]
        for factor in chunk.lstrip("-").split("*"):
            if factor[0] in "st":
                name, _, power = factor.partition("^")
                exps["st".index(name)] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        key = (exps[0], exps[1])
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return {e: c for e, c in terms.items() if c}


def _in_twisted_ideal(f: dict, m: int, k: int) -> bool:
    """f in (s^m, y)^k with y = t - sqrt(2)*s^(m-1): expand t^b = (y +
    sqrt(2)*s^(m-1))^b and require a >= m*max(k-b, 0) on every surviving
    s^a*y^b. Coefficients of Q(sqrt 2) are kept as (rational, sqrt 2) pairs."""
    out: dict[tuple[int, int], list[Fraction]] = {}
    for (a, b), c in f.items():
        for j in range(b + 1):
            e = b - j  # power of sqrt(2)
            coeff = c * math.comb(b, j) * 2 ** (e // 2)
            cell = out.setdefault((a + (m - 1) * e, j), [Fraction(0), Fraction(0)])
            cell[e % 2] += coeff
    return all(a >= m * max(k - b, 0) for (a, b), c in out.items() if any(c))


def _check_galois(stdout: str, expected) -> Optional[str]:
    data = json.loads(stdout)
    m, k = expected["m"], expected["k"]
    if (data["m"], data["k"], Fraction(data["bound"])) != (m, k, expected["bound"]):
        return f"galois echo {data['m']},{data['k']},{data['bound']} != {m},{k},{expected['bound']}"
    try:
        witness = _parse_rational_polynomial(data["witness"])
    except ValueError as exc:
        return f"galois witness {data['witness']!r}: {exc}"
    if not witness:
        return "galois witness is zero"
    if min(a + b for a, b in witness) != data["min_mult"]:
        return "galois witness multiplicity differs from min_mult"
    if data["min_mult"] < -(-2 * m * k // (2 * m - 1)):
        return f"galois min_mult {data['min_mult']} below ceil(2mk/(2m-1))"
    if not _in_twisted_ideal(witness, m, k):
        return "galois witness is not in the twisted ideal"
    return None


def _minmult_request(rng, nweights: int) -> Request:
    # Cost grows with the scan length ceil(a*k/max w); aim it at one value.
    weights = sorted(rng.randint(1, 5) for _ in range(nweights))
    a = sum(weights) - 1
    k = max(1, (50 if nweights == 3 else 180) * weights[-1] // a)
    argv = ("valuation", "--weights", ",".join(map(str, weights)), "--op", "minmult", "--k", str(k))
    min_mult = -(-a * k // weights[-1])
    expected = {"weights": weights, "k": k, "min_mult": min_mult, "lambda": Fraction(min_mult, k)}
    return Request(f"valuations.minmult{nweights}", argv, expected, _check_minmult)


def _check_minmult(stdout: str, expected) -> Optional[str]:
    data = json.loads(stdout)
    got = (data["weights"], data["k"], data["min_mult"], Fraction(data["lambda"]))
    want = (expected["weights"], expected["k"], expected["min_mult"], expected["lambda"])
    return None if got == want else f"minmult {got} != reference {want}"


def _norm_form_request(rng, op: str, j: int, e: int, factored: bool) -> Request:
    """s^b * N^j with N = t^2 - 2*s^(2e) = y*(y + 2*sqrt(2)*s^e), y = t -
    sqrt(2)*s^e, under weights (w0, w1) twisted by e:
    nu(N) = w1 + min(w1, e*w0), so nu(f) = b*w0 + j*(w1 + min(w1, e*w0))."""
    w0, w1, b = rng.randint(1, 3), rng.randint(1, 4), rng.randint(0, 5)
    if factored:
        f = f"s^{b}*(t-sqrt(2)*s^{e})^{j}*(t+sqrt(2)*s^{e})^{j}"
    else:
        f = f"s^{b}*(t^2-2*s^{2 * e})^{j}"
    value = b * w0 + j * (w1 + min(w1, e * w0))
    mult = b + 2 * j
    expected = {"weights": [w0, w1], "e": e, "f": f, "value": value}
    if op == "izumi":
        expected["lower"] = min(w0, w1, e * w0) * mult
        expected["upper"] = (w0 + w1 - 1) * mult
    argv = ("valuation", "--weights", f"{w0},{w1}", "--op", op, "--f", f,
            "--twist-e", str(e), "--twist-D", "2")
    return Request(f"valuations.{op}", argv, expected, _check_norm_form)


def _check_norm_form(stdout: str, expected) -> Optional[str]:
    data = json.loads(stdout)
    head = (data["weights"], data["twist"], data["f"], data["value"])
    want = (expected["weights"], {"e": expected["e"], "D": 2}, expected["f"], expected["value"])
    if head != want:
        return f"valuation {head} != reference {want}"
    if "lower" in expected:
        got = (data["lower"], data["upper"], data["holds"])
        bounds = (expected["lower"], expected["upper"])
        if got != (*bounds, bounds[0] <= expected["value"] <= bounds[1]):
            return f"izumi {got} != reference {bounds}"
    return None


def valuation_blocks(seed: int) -> Iterator[list[Request]]:
    rng = random.Random(f"valuations:{seed}")
    pairs, powers = _Deck(rng, _GALOIS_PAIRS), _Deck(rng, range(8, 13))
    # (twist exponent e, written as a product of conjugates?)
    forms = _Deck(rng, [(e, factored) for e in (1, 2) for factored in (False, True)])
    while True:
        block = [_galois_request(*pairs.deal()) for _ in range(3)]
        block += [_minmult_request(rng, n) for n in (3, 3, 2)]
        block += [
            _norm_form_request(rng, op, powers.deal(), *forms.deal())
            for op in ("eval", "eval", "izumi", "izumi")
        ]
        rng.shuffle(block)
        yield block


# -- toolkit ----------------------------------------------------------------------


def _csv_rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def _wps_request(rng, fmt: str) -> Request:
    weights = [1] + sorted(rng.randint(1, 9) for _ in range(rng.randint(1, 5)))
    n, total = len(weights) - 1, sum(weights)
    expected = {
        "weights": ";".join(map(str, weights)),
        "seshadri": Fraction(total, weights[-1]),
        "volume": Fraction(total**n, math.prod(weights)),
    }
    argv = ("--format", fmt, "wps", "--weights", ",".join(map(str, weights)))
    return Request(f"toolkit.wps.{fmt}", argv, expected, _check_wps)


def _check_wps(stdout: str, expected) -> Optional[str]:
    if stdout.startswith("{"):
        row = json.loads(stdout)
        row["weights"] = ";".join(map(str, row["weights"]))
    else:
        row = _csv_rows(stdout)[0]
    got = (row["weights"], Fraction(row["seshadri"]), Fraction(row["volume"]))
    want = (expected["weights"], expected["seshadri"], expected["volume"])
    return None if got == want else f"wps {got} != reference {want}"


def _whs_request(rng) -> Request:
    n, k = rng.randint(1, 5), rng.randint(1, 6)
    l = rng.randint(max(2, k), 9)
    d = rng.randint(1, n + k + l - 1)
    # Largest m <= d in the numerical semigroup <k, l>, by marking sums.
    reachable = {0}
    for value in range(1, d + 1):
        if value - k in reachable or value - l in reachable:
            reachable.add(value)
    m, r = max(reachable), d - k - l
    expected = {
        "spec": [n, k, l, d, r, m],
        "bound": Fraction((n - r) * m, k * l),
        "equality": d <= k * l,
        "volume": Fraction((n - r) ** n * d, k * l),
    }
    argv = ("whs", "--n", str(n), "--k", str(k), "--l", str(l), "--d", str(d))
    return Request("toolkit.whs", argv, expected, _check_whs)


def _check_whs(stdout: str, expected) -> Optional[str]:
    data = json.loads(stdout)
    got = ([data[key] for key in "nkldrm"], Fraction(data["bound"]), data["equality"],
           Fraction(data["volume"]))
    want = (expected["spec"], expected["bound"], expected["equality"], expected["volume"])
    return None if got == want else f"whs {got} != reference {want}"


def _ruled_pairs(g_max: int, d_max: int) -> list[tuple[int, int]]:
    return [
        (g, d)
        for g in range(g_max + 1)
        for d in range(1, d_max + 1)
        if d > 2 * g - 2 and not (g == 0 and d < 2)
    ]


def _ruled_request(rng, fmt: str, g_max: Optional[int] = None) -> Request:
    """One (g, d), or a sweep up to g_max when it is given."""
    sweep = g_max is not None
    if sweep:
        d_max = rng.randint(8, 12)
        pairs = _ruled_pairs(g_max, d_max)
        args = ("ruled", "--sweep", "--g-max", str(g_max), "--d-max", str(d_max))
    else:
        pairs = [rng.choice(_ruled_pairs(4, 20))]
        args = ("ruled", "--g", str(pairs[0][0]), "--d", str(pairs[0][1]))
    expected = [(g, d, 1 - Fraction(2 * g - 2, d)) for g, d in pairs]
    slot = f"toolkit.ruled{'.sweep' if sweep else ''}.{fmt}"
    return Request(slot, ("--format", fmt) + args, expected, _check_ruled)


def _check_ruled(stdout: str, expected) -> Optional[str]:
    rows = _csv_rows(stdout) if not stdout.startswith(("{", "[")) else json.loads(stdout)
    rows = rows if isinstance(rows, list) else [rows]
    got = [(int(r["g"]), int(r["d"]), Fraction(r["epsilon_m"])) for r in rows]
    return None if got == expected else f"ruled epsilon_m {got[:3]}... != 1-(2g-2)/d"


def _del_pezzo(r: int) -> tuple[list[str], list[list[int]], list[tuple[str, list[int]]]]:
    """P^2 blown up at r <= 5 general points: basis H, E1..Er with H^2 = 1 and
    Ei^2 = -1. The declared curves are all its negative curves (the Ei, the
    lines Lij = H - Ei - Ej and, for r = 5, the conic 2H - sum Ei), plus the
    fibre F = H - E1 when r = 1; they span the effective cone."""
    generators = ["H"] + [f"E{i}" for i in range(1, r + 1)]
    gram = [[(1 if i == 0 else -1) if i == j else 0 for j in range(r + 1)] for i in range(r + 1)]
    curves = [(f"E{i}", [1 if j == i else 0 for j in range(r + 1)]) for i in range(1, r + 1)]
    if r == 1:
        curves.append(("F", [1, -1]))
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            curves.append((f"L{i}{j}", [1] + [-1 if c in (i, j) else 0 for c in range(1, r + 1)]))
    if r == 5:
        curves.append(("Q", [2] + [-1] * r))
    return generators, gram, curves


def _hirzebruch(e: int):
    """F_e: basis E, F with E^2 = -e, E.F = 1, F^2 = 0; curves E and F."""
    return ["E", "F"], [[-e, 1], [1, 0]], [("E", [1, 0]), ("F", [0, 1])]


def _zariski_request(rng, r: int) -> Request:
    if r == 0:
        e = rng.randint(1, 6)
        generators, gram, curves = _hirzebruch(e)
        positive = [1, e + 1]  # E + (e+1)F is ample on F_e
    else:
        generators, gram, curves = _del_pezzo(r)
        positive = [3] + [-1] * r  # -K is ample for r <= 8
    size = len(generators)
    # D = (effective combination of the declared curves + a multiple of an
    # ample class) / q is effective, so its decomposition exists.
    coords = [Fraction(0)] * size
    for _, c in curves:
        weight = rng.randint(0, 3)
        coords = [x + weight * y for x, y in zip(coords, c)]
    bump = rng.randint(0 if any(coords) else 1, 2)
    q = rng.randint(1, 3)
    coords = [(x + bump * y) / q for x, y in zip(coords, positive)]
    desc = {
        "generators": generators,
        "gram": gram,
        "curves": [{"name": n, "coords": c} for n, c in curves],
        "D": {"coords": [str(x) for x in coords]},
    }
    expected = {"gram": gram, "curves": {n: c for n, c in curves}, "D": coords}
    argv = ("zariski", json.dumps(desc, separators=(",", ":")))
    slot = "toolkit.zariski." + ("hirzebruch" if r == 0 else "delpezzo")
    return Request(slot, argv, expected, _check_zariski)


def _pairing(gram, a, b) -> Fraction:
    return sum((x * y * gram[i][j] for i, x in enumerate(a) for j, y in enumerate(b)), Fraction(0))


def _negative_definite(matrix: list[list[Fraction]]) -> bool:
    """Gaussian elimination without pivoting: every pivot must be negative."""
    a = [row[:] for row in matrix]
    for col in range(len(a)):
        if a[col][col] >= 0:
            return False
        for i in range(col + 1, len(a)):
            factor = a[i][col] / a[col][col]
            a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    return True


def _check_zariski(stdout: str, expected) -> Optional[str]:
    data = json.loads(stdout)
    gram, curves, d = expected["gram"], expected["curves"], expected["D"]
    p = [Fraction(x) for x in data["P"]]
    n = [Fraction(x) for x in data["N"]]
    coeffs = [Fraction(x) for x in data["coefficients"]]
    support = data["support"]
    if [x + y for x, y in zip(p, n)] != d:
        return "zariski P + N != D"
    if any(name not in curves for name in support) or len(coeffs) != len(support):
        return "zariski support is not a set of declared curves"
    rebuilt = [Fraction(0)] * len(d)
    for name, c in zip(support, coeffs):
        rebuilt = [x + c * y for x, y in zip(rebuilt, curves[name])]
    if rebuilt != n or any(c <= 0 for c in coeffs):
        return "zariski N is not the positive combination of its support"
    if any(_pairing(gram, p, c) < 0 for c in curves.values()):
        return "zariski P is not nef"
    if any(_pairing(gram, p, curves[name]) != 0 for name in support):
        return "zariski P is not orthogonal to the support"
    block = [[_pairing(gram, curves[a], curves[b]) for b in support] for a in support]
    if support and not _negative_definite(block):
        return "zariski support is not negative definite"
    if data["checks"] != {"nef": True, "orthogonal": True, "negdef": True}:
        return f"zariski reports checks {data['checks']}"
    return None


def _bounds_request(rng, n: int) -> Request:
    q = rng.randint(1, 7)
    eps = Fraction(rng.randint(1, 2 * q - 1), q)
    s = (eps / 2) / (n - 1 + eps)
    expected = {"n": n, "eps": eps, "M": ((n + 1 - eps / 2) / s) ** n}
    return Request("toolkit.bounds", ("bounds", "--n", str(n), "--eps", str(eps)), expected, _check_bounds)


def _check_bounds(stdout: str, expected) -> Optional[str]:
    data = json.loads(stdout)
    got = (data["n"], Fraction(data["eps"]), Fraction(data["M"]), data["oracle_checked"], data["attained"])
    want = (expected["n"], expected["eps"], expected["M"], True, False)
    return None if got == want else f"bounds {got} != reference {want}"


# Case ids of the frozen reproduction table, by id prefix. The jets anchor
# (thm1.6) takes most of a full run's time, so the timed stream runs the other
# prefixes and the full table runs once, outside the timed loop.
_REPRODUCE_IDS = {
    "ex1": ("ex1.3-wps-family-n3d4", "ex1.3-wps-seshadri", "ex1.3-wps-seshadri-n2d2",
            "ex1.3-wps-volume-n2d2"),
    "ex7": ("ex7.1-whs-bound-n3k2l3d5", "ex7.1-whs-volume-n3k2l3d5", "ex7.2-catalog-x6-n3",
            "ex7.4-catalog-ruled-g2d10", "ex7.4-ruled-model-g2d10", "ex7.4-seshadri-marked-g2d10",
            "ex7.4-zariski-g2d10"),
    "lem": ("lem3.7-curve-bound-line", "lem6.2-minmult-112-k2", "lem6.3-discrepancy-1-4",
            "lem6.3-minmult-23-k3", "lem6.4-galois-m2k1", "lem6.4-galois-m2k3", "lem6.4-twist-eval"),
    "thm4": ("thm4.1-bound-n1eps1", "thm4.1-bound-n2eps1"),
    "thm1": ("thm1.6-jets-blowup-n2",),
}
_TIMED_PREFIXES = ("ex1", "ex7", "lem", "thm4")


def _reproduce_request(prefix: Optional[str], seed: int) -> Request:
    ids = [i for key, group in _REPRODUCE_IDS.items() if prefix in (None, key) for i in group]
    argv = ("--seed", str(seed), "reproduce") + (("--filter", prefix) if prefix else ())
    return Request(f"toolkit.reproduce.{prefix or 'all'}", argv, {"ids": ids}, _check_reproduce)


def _check_reproduce(stdout: str, expected) -> Optional[str]:
    data = json.loads(stdout)
    passed = {r["id"] for r in data["results"] if r["passed"]}
    missing = [i for i in expected["ids"] if i not in passed]
    if missing or data["failures"] or data["passes"] != data["cases_run"]:
        return f"reproduce {data['passes']}/{data['cases_run']}, not passed: {missing[:3]}"
    return None


def toolkit_blocks(seed: int) -> Iterator[list[Request]]:
    rng = random.Random(f"toolkit:{seed}")
    # r = 0 is F_e, r >= 1 is P^2 blown up at r points.
    lattices, dims = _Deck(rng, range(6)), _Deck(rng, range(2, 7))
    sweeps, prefixes = _Deck(rng, range(1, 4)), _Deck(rng, _TIMED_PREFIXES)
    while True:
        block = [_wps_request(rng, fmt) for fmt in ("json", "json", "csv")]
        block += [_whs_request(rng) for _ in range(2)]
        # The median latency falls among these six; keeping it inside one
        # cluster of similar requests keeps it steady from run to run.
        block += [_ruled_request(rng, fmt) for fmt in ("json",) * 4 + ("csv",) * 2]
        block += [_ruled_request(rng, fmt, sweeps.deal()) for fmt in ("json", "csv")]
        block += [_zariski_request(rng, lattices.deal()) for _ in range(4)]
        block += [_bounds_request(rng, dims.deal()) for _ in range(3)]
        block += [_reproduce_request(prefixes.deal(), rng.randrange(1, 2**31)) for _ in range(3)]
        rng.shuffle(block)
        yield block


def _no_closing(seed: int) -> list[Request]:
    return []


def _toolkit_closing(seed: int) -> list[Request]:
    return [_reproduce_request(None, seed)]


WORKLOADS = {
    "jets": Workload("jets", jets_blocks, _no_closing, 0.35, speed.FRACTION),
    "valuations": Workload("valuations", valuation_blocks, _no_closing, 1.0, speed.REQUEST),
    "toolkit": Workload("toolkit", toolkit_blocks, _toolkit_closing, 4.0, speed.REQUEST),
}


def perturb(value):
    """A copy of a reference with every number moved and every flag flipped,
    for checking that a wrong reference is caught."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, Fraction)):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    if isinstance(value, dict):
        return {k: perturb(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(perturb(v) for v in value)
    return value
