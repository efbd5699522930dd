"""Command-line front door.

Subcommands: wps, whs, jets, valuation, zariski, ruled, bounds, reproduce.
Global flags: --format json|csv, --seed, --m-max.  All numbers
are emitted as exact strings ("p/q", "a+b*sqrt(2)"); nothing is rounded.
Exit codes: 0 success, 1 reproduction failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import random
import sys
from fractions import Fraction
from typing import Optional

from . import bounds, jets, surfaces, valuations, wps
from .exactmath import (
    ExactMatrix,
    QuadExt,
    WPolynomial,
    format_polynomial,
    format_scalar,
    parse_polynomial,
    parse_scalar,
)
from .reproduce import DEFAULT_SEED, run_reproduction

# -- serialization ------------------------------------------------------------


def to_jsonable(obj):
    """Canonical JSON-ready form: exact scalars as strings, dataclasses as
    field-ordered objects, +inf as "inf"."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf"
        raise TypeError("refusing to serialize a finite float: all arithmetic is exact")
    if isinstance(obj, (Fraction, QuadExt)):
        return format_scalar(obj)
    if isinstance(obj, WPolynomial):
        return format_polynomial(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _flatten(record: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        elif isinstance(value, list):
            flat[name] = ";".join(str(v) for v in value)
        else:
            flat[name] = value
    return flat


def emit(fmt: str, payload) -> str:
    """Serialize a record (or list of records) as canonical JSON or exact CSV."""
    data = to_jsonable(payload)
    if fmt == "json":
        return json.dumps(data, separators=(",", ":"))
    if fmt == "csv":
        rows = data if isinstance(data, list) else [data]
        rows = [_flatten(r) if isinstance(r, dict) else {"value": r} for r in rows]
        header: list[str] = []
        for r in rows:
            header.extend(k for k in r if k not in header)
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def _parse_leaf(value):
    if isinstance(value, str):
        if value == "True":
            return True
        if value == "False":
            return False
        try:
            return parse_scalar(value)
        except ValueError:
            return value
    if isinstance(value, list):
        return [_parse_leaf(v) for v in value]
    if isinstance(value, dict):
        return {k: _parse_leaf(v) for k, v in value.items()}
    return value


def decode(fmt: str, text: str):
    """Parse emitted output back into exact values (inverse of emit on records
    whose leaves are scalars, booleans, and integers)."""
    if fmt == "json":
        return _parse_leaf(json.loads(text))
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        return [{k: _parse_leaf(v) for k, v in row.items()} for row in rows]
    raise ValueError(f"unknown format {fmt!r}")


# -- shared argument helpers --------------------------------------------------


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(w) for w in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise ValueError(f"bad weight list {text!r}: {exc}") from None


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def _read_json_arg(text: str):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            text = handle.read()
    return json.loads(text)


_KINDS = {dict: "a JSON object", list: "a JSON array", int: "an integer", bool: "true or false"}


def _typed(value, kind: type, where: str):
    """value if it has JSON type kind (dict, list, int or bool), else an error
    naming where it sits.  An integral float such as 2.0 counts as an int; 1.5
    is not truncated, and neither a number nor "false" counts as a bool."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{where}: expected {_KINDS[kind]}")
    return value


def _field(desc: dict, key: str, where: str):
    """desc[key] from a JSON object, or an error naming the field and where
    it is missing."""
    try:
        return desc[key]
    except KeyError:
        raise ValueError(f"{where}: missing field {key!r}") from None


def _fraction_point(coords, where: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(str(c)) for c in _typed(coords, list, where))


# -- subcommands --------------------------------------------------------------


def cmd_wps(args) -> tuple[object, int]:
    w = wps.WeightVector(_parse_weights(args.weights))
    record = {
        "weights": list(w.weights),
        "seshadri": wps.wps_seshadri(w),
        "volume": wps.wps_anticanonical_volume(w),
    }
    return record, 0


def cmd_whs(args) -> tuple[object, int]:
    spec = wps.WeightedHypersurfaceSpec(args.n, args.k, args.l, args.d)
    return wps.whs_record(spec), 0


def cmd_jets(args) -> tuple[object, int]:
    where = "jets system"
    desc = _typed(_read_json_arg(args.system), dict, where)
    nvars = _typed(_field(desc, "n", where), int, "n")
    degree = _typed(_field(desc, "d", where), int, "d")
    constraints = []
    for i, c in enumerate(_typed(desc.get("constraints", []), list, "constraints")):
        at = f"constraints[{i}]"
        if _typed(c, dict, at).get("type") != "mult":
            raise ValueError(f"unknown constraint type {c.get('type')!r}")
        constraints.append(
            (
                _fraction_point(_field(c, "point", at), f"{at}.point"),
                _typed(_field(c, "order", at), int, f"{at}.order"),
            )
        )
    m_max = _typed(desc.get("m_max", args.m_max), int, "m_max")
    curve_bound = None
    if desc.get("curve_bound") is not None:
        at = "curve_bound"
        cb = _typed(desc[at], dict, at)
        curve_bound = jets.seshadri_upper_via_curve(
            Fraction(str(_field(cb, "pairing", at))),
            _typed(_field(cb, "mult", at), int, f"{at}.mult"),
            _typed(_field(cb, "meets_base_locus", at), bool, f"{at}.meets_base_locus"),
        )

    # Built once per multiple and shared by every sampled point.
    @functools.cache
    def series(m: int) -> jets.LinearSystem:
        scaled = [jets.MultConstraint(point, m * order) for point, order in constraints]
        return jets.LinearSystem(nvars, m * degree, scaled)

    point_spec = desc.get("point", "random")
    if point_spec == "random":
        rng = random.Random(args.seed)
        estimate = max(
            (
                jets.moving_seshadri_lower(
                    series, jets.random_rational_point(rng, nvars), m_max, curve_bound
                )
                for _ in range(3)
            ),
            key=lambda e: e.lower,
        )
    else:
        estimate = jets.moving_seshadri_lower(
            series, _fraction_point(point_spec, "point"), m_max, curve_bound
        )
    record = {
        "s_values": list(estimate.s_values),
        "lower": estimate.lower,
        "upper": estimate.upper,
        "certified": estimate.certified_equal,
    }
    return record, 0


def cmd_valuation(args) -> tuple[object, int]:
    weights = _parse_weights(args.weights)
    twist = None
    if args.twist_e is not None:
        if args.twist_D != 2:
            raise ValueError("only sqrt(2) twists are supported")
        twist = valuations.Twist(args.twist_e)
    nu = valuations.MonomialValuation(weights, twist)
    names = ("s", "t", "u")[: len(weights)]
    if args.op in ("eval", "izumi"):
        if args.f is None:
            raise ValueError(f"--f is required for op {args.op!r}")
        f = parse_polynomial(args.f, names, sqrt2=twist is not None)
        if args.op == "eval":
            return {
                "weights": list(weights),
                "twist": {"e": twist.e, "D": 2} if twist else None,
                "f": args.f,
                "value": valuations.valuation_eval(nu, f),
            }, 0
        check = valuations.izumi_check(nu, f)
        return {
            "weights": list(weights),
            "twist": {"e": twist.e, "D": 2} if twist else None,
            "f": args.f,
            "lower": check.lower,
            "value": check.value,
            "upper": check.upper,
            "holds": check.holds,
            "note": check.note,
        }, 0
    if args.op == "minmult":
        if args.k is None:
            raise ValueError("--k is required for op 'minmult'")
        query = valuations.ValuationIdealQuery(nu, args.k)
        min_mult, lam = valuations.ideal_min_multiplicity(query)
        return {
            "weights": list(weights),
            "k": args.k,
            "min_mult": min_mult,
            "lambda": lam,
        }, 0
    if args.op == "galois":
        if args.m is None or args.k is None:
            raise ValueError("--m and --k are required for op 'galois'")
        result = valuations.galois_min_mult(args.m, args.k)
        return {
            "m": args.m,
            "k": args.k,
            "min_mult": result.min_mult,
            "bound": result.bound,
            "witness": result.witness,
        }, 0
    raise ValueError(f"unknown valuation op {args.op!r}")


def _lattice_from_json(desc) -> surfaces.SurfaceLattice:
    where = "zariski description"
    generators = _typed(_field(desc, "generators", where), list, "generators")
    generators = tuple(str(g) for g in generators)
    rows = _typed(_field(desc, "gram", where), list, "gram")
    gram = ExactMatrix.from_rows([_fraction_point(row, f"gram[{i}]") for i, row in enumerate(rows)])
    curves = []
    for i, c in enumerate(_typed(_field(desc, "curves", where), list, "curves")):
        at = f"curves[{i}]"
        curves.append(
            surfaces.CurveClass(
                name=str(_typed(c, dict, at).get("name", f"C{i}")),
                coords=_fraction_point(_field(c, "coords", at), f"{at}.coords"),
                through_marked_point=_typed(c.get("through", False), bool, f"{at}.through"),
                mult=_typed(c.get("mult", 1), int, f"{at}.mult"),
            )
        )
    return surfaces.SurfaceLattice(generators, gram, tuple(curves))


def cmd_zariski(args) -> tuple[object, int]:
    desc = _typed(_read_json_arg(args.description), dict, "zariski description")
    lat = _lattice_from_json(desc)
    d_spec = _field(desc, "D", "zariski description")
    d_coords = _field(d_spec, "coords", "D") if isinstance(d_spec, dict) else d_spec
    divisor = surfaces.DivisorClass(_fraction_point(d_coords, "D"))
    dec = surfaces.zariski_decomposition(lat, divisor)
    record = {
        "P": list(dec.positive.coords),
        "N": list(dec.negative.coords),
        "support": list(dec.support),
        "coefficients": list(dec.coefficients),
        # P is nef and P.N = 0 by construction, and zariski_decomposition
        # raises unless the support is negative definite.
        "checks": {"nef": True, "orthogonal": True, "negdef": True},
        "assumed_complete_curve_list": True,
    }
    return record, 0


def _ruled_record(g: int, d: int) -> dict:
    model = surfaces.ruled_surface_model(g, d)
    dec, ses = model.decomposition, model.seshadri
    return {
        "g": g,
        "d": d,
        "minus_K": list(model.minus_k.coords),
        "P": list(dec.positive.coords),
        "N": list(dec.negative.coords),
        "epsilon_m": model.epsilon_m,
        "certified": ses.certified,
        "volume": ses.self_intersection,
    }


# The most rows of `ruled --sweep`: about 2.5 s at 0.6 ms per row on a
# 2-core Xeon machine.
MAX_SWEEP_ROWS = 4096


def _sweep_pairs(g_max: int, d_max: int) -> list[tuple[int, int]]:
    """The (g, d) of `ruled --sweep`: g <= g_max, d <= d_max and d > 2g - 2
    (d >= 2 when g = 0), by increasing g, then d.  No degree is left once
    2g - 2 >= d_max.  Each genus adds its count of degrees before any pair is
    listed, and every genus g >= 1 adds at least one, so a sweep of more than
    MAX_SWEEP_ROWS rows raises ValueError within that many genera."""
    firsts, count = [], 0
    for g in range(g_max + 1):
        if 2 * g - 2 >= d_max:
            break
        first = 2 if g == 0 else 2 * g - 1
        count += max(0, d_max - first + 1)
        if count > MAX_SWEEP_ROWS:
            raise ValueError(
                f"ruled --sweep with --g-max {g_max} --d-max {d_max} has more than "
                f"{MAX_SWEEP_ROWS} rows; lower --g-max or --d-max"
            )
        firsts.append((g, first))
    return [(g, d) for g, first in firsts for d in range(first, d_max + 1)]


def cmd_ruled(args) -> tuple[object, int]:
    if args.sweep:
        return [_ruled_record(g, d) for g, d in _sweep_pairs(args.g_max, args.d_max)], 0
    if args.g is None or args.d is None:
        raise ValueError("either --sweep or both --g and --d are required")
    return _ruled_record(args.g, args.d), 0


def cmd_bounds(args) -> tuple[object, int]:
    eps = _parse_fraction(args.eps)
    result = bounds.best_volume_bound(args.n, eps)
    record = {
        "n": args.n,
        "eps": eps,
        "M": result.M,
        "a": result.a,
        "b": result.b,
        "c": result.c,
        "attained": result.attained,
        "oracle_checked": bounds.grid_confirms_best(args.n, eps),
        "conjectured_optimal_comparison": bounds.conjectured_optimal_comparison(args.n, eps),
    }
    return record, 0


def cmd_reproduce(args) -> tuple[object, int]:
    report = run_reproduction(args.filter, args.seed)
    payload = {
        "cases_run": report.cases_run,
        "passes": report.passes,
        "failures": [
            {"id": r.id, "expected": _safe_display(r.expected), "actual": _safe_display(r.actual)}
            for r in report.failures
        ],
        "results": [{"id": r.id, "passed": r.passed} for r in report.results],
    }
    print(
        f"reproduce: {report.passes}/{report.cases_run} cases passed "
        f"in {report.wall_time_seconds:.2f}s",
        file=sys.stderr,
    )
    return payload, (0 if report.ok else 1)


def _safe_display(value) -> str:
    try:
        return emit("json", value)
    except TypeError:
        return repr(value)


# -- entry point --------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.  Subcommands store their
    handler's name, which `main` looks up in this module when it runs."""
    parser = argparse.ArgumentParser(
        prog="seshadri",
        description="Exact computations of Seshadri constants, jet separation, "
        "valuation-ideal invariants, Zariski decompositions, and volume bounds.",
        epilog="All output is exact: rationals are printed as p/q. "
        "Runs are deterministic for a fixed --seed.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for random-point sampling (default %(default)s)",
    )
    parser.add_argument(
        "--m-max", type=int, default=3, help="largest multiple for jet series (default 3)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wps", help="weighted projective space invariants")
    p.add_argument("--weights", required=True, help="comma-separated, e.g. 1,1,2")
    p.set_defaults(handler="cmd_wps")

    p = sub.add_parser("whs", help="weighted hypersurface bound and volume")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler="cmd_whs")

    p = sub.add_parser("jets", help="jet separation of a constrained linear system")
    p.add_argument(
        "system",
        help='JSON (or @file): {"n":2,"d":3,"constraints":[{"type":"mult",'
        '"point":[0,0],"order":1}],"point":[...]|"random","m_max":3}',
    )
    p.set_defaults(handler="cmd_jets")

    p = sub.add_parser("valuation", help="monomial/twisted valuation computations")
    p.add_argument("--weights", required=True, help="comma-separated, e.g. 1,2")
    p.add_argument("--twist-e", type=int, default=None, help="twist exponent e in t-sqrt(D)*s^e")
    p.add_argument("--twist-D", type=int, default=2, help="twist discriminant (only 2)")
    p.add_argument("--op", choices=("eval", "izumi", "minmult", "galois"), required=True)
    p.add_argument("--f", help="polynomial in s,t,u; sqrt(2) allowed when twisted")
    p.add_argument("--k", type=int, default=None, help="ideal level")
    p.add_argument("--m", type=int, default=None, help="twist parameter m")
    p.set_defaults(handler="cmd_valuation")

    p = sub.add_parser("zariski", help="Zariski decomposition on a declared lattice")
    p.add_argument(
        "description",
        help='JSON (or @file): {"generators":["E","F"],"gram":[[-10,1],[1,0]],'
        '"curves":[{"name":"E","coords":[1,0],"through":false,"mult":1},...],'
        '"D":{"coords":[2,8]}}',
    )
    p.set_defaults(handler="cmd_zariski")

    p = sub.add_parser("ruled", help="ruled-surface model P(O+O(-D)) over a genus-g curve")
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--sweep", action="store_true", help="emit a (g,d) sweep")
    p.add_argument("--g-max", type=int, default=2)
    p.add_argument("--d-max", type=int, default=12)
    p.set_defaults(handler="cmd_ruled")

    p = sub.add_parser("bounds", help="volume bound M(n, eps)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", required=True, help="rational, e.g. 1 or 1/2")
    p.set_defaults(handler="cmd_bounds")

    p = sub.add_parser("reproduce", help="re-derive the frozen example table")
    p.add_argument("--filter", default=None, help="only run case ids with this prefix")
    p.set_defaults(handler="cmd_reproduce")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = globals()[args.handler](args)
        text = emit(args.format, payload)
    except (
        ValueError,
        KeyError,
        TypeError,
        OSError,
        ZeroDivisionError,
        AssertionError,
        RuntimeError,  # RecursionError included
    ) as exc:
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
