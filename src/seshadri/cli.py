"""Command-line front door.

Subcommands: wps, whs, jets, valuation, zariski, ruled, bounds, reproduce.
Global flags: --format json|csv, --seed, --m-max.  All numbers
are emitted as exact strings ("p/q", "a+b*sqrt(2)"); nothing is rounded.
Exit codes: 0 success, 1 reproduction failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from . import DEFAULT_SEED
from .exactmath.scalars import (
    MAX_NUMBER_DIGITS,
    TOO_LONG,
    QuadExt,
    format_scalar,
    more_digits,
    numeral_has_more_digits,
)

# -- serialization ------------------------------------------------------------


# The types that to_jsonable converts by a branch of their own.  An object of
# a subclass takes the branch of the first that it is an instance of; other
# objects are left to the end of to_jsonable.
_CONVERTED_TYPES = dict.fromkeys(
    (dict, list, tuple, bool, str, type(None), int, Fraction, QuadExt, float)
)


def to_jsonable(obj):
    """Canonical JSON-ready form: exact scalars and polynomials as strings,
    +inf as "inf".  A number of more than MAX_NUMBER_DIGITS digits, which
    CPython will not print, raises ValueError, built or left unbuilt as
    TOO_LONG.  `polynomials` is loaded only for an object that no other
    branch takes, so an answer without a polynomial does not load it."""
    # Branches test the exact type: a failed isinstance against Fraction, an
    # abc class, costs several times a type test, and most fields are not
    # Fractions.
    kind = type(obj)
    if kind not in _CONVERTED_TYPES:
        kind = next((t for t in _CONVERTED_TYPES if isinstance(obj, t)), kind)
    if kind is Fraction:
        # format_scalar's form of a Fraction, str(obj), without its call: on
        # the `ruled` answer, 4.7 us in place of 5.8 us (BENCH_34.json).
        return str(obj)
    if kind is dict:
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if kind is list or kind is tuple:
        return [to_jsonable(v) for v in obj]
    if kind is str or kind is bool or obj is None:
        return obj
    if kind is int:
        # An int of at most 3 * MAX_NUMBER_DIGITS bits is below
        # 10^MAX_NUMBER_DIGITS (see `more_digits`): its bit length spares the call.
        if obj.bit_length() <= 3 * MAX_NUMBER_DIGITS or not more_digits(obj, MAX_NUMBER_DIGITS):
            return obj
        raise ValueError(f"a number of more than {MAX_NUMBER_DIGITS} digits")
    if kind is QuadExt:
        return format_scalar(obj)
    if kind is float:
        if math.isinf(obj):
            return "inf"
        raise TypeError("refusing to serialize a finite float: all arithmetic is exact")
    if obj is TOO_LONG:
        raise ValueError(f"a number of more than {MAX_NUMBER_DIGITS} digits")
    from .exactmath.polynomials import WPolynomial, format_polynomial

    if isinstance(obj, WPolynomial):
        return format_polynomial(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _jsonable_record(record):
    """to_jsonable(record); a record that is a dict is converted field by
    field, so that the ValueError of a number over the limit names the first
    top-level field, in record order, that has one."""
    if not isinstance(record, dict):
        return to_jsonable(record)
    data = {}
    for key, value in record.items():
        try:
            data[str(key)] = to_jsonable(value)
        except ValueError:
            raise ValueError(
                f"the answer's {key} has a number of more than {MAX_NUMBER_DIGITS} digits"
            ) from None
    return data


def _flatten(record: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        elif isinstance(value, list):
            items = [
                json.dumps(v, separators=(",", ":")) if isinstance(v, (dict, list)) else str(v) for v in value
            ]
            if any(";" in item for item in items):
                # The cell could not be split back into its items.
                raise ValueError(
                    f"{name}: a list item holds ';', which joins the items of a CSV cell; use --format json"
                )
            flat[name] = ";".join(items)
        else:
            flat[name] = value
    return flat


def emit(fmt: str, payload) -> str:
    """Serialize a record (or list of records) as canonical JSON or exact CSV.
    Each record is converted once, by `_jsonable_record`, which alone decides
    which field of an answer has a number too long to print."""
    if isinstance(payload, list):
        data = [_jsonable_record(record) for record in payload]
    else:
        data = _jsonable_record(payload)
    if fmt == "json":
        return json.dumps(data, separators=(",", ":"))
    if fmt == "csv":
        import csv

        rows = data if isinstance(data, list) else [data]
        rows = [_flatten(r) if isinstance(r, dict) else {"value": r} for r in rows]
        header = list(dict.fromkeys(k for r in rows for k in r))
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([row.get(k, "") for k in header] for row in rows)
        return out.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


# -- shared argument helpers --------------------------------------------------


def _parse_weights(text: str) -> tuple[int, ...]:
    weights = text.replace(" ", "").split(",")
    if any(map(numeral_has_more_digits, weights)):
        raise _too_many_digits("--weights")
    try:
        return tuple(int(w) for w in weights)
    except ValueError as exc:
        raise ValueError(f"bad weight list {text!r}: {exc}") from None


class _LongInteger(str):
    """The text of a JSON integer of more than MAX_NUMBER_DIGITS digits.
    json.loads would fail on it without naming its field; `_typed` and
    `_fraction` name it."""


def _json_int(text: str):
    return _LongInteger(text) if numeral_has_more_digits(text) else int(text)


def _too_many_digits(where: str) -> ValueError:
    return ValueError(f"{where}: a number of more than {MAX_NUMBER_DIGITS} digits")


def _fraction(value, where: str) -> Fraction:
    """A JSON number or string, or a flag's text, as a rational; a numerator
    or a denominator of more than MAX_NUMBER_DIGITS digits is an error that
    names where it sits.  A JSON int, whose digits `_json_int` has bounded,
    is taken as it is; a bool, null, array or object is no number, and
    neither is a text that Fraction does not read or one over zero."""
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, (float, str)):
        raise ValueError(f"{where}: expected a number")
    text = str(value)
    if any(map(numeral_has_more_digits, text.split("/"))):
        raise _too_many_digits(where)
    # An exponent, as in 1e99999999, writes out digits that the text does not
    # show; Fraction would build them all before any check.
    mantissa, e, exponent = text.lower().partition("e")
    try:
        written = sum(c.isdigit() for c in mantissa) + abs(int(exponent)) if e else 0
    except ValueError:  # not an exponent: Fraction refuses the literal below
        written = 0
    if written > MAX_NUMBER_DIGITS:
        raise _too_many_digits(where)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):  # no number, or a zero denominator
        raise ValueError(f"{where}: expected a number") from None


def _read_json_arg(text: str):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except ValueError:
        # CPython refuses an int of more than MAX_NUMBER_DIGITS digits; read
        # again, keeping such an int as its text, so that its field is named.
        # Malformed JSON raises the same error on both passes.
        return json.loads(text, parse_int=_json_int)


_KINDS = {dict: "a JSON object", list: "a JSON array", int: "an integer", bool: "true or false"}


def _typed(value, kind: type, where: str):
    """value if it has JSON type kind (dict, list, int or bool), else an error
    naming where it sits.  An integral float such as 2.0 counts as an int; 1.5
    is not truncated, and neither a number nor "false" counts as a bool."""
    if isinstance(value, _LongInteger):
        raise _too_many_digits(where)
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


def _numbers(values, where: str) -> list:
    """A JSON array of numbers: an int, whose digits `_json_int` has bounded,
    kept as it is, and any other entry read by `_fraction`."""
    values = _typed(values, list, where)
    return [c if type(c) is int else _fraction(c, f"{where}[{i}]") for i, c in enumerate(values)]


# -- subcommands --------------------------------------------------------------
#
# Each handler imports the module it runs, so that importing this module and
# building the parser load only `exactmath.scalars`, and a call loads what it
# uses.


def cmd_wps(args) -> tuple[object, int]:
    from . import wps

    return wps.wps_record(_parse_weights(args.weights)), 0


def cmd_whs(args) -> tuple[object, int]:
    from . import wps

    return wps.whs_record(args.n, args.k, args.l, args.d), 0


def cmd_jets(args) -> tuple[object, int]:
    import random

    from . import jets

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
                _numbers(_field(c, "point", at), f"{at}.point"),
                _typed(_field(c, "order", at), int, f"{at}.order"),
            )
        )
    m_max = _typed(desc.get("m_max", args.m_max), int, "m_max")
    curve_bound = None
    if desc.get("curve_bound") is not None:
        at = "curve_bound"
        cb = _typed(desc[at], dict, at)
        curve_bound = jets.seshadri_upper_via_curve(
            _fraction(_field(cb, "pairing", at), f"{at}.pairing"),
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
        record = max(
            (
                jets.moving_seshadri_lower(
                    series, jets.random_rational_point(rng, nvars), m_max, curve_bound
                )
                for _ in range(3)
            ),
            key=lambda r: r["lower"],
        )
    else:
        record = jets.moving_seshadri_lower(
            series, _numbers(point_spec, "point"), m_max, curve_bound
        )
    return record, 0


def cmd_valuation(args) -> tuple[object, int]:
    from . import valuations

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
        from .exactmath.polynomials import BudgetExceeded, parse_product

        run = valuations.valuation_eval if args.op == "eval" else valuations.izumi_check
        try:
            factors = parse_product(args.f, names, sqrt2=twist is not None)
            try:
                result = run(nu, factors)
            except BudgetExceeded:
                if [k for _, k in factors] == [1]:  # one base: its own expansion
                    raise
                # The factors can cost more to rewrite than their product, as
                # (1+t+...+t^n)*(1-t) = 1-t^(n+1) does: rewrite the expansion.
                result = run(nu, factors.expand())
        except BudgetExceeded as exc:
            raise ValueError(f"--f: {exc}") from None
        twist_record = {"e": twist.e, "D": 2} if twist else None
        head = {"weights": list(weights), "twist": twist_record, "f": args.f}
        if args.op == "eval":
            return {**head, "value": result}, 0
        return {**head, **result}, 0
    if args.op == "minmult":
        if args.k is None:
            raise ValueError("--k is required for op 'minmult'")
        min_mult, lam = valuations.ideal_min_multiplicity(nu, args.k)
        return {
            "weights": list(weights),
            "k": args.k,
            "min_mult": min_mult,
            "lambda": lam,
        }, 0
    if args.op == "galois":
        if args.m is None or args.k is None:
            raise ValueError("--m and --k are required for op 'galois'")
        return valuations.galois_min_mult(args.m, args.k), 0
    raise ValueError(f"unknown valuation op {args.op!r}")


def _lattice_from_json(desc):
    """The declared curve lattice of a zariski description, as a
    `surfaces.SurfaceLattice`.  A JSON int in the Gram matrix or in a
    curve's coordinates is read as it is and any other entry by `_fraction`;
    the lattice's constructor forms its integer rows and checks them."""
    from . import surfaces

    where = "zariski description"
    generators = _typed(_field(desc, "generators", where), list, "generators")
    generators = tuple(str(g) for g in generators)
    rows = _typed(_field(desc, "gram", where), list, "gram")
    gram = [_numbers(row, f"gram[{i}]") for i, row in enumerate(rows)]
    curves = []
    for i, c in enumerate(_typed(_field(desc, "curves", where), list, "curves")):
        at = f"curves[{i}]"
        name = str(_typed(c, dict, at).get("name", f"C{i}"))
        coords = tuple(_numbers(_field(c, "coords", at), f"{at}.coords"))
        through = _typed(c.get("through", False), bool, f"{at}.through")
        mult = _typed(c.get("mult", 1), int, f"{at}.mult")
        curves.append(surfaces.CurveClass(name, coords, through, mult))
    return surfaces.SurfaceLattice(generators, gram, tuple(curves))


def cmd_zariski(args) -> tuple[object, int]:
    from . import surfaces

    desc = _typed(_read_json_arg(args.description), dict, "zariski description")
    lat = _lattice_from_json(desc)
    d_spec = _field(desc, "D", "zariski description")
    d_coords = _field(d_spec, "coords", "D") if isinstance(d_spec, dict) else d_spec
    dec = surfaces.zariski_decomposition(lat, surfaces.DivisorClass(_numbers(d_coords, "D")))
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


# The most rows of `ruled --sweep`: about 0.05 s at 0.012 ms per row in json
# on a 2-core Xeon machine.
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
    from .surfaces import ruled_surface_model

    if args.sweep:
        return [ruled_surface_model(g, d) for g, d in _sweep_pairs(args.g_max, args.d_max)], 0
    if args.g is None or args.d is None:
        raise ValueError("either --sweep or both --g and --d are required")
    return ruled_surface_model(args.g, args.d), 0


def cmd_bounds(args) -> tuple[object, int]:
    from . import bounds

    eps = _fraction(args.eps, "--eps")
    if bounds.volume_bound_exceeds_digits(args.n, eps, MAX_NUMBER_DIGITS):
        raise ValueError(
            f"bounds with --n {args.n} --eps {args.eps} has an M of more than "
            f"{MAX_NUMBER_DIGITS} digits; lower --n"
        )
    return bounds.best_volume_bound(args.n, eps), 0


def cmd_reproduce(args) -> tuple[object, int]:
    from .reproduce import run_reproduction

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
