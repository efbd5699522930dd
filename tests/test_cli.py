"""Tests for the command-line interface: serialization, subcommands, exit codes,
and seed-for-seed determinism of everything written to stdout."""

import argparse
import csv
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seshadri import bounds, cli, valuations, wps
from seshadri.cli import emit, main, to_jsonable
from seshadri.exactmath import INFINITY, QuadExt, WPolynomial, parse_polynomial, parse_product
from seshadri.exactmath.polynomials import (
    MAX_WORK,
    OPERATION_WORK,
    SQRT2_WEIGHT,
    BudgetExceeded,
    _Parser,
    _tokenize,
    format_polynomial,
)
from seshadri.exactmath.scalars import TOO_LONG, format_scalar, more_digits

from conftest import EXACTMATH_EXPORTS, parse_scalar


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- serialization ------------------------------------------------------------


def test_to_jsonable_renders_exact_scalars_as_strings():
    assert to_jsonable(Fraction(4, 5)) == "4/5"
    assert to_jsonable(Fraction(-7)) == "-7"
    assert to_jsonable(QuadExt(Fraction(1), Fraction(2))) == "1+2*sqrt(2)"


def test_to_jsonable_keeps_bools_and_ints():
    assert to_jsonable(True) is True
    assert to_jsonable(False) is False
    assert to_jsonable(3) == 3 and not isinstance(to_jsonable(3), bool)


def test_to_jsonable_infinity_is_the_only_admissible_float():
    assert to_jsonable(INFINITY) == "inf"
    with pytest.raises(TypeError, match="finite float"):
        to_jsonable(0.5)


def test_to_jsonable_polynomials_use_the_canonical_format():
    f = WPolynomial({(2, 0): Fraction(-2), (0, 2): Fraction(1)}, 2)
    assert to_jsonable(f) == "-2*s^2+t^2"


def test_to_jsonable_rejects_unknown_types():
    with pytest.raises(TypeError, match="serialize"):
        to_jsonable(object())


def test_to_jsonable_refuses_a_number_left_unbuilt_as_one_built():
    with pytest.raises(ValueError, match="more than 4300 digits"):
        to_jsonable(TOO_LONG)
    with pytest.raises(ValueError, match="4300 digits"):
        to_jsonable(Fraction(10**4300))


def test_to_jsonable_refuses_an_int_too_long_to_print():
    assert to_jsonable(10**4300 - 1) == 10**4300 - 1
    assert to_jsonable(1 - 10**4300) == 1 - 10**4300
    for over in (10**4300, -(10**4300), 2**20000):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            to_jsonable(over)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_names_the_first_field_over_whether_built_or_left_unbuilt(fmt):
    over = Fraction(1, 10**4300)
    for record, field in [
        ({"a": 1, "b": TOO_LONG, "c": over}, "b"),
        ({"a": 1, "b": over, "c": TOO_LONG}, "b"),
        ({"a": [1, TOO_LONG]}, "a"),
        ({"a": 10**4300 - 1, "b": {"c": [2, -(10**4300)]}, "d": TOO_LONG}, "b"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            emit(fmt, record)
        assert str(excinfo.value) == f"the answer's {field} has a number of more than 4300 digits"


def test_emit_json_is_compact_and_exact():
    assert emit("json", {"seshadri": Fraction(4, 5)}) == '{"seshadri":"4/5"}'


def test_emit_csv_flattens_nested_keys_and_joins_lists():
    record = {"P": [Fraction(4, 5), 8], "checks": {"nef": True}}
    assert emit("csv", record) == "P,checks.nef\n4/5;8,True\n"


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        emit("yaml", {})


def test_emit_csv_heads_rows_of_different_keys_with_their_union():
    rows = [{"a": 1, "b": Fraction(1, 2)}, {"c": True, "a": None}, {"b": 3}]
    assert emit("csv", rows) == "a,b,c\n1,1/2,\n,,True\n,3,\n"


# -- emit against the isinstance chain that it once ran -------------------------


def _chain_to_jsonable(obj):
    """to_jsonable as one isinstance chain, before it branched on the exact
    type: the oracle of the test below."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int) and not more_digits(obj, 4300):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf"
        raise TypeError("refusing to serialize a finite float: all arithmetic is exact")
    if isinstance(obj, (Fraction, QuadExt)):
        return format_scalar(obj)
    if isinstance(obj, dict):
        return {str(k): _chain_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_chain_to_jsonable(v) for v in obj]
    if obj is TOO_LONG or isinstance(obj, int):
        raise ValueError("a number of more than 4300 digits")
    if isinstance(obj, WPolynomial):
        return format_polynomial(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _chain_emit(fmt: str, payload) -> str:
    """emit built on `_chain_to_jsonable`, writing CSV with csv.DictWriter."""

    def convert(record):
        if not isinstance(record, dict):
            return _chain_to_jsonable(record)
        data = {}
        for key, value in record.items():
            try:
                data[str(key)] = _chain_to_jsonable(value)
            except ValueError:
                raise ValueError(f"the answer's {key} has a number of more than 4300 digits") from None
        return data

    data = [convert(r) for r in payload] if isinstance(payload, list) else convert(payload)
    if fmt == "json":
        return json.dumps(data, separators=(",", ":"))
    rows = data if isinstance(data, list) else [data]
    rows = [cli._flatten(r) if isinstance(r, dict) else {"value": r} for r in rows]
    header: list[str] = []
    for r in rows:
        header.extend(k for k in r if k not in header)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


class _Text(str):
    pass


class _Count(int):
    pass


class _Ratio(Fraction):
    pass


class _Long:
    """Stands in for a number that CPython will not print, so that hypothesis
    can print an example that holds one; `_unmark` puts the number in."""

    NUMBERS = {
        "10**4300": 10**4300,
        "-10**4300": -(10**4300),
        "Fraction(10**4300)": Fraction(10**4300),
        "Fraction(1, 10**4300)": Fraction(1, 10**4300),
    }

    def __init__(self, text: str):
        self.text = text

    def __repr__(self):
        return self.text


def _unmark(obj):
    if isinstance(obj, _Long):
        return _Long.NUMBERS[obj.text]
    if type(obj) is dict:
        return {k: _unmark(v) for k, v in obj.items()}
    if type(obj) in (list, tuple):
        return type(obj)(map(_unmark, obj))
    return obj


_LEAVES = st.one_of(
    st.fractions(),
    st.builds(QuadExt, st.fractions(max_denominator=100), st.fractions(max_denominator=100)),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from([INFINITY, -INFINITY, WPolynomial({(2, 0): Fraction(-2), (0, 2): Fraction(1)}, 2)]),
    st.sampled_from([10**4300 - 1, 1 - 10**4300, TOO_LONG, 0.5, _Text("t"), _Count(7), _Ratio(1, 3)]),
    st.sampled_from(sorted(_Long.NUMBERS)).map(_Long),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=8,
)
_RECORDS = st.dictionaries(st.sampled_from("abcd"), _VALUES, max_size=4)


def _outcome(convert):
    try:
        return convert()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=timedelta(seconds=1))
@given(st.one_of(_RECORDS, st.lists(_RECORDS, max_size=3), _VALUES))
@example({"a": True, "b": 1, "c": [1, True], "d": {"e": (True, 1)}})
@example({"a": 10**4300 - 1})
@example({"a": _Long("10**4300")})
@example({"a": _Long("Fraction(10**4300)")})
@example({"a": 1, "b": [2, {"c": TOO_LONG}], "c": TOO_LONG})
@example({"a": Fraction(1, 3), "b": 0.5})
@example({"a": _Text("x"), "b": [_Text("y")]})
@example([{"a": 1, "b": Fraction(1, 2)}, {"c": True, "a": None}, {"b": [QuadExt(1, 2)]}])
def test_emit_matches_the_isinstance_chain(payload):
    payload = _unmark(payload)
    for fmt in ("json", "csv"):
        assert _outcome(lambda: emit(fmt, payload)) == _outcome(lambda: _chain_emit(fmt, payload))


WHS_RECORD = {
    "n": 3,
    "k": 2,
    "l": 3,
    "d": 5,
    "r": 0,
    "m": 5,
    "bound": Fraction(5, 2),
    "equality": True,
    "volume": Fraction(45, 2),
}


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


def test_decode_inverts_emit_on_json_records():
    assert decode("json", emit("json", WHS_RECORD)) == WHS_RECORD


def test_decode_inverts_emit_on_csv_records():
    (row,) = decode("csv", emit("csv", WHS_RECORD))
    assert row == WHS_RECORD


# -- subcommand output, pinned exactly ----------------------------------------


def test_wps_flagship_line(capsys):
    code, out, _ = run_cli(capsys, "wps", "--weights", "1,1,2")
    assert code == 0
    assert out == '{"weights":[1,1,2],"seshadri":"2","volume":"8"}\n'


def test_wps_csv_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "wps", "--weights", "1,1,2")
    assert code == 0
    assert out == "weights,seshadri,volume\n1;1;2,2,8\n"


def test_whs_flagship_record(capsys):
    code, out, _ = run_cli(capsys, "whs", "--n", "3", "--k", "2", "--l", "3", "--d", "5")
    assert code == 0
    assert json.loads(out) == {
        "n": 3,
        "k": 2,
        "l": 3,
        "d": 5,
        "r": 0,
        "m": 5,
        "bound": "5/2",
        "equality": True,
        "volume": "45/2",
    }


def test_whs_with_a_huge_weight_is_immediate(capsys):
    # largest_representable scans one period of the residues, not d / k values.
    start = time.monotonic()
    code, out, _ = run_cli(
        capsys, "whs", "--n", "3", "--k", "2", "--l", "100000000001", "--d", "10000000000"
    )
    assert time.monotonic() - start < 1.0
    assert code == 0
    record = json.loads(out)
    assert (record["m"], record["equality"]) == (10000000000, True)


@pytest.mark.parametrize("n", [10**6, 3 * 10**6, 10**7])
def test_whs_refuses_an_oversized_volume_before_building_it(capsys, n):
    # (n + 2)^n has millions of digits; emit would refuse it after building it.
    start = time.monotonic()
    code, out, err = run_cli(capsys, "whs", "--n", str(n), "--k", "1", "--l", "2", "--d", "1")
    assert time.monotonic() - start < 0.5
    assert (code, out) == (2, "")
    assert err == "error: the answer's volume has a number of more than 4300 digits\n"


@pytest.mark.parametrize("count", [10**4, 10**5, 3 * 10**5])
def test_wps_refuses_an_oversized_volume_before_building_it(capsys, count):
    # (count + 1)^count has over 40000 digits; emit would refuse it after
    # building it.
    weights = ",".join(["1"] * (count + 1))
    start = time.monotonic()
    code, out, err = run_cli(capsys, "wps", "--weights", weights)
    assert time.monotonic() - start < 0.5
    assert (code, out) == (2, "")
    assert err == "error: the answer's volume has a number of more than 4300 digits\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_converts_a_refused_record_once(capsys, monkeypatch, fmt):
    # 300000 weights and a volume left unbuilt: one pass over the record
    # converts each weight once and stops at the volume.
    calls = 0
    convert = cli.to_jsonable

    def counted(obj):
        nonlocal calls
        calls += 1
        return convert(obj)

    monkeypatch.setattr(cli, "to_jsonable", counted)
    code, out, err = run_cli(capsys, "--format", fmt, "wps", "--weights", ",".join(["1"] * 300000))
    assert (code, out) == (2, "")
    assert err == "error: the answer's volume has a number of more than 4300 digits\n"
    assert 300000 < calls <= 300010


def test_ruled_flagship_record(capsys):
    code, out, _ = run_cli(capsys, "ruled", "--g", "2", "--d", "10")
    assert code == 0
    assert json.loads(out) == {
        "g": 2,
        "d": 10,
        "minus_K": ["2", "8"],
        "P": ["4/5", "8"],
        "N": ["6/5", "0"],
        "epsilon_m": "4/5",
        "certified": True,
        "volume": "32/5",
    }


def test_bounds_flagship_record(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "2", "--eps", "1")
    assert code == 0
    assert json.loads(out) == {
        "n": 2,
        "eps": "1",
        "M": "100",
        "a": "3/4",
        "b": "1/20",
        "c": "1/5",
        "attained": False,
        "oracle_checked": True,
        "conjectured_optimal_comparison": "4",
    }


RULED_LATTICE = {
    "generators": ["E", "F"],
    "gram": [[-10, 1], [1, 0]],
    "curves": [
        {"name": "E", "coords": [1, 0], "through": False, "mult": 1},
        {"name": "F", "coords": [0, 1], "through": False, "mult": 1},
    ],
    "D": {"coords": [2, 8]},
}


def test_zariski_flagship_record(capsys):
    code, out, _ = run_cli(capsys, "zariski", json.dumps(RULED_LATTICE))
    assert code == 0
    assert json.loads(out) == {
        "P": ["4/5", "8"],
        "N": ["6/5", "0"],
        "support": ["E"],
        "coefficients": ["6/5"],
        "checks": {"nef": True, "orthogonal": True, "negdef": True},
        "assumed_complete_curve_list": True,
    }


def test_zariski_accepts_at_file_input(capsys, tmp_path):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(RULED_LATTICE))
    code, out, _ = run_cli(capsys, "zariski", f"@{path}")
    assert code == 0
    assert json.loads(out)["support"] == ["E"]


def test_valuation_eval_twisted(capsys):
    code, out, _ = run_cli(
        capsys,
        "valuation",
        "--weights", "1,2",
        "--op", "eval",
        "--f", "t^2 - 2*s^2",
        "--twist-e", "1",
        "--twist-D", "2",
    )
    assert code == 0
    assert json.loads(out) == {
        "weights": [1, 2],
        "twist": {"e": 1, "D": 2},
        "f": "t^2 - 2*s^2",
        "value": 3,
    }


def test_valuation_of_a_zero_polynomial_with_a_unary_minus_is_infinite(capsys):
    code, out, err = run_cli(
        capsys, "valuation", "--weights", "1,2", "--op", "eval", "--f", "t^2 + -t^2"
    )
    assert (code, err) == (0, "")
    assert out == '{"weights":[1,2],"twist":null,"f":"t^2 + -t^2","value":"inf"}\n'


@pytest.mark.parametrize("f", ["s ", "s\t", " s", "s \t \n", "(s+t) * s  "])
def test_whitespace_around_f_is_read(capsys, f):
    code, out, err = run_cli(capsys, "valuation", "--weights", "1,2", "--op", "eval", "--f", f)
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == (1 if f.strip() == "s" else 2)


@pytest.mark.parametrize(
    "f,message",
    [("s t", "trailing tokens in polynomial: [('name', 't')]"), ("s $", "cannot tokenize polynomial at: ' $'")],
)
def test_a_bad_token_after_whitespace_is_still_refused(capsys, f, message):
    code, out, err = run_cli(capsys, "valuation", "--weights", "1,2", "--op", "eval", "--f", f)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "f,message",
    [("s+", "unexpected end of polynomial"), ("s*)", "unexpected ')' in polynomial")],
)
def test_a_parse_error_names_the_text_it_met(capsys, f, message):
    code, out, err = run_cli(capsys, "valuation", "--weights", "1,2", "--op", "eval", "--f", f)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_valuation_izumi_record(capsys):
    code, out, _ = run_cli(
        capsys, "valuation", "--weights", "2,5", "--op", "izumi", "--f", "s + t"
    )
    assert code == 0
    assert json.loads(out) == {
        "weights": [2, 5],
        "twist": None,
        "f": "s + t",
        "lower": 2,
        "value": 2,
        "upper": 6,
        "holds": True,
        "note": None,
    }


def test_valuation_galois_witness(capsys):
    code, out, _ = run_cli(
        capsys, "valuation", "--weights", "1,1", "--op", "galois", "--m", "2", "--k", "3"
    )
    assert code == 0
    assert json.loads(out) == {
        "m": 2,
        "k": 3,
        "min_mult": 4,
        "bound": "4",
        "witness": "4*s^4-4*s^2*t^2+t^4",
    }


@pytest.mark.parametrize(("mk", "budget"), [(50, 1.0), (200, 5.0)])
def test_valuation_galois_large_m_and_k_within_budget(capsys, mk, budget):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "valuation", "--weights", "1,1", "--op", "galois", "--m", str(mk), "--k", str(mk)
    )
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert elapsed < budget
    record = json.loads(out)
    assert record["min_mult"] >= math.ceil(Fraction(record["bound"]))


@pytest.mark.parametrize(
    ("m", "k", "field"),
    [("2", "15000", "witness"), ("2", "9" + "0" * 4299, "min_mult"), ("1" + "0" * 4299, "50", "bound")],
    ids=["k-15000", "k-4300-digits", "m-4300-digits"],
)
def test_valuation_galois_refuses_an_answer_too_long_to_print_at_once(capsys, m, k, field):
    # The refusal names the first field too long in the order of the record,
    # as emit does; building the k = 15000 witness alone takes about 13 s.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "valuation", "--weights", "1,1", "--op", "galois", "--m", m, "--k", k)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == f"error: the answer's {field} has a number of more than {cli.MAX_NUMBER_DIGITS} digits\n"


def test_valuation_galois_refuses_as_emit_would_after_building(capsys, monkeypatch):
    # With the witness guard off, the witness is built and emit refuses the
    # bound first all the same.
    argv = ("valuation", "--weights", "1,1", "--op", "galois", "--m", "1" + "0" * 4299, "--k", "50")
    refused = run_cli(capsys, *argv)
    monkeypatch.setattr(valuations, "_witness_exceeds_digits", lambda *shape: False)
    assert run_cli(capsys, *argv) == refused


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    ("argv", "unbuilt", "field"),
    [
        (
            ("wps", "--weights", ",".join(["1"] * 10001)),
            lambda: wps.wps_record((1,) * 10001)["volume"],
            "volume",
        ),
        (
            ("whs", "--n", "1000000", "--k", "1", "--l", "2", "--d", "1"),
            lambda: wps.whs_record(10**6, 1, 2, 1)["volume"],
            "volume",
        ),
        (
            ("valuation", "--weights", "1,1", "--op", "galois", "--m", "2", "--k", "15000"),
            lambda: valuations.galois_min_mult(2, 15000)["witness"],
            "witness",
        ),
    ],
    ids=["wps", "whs", "galois"],
)
def test_a_field_left_unbuilt_exits_2_with_the_refusal_of_emit(capsys, fmt, argv, unbuilt, field):
    assert unbuilt() is TOO_LONG
    code, out, err = run_cli(capsys, "--format", fmt, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: the answer's {field} has a number of more than {cli.MAX_NUMBER_DIGITS} digits\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--f", "(t^6000)", "--twist-e", "1"),
        ("--f", "((s+t)^6000)"),
    ],
    ids=["twisted-rewrite", "two-term-power"],
)
def test_valuation_of_a_binomial_power_within_budget(capsys, argv):
    # Each binomial coefficient comes from the previous one, so the 6001
    # terms cost no 6001 separate binomials (about 3 s in total).  In
    # parentheses the power is a base: it is expanded, and rewritten.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "valuation", "--weights", "1,2", "--op", "eval", *argv)
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert elapsed < 1.0
    assert json.loads(out)["value"] == 6000


@pytest.mark.parametrize("op", ["eval", "izumi"])
def test_a_twisted_f_over_the_rewrite_cap_exits_2_before_the_rewrite(capsys, monkeypatch, op):
    # (s+t)^2000 has the terms s^(2000-b) t^b, b = 0..2000.  Unbounded, its
    # rewrite would take about 11 s, and that of t^48000 about 3.6 s.  Under
    # a top-level sum each power is expanded and rewritten; alone it is not.
    def refused(pairs, e):
        pytest.fail("the rewrite ran on an input over the budget")

    monkeypatch.setattr("seshadri.valuations._expand_twist", refused)
    for f in ("(s+t)^2000+1", "t^48000+1"):
        code, out, err = run_cli(
            capsys, "valuation", "--weights", "1,2", "--op", op, "--f", f, "--twist-e", "1"
        )
        assert (code, out) == (2, "")
        assert re.fullmatch(
            r"error: --f: too large for the twisted rewrite: it takes about \d+ bit products, over "
            rf"the budget of {MAX_WORK}\n",
            err,
        )


def test_a_polynomial_power_over_the_parse_cap_exits_2_with_one_line(capsys):
    # unchecked, expanding (s+t+1)^80 takes about 3.4 s; under a top-level
    # sum it must be expanded
    code, out, err = run_cli(capsys, "valuation", "--weights", "1,2", "--op", "eval", "--f", "(s+t+1)^80+1")
    assert (code, out) == (2, "")
    assert err == (
        "error: --f: polynomial too large to expand: a 3-term base to the power 80 takes the parse "
        f"past its budget of {MAX_WORK} bit products\n"
    )


def _rewrite_work(text: str, e: int = 1) -> int:
    """The estimate that `MonomialValuation.rewrite_all` charges for text, read
    from its refusal under a budget of -1."""
    from seshadri.valuations import MonomialValuation, Twist

    f = parse_polynomial(text, ("s", "t"), sqrt2=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("seshadri.exactmath.polynomials.MAX_WORK", -1)
        with pytest.raises(BudgetExceeded) as refusal:
            MonomialValuation((1, 2), Twist(e)).rewrite_all([f])
    return int(re.search(r"it takes about (\d+) bit products", str(refusal.value)).group(1))


def test_the_twisted_rewrite_cap_admits_a_sum_equal_to_it(monkeypatch):
    # The estimate sums over the terms: over the denominator 1 (1 bit), t^2
    # takes 3 steps on numbers of 1 + 2*2 + 1 bits, and -2*s^2 one step on
    # 2 + 0 + 1 bits, each step a third of an operation.  With e = 1 both terms
    # have a + e*b = 2, so there are at most 3 outputs (not 4), each two
    # operations of OPERATION_WORK + 8 * 6 * 1.
    steps = 3 * (OPERATION_WORK // 3 + 6**2) + (OPERATION_WORK // 3 + 3**2)
    work = steps + 3 * 2 * (OPERATION_WORK + 8 * 6 * 1)
    assert _rewrite_work("t^2 - 2*s^2") == work
    _assert_rewrite_admits_its_estimate(monkeypatch, "t^2 - 2*s^2", work, 3)


def _assert_rewrite_admits_its_estimate(monkeypatch, text, work, value):
    from seshadri.valuations import MonomialValuation, Twist, valuation_eval

    f, nu = parse_polynomial(text, ("s", "t"), sqrt2=True), MonomialValuation((1, 2), Twist(1))
    monkeypatch.setattr("seshadri.exactmath.polynomials.MAX_WORK", work)
    assert valuation_eval(nu, f) == value
    monkeypatch.setattr("seshadri.exactmath.polynomials.MAX_WORK", work - 1)
    with pytest.raises(BudgetExceeded, match=f"it takes about {work} bit products, over the budget of {work - 1}$"):
        valuation_eval(nu, f)


@pytest.mark.parametrize("op", ["eval", "izumi"])
def test_a_twisted_f_over_the_rewrite_work_cap_exits_2_before_the_rewrite(capsys, monkeypatch, op):
    # (s/3+t/7)^584 parses within the budget, but its coefficients over
    # 7^584 * 3^584 make the rewrite take about 6 s.  The top-level sum makes
    # it expand.
    def refused(pairs, e):
        pytest.fail("the rewrite ran on an input over the budget")

    monkeypatch.setattr("seshadri.valuations._expand_twist", refused)
    code, out, err = run_cli(
        capsys, "valuation", "--weights", "1,2", "--op", op, "--f", "(s/3+t/7)^584+1", "--twist-e", "2"
    )
    assert (code, out) == (2, "")
    assert re.fullmatch(
        r"error: --f: too large for the twisted rewrite: it takes about \d+ bit products, over "
        rf"the budget of {MAX_WORK}\n",
        err,
    )


def test_the_twisted_rewrite_work_cap_admits_an_estimate_equal_to_it(monkeypatch):
    # Over the denominator 3 (2 bits) t/3 is the pair (1, 0): two steps and
    # two outputs on numbers of 1 + 2*1 + 2 bits.
    work = 2 * (OPERATION_WORK // 3 + 5**2) + 2 * 2 * (OPERATION_WORK + 8 * 5 * 2)
    assert _rewrite_work("t/3") == work
    _assert_rewrite_admits_its_estimate(monkeypatch, "t/3", work, 1)


def test_the_twisted_rewrite_work_grows_with_coefficient_size_and_denominators(monkeypatch):
    # the estimate less its fixed part
    monkeypatch.setattr("seshadri.exactmath.polynomials.OPERATION_WORK", 0)
    assert _rewrite_work("(10^200*s+t)^100") > 100 * _rewrite_work("(s+t)^100")
    assert _rewrite_work("(s/7+t)^100") > 1.5 * _rewrite_work("(7*s+t)^100")


def test_the_twisted_rewrite_charges_outputs_that_collide_once():
    # With e = 1 every step of (s+t)^100 lands on one of 101 outputs; with
    # e = 2 its 5151 steps have distinct outputs.
    fixed = 5151 * (OPERATION_WORK // 3)
    assert _rewrite_work("(s+t)^100", 1) < fixed + 101 * 3 * OPERATION_WORK
    assert _rewrite_work("(s+t)^100", 2) > fixed + 5151 * 2 * OPERATION_WORK


@pytest.mark.parametrize(
    "f,e",
    [
        ("s^5*(t-sqrt(2)*s)^12*(t+sqrt(2)*s)^12", 1),
        ("s^5*(t-sqrt(2)*s^2)^12*(t+sqrt(2)*s^2)^12", 2),
        ("s^5*(t^2-2*s^2)^12", 1),
        ("s^5*(t^2-2*s^4)^12", 2),
        ("t^2 - 2*s^2", 1),
    ],
    ids=["largest-factored-1", "largest-factored-2", "largest-norm-form-1", "largest-norm-form-2", "readme"],
)
def test_workload_and_readme_rewrites_are_1000_times_under_the_budget(f, e):
    # The largest `valuations` benchmark requests (169 steps onto at most 25
    # outputs, 1/1232 of the budget) and the README example (1/17873).
    assert _rewrite_work(f, e) <= MAX_WORK // 1000


@pytest.mark.parametrize(
    "f", ["s^5*(t^2-2*s^2)^12", "s^5*(t^2-2*s^4)^12", "t^2 - 2*s^2"],
    ids=["largest-norm-form-1", "largest-norm-form-2", "readme"],
)
def test_workload_and_readme_parses_are_1000_times_under_the_budget(f):
    # 1/1618, 1/1579 and 1/13107 of the budget.
    parser = _Parser(_tokenize(f), ("s", "t"), True)
    parser.parse()
    assert parser.work <= MAX_WORK // 1000


def test_the_factored_workload_parse_is_charged_for_the_products_it_runs(term_products):
    # The factored requests multiply 13 by 13 sqrt(2) coefficients, about
    # 0.5 ms of parse, and take 1/268 of a budget that admits about 1 s, so
    # they do not keep the 1000-fold margin that every other workload and
    # README request keeps.  The charge is not inflated: it stays within
    # twice the fixed cost of the coefficient products that the parse runs,
    # weighed for sqrt(2).
    parser = _Parser(_tokenize("s^5*(t-sqrt(2)*s^2)^12*(t+sqrt(2)*s^2)^12"), ("s", "t"), True)
    with term_products() as counted:
        parser.parse()
    assert MAX_WORK // 1000 < parser.work <= 2 * sum(counted) * OPERATION_WORK


@pytest.mark.parametrize(
    "factors,weights,twist,value",
    [
        ([("(s+t)", 2000)], "1,2", 1, 2000),
        ([("t", 48000)], "1,2", 1, 48000),
        ([("(s/3+t/7)", 584)], "1,2", 2, 584),
        ([("(s+t+1)", 80)], "1,2", None, 0),
        ([("s", 5), ("(t-sqrt(2)*s)", 1000), ("(t+sqrt(2)*s)", 1000)], "1,2", 1, 3005),
    ],
    ids=["binomial", "monomial", "denominators", "trinomial", "factored"],
)
def test_a_top_level_product_of_powers_is_valued_factor_by_factor(capsys, factors, weights, twist, value):
    # Expanded, each of these is over the budget (see the refusals above).
    # nu and mult are valuations: the answer is k times the base's, summed.
    flags = ("--twist-e", str(twist)) if twist else ()

    def izumi(text):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "valuation", "--weights", weights, "--op", "izumi", "--f", text, *flags)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, ""), err
        return json.loads(out)

    got = izumi("*".join(f"{base}^{k}" for base, k in factors))
    bases = [izumi(base) for base, _ in factors]
    for key in ("lower", "value", "upper"):
        assert got[key] == sum(k * b[key] for b, (_, k) in zip(bases, factors)), key
    assert got["value"] == value


def test_a_refused_product_is_expanded_from_the_bases_already_parsed(capsys, monkeypatch):
    # The rewrite of the factors of ((s+t)^2000)*s is refused, and so is that
    # of their expansion. The text is tokenized, and its bases parsed, once.
    from seshadri.exactmath import polynomials

    tokenized, expanded = [], []
    tokenize, expand = polynomials._tokenize, polynomials.Product.expand
    monkeypatch.setattr(polynomials, "_tokenize", lambda text: tokenized.append(text) or tokenize(text))
    monkeypatch.setattr(polynomials.Product, "expand", lambda self: expanded.append(self) or expand(self))
    f = "((s+t)^2000)*s"
    code, out, err = run_cli(capsys, "valuation", "--weights", "1,2", "--op", "eval", "--f", f, "--twist-e", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: --f: too large for the twisted rewrite")
    assert (tokenized, len(expanded)) == ([f], 1)


@pytest.mark.parametrize("op", ["eval", "izumi"])
def test_a_product_cheaper_to_rewrite_than_its_factors_is_rewritten_expanded(capsys, op):
    # (t+t^2+...+t^900)*(1-t) = t - t^901: the rewrite of the first factor
    # is over the budget, and that of the product far under it.
    f = "(" + "+".join(f"t^{i}" for i in range(1, 901)) + ")*(1-t)"
    code, out, err = run_cli(capsys, "valuation", "--weights", "1,2", "--op", op, "--f", f, "--twist-e", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == 1


def _charged(text: str, e: int) -> int:
    """What `valuation --op eval --f text --twist-e e` charges to the budget:
    the parse, recorded, and the rewrite, read from its refusal under a
    budget of -1."""
    from seshadri.valuations import MonomialValuation, Twist, valuation_eval

    parsed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Parser, "spend", lambda self, work, what: parsed.append(work))
        factors = parse_product(text, ("s", "t"), sqrt2=True)
        patch.setattr("seshadri.exactmath.polynomials.MAX_WORK", -1)
        with pytest.raises(BudgetExceeded) as refusal:
            valuation_eval(MonomialValuation((1, 2), Twist(e)), factors)
    return sum(parsed) + int(re.search(r"it takes about (\d+) bit products", str(refusal.value)).group(1))


@pytest.mark.parametrize(
    "f,e",
    [
        ("s^5*(t-sqrt(2)*s)^12*(t+sqrt(2)*s)^12", 1),
        ("s^5*(t-sqrt(2)*s^2)^12*(t+sqrt(2)*s^2)^12", 2),
        ("s^5*(t^2-2*s^2)^12", 1),
        ("s^5*(t^2-2*s^4)^12", 2),
    ],
    ids=["largest-factored-1", "largest-factored-2", "largest-norm-form-1", "largest-norm-form-2"],
)
def test_the_valuation_path_charges_the_workload_forms_1000_times_under_the_budget(f, e):
    # Only the bases are parsed and rewritten; the top-level powers and
    # products, 13 by 13 sqrt(2) coefficients in the factored forms, never run.
    assert _charged(f, e) <= MAX_WORK // 1000


def test_valuation_minmult_record(capsys):
    code, out, _ = run_cli(capsys, "valuation", "--weights", "1,2", "--op", "minmult", "--k", "3")
    assert code == 0
    assert json.loads(out) == {"weights": [1, 2], "k": 3, "min_mult": 3, "lambda": "1"}


def test_jets_complete_cubics_record(capsys):
    system = json.dumps({"n": 2, "d": 3, "constraints": [], "point": [0, 0], "m_max": 3})
    code, out, _ = run_cli(capsys, "jets", system)
    assert code == 0
    assert json.loads(out) == {
        "s_values": [3, 6, 9],
        "lower": "3",
        "upper": None,
        "certified": False,
    }


def test_jets_mult_constraint_scales_with_the_series(capsys):
    system = json.dumps(
        {
            "n": 2,
            "d": 3,
            "constraints": [{"type": "mult", "point": [0, 0], "order": 1}],
            "point": [0, 0],
            "m_max": 2,
        }
    )
    code, out, _ = run_cli(capsys, "jets", system)
    assert code == 0
    assert json.loads(out)["s_values"] == [-1, -1]


def test_ruled_sweep_csv_has_header_plus_one_row_per_surface(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "ruled", "--sweep", "--g-max", "2", "--d-max", "12"
    )
    assert code == 0
    lines = out.splitlines()
    # g=0 gives d in 2..12, g=1 gives d in 1..12, g=2 gives d in 3..12
    assert len(lines) == 1 + (11 + 12 + 10)
    assert lines[0].startswith("g,d,")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_each_sweep_row_is_the_single_pair_record(capsys, fmt):
    # A sweep builds its rows one (g, d) at a time: each row is what
    # `ruled --g g --d d` prints for its pair, byte for byte in csv.
    code, out, _ = run_cli(capsys, "--format", fmt, "ruled", "--sweep", "--g-max", "3", "--d-max", "12")
    assert code == 0
    pairs = cli._sweep_pairs(3, 12)
    singles = []
    for g, d in pairs:
        single_code, single, _ = run_cli(capsys, "--format", fmt, "ruled", "--g", str(g), "--d", str(d))
        assert single_code == 0
        singles.append(single)
    if fmt == "json":
        assert json.loads(out) == [json.loads(single) for single in singles]
    else:
        header, *rows = out.splitlines()
        assert len(rows) == len(pairs)
        for row, single in zip(rows, singles):
            assert single.splitlines() == [header, row]


def test_sweep_pairs_are_the_admissible_pairs_in_order():
    for g_max in range(-1, 7):
        for d_max in range(-1, 15):
            expected = [
                (g, d)
                for g in range(g_max + 1)
                for d in range(1, d_max + 1)
                if d > 2 * g - 2 and not (g == 0 and d < 2)
            ]
            assert cli._sweep_pairs(g_max, d_max) == expected, (g_max, d_max)


def test_sweep_row_count_is_capped_before_any_row_is_built():
    # g = 0 gives the degrees 2..d_max, so d_max = cap + 1 is exactly at the cap.
    cap = cli.MAX_SWEEP_ROWS
    assert len(cli._sweep_pairs(0, cap + 1)) == cap
    with pytest.raises(ValueError, match="--g-max 0 --d-max 4098"):
        cli._sweep_pairs(0, cap + 2)


@pytest.mark.parametrize(
    ("g_max", "d_max", "code"),
    [("1000000000", "1", 0), ("100000", "100000", 2), ("1000000000", "1000000000", 2)],
)
def test_ruled_sweep_is_bounded_before_any_work(capsys, g_max, d_max, code):
    # The genus loop ends where 2g - 2 >= d_max, and a sweep over the row cap
    # exits 2 before building a row.
    start = time.perf_counter()
    got, out, err = run_cli(capsys, "ruled", "--sweep", "--g-max", g_max, "--d-max", d_max)
    assert time.perf_counter() - start < 1.0
    assert got == code
    if code == 0:
        assert [(row["g"], row["d"]) for row in json.loads(out)] == [(1, 1)]
    else:
        assert out == ""
        assert err == (
            f"error: ruled --sweep with --g-max {g_max} --d-max {d_max} has more than "
            f"4096 rows; lower --g-max or --d-max\n"
        )


# -- exit codes ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("wps", "--weights", "0,1"),
        ("wps", "--weights", ""),
        ("whs", "--n", "3", "--k", "2", "--l", "3", "--d", "8"),
        ("jets", "{not json"),
        ("jets", '{"n":2}'),
        ("valuation", "--weights", "1,2", "--op", "eval"),
        ("valuation", "--weights", "1,2", "--op", "eval", "--f", "s+t", "--twist-e", "1", "--twist-D", "3"),
        ("valuation", "--weights", "1,1", "--op", "galois", "--m", "1", "--k", "2"),
        ("valuation", "--weights", "1,1", "--op", "galois", "--m", "2", "--k", "0"),
        ("zariski", "{bad"),
        ("zariski", "@/no/such/file.json"),
        ("ruled", "--g", "2", "--d", "2"),
        ("bounds", "--n", "2", "--eps", "2"),
        ("bounds", "--n", "2", "--eps", "0"),
    ],
)
def test_invalid_inputs_exit_2_with_an_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("valuation", "--weights", "1,2", "--op", "minmult"), "--k is required for op 'minmult'"),
        (("valuation", "--weights", "1,2", "--op", "minmult", "--k", "0"), "ideal level k must be >= 1"),
        (
            ("jets", '{"n":2,"d":2,"constraints":[{"type":"line","point":[0,0],"order":1}]}'),
            "unknown constraint type 'line'",
        ),
    ],
    ids=["minmult-without-k", "minmult-k-0", "jets-line-constraint"],
)
def test_a_minmult_or_constraint_refusal_exits_2_with_its_message(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("f", ["s/0", "s/(s-s)"])
def test_a_division_by_zero_in_f_exits_2(capsys, f):
    code, out, err = run_cli(capsys, "valuation", "--weights", "1,2", "--op", "eval", "--f", f)
    assert (code, out, err) == (2, "", "error: division only allowed by nonzero constants\n")


def test_unknown_subcommand_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    capsys.readouterr()


# -- reproduce -----------------------------------------------------------------


def test_reproduce_exits_zero_and_passes_every_case(capsys):
    code, out, err = run_cli(capsys, "reproduce")
    assert code == 0
    payload = json.loads(out)
    assert payload["cases_run"] == payload["passes"] > 0
    assert payload["failures"] == []
    assert all(case["passed"] for case in payload["results"])
    assert "cases passed" in err


def test_reproduce_filter_narrows_the_table(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--filter", "ex7.4")
    assert code == 0
    payload = json.loads(out)
    assert 0 < payload["cases_run"] < 21
    assert all(case["id"].startswith("ex7.4") for case in payload["results"])


def test_reproduce_with_no_matching_cases_is_a_vacuous_success(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--filter", "zzz-none")
    assert code == 0
    assert json.loads(out) == {"cases_run": 0, "passes": 0, "failures": [], "results": []}


def test_reproduce_exits_1_and_lists_each_failing_case(capsys, monkeypatch):
    from seshadri import reproduce

    def case(case_id, expected, run):
        return reproduce.ReproductionCase(case_id, "test", "test", {}, expected, "derived", "", run)

    monkeypatch.setattr(
        reproduce,
        "CASES",
        (
            case("a-wrong-value", Fraction(5), lambda rng: Fraction(4)),
            case("b-raises", Fraction(1), lambda rng: 1 // 0),
            # A finite float is no exact value: emit refuses it, and the
            # record shows its repr.
            case("c-finite-float", Fraction(1, 3), lambda rng: 0.5),
        ),
    )
    code, out, err = run_cli(capsys, "reproduce")
    assert code == 1
    assert re.fullmatch(r"reproduce: 0/3 cases passed in \d+\.\d\ds\n", err)
    payload = json.loads(out)
    assert (payload["cases_run"], payload["passes"]) == (3, 0)
    assert payload["failures"] == [
        {"id": "a-wrong-value", "expected": '"5"', "actual": '"4"'},
        {"id": "b-raises", "expected": '"1"', "actual": '"error: integer division or modulo by zero"'},
        {"id": "c-finite-float", "expected": '"1/3"', "actual": "0.5"},
    ]
    assert payload["results"] == [
        {"id": "a-wrong-value", "passed": False},
        {"id": "b-raises", "passed": False},
        {"id": "c-finite-float", "passed": False},
    ]


def _csv_list_items(cell: str) -> list:
    return [json.loads(item) for item in cell.split(";")] if cell else []


def test_csv_reproduce_writes_each_listed_case_as_json(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "--format", "csv", "reproduce", "--filter", "thm4")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert _csv_list_items(row["results"]) == [
        {"id": "thm4.1-bound-n1eps1", "passed": True},
        {"id": "thm4.1-bound-n2eps1", "passed": True},
    ]
    assert row["failures"] == ""

    from seshadri import reproduce

    def case(case_id, expected, run):
        return reproduce.ReproductionCase(case_id, "test", "test", {}, expected, "derived", "", run)

    monkeypatch.setattr(
        reproduce,
        "CASES",
        (
            case("a-wrong-value", Fraction(5), lambda seed: (Fraction(4), [1, None])),
            case("b-passes", 1, lambda seed: 1),
            case("c-finite-float", Fraction(1, 3), lambda seed: 0.5),
        ),
    )
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 1
    payload = json.loads(out)
    code, out, _ = run_cli(capsys, "--format", "csv", "reproduce")
    assert code == 1
    (row,) = csv.DictReader(io.StringIO(out))
    assert _csv_list_items(row["failures"]) == payload["failures"]
    assert _csv_list_items(row["results"]) == payload["results"]


# -- determinism ---------------------------------------------------------------


def test_jets_random_point_is_seed_deterministic(capsys):
    system = json.dumps({"n": 2, "d": 2, "constraints": [], "point": "random", "m_max": 2})
    runs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "--seed", "7", "jets", system)
        assert code == 0
        runs.add(out)
    assert len(runs) == 1


def test_jets_default_seed_matches_explicit_1729(capsys):
    system = json.dumps({"n": 2, "d": 1, "constraints": [], "point": "random", "m_max": 1})
    _, implicit, _ = run_cli(capsys, "jets", system)
    _, explicit, _ = run_cli(capsys, "--seed", "1729", "jets", system)
    assert implicit == explicit


def _reproduce_stdout() -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "seshadri.cli", "reproduce"],
        capture_output=True,
        check=True,
    )
    return proc.stdout


def test_reproduce_stdout_is_byte_identical_across_runs():
    assert _reproduce_stdout() == _reproduce_stdout()


def test_reproduce_passes_on_the_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10.  A pyenv shim runs
    # python3.10 only when a 3.10 version is selected, hence PYENV_VERSION.
    python = shutil.which("python3.10")
    if python is None:
        pytest.skip("python3.10 is not on PATH")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYENV_VERSION="3.10")
    probe = subprocess.run(
        [python, "-c", "import sys; print(sys.version_info[:2])"],
        capture_output=True,
        text=True,
        env=env,
    )
    if probe.returncode != 0:
        pytest.skip("python3.10 on PATH does not run")
    assert probe.stdout == "(3, 10)\n"
    proc = subprocess.run(
        [python, "-m", "seshadri.cli", "reproduce"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "21/21" in proc.stderr


def test_console_entry_point_runs_the_same_main():
    proc = subprocess.run(
        [sys.executable, "-m", "seshadri.cli", "wps", "--weights", "1,1,2"],
        capture_output=True,
        check=True,
        text=True,
    )
    assert proc.stdout == '{"weights":[1,1,2],"seshadri":"2","volume":"8"}\n'


# -- fresh interpreters ----------------------------------------------------------
#
# In-process tests run with every module already imported, so they cannot see
# an eager import come back; these start the CLI as a new process.


# The modules a fresh interpreter reports: the package, csv (which only
# `emit`'s CSV branch imports), and dataclasses and inspect (which a module
# that declares a dataclass imports: `jets`, `valuations`, `surfaces`,
# `reproduce` and `linalg`).
_WATCHED = ("seshadri", "csv", "dataclasses", "inspect")


def _fresh_interpreter(code: str) -> tuple[list[str], set[str]]:
    """The lines that a new interpreter prints as it runs code, and the
    watched modules loaded once it has run it."""
    child = f"import sys\n{code}\nprint(*sorted(m for m in sys.modules if m.split('.')[0] in {_WATCHED!r}))"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, check=True, text=True)
    *printed, loaded = proc.stdout.splitlines()
    return printed, set(loaded.split())


def test_building_the_parser_loads_no_subcommand_module():
    _, loaded = _fresh_interpreter("import seshadri.cli as cli; cli.build_parser()")
    _, bare = _fresh_interpreter("pass")
    assert loaded - bare == {"seshadri", "seshadri.cli", "seshadri.exactmath", "seshadri.exactmath.scalars"}


_LAZY_EXPORTS = sorted(name for name, submodule in EXACTMATH_EXPORTS.items() if submodule != "scalars")


@pytest.mark.parametrize(
    "argv, submodules",
    [
        (("wps", "--weights", "1,1,2"), set()),
        (("whs", "--n", "3", "--k", "2", "--l", "3", "--d", "5"), set()),
        (("bounds", "--n", "2", "--eps", "1/2"), set()),
        (("valuation", "--weights", "1,2", "--op", "izumi", "--f", "t^2 - 2*s^2", "--twist-e", "1"), {"polynomials"}),
        (("valuation", "--weights", "1,1", "--op", "galois", "--m", "2", "--k", "3"), {"polynomials"}),
        (("zariski", json.dumps(RULED_LATTICE)), {"linalg"}),
        (("ruled", "--g", "2", "--d", "10"), {"linalg"}),
        (("jets", '{"n":2,"d":3,"constraints":[{"type":"mult","point":[0,0],"order":1}]}'), {"polynomials", "linalg"}),
        (("reproduce", "--filter", "ex1"), {"polynomials", "linalg"}),
    ],
    ids=["wps", "whs", "bounds", "valuation-izumi", "valuation-galois", "zariski", "ruled", "jets", "reproduce"],
)
def test_each_subcommand_loads_only_the_exactmath_modules_it_uses(argv, submodules):
    # The package looks up none of its lazy names either: each module of the
    # package imports from the submodule that defines the name.
    printed, loaded = _fresh_interpreter(
        "import seshadri.cli as cli, seshadri.exactmath as package\n"
        f"assert cli.main({list(argv)!r}) == 0\n"
        f"print(*[name for name in {_LAZY_EXPORTS!r} if name in vars(package)])"
    )
    assert printed[-1] == ""
    assert {m for m in loaded if m.startswith("seshadri.exactmath.")} == {
        f"seshadri.exactmath.{name}" for name in {"scalars"} | submodules
    }
    if argv[0] in ("wps", "whs", "bounds"):
        # Their modules declare no dataclass.
        _, bare = _fresh_interpreter("pass")
        assert loaded & {"dataclasses", "inspect"} <= bare


@pytest.mark.parametrize(
    "argv",
    [
        ("wps", "--weights", "1,1,2"),
        ("whs", "--n", "3", "--k", "2", "--l", "3", "--d", "5"),
        ("jets", '{"n":2,"d":3,"constraints":[{"type":"mult","point":[0,0],"order":1}],'
                 '"point":"random","m_max":3}'),
        ("valuation", "--weights", "1,2", "--op", "izumi", "--f", "t^2 - 2*s^2", "--twist-e", "1"),
        ("zariski", json.dumps(RULED_LATTICE)),
        ("ruled", "--g", "2", "--d", "10"),
        ("bounds", "--n", "2", "--eps", "1/2"),
        ("reproduce", "--filter", "ex1"),
    ],
    ids=lambda argv: argv[0],
)
def test_each_subcommand_prints_in_a_fresh_interpreter_what_it_prints_in_process(capsys, argv):
    proc = subprocess.run([sys.executable, "-m", "seshadri.cli", *argv], capture_output=True, text=True)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert (proc.returncode, proc.stdout) == (0, out), proc.stderr


# -- error contract --------------------------------------------------------------


@pytest.mark.parametrize(
    "system",
    [
        {"n": 2, "d": 3, "constraints": [{"type": "mult", "point": [1], "order": 1}], "point": "random"},
        {"n": 2, "d": 3, "constraints": [{"type": "mult", "point": [1, 2], "order": 1}], "point": [1]},
        {"n": 2, "d": 3, "constraints": [], "point": [1, 2, 3], "m_max": 1},
    ],
)
def test_jets_point_arity_mismatch_exits_2(capsys, system):
    code, out, err = run_cli(capsys, "jets", json.dumps(system))
    assert code == 2
    assert out == ""
    assert err == "error: point arity mismatch\n"


@pytest.mark.parametrize("point", [[1, 1], "random"])
@pytest.mark.parametrize(
    "curve_bound, message",
    [
        ({"pairing": 2, "mult": 1, "meets_base_locus": False}, "lower bound exceeds the registered upper bound"),
        ({"pairing": 3, "mult": 1, "meets_base_locus": True}, "lower bound reaches the registered strict upper bound"),
    ],
    ids=["below-lower", "strict-reached"],
)
def test_jets_refuses_a_curve_bound_that_the_jets_contradict(capsys, curve_bound, message, point):
    # The plane cubics separate 3-jets at every point, so lower = s(W_1, x) = 3.
    # A curve bound of 2 lies below it, and a strict bound keeps every
    # s(W_m, x) below m * 3, which s(W_1, x) = 3 reaches.
    system = {"n": 2, "d": 3, "point": point, "m_max": 1, "curve_bound": curve_bound}
    assert run_cli(capsys, "jets", json.dumps(system)) == (2, "", f"error: {message}\n")


def test_bounds_output_over_the_digit_limit_exits_2_without_a_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "seshadri.cli", "bounds", "--n", "100000", "--eps", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("n", [700, 800, 10**5, 10**9])
def test_bounds_with_a_huge_m_exits_2_with_its_own_message(capsys, n):
    # The numerator of M(700, 1) has 4195 digits, and it is printed. From
    # n = 716 on, eps = 1 gives more than 4300, and `bounds` refuses before
    # it computes M.
    start = time.monotonic()
    code, out, err = run_cli(capsys, "bounds", "--n", str(n), "--eps", "1")
    assert time.monotonic() - start < 1.0
    if n == 700:
        assert code == 0 and err == ""
        assert json.loads(out)["M"] == str(bounds.best_volume_bound(700, Fraction(1))["M"])
        return
    assert code == 2
    assert out == ""
    assert err == (
        f"error: bounds with --n {n} --eps 1 has an M of more than "
        f"{cli.MAX_NUMBER_DIGITS} digits; lower --n\n"
    )


LONG = "9" * (cli.MAX_NUMBER_DIGITS + 1)


@pytest.mark.parametrize(
    "argv,where",
    [
        (["bounds", "--n", "2", "--eps", f"1/{LONG}"], "--eps"),
        (["bounds", "--n", "2", "--eps", LONG], "--eps"),
        (["jets", f'{{"n":1,"d":2,"constraints":[],"point":[{LONG}]}}'], "point[0]"),
        (["jets", f'{{"n":1,"d":2,"constraints":[],"point":["-{LONG}/7"]}}'], "point[0]"),
        (["jets", f'{{"n":{LONG},"d":2}}'], "n"),
        (
            ["jets", f'{{"n":2,"d":2,"constraints":[{{"type":"mult","point":[0,{LONG}],"order":1}}]}}'],
            "constraints[0].point[1]",
        ),
        (
            [
                "jets",
                f'{{"n":1,"d":2,"point":[1],"curve_bound":'
                f'{{"pairing":{LONG},"mult":1,"meets_base_locus":false}}}}',
            ],
            "curve_bound.pairing",
        ),
        (["zariski", f'{{"generators":["E"],"gram":[[{LONG}]],"curves":[],"D":[1]}}'], "gram[0][0]"),
        # An exponent counts as the digits it writes out.
        (["bounds", "--n", "2", "--eps", "1e99999999"], "--eps"),
        (["zariski", '{"generators":["E"],"gram":[["1e-99999999"]],"curves":[],"D":[1]}'], "gram[0][0]"),
        (["valuation", "--weights", "1,2", "--op", "eval", "--f", f"s^{LONG}"], "--f"),
        (["valuation", "--weights", "1,2", "--op", "eval", "--f", f"{LONG}*s"], "--f"),
        (["valuation", "--weights", "1,2", "--op", "eval", "--f", f"{LONG}*s", "--twist-e", "2"], "--f"),
        (["wps", "--weights", f"1,{LONG}"], "--weights"),
        (["valuation", "--weights", f"2,-{LONG}", "--op", "minmult", "--k", "1"], "--weights"),
    ],
)
def test_a_number_over_the_digit_limit_exits_2_naming_where(capsys, argv, where):
    # CPython refuses to convert more than 4300 digits to an int; the message
    # names the flag or the field instead of quoting that limit.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {where}: a number of more than {cli.MAX_NUMBER_DIGITS} digits\n"


def test_an_int_at_the_digit_limit_is_read_beside_one_over_it(capsys):
    # An int over the limit sends the whole text through the second read,
    # which still reads a sign and 4300 digits as an int.
    most = "-" + "9" * cli.MAX_NUMBER_DIGITS
    system = f'{{"n":{most},"d":2,"point":[1],"curve_bound":{{"pairing":{LONG},"mult":1,"meets_base_locus":false}}}}'
    where = "curve_bound.pairing"
    assert run_cli(capsys, "jets", system) == (2, "", f"error: {where}: a number of more than 4300 digits\n")


def test_a_number_at_the_digit_limit_is_read(capsys):
    most = "9" * cli.MAX_NUMBER_DIGITS
    system = f'{{"n":1,"d":2,"point":[1],"curve_bound":{{"pairing":{most},"mult":1,"meets_base_locus":false}}}}'
    code, out, err = run_cli(capsys, "jets", system)
    assert code == 0 and json.loads(out)["upper"] == most
    code, out, err = run_cli(capsys, "bounds", "--n", "2", "--eps", f"{most}/{most}")
    assert code == 0 and json.loads(out)["eps"] == "1"
    system = system.replace(most, '"1e4299"')
    code, out, err = run_cli(capsys, "jets", system)
    assert code == 0 and json.loads(out)["upper"] == "1" + "0" * 4299
    code, out, err = run_cli(capsys, "valuation", "--weights", "1,2", "--op", "eval", "--f", f"{most}*s")
    assert code == 0 and json.loads(out)["value"] == 1
    code, out, err = run_cli(capsys, "valuation", "--weights", f"1,{most}", "--op", "minmult", "--k", "1")
    assert code == 0 and json.loads(out)["min_mult"] == 1


@pytest.mark.parametrize(
    "exc", [ZeroDivisionError("division by zero"), AssertionError(), RecursionError("too deep")]
)
def test_arithmetic_and_internal_errors_exit_2_with_one_line(capsys, monkeypatch, exc):
    import seshadri.cli as cli

    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_wps", broken)
    code, out, err = run_cli(capsys, "wps", "--weights", "1,1,2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_jets_builds_each_multiple_once_for_the_sampled_points(capsys, monkeypatch):
    import seshadri.jets as jets_module

    built = []
    original = jets_module.LinearSystem.__init__

    def counted(self, nvars, degree, constraints=()):
        built.append(degree)
        original(self, nvars, degree, constraints)

    monkeypatch.setattr(jets_module.LinearSystem, "__init__", counted)
    system = {"n": 2, "d": 3, "constraints": [{"type": "mult", "point": [0, 0], "order": 1}],
              "point": "random", "m_max": 3}
    code, out, _ = run_cli(capsys, "jets", json.dumps(system))
    assert code == 0
    assert out == '{"s_values":[2,4,6],"lower":"2","upper":null,"certified":false}\n'
    assert built == [3, 6, 9]


@pytest.mark.parametrize(
    "system,message",
    [
        ({"n": 2}, "error: jets system: missing field 'd'\n"),
        ({"d": 3}, "error: jets system: missing field 'n'\n"),
        (
            {"n": 2, "d": 3, "constraints": [{"type": "mult", "order": 1}]},
            "error: constraints[0]: missing field 'point'\n",
        ),
        (
            {"n": 2, "d": 3, "constraints": [{"type": "mult", "point": [0, 0], "order": 1},
                                             {"type": "mult", "point": [1, 1]}]},
            "error: constraints[1]: missing field 'order'\n",
        ),
        (
            {"n": 2, "d": 3, "curve_bound": {"pairing": 1, "meets_base_locus": False}},
            "error: curve_bound: missing field 'mult'\n",
        ),
    ],
)
def test_jets_missing_field_names_the_field_and_where(capsys, system, message):
    code, out, err = run_cli(capsys, "jets", json.dumps(system))
    assert code == 2
    assert out == ""
    assert err == message


def test_valuation_minmult_with_a_single_weight(capsys):
    code, out, _ = run_cli(capsys, "valuation", "--weights", "3", "--op", "minmult", "--k", "5")
    assert code == 0
    assert out == '{"weights":[3],"k":5,"min_mult":4,"lambda":"4/5"}\n'


def test_valuation_minmult_at_a_large_level_is_immediate(capsys):
    # minmult is a closed form, so its cost does not grow with k.
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "valuation", "--weights", "1,2,3", "--op", "minmult", "--k", "1000")
    assert time.monotonic() - start < 1.0
    assert code == 0
    assert out == '{"weights":[1,2,3],"k":1000,"min_mult":1667,"lambda":"1667/1000"}\n'


def test_parser_is_built_once_per_process():
    import seshadri.cli as cli

    assert cli.build_parser() is cli.build_parser()


_ZARISKI = {
    "generators": ["E", "F"],
    "gram": [[-1, 1], [1, 0]],
    "curves": [{"name": "E", "coords": [1, 0]}, {"name": "F", "coords": [0, 1]}],
    "D": {"coords": [2, 8]},
}


def _without(desc: dict, *path):
    """A deep copy of desc with the field at path removed."""
    out = json.loads(json.dumps(desc))
    node = out
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return out


@pytest.mark.parametrize(
    "path,message",
    [
        (("generators",), "error: zariski description: missing field 'generators'\n"),
        (("gram",), "error: zariski description: missing field 'gram'\n"),
        (("curves",), "error: zariski description: missing field 'curves'\n"),
        (("curves", 1, "coords"), "error: curves[1]: missing field 'coords'\n"),
        (("D",), "error: zariski description: missing field 'D'\n"),
        (("D", "coords"), "error: D: missing field 'coords'\n"),
    ],
)
def test_zariski_missing_field_names_the_field_and_where(capsys, path, message):
    code, out, _ = run_cli(capsys, "zariski", json.dumps(_ZARISKI))
    assert code == 0 and json.loads(out)["P"] == ["2", "8"]
    code, out, err = run_cli(capsys, "zariski", json.dumps(_without(_ZARISKI, *path)))
    assert code == 2
    assert out == ""
    assert err == message


def test_zariski_rejects_duplicate_curve_names(capsys):
    # Support curves are reported by name, so two curves named E are ambiguous.
    desc = dict(RULED_LATTICE, curves=[{"name": "E", "coords": [1, 0]}, {"name": "E", "coords": [0, 1]}])
    code, out, err = run_cli(capsys, "zariski", json.dumps(desc))
    assert code == 2
    assert out == ""
    assert err == "error: duplicate curve name 'E'\n"


def test_zariski_rejects_a_curve_of_multiplicity_below_1(capsys):
    for mult in (0, -3):
        desc = dict(RULED_LATTICE, curves=[{"name": "E", "coords": [1, 0], "mult": mult}])
        code, out, err = run_cli(capsys, "zariski", json.dumps(desc))
        assert (code, out, err) == (2, "", "error: curve 'E' needs multiplicity >= 1\n")


def test_zariski_rejects_a_positive_part_of_negative_square(capsys):
    # Gram -I with D = -E - F: D meets both curves positively, so P = D, but
    # P^2 = -2 and a nef class on a surface has P^2 >= 0.
    desc = {
        "generators": ["E", "F"],
        "gram": [[-1, 0], [0, -1]],
        "curves": [{"name": "E", "coords": [1, 0]}, {"name": "F", "coords": [0, 1]}],
        "D": [-1, -1],
    }
    code, out, err = run_cli(capsys, "zariski", json.dumps(desc))
    assert code == 2
    assert out == ""
    assert err == (
        "error: the positive part has P^2 = -2 < 0, but a nef class has P^2 >= 0; "
        "the declared lattice is inconsistent\n"
    )


def test_zariski_rejects_a_negative_coefficient(capsys):
    # D = 3A - B meets A at -5 and B at -1, so the support is {A, B}; the
    # solve gives N = 3A - B, with a negative coefficient on B.
    desc = {
        "generators": ["A", "B"],
        "gram": [[-2, -1], [-1, -2]],
        "curves": [{"name": "A", "coords": [1, 0]}, {"name": "B", "coords": [0, 1]}],
        "D": {"coords": [3, -1]},
    }
    code, out, err = run_cli(capsys, "zariski", json.dumps(desc))
    assert code == 2
    assert out == ""
    assert err == (
        "error: negative coefficient on B: the divisor is not pseudo-effective "
        "relative to the declared curves\n"
    )


@pytest.mark.parametrize(
    "gram,message",
    [
        ([[-1, 0], [0]], "ragged matrix"),
        ([[-1, 0], [1, 0]], "gram matrix must be symmetric"),
        ([[-1]], "gram matrix size must match the generator count"),
    ],
)
def test_zariski_rejects_a_malformed_gram_with_one_line(capsys, gram, message):
    code, out, err = run_cli(capsys, "zariski", json.dumps(dict(_ZARISKI, gram=gram)))
    assert (code, out, err) == (2, "", f"error: {message}\n")


# A JSON integer of more than MAX_NUMBER_DIGITS digits, which json.dumps will
# not write: the fuzzed text has it in place of this string.
_LONG_MARK = "<long>"
_fuzz_entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1/2", "-3/4", "1/0", "x", "", "1e99999999", "9" * 4301, _LONG_MARK]),
    st.sampled_from([1.5, 2.0, True, None, [], {}]),
)
_fuzz_vectors = st.one_of(st.lists(_fuzz_entries, max_size=4), _fuzz_entries)


@st.composite
def _lattice_like(draw):
    """A zariski description: mostly a square symmetric integer lattice of 1 to
    3 generators with unit curves, so that some descriptions decompose, each
    field then replaced by a ragged, asymmetric, mis-sized or mistyped value
    or dropped with some chance."""
    n = draw(st.integers(1, 3))
    upper = {(i, j): draw(st.integers(-3, 3)) for i in range(n) for j in range(i, n)}
    fields = {
        "generators": [f"G{i}" for i in range(n)],
        "gram": [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)],
        "curves": [{"name": f"C{i}", "coords": [int(i == j) for j in range(n)]} for i in range(n)],
        "D": [draw(st.integers(-2, 4)) for _ in range(n)],
    }
    asymmetric = [row[:] for row in fields["gram"]]
    asymmetric[-1][0] += 1
    broken = {
        "generators": st.one_of(st.lists(st.sampled_from("EFG"), max_size=4), _fuzz_vectors),
        "gram": st.one_of(
            st.just(asymmetric),
            st.lists(st.lists(st.integers(-3, 3), max_size=4), max_size=4),
            st.lists(_fuzz_vectors, max_size=4),
            _fuzz_entries,
        ),
        "curves": st.lists(
            st.one_of(
                st.fixed_dictionaries(
                    {"coords": _fuzz_vectors},
                    optional={"name": _fuzz_entries, "through": _fuzz_entries, "mult": _fuzz_entries},
                ),
                _fuzz_entries,
            ),
            max_size=4,
        ),
        "D": st.one_of(_fuzz_vectors, st.fixed_dictionaries({"coords": _fuzz_vectors})),
    }
    desc = {}
    for key, value in fields.items():
        choice = draw(st.sampled_from(("keep",) * 6 + ("break",) * 2 + ("drop",)))
        if choice != "drop":
            desc[key] = value if choice == "keep" else draw(broken[key])
    return json.dumps(desc).replace(json.dumps(_LONG_MARK), "9" * 4301)


@settings(max_examples=150, deadline=timedelta(seconds=1))
@given(_lattice_like())
def test_any_zariski_description_exits_0_or_2_with_one_line(text):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["zariski", text])
    if code == 0:
        assert err.getvalue() == "" and json.loads(out.getvalue())["checks"]["negdef"]
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()


@st.composite
def _mixed_descriptions(draw):
    """A zariski description of 1 to 3 generators whose Gram matrix, curves
    and D mix ints, "p/q" texts and integral floats: symmetric in value with
    each entry written its own way, sometimes asymmetric or ragged, with a
    bool in a number field or a multiplicity below 1."""
    n = draw(st.integers(1, 3))
    number = st.one_of(
        st.integers(-3, 3),
        st.tuples(st.integers(-6, 6), st.integers(1, 4)).map("{0[0]}/{0[1]}".format),
        st.integers(-3, 3).map(float),
    )
    value = {(i, j): Fraction(draw(number)) for i in range(n) for j in range(i, n)}

    def write(x: Fraction):
        forms = [f"{x.numerator}/{x.denominator}", f"{2 * x.numerator}/{2 * x.denominator}"]
        if x.denominator == 1:
            forms += [int(x), float(x)]
        return draw(st.sampled_from(forms))

    gram = [[write(value[min(i, j), max(i, j)]) for j in range(n)] for i in range(n)]
    curves = [
        {"name": f"C{i}", "coords": [write(Fraction(draw(number))) for _ in range(n)], "mult": draw(st.sampled_from([1, 1, 1, 2, 0]))}
        for i in range(draw(st.integers(0, 3)))
    ]
    desc = {"generators": [f"G{i}" for i in range(n)], "gram": gram, "curves": curves}
    desc["D"] = [write(Fraction(draw(number))) for _ in range(n)]
    flaw = draw(st.sampled_from(["none"] * 6 + ["asymmetric", "ragged", "bool"]))
    if n == 1 and flaw != "bool":
        flaw = "none"
    if flaw == "asymmetric":
        gram[-1][0] = str(Fraction(gram[-1][0]) + 1)
    elif flaw == "ragged":
        gram[-1].append(0)
    elif flaw == "bool":
        field = draw(st.sampled_from([gram[0], desc["D"]] + [c["coords"] for c in curves]))
        field[draw(st.integers(0, n - 1))] = True
    return desc, flaw


def _ints_as_texts(desc):
    """desc with every int in a number field written as a text."""

    def texts(values):
        return [str(x) if type(x) is int else x for x in values]

    return dict(
        desc,
        gram=[texts(row) for row in desc["gram"]],
        curves=[dict(c, coords=texts(c["coords"])) for c in desc["curves"]],
        D=texts(desc["D"]),
    )


@settings(max_examples=150, deadline=timedelta(seconds=1))
@given(_mixed_descriptions())
def test_a_zariski_description_reads_the_same_with_its_ints_written_as_texts(drawn):
    # A JSON int goes into the integer rows as it is, every other entry
    # through its text; both roads give one lattice, answer and refusal.
    desc, flaw = drawn
    results = []
    for version in (desc, _ints_as_texts(desc)):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["zariski", json.dumps(version)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code:
            assert out.getvalue() == "" and err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
        results.append((code, out.getvalue(), err.getvalue()))
    assert results[0] == results[1]
    # A bool is no number: the lattice's is the first refusal, and D's comes
    # after the lattice's own.
    if any(x is True for row in desc["gram"] + [c["coords"] for c in desc["curves"]] for x in row):
        assert results[0][0] == 2 and results[0][2].endswith(": expected a number\n")
    if any(x is True for x in desc["D"]):
        assert results[0][0] == 2
    # A multiplicity below 1 is the first check on the rows, the matrix's
    # shape the next.
    if flaw in ("asymmetric", "ragged") and all(c["mult"] >= 1 for c in desc["curves"]):
        message = "gram matrix must be symmetric" if flaw == "asymmetric" else "ragged matrix"
        assert results[0] == (2, "", f"error: {message}\n")


_coordinates = st.one_of(
    st.integers(-9, 9),
    st.integers(-(10**20) + 1, 10**20 - 1),
    st.tuples(st.integers(-(10**20) + 1, 10**20 - 1), st.integers(1, 10**20 - 1)).map("{0[0]}/{0[1]}".format),
)
_small_coordinates = st.one_of(
    st.integers(-9, 9), st.tuples(st.integers(-9, 9), st.integers(1, 9)).map("{0[0]}/{0[1]}".format)
)
# Mistyped or out-of-range values of n, d, m_max and order: never a size
# above the ones a well-formed system draws.
_broken_sizes = st.one_of(st.integers(-3, 0), st.sampled_from(["2", "x", 1.5, True, None, [], {}, _LONG_MARK]))


@st.composite
def _jets_like(draw):
    """A jets system: mostly n <= 3 variables, degree d <= 4 and m_max <= 2,
    with no, one or several mult constraints of order 0 to d + 1 and
    coordinates of up to 20 digits, each field then replaced by a mistyped,
    out-of-range or 4301-digit value or dropped with some chance.  A single
    constraint is also met at points that share a random subset of their
    coordinates with its point.  Jets has no cost cap, and only several
    constraints can take minutes (three at m_max 2, or 20-digit coordinates),
    so several constraints come only with m_max 1 and one-digit coordinates."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    several = draw(st.booleans())
    vector = st.lists(_small_coordinates if several else _coordinates, min_size=n, max_size=n)
    constraint = st.fixed_dictionaries({"type": st.just("mult"), "point": vector, "order": st.integers(0, d + 1)})
    constraints = draw(st.lists(constraint, min_size=2, max_size=3) if several else st.lists(constraint, max_size=1))
    points = [st.just("random"), vector] + [st.just(c["point"]) for c in constraints]
    if len(constraints) == 1:
        points.append(st.tuples(*(st.just(a) | _coordinates for a in constraints[0]["point"])).map(list))
    fields = {
        "n": n,
        "d": d,
        "constraints": constraints,
        "point": draw(st.one_of(points)),
        "m_max": 1 if several else draw(st.integers(1, 2)),
        "curve_bound": draw(
            st.none()
            | st.fixed_dictionaries(
                {"pairing": st.integers(0, 9), "mult": st.integers(1, 3), "meets_base_locus": st.booleans()}
            )
        ),
    }
    broken = {
        "n": _broken_sizes,
        "d": _broken_sizes,
        "m_max": _broken_sizes,
        "constraints": st.one_of(
            _fuzz_entries,
            st.lists(
                st.one_of(
                    _fuzz_entries,
                    st.fixed_dictionaries(
                        {},
                        optional={
                            "type": st.sampled_from(["mult", "jet", 1]),
                            "point": _fuzz_vectors,
                            "order": st.one_of(_broken_sizes, _fuzz_entries),
                        },
                    ),
                ),
                max_size=3,
            ),
        ),
        "point": st.one_of(_fuzz_vectors, st.sampled_from(["Random", ""])),
        "curve_bound": st.one_of(
            _fuzz_entries,
            st.fixed_dictionaries(
                {}, optional={"pairing": _fuzz_entries, "mult": _fuzz_entries, "meets_base_locus": _fuzz_entries}
            ),
        ),
    }
    desc = {}
    for key, value in fields.items():
        choice = draw(st.sampled_from(("keep",) * 6 + ("break",) * 2 + ("drop",)))
        if choice != "drop":
            desc[key] = value if choice == "keep" else draw(broken[key])
        if key == "constraints" and choice == "break":
            fields["m_max"] = 1  # a broken list may still hold several constraints
    return json.dumps(desc).replace(json.dumps(_LONG_MARK), "9" * 4301)


def _sharing_a_long_coordinate(degree: int, order: int, m_max: int) -> str:
    """A system whose one constraint sits at a point of 20-digit coordinates,
    met at a point that shares its first coordinate: the inputs of
    tests/test_jets.py::test_point_sharing_a_long_coordinate_with_the_constraint_is_quick,
    which took minutes before step A served them."""
    p = [
        "12345678901234567891/98765432109876543",
        "-31415926535897932384/27182818284590452353",
        "16180339887498948482/14142135623730950488",
    ]
    x = [p[0], "-27182818284590452353/31415926535897932384", "98765432109876543210/12345678901234567"]
    constraint = {"type": "mult", "point": p, "order": order}
    return json.dumps({"n": 3, "d": degree, "constraints": [constraint], "point": x, "m_max": m_max})


# The costliest corner of the envelope, which the draw itself rarely reaches.
@example(_sharing_a_long_coordinate(4, 3, 2), 0)
@example(_sharing_a_long_coordinate(3, 2, 3), 0)
@example(_sharing_a_long_coordinate(3, 2, 4), 0)
@settings(max_examples=150, deadline=timedelta(seconds=2))
@given(_jets_like(), st.integers(0, 9))
def test_any_jets_system_exits_0_or_2_with_one_line(text, seed):
    # --m-max 1 is the default of a system without m_max.
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--seed", str(seed), "--m-max", "1", "jets", text])
    assert "Traceback" not in err.getvalue() and err.getvalue().count("error:") <= 1
    if code == 0:
        assert err.getvalue() == "" and "s_values" in json.loads(out.getvalue())
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def _polynomial_texts():
    """--f texts in s, t and sqrt(2): well-formed expressions with divisions,
    powers and long literals, and token soups."""
    atoms = st.sampled_from(["s", "t", "0", "1", "2", "sqrt(2)", "sqrt(3)", "u", "9" * 60, "9" * 4301])
    exponents = st.sampled_from(["0", "1", "2", "3", "12", "100000", "9" * 4301])

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*/"), children).map("".join),
            st.tuples(children, exponents).map(lambda x: f"({x[0]})^{x[1]}"),
            children.map(lambda x: f"({x})"),
            children.map(lambda x: f"-{x}"),
        )

    tokens = ["s", "t", "sqrt(2)", "/", "^", "**", "(", ")", "+", "-", "*", "2", " ", "9" * 4301]
    return st.one_of(
        st.recursive(atoms, extend, max_leaves=8),
        st.lists(st.sampled_from(tokens), max_size=12).map("".join),
    )


def _assert_f_exits_0_or_2_with_one_line(text, *argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["valuation", *argv, f"--f={text}"])
    assert "Traceback" not in err.getvalue() and err.getvalue().count("error:") <= 1
    if code == 0:
        assert err.getvalue() == "" and json.loads(out.getvalue())["f"] == text
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@settings(max_examples=150, deadline=timedelta(seconds=2))
@given(_polynomial_texts(), st.sampled_from(["eval", "izumi"]), st.integers(1, 3))
def test_any_twisted_f_exits_0_or_2_with_one_line(text, op, e):
    _assert_f_exits_0_or_2_with_one_line(text, "--weights", "2,3", "--op", op, "--twist-e", str(e))


def _root_products(names):
    """--f texts in names: top-level products of powers of well-formed
    expressions, with exponents of up to 4300 digits, and divisors."""
    atoms = st.sampled_from([*names, "0", "1", "2", "(s-s)", "9" * 60])
    exponents = st.sampled_from(["0", "1", "2", "12", "100000", "7" * 40, "9" * 4300, "9" * 4301])

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*"), children).map("".join),
            st.tuples(children, exponents).map(lambda x: f"({x[0]})^{x[1]}"),
            children.map(lambda x: f"-{x}"),
        )

    bases = st.recursive(atoms, extend, max_leaves=4).map(lambda x: f"({x})")
    powers = st.tuples(st.sampled_from(["", "-"]), bases, st.one_of(st.just(""), exponents.map("^".__add__)))
    rest = st.one_of(powers.map(lambda x: "*" + "".join(x)), st.sampled_from(["/3", "/2^12", "/(0)^0", "/s"]))
    return st.tuples(powers.map("".join), st.lists(rest, max_size=3)).map(lambda x: x[0] + "".join(x[1]))


@settings(max_examples=100, deadline=timedelta(seconds=2))
@given(st.sampled_from([("1,2", "st"), ("2,3", "st"), ("1,2,3", "stu")]).flatmap(
    lambda case: st.tuples(st.just(case[0]), _root_products(case[1]))
), st.sampled_from(["eval", "izumi"]))
def test_any_untwisted_product_of_powers_exits_0_or_2_with_one_line(case, op):
    weights, text = case
    _assert_f_exits_0_or_2_with_one_line(text, "--weights", weights, "--op", op)


# Integer flags as text: small and huge values, values whose answers come
# close to 4300 digits, and text that is no int.
_flag_integers = st.one_of(
    st.integers(-3, 60),
    st.integers(-(10**6), 10**30),
    st.integers(8000, 20000),
    st.integers(),
    st.sampled_from(["", "x", "1.5", "1e3", "٣", " 7", "9" * 4300, "9" * 4301]),
).map(str)


@st.composite
def _galois_or_minmult_argv(draw):
    """valuation --op galois|minmult argv: each flag present or not, valid
    or not, in a random order."""
    weights = st.one_of(
        st.lists(st.integers(-2, 9), min_size=1, max_size=3).map(lambda w: ",".join(map(str, w))),
        st.sampled_from(["", "1,,2", "a", "1," + "9" * 4301]),
    )
    flags = {
        "--weights": draw(weights),
        "--op": draw(st.sampled_from(["galois", "minmult", "galois", "minmult", "other"])),
        "--m": draw(_flag_integers),
        "--k": draw(_flag_integers),
        "--twist-e": draw(_flag_integers),
    }
    chosen = draw(st.permutations(list(flags)))
    kept = [f for f in chosen if f in ("--weights", "--op") or draw(st.integers(0, 3))]
    return ["valuation"] + [f"{flag}={flags[flag]}" for flag in kept]


@settings(max_examples=150, deadline=timedelta(seconds=5))
@given(_galois_or_minmult_argv())
def test_any_galois_or_minmult_argv_exits_0_1_or_2_without_a_traceback(argv):
    # The largest answers that galois admits, near m = 2, k = 13500, are
    # 30 MB of witness and take about 2.4 s on a 2-core Xeon.
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses what is no int or no choice
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == "" and json.loads(out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue().count("error:") == 1


def _run_argv(argv):
    """(exit code, stdout, stderr) of argv through main; argparse's refusal
    counts as its exit code."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a missing flag or one that is no int
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_exits_0_1_or_2_without_a_traceback(argv):
    code, out, err = _run_argv(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert out == "" and err.count("error:") == 1


@st.composite
def _ruled_argv(draw):
    """ruled argv in --format json or csv: --g and --d, or --sweep with each
    bound present or not; every flag valid or not, in a random order."""
    values = st.one_of(st.integers(0, 20).map(str), _flag_integers)
    flags = {flag: draw(values) for flag in ("--g", "--d", "--g-max", "--d-max")}
    keep = st.sampled_from([True, True, True, False])
    kept = [f"{flag}={flags[flag]}" for flag in draw(st.permutations(list(flags))) if draw(keep)]
    sweep = ["--sweep"] if draw(st.booleans()) else []
    return ["--format", draw(st.sampled_from(["json", "csv"])), "ruled", *sweep, *kept]


@settings(max_examples=150, deadline=timedelta(seconds=5))
@given(_ruled_argv())
def test_any_ruled_argv_exits_0_1_or_2_without_a_traceback(argv):
    _assert_exits_0_1_or_2_without_a_traceback(argv)


# --eps as text: rationals of every sign and size, 4300 digits and more, and
# text that is no number or is one over zero.
_eps_texts = st.one_of(
    st.fractions(min_value=0, max_value=2, max_denominator=60).map(str),
    st.fractions(min_value=-3, max_value=3, max_denominator=60).map(str),
    st.tuples(st.integers(), st.integers(1, 10**30)).map("{0[0]}/{0[1]}".format),
    st.sampled_from(
        ["0", "-1", "2", "1/0", "nan", "inf", "1e5", "1e-5000", "1e99999999", "0.25", "x", "",
         "1/" + "9" * 4300, "1/" + "9" * 4301, "9" * 4301]
    ),
)


@st.composite
def _bounds_argv(draw):
    """bounds argv in --format json or csv: --n and --eps, each present or
    not, valid or not, in a random order."""
    flags = {"--n": draw(st.one_of(st.integers(1, 12).map(str), _flag_integers)), "--eps": draw(_eps_texts)}
    keep = st.sampled_from([True] * 9 + [False])
    kept = [f"{flag}={flags[flag]}" for flag in draw(st.permutations(list(flags))) if draw(keep)]
    return ["--format", draw(st.sampled_from(["json", "csv"])), "bounds", *kept]


@settings(max_examples=150, deadline=timedelta(seconds=5))
@given(_bounds_argv())
def test_any_bounds_argv_exits_0_1_or_2_without_a_traceback(argv):
    _assert_exits_0_1_or_2_without_a_traceback(argv)


# whs flags near its two caps: weights past and below Sylvester's bound with
# more than MAX_SCAN values of b to scan, and an n that makes the volume's
# (n - r)^n too long to build.
_whs_near_caps = st.one_of(
    st.integers(2**15, 2**17).map(lambda k: [k, k + 2, 2**15 * (k + 2), (k - 1) ** 2]),
    st.integers(2**15, 2**17).map(lambda k: [k, k + 2, k * k + 2, (k - 1) ** 2]),
    st.integers(10, 10**7).map(lambda n: [1, 2, 1, n]),
)


@st.composite
def _wps_or_whs_argv(draw):
    """wps or whs argv in --format json or csv: each flag present or not,
    valid or not, in a random order."""
    if draw(st.booleans()):
        ascending = st.one_of(st.integers(1, 12), st.integers(1, 10**4300 - 1))
        weights = st.one_of(
            st.lists(ascending, min_size=1, max_size=4).map(lambda w: ",".join(map(str, [1, *sorted(w)]))),
            st.lists(st.integers(-2, 12), min_size=1, max_size=5).map(lambda w: ",".join(map(str, w))),
            st.lists(_flag_integers, min_size=1, max_size=3).map(",".join),
            st.sampled_from(["", "1,,2", "a", "1,2,", "1," + "9" * 4300, "1," + "9" * 4301]),
        )
        command, flags = "wps", {"--weights": draw(weights)}
    else:
        names = ("--k", "--l", "--d", "--n")
        values = st.one_of(st.integers(1, 12).map(str), _flag_integers)
        flags = {flag: draw(values) for flag in names}
        if draw(st.booleans()):
            flags.update(zip(names, map(str, draw(_whs_near_caps))))
        command = "whs"
    keep = st.sampled_from([True] * 9 + [False])
    kept = [f"{flag}={flags[flag]}" for flag in draw(st.permutations(list(flags))) if draw(keep)]
    return ["--format", draw(st.sampled_from(["json", "csv"])), command, *kept]


@settings(max_examples=150, deadline=timedelta(seconds=5))
@given(_wps_or_whs_argv())
def test_any_wps_or_whs_argv_exits_0_1_or_2_without_a_traceback(argv):
    _assert_exits_0_1_or_2_without_a_traceback(argv)


# Raw argv: whole argument lists, token by token.  A jets system text always
# sets its own m_max (at most 2), with n <= 3 and d <= 4, so a drawn --m-max
# never scales one; several constraints come only with m_max 1 and one-digit
# coordinates.
_RAW_SUBCOMMANDS = ["wps", "whs", "jets", "valuation", "zariski", "ruled", "bounds", "reproduce"]
_RAW_FLAGS = [
    "--format", "--seed", "--m-max", "--weights", "--n", "--k", "--l", "--d", "--twist-e", "--twist-D",
    "--op", "--f", "--m", "--g", "--sweep", "--g-max", "--d-max", "--eps", "--filter", "-h", "--help",
    # abbreviations, one of them ambiguous (--twist-e, --twist-D)
    "--form", "--se", "--m-m", "--we", "--tw", "--twist", "--sw", "--g-m", "--d-m", "--ep", "--fil",
]
_RAW_JSON = [
    '{"n":2,"d":3,"constraints":[{"type":"mult","point":[0,0],"order":1}],"point":"random","m_max":2}',
    '{"n":3,"d":4,"constraints":[{"type":"mult","point":[1,-2,"1/2"],"order":2}],"point":[0,0,0],"m_max":2}',
    '{"n":3,"d":4,"constraints":[{"type":"mult","point":["1/3",2,0],"order":3}],"point":"random","m_max":2}',
    '{"n":2,"d":3,"constraints":[{"type":"mult","point":[0,1],"order":2},'
    '{"type":"mult","point":[1,0],"order":1}],"point":[1,1],"m_max":1}',
    '{"n":1,"d":4,"point":[5],"m_max":2,"curve_bound":{"pairing":4,"mult":1,"meets_base_locus":false}}',
    '{"n":2,"d":2,"m_max":0}',
    '{"n":2}',
    json.dumps(_ZARISKI),
    "{}", "[]", "5", "{", "@", "null",
]
_RAW_F = ["s^2+t^3", "s*t^2", "(s+t)^12", "t-sqrt(2)*s^2", "(t-sqrt(2)*s^2)^3*s", "s^100000", "9" * 4301, "", "(", "u"]
_RAW_VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    st.just("9" * 4301),
    st.sampled_from(["json", "csv", "eval", "izumi", "minmult", "galois", "1,1,2", "1,2", "2,3", "1/2", "x"]),
    st.sampled_from(_RAW_JSON),
    st.sampled_from(_RAW_F),
)
# Each subcommand's own flags, and the values that fit each flag best.
_RAW_OWN_FLAGS = {
    "wps": ["--weights"],
    "whs": ["--n", "--k", "--l", "--d"],
    "valuation": ["--weights", "--op", "--f", "--k", "--m", "--twist-e", "--twist-D"],
    "ruled": ["--g", "--d", "--sweep", "--g-max", "--d-max"],
    "bounds": ["--n", "--eps"],
    "reproduce": ["--filter"],
}
_RAW_FITTING = {
    "--format": ["json", "csv"],
    "--form": ["json", "csv"],
    "--weights": ["1,1,2", "1,2", "2,3", "1,1,1,1", "1,3,5"],
    "--op": ["eval", "izumi", "minmult", "galois"],
    "--f": _RAW_F,
    "--twist-D": ["2", "3"],
    "--eps": ["1", "1/2", "2", "3/7"],
    "--filter": ["wps", "x"],
}


def _raw_value(flag):
    """Mostly a value that fits the flag, sometimes any value."""
    fitting = st.sampled_from(_RAW_FITTING.get(flag, [str(i) for i in range(-1, 13)]))
    return st.sampled_from([True] * 7 + [False]).flatmap(lambda fits: fitting if fits else _RAW_VALUES)


@st.composite
def _raw_argv(draw):
    """A token soup, or global flags, a subcommand, its own flags and a few of
    any subcommand; each flag followed by a value, fused to it with =, or
    alone."""
    tokens = st.one_of(st.sampled_from(_RAW_SUBCOMMANDS), st.sampled_from(_RAW_FLAGS), _RAW_VALUES)
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(tokens, max_size=8))

    def flag_tokens(flags):
        out = []
        for flag in flags:
            value = draw(_raw_value(flag))
            out += draw(st.sampled_from([[flag, value]] * 12 + [[f"{flag}={value}"]] * 2 + [[flag]]))
        return out

    command = draw(st.sampled_from(_RAW_SUBCOMMANDS))
    fitting = {"jets": _RAW_JSON[:6], "zariski": [json.dumps(_ZARISKI)]}.get(command)
    positional = [draw(st.sampled_from(fitting * 3 + _RAW_JSON))] if fitting else []
    own = [flag for flag in _RAW_OWN_FLAGS.get(command, []) if draw(st.integers(0, 9))]
    if "--sweep" in own:
        own.remove("--sweep")
        positional.append("--sweep")
    global_flags = ["--format", "--seed", "--m-max", "--form", "--se", "--m-m"]
    argv = flag_tokens(draw(st.lists(st.sampled_from(global_flags), max_size=2)))
    extra = [draw(st.sampled_from(_RAW_FLAGS))] if draw(st.integers(0, 3)) == 0 else []
    return argv + [command, *positional, *flag_tokens(own + extra)]


@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(_raw_argv())
def test_any_raw_argv_exits_0_1_or_2_without_a_traceback(argv):
    code, out, err = _run_argv(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.count("error:") == 1
    else:  # reproduce writes its summary line to stderr
        assert err == "" or re.fullmatch(r"reproduce: \d+/\d+ cases passed in \d+\.\d\ds\n", err)


_JETS = {
    "n": 2,
    "d": 3,
    "constraints": [{"type": "mult", "point": [0, 0], "order": 1}],
    "point": [1, 2],
    "m_max": 2,
    "curve_bound": {"pairing": 2, "mult": 1, "meets_base_locus": False},
}


def _with(desc: dict, value, *path) -> str:
    """desc as JSON text, with the field at path set to value."""
    out = json.loads(json.dumps(desc))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(out)


_WRONG_KINDS = [
    ("jets", '{"n":2,"d":3,"constraints":[5]}', "constraints[0]: expected a JSON object"),
    ("jets", "5", "jets system: expected a JSON object"),
    ("jets", '{"n":2,"d":3,"constraints":5}', "constraints: expected a JSON array"),
    ("jets", '{"n":2,"d":3,"curve_bound":5}', "curve_bound: expected a JSON object"),
    ("jets", '{"n":2,"d":3,"curve_bound":false}', "curve_bound: expected a JSON object"),
    ("jets", '{"n":2,"d":3,"curve_bound":{}}', "curve_bound: missing field 'pairing'"),
    ("jets", '{"n":2,"d":3,"point":"12"}', "point: expected a JSON array"),
    ("jets", _with(_JETS, 7, "constraints", 0, "point"), "constraints[0].point: expected a JSON array"),
    ("jets", _with(_JETS, 1.5, "n"), "n: expected an integer"),
    ("jets", _with(_JETS, 3.5, "d"), "d: expected an integer"),
    ("jets", _with(_JETS, "3", "d"), "d: expected an integer"),
    ("jets", _with(_JETS, 2.5, "m_max"), "m_max: expected an integer"),
    ("jets", _with(_JETS, True, "m_max"), "m_max: expected an integer"),
    ("jets", _with(_JETS, 1.5, "constraints", 0, "order"), "constraints[0].order: expected an integer"),
    ("jets", _with(_JETS, 1.5, "curve_bound", "mult"), "curve_bound.mult: expected an integer"),
    (
        "jets",
        _with(_JETS, "false", "curve_bound", "meets_base_locus"),
        "curve_bound.meets_base_locus: expected true or false",
    ),
    (
        "jets",
        _with(_JETS, 0, "curve_bound", "meets_base_locus"),
        "curve_bound.meets_base_locus: expected true or false",
    ),
    (
        "zariski",
        '{"generators":["E"],"gram":[[1]],"curves":[5],"D":[1]}',
        "curves[0]: expected a JSON object",
    ),
    ("zariski", "[]", "zariski description: expected a JSON object"),
    ("zariski", _with(_ZARISKI, "EF", "generators"), "generators: expected a JSON array"),
    ("zariski", _with(_ZARISKI, 1, "gram", 0), "gram[0]: expected a JSON array"),
    ("zariski", _with(_ZARISKI, {}, "curves"), "curves: expected a JSON array"),
    ("zariski", _with(_ZARISKI, 5, "D"), "D: expected a JSON array"),
    ("zariski", _with(_ZARISKI, 1.5, "curves", 0, "mult"), "curves[0].mult: expected an integer"),
    (
        "zariski",
        _with(_ZARISKI, "false", "curves", 1, "through"),
        "curves[1].through: expected true or false",
    ),
]


@pytest.mark.parametrize("command,text,message", _WRONG_KINDS, ids=[m for _, _, m in _WRONG_KINDS])
def test_json_values_of_the_wrong_kind_exit_2_naming_where(capsys, command, text, message):
    # A list element that is not an object used to raise AttributeError, 1.5
    # was truncated to 1, and "false" read as true.
    code, out, err = run_cli(capsys, command, text)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


_JSON_NUMBER_FIELDS = {
    "gram": (
        "zariski",
        '{"generators":["E","F"],"gram":[[-10,V],[V,0]],"curves":[{"name":"E","coords":[1,0]},'
        '{"name":"F","coords":[0,1],"through":true}],"D":[2,8]}',
        "gram[0][1]",
    ),
    "curve-coords": (
        "zariski",
        '{"generators":["E","F"],"gram":[[-10,1],[1,0]],"curves":[{"name":"E","coords":[V,0]},'
        '{"name":"F","coords":[0,1],"through":true}],"D":[2,8]}',
        "curves[0].coords[0]",
    ),
    "D": (
        "zariski",
        '{"generators":["E","F"],"gram":[[-10,1],[1,0]],"curves":[{"name":"E","coords":[1,0]},'
        '{"name":"F","coords":[0,1],"through":true}],"D":{"coords":[2,V]}}',
        "D[1]",
    ),
    "curve-bound-pairing": (
        "jets",
        '{"n":1,"d":2,"point":[1],"curve_bound":{"pairing":V,"mult":1,"meets_base_locus":false}}',
        "curve_bound.pairing",
    ),
    "point": ("jets", '{"n":2,"d":3,"point":[V,1],"m_max":1}', "point[0]"),
    "constraint-point": (
        "jets",
        '{"n":2,"d":3,"constraints":[{"type":"mult","point":[1,V],"order":1}],"point":[1,2],"m_max":1}',
        "constraints[0].point[1]",
    ),
}
_MOST_DIGITS = "7" * cli.MAX_NUMBER_DIGITS


@pytest.mark.parametrize("field", _JSON_NUMBER_FIELDS)
@pytest.mark.parametrize(
    "value,same_as",
    [
        ("5", '"5"'),
        ("2.0", '"2"'),
        ('"1/2"', "0.5"),
        (_MOST_DIGITS, f'"{_MOST_DIGITS}"'),
        (f"-{_MOST_DIGITS}", f'"-{_MOST_DIGITS}"'),
    ],
    ids=["int", "integral-float", "string", "4300-digits", "minus-4300-digits"],
)
def test_a_json_number_reads_as_the_same_number_written_as_a_string(capsys, field, value, same_as):
    # A JSON int is read as it is; everything else goes through its text.
    command, template, _ = _JSON_NUMBER_FIELDS[field]
    got = run_cli(capsys, command, template.replace("V", value))
    assert got == run_cli(capsys, command, template.replace("V", same_as))


@pytest.mark.parametrize("field", _JSON_NUMBER_FIELDS)
def test_json_true_and_a_4301_digit_integer_in_a_number_field_exit_2(capsys, field):
    command, template, where = _JSON_NUMBER_FIELDS[field]
    for value in ("true", "null", "[]", "{}", "[1]", '{"a":1}'):
        code, out, err = run_cli(capsys, command, template.replace("V", value))
        assert (code, out, err) == (2, "", f"error: {where}: expected a number\n"), value
    code, out, err = run_cli(capsys, command, template.replace("V", "7" + _MOST_DIGITS))
    assert (code, out) == (2, "")
    assert err == f"error: {where}: a number of more than {cli.MAX_NUMBER_DIGITS} digits\n"


@pytest.mark.parametrize("field", _JSON_NUMBER_FIELDS)
def test_a_text_that_is_no_number_exits_2_naming_its_field(capsys, field):
    # Fraction's own messages, "Invalid literal for Fraction: 'x'" and
    # "Fraction(1, 0)", named neither the field nor what is wrong.
    command, template, where = _JSON_NUMBER_FIELDS[field]
    for value in ('"x"', '"1/0"', '"-3/0"', '"1/"', '""', '"0x10"', "NaN", "Infinity", "1e400"):
        code, out, err = run_cli(capsys, command, template.replace("V", value))
        assert (code, out, err) == (2, "", f"error: {where}: expected a number\n"), value


@pytest.mark.parametrize("eps", ["x", "1/0", "0/0", "1/2/3", "inf"])
def test_an_eps_that_is_no_number_exits_2_naming_the_flag(capsys, eps):
    code, out, err = run_cli(capsys, "bounds", "--n", "3", "--eps", eps)
    assert (code, out, err) == (2, "", "error: --eps: expected a number\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_an_answer_with_a_number_of_more_than_4300_digits_exits_2_naming_its_field(capsys, fmt):
    # The README lattice with a 4300-digit E: the coefficient of E in N has
    # more digits than CPython prints.
    command, template, _ = _JSON_NUMBER_FIELDS["curve-coords"]
    code, out, err = run_cli(capsys, "--format", fmt, command, template.replace("V", _MOST_DIGITS))
    assert (code, out) == (2, "")
    assert err == (
        f"error: the answer's coefficients has a number of more than {cli.MAX_NUMBER_DIGITS} digits\n"
    )
    with pytest.raises(ValueError, match="^the answer's P has a number of more than 4300 digits$"):
        emit(fmt, [{"P": [1]}, {"P": [Fraction(1, 10**4300)]}])


def test_integral_floats_read_as_integers(capsys):
    code, out, _ = run_cli(capsys, "jets", json.dumps(_JETS))
    assert code == 0 and out == '{"s_values":[2,4],"lower":"2","upper":"2","certified":true}\n'
    constraints = [{"type": "mult", "point": [0, 0], "order": 1.0}]
    floats = dict(_JETS, n=2.0, d=3.0, m_max=2.0, constraints=constraints)
    assert run_cli(capsys, "jets", json.dumps(floats)) == (code, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("--degree-cap", "5", "valuation", "--weights", "1,1", "--op", "galois", "--m", "2", "--k", "1"),
        ("bounds", "--n", "3", "--eps", "1", "--oracle-resolution", "9"),
    ],
)
def test_removed_flags_are_usage_errors(argv):
    proc = subprocess.run([sys.executable, "-m", "seshadri.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage: seshadri") and "seshadri: error:" in proc.stderr


def _global_flags_named_in(text: str) -> set[str]:
    sentence = re.search(r"Global flags:(.*?)\.\s", text, re.S).group(1)
    return set(re.findall(r"--[a-z][a-z-]*", sentence))


def test_documented_global_flags_are_exactly_the_parser_options():
    import seshadri.cli as cli

    parser = cli.build_parser()
    options = {
        option
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert _global_flags_named_in(readme) == options
    assert _global_flags_named_in(cli.__doc__) == options


def _readme_examples_with_json_output() -> list[tuple[str, str]]:
    """Each `$ seshadri ...` line of README.md whose next line is its JSON
    output, as (command, output) pairs."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    return [
        (line[len("$ seshadri ") :], nxt)
        for line, nxt in zip(lines, lines[1:])
        if line.startswith("$ seshadri ") and nxt.startswith("{")
    ]


def test_readme_examples_print_their_documented_output(capsys):
    examples = _readme_examples_with_json_output()
    assert [shlex.split(cmd)[0] for cmd, _ in examples] == [
        "wps", "whs", "ruled", "jets", "valuation", "valuation", "bounds",
    ]
    for cmd, expected in examples:
        code, out, err = run_cli(capsys, *shlex.split(cmd))
        assert (code, err) == (0, ""), cmd
        assert out == expected + "\n", cmd
