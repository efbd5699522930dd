"""Tests for the command-line interface: serialization, subcommands, exit codes,
and seed-for-seed determinism of everything written to stdout."""

import argparse
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from seshadri import cli
from seshadri.cli import decode, emit, main, to_jsonable
from seshadri.exactmath import INFINITY, QuadExt, WPolynomial


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


def test_emit_json_is_compact_and_exact():
    assert emit("json", {"seshadri": Fraction(4, 5)}) == '{"seshadri":"4/5"}'


def test_emit_csv_flattens_nested_keys_and_joins_lists():
    record = {"P": [Fraction(4, 5), 8], "checks": {"nef": True}}
    assert emit("csv", record) == "P,checks.nef\n4/5;8,True\n"


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        emit("yaml", {})


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
    "argv",
    [
        ("--f", "t^6000", "--twist-e", "1"),
        ("--f", "(s+t)^6000"),
    ],
    ids=["twisted-rewrite", "two-term-power"],
)
def test_valuation_of_a_binomial_power_within_budget(capsys, argv):
    # Each binomial coefficient comes from the previous one, so the 6001
    # terms cost no 6001 separate binomials (about 3 s in total).
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "valuation", "--weights", "1,2", "--op", "eval", *argv)
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert elapsed < 1.0
    assert json.loads(out)["value"] == 6000


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
