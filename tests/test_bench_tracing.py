"""The benchmark's outside-in tracer (bench/tracing.py) wraps package
functions and reads sizes off their arguments, so a change of signature can
break a traced run while every untraced test passes.  These tests run requests
untraced and then traced, and require the same exit code and stdout."""

import importlib.util
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from seshadri.cli import main

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracer():
    # Loaded from its file, so that bench/ does not go on sys.path and shadow
    # module names for other tests.
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _run(argv):
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


_RULED = {
    "generators": ["E", "F"],
    "gram": [[-10, 1], [1, 0]],
    "curves": [{"name": "E", "coords": [1, 0]}, {"name": "F", "coords": [0, 1], "through": True}],
    "D": {"coords": [2, 8]},
}
# Two constraints at one point: the constraint matrix is rank deficient
# modulo PRIME, so its rank and the stop orders go through exact_rank.
_JETS = {
    "n": 2,
    "d": 3,
    "constraints": [
        {"type": "mult", "point": [0, 0], "order": 1},
        {"type": "mult", "point": [0, 0], "order": 1},
    ],
    "point": [0, 1],
    "m_max": 2,
}


@pytest.mark.parametrize(
    "argv,layer",
    [
        (("jets", json.dumps(_JETS)), "exactmath.exact_rank"),
        (("zariski", json.dumps(_RULED)), "surfaces.zariski_decomposition"),
    ],
    ids=["jets", "zariski"],
)
def test_a_traced_request_prints_what_an_untraced_one_prints(argv, layer):
    untraced = _run(argv)
    tracer = _tracer()
    with tracer.active(0):
        traced = _run(argv)
    assert untraced[0] == 0
    assert traced == untraced
    assert tracer.table()[f"{layer}.calls"] > 0
