"""The time limit of tests/conftest.py fails a test that never returns,
whether it loops in plain Python or inside hypothesis's @given."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_CONFTEST = Path(__file__).resolve().parent / "conftest.py"

# The child's conftest loads this directory's conftest under another name and
# keeps only its time limit, lowered to 2 s.
_CHILD_CONFTEST = f"""
import importlib.util

spec = importlib.util.spec_from_file_location("guard", {str(_CONFTEST)!r})
guard = importlib.util.module_from_spec(spec)
spec.loader.exec_module(guard)
guard.TIME_LIMIT_S = 2.0
_time_limit = guard._time_limit
"""

_LOOPS = """
from hypothesis import given, strategies as st


def test_loops():
    while True:
        pass


@given(st.integers())
def test_loops_under_given(x):
    while True:
        pass
"""


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="the time limit needs SIGALRM")
def test_a_looping_test_fails_at_the_time_limit(tmp_path):
    # pytest.ini makes tmp_path the child's root, so no settings from outside
    # it apply.  Two 2 s limits and the child's start-up take about 5 s.
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "conftest.py").write_text(_CHILD_CONFTEST)
    (tmp_path / "test_loops.py").write_text(_LOOPS)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rf", str(tmp_path)],
        cwd=tmp_path,
        env=dict(os.environ, COLUMNS="200"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 1, proc.stdout + proc.stderr
    for test in ("test_loops", "test_loops_under_given"):
        assert f"FAILED test_loops.py::{test} - guard.TimeLimitExceeded: " in proc.stdout, proc.stdout
    assert "2 failed" in proc.stdout
    assert elapsed < 12
