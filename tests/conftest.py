import os
import re
import signal
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from seshadri.cli import emit
from seshadri.exactmath import QuadExt, Scalar, WPolynomial
from seshadri.exactmath.polynomials import SQRT2_WEIGHT
from seshadri.surfaces import DivisorClass

_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_the_childrens_import_path():
    """Some CLI tests run `python -m seshadri.cli` in a child process.  pytest
    puts `src` on its own import path (`pythonpath` in pyproject.toml); this
    puts it on the children's path too, so a bare `python -m pytest` needs no
    installed copy of the package."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
        yield


# A test that runs longer than this fails.  The slowest test, the child run
# of tests/test_time_limit.py, takes about 6 s and the next about 1.5 s; the
# limit is loose so that a slow, shared machine never trips it.
TIME_LIMIT_S = 60.0


class TimeLimitExceeded(BaseException):
    """Raised inside a test that ran past TIME_LIMIT_S.  Like
    KeyboardInterrupt it is no Exception, so neither hypothesis nor code
    under test that catches Exception takes it for an ordinary failure."""


@pytest.fixture(autouse=True)
def _time_limit():
    """Turn a hang into a failure.  Hypothesis deadlines and the tests' own
    wall-clock budgets are checked only after a call returns; this alarm
    raises inside the running test, and again every 0.5 s after the limit
    in case the first raise is caught.  A signal lands between bytecodes
    only, so one long operation in C runs to its end, and a child process
    keeps its own timeout.  Where SIGALRM does not exist, nothing is
    armed."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"the test ran past its {TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S, 0.5)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- helpers for several test modules -------------------------------------------


# Each name that `seshadri.exactmath` exports, and the submodule that defines
# it.  The package holds the `scalars` names from the start and looks up the
# others on first access.
EXACTMATH_EXPORTS = {
    **dict.fromkeys(("MAX_NUMBER_DIGITS", "QuadExt", "Scalar", "format_scalar", "to_scalar"), "scalars"),
    **dict.fromkeys(
        (
            "INFINITY",
            "BudgetExceeded",
            "Exponent",
            "WPolynomial",
            "format_polynomial",
            "graded_lex_monomials",
            "jet_basis_size",
            "parse_polynomial",
            "parse_product",
        ),
        "polynomials",
    ),
    **dict.fromkeys(("ExactMatrix", "exact_rank", "negative_definite_solve"), "linalg"),
}


def monomial(exp, c=1) -> WPolynomial:
    """The polynomial c * x^exp, in len(exp) variables."""
    return WPolynomial({tuple(exp): c}, len(exp))


def emit_refusal(record):
    """The message of emit's refusal of the record, or None."""
    try:
        emit("json", record)
    except ValueError as exc:
        return str(exc)
    return None


def curve_class(curve) -> DivisorClass:
    """The divisor class of a declared curve."""
    return DivisorClass(curve.coords)


def rational_parts(x: Scalar) -> tuple[Fraction, Fraction]:
    """Split x = a + b*sqrt(2) into (a, b); b = 0 for plain rationals."""
    if isinstance(x, QuadExt):
        return x.a, x.b
    return Fraction(x), Fraction(0)


_QUAD_RE = re.compile(
    r"^\s*(?P<a>[+-]?\d+(?:/\d+)?)\s*(?P<sign>[+-])\s*"
    r"(?P<b>\d+(?:/\d+)?)\s*\*\s*sqrt\(\s*2\s*\)\s*$"
)


def parse_scalar(text: str) -> Scalar:
    """Inverse of format_scalar; accepts "p", "p/q", and "a+b*sqrt(2)"."""
    try:
        return Fraction(text.strip())
    except ValueError:
        pass
    m = _QUAD_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse scalar {text!r}")
    b = Fraction(m.group("b"))
    if m.group("sign") == "-":
        b = -b
    return QuadExt(Fraction(m.group("a")), b)


@pytest.fixture(scope="session")
def term_products():
    """A context manager that lists the coefficient products of the polynomial
    products and two-term powers run inside it, one weight each: one product
    per pair of terms of a product, and 4k + 2 for a two-term base to the
    power k (k for the powers of each coefficient, and two for each of the
    k + 1 terms).  A product weighs SQRT2_WEIGHT where a factor is a QuadExt,
    else 1.  These are the scalar products that the double loop of terms ran,
    and the term products that the integer kernel runs."""
    return _term_products


def _weight(*factors) -> int:
    return SQRT2_WEIGHT if any(isinstance(c, QuadExt) for c in factors) else 1


@contextmanager
def _term_products():
    counted = []
    multiply, power = WPolynomial.__mul__, WPolynomial.__pow__

    def counting_multiply(f, g):
        if isinstance(g, WPolynomial):
            counted.extend(_weight(c1, c2) for c1 in f.coeffs.values() for c2 in g.coeffs.values())
        else:
            counted.extend(_weight(c, g) for c in f.coeffs.values())
        return multiply(f, g)

    def counting_power(f, k):
        if len(f.coeffs) == 2 and isinstance(k, int) and k > 0:
            c1, c2 = f.coeffs.values()
            counted.extend([_weight(c1)] * k + [_weight(c2)] * k)
            for i in range(k + 1):
                first = (c1,) if i else ()
                counted.extend([_weight(*first), _weight(*first, *((c2,) if i < k else ()))])
        return power(f, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WPolynomial, "__mul__", counting_multiply)
        patch.setattr(WPolynomial, "__pow__", counting_power)
        yield counted
