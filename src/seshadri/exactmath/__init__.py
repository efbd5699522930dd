"""Exact arithmetic substrate: scalars, polynomials, and linear algebra.

Importing the package loads only ``scalars``, whose names it holds from the
start.  Each other name below is looked up in its submodule on first access
(``from seshadri.exactmath import WPolynomial`` loads ``polynomials``) and
then kept here, so that the CLI starts without ``polynomials`` or ``linalg``
(and ``dataclasses``, which ``linalg`` imports).  Modules of the package
import from the submodule that defines a name; this table serves the callers
outside it.
"""

from importlib import import_module

from .scalars import (
    MAX_NUMBER_DIGITS,
    QuadExt,
    Scalar,
    format_scalar,
    to_scalar,
)

# Name -> the submodule that defines it.
_SUBMODULE_OF = {
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


def __getattr__(name: str):
    try:
        submodule = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
