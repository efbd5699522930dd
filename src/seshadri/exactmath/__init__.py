"""Exact arithmetic substrate: scalars, polynomials, and linear algebra."""

from .scalars import (
    MAX_NUMBER_DIGITS,
    QuadExt,
    Scalar,
    format_scalar,
    to_scalar,
)
from .polynomials import (
    INFINITY,
    BudgetExceeded,
    Exponent,
    WPolynomial,
    format_polynomial,
    graded_lex_monomials,
    jet_basis_size,
    parse_polynomial,
    parse_product,
)
from .linalg import (
    ExactMatrix,
    exact_rank,
    negative_definite_solve,
)
