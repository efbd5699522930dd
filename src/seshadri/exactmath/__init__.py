"""Exact arithmetic substrate: scalars, polynomials, and linear algebra."""

from .scalars import (
    QuadExt,
    Scalar,
    format_scalar,
    parse_scalar,
    rational_parts,
    to_scalar,
)
from .polynomials import (
    INFINITY,
    Exponent,
    WPolynomial,
    format_polynomial,
    graded_lex_monomials,
    jet_basis_size,
    jet_coefficients,
    multiplicity_at,
    parse_polynomial,
)
from .linalg import (
    ExactMatrix,
    exact_rank,
    is_negative_definite,
    nullspace_basis,
    rref,
    solve_unique,
)
