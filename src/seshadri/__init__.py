"""Exact-arithmetic toolkit for Seshadri constants and related invariants.

Everything here computes over the rationals (extended by sqrt(2) where a
Galois twist needs it) — no floating point.  The pieces:

- ``exactmath``: rationals plus sqrt(2), weighted polynomials, fraction-free
  linear algebra.
- ``wps``: Seshadri constants and anticanonical volumes of weighted projective
  spaces, and bounds for hypersurfaces inside them.
- ``jets``: jet-separation of constrained linear systems; lower bounds for
  moving Seshadri constants with curve-based upper bounds.
- ``valuations``: monomial and quadratic-twist valuations, log discrepancies,
  a sharp Izumi-type comparison, and minimal multiplicities in valuation
  ideals (for the twisted case, of rational members, read off the norm form).
- ``surfaces``: Zariski decompositions on declared curve lattices and
  Seshadri constants at a marked point; ruled-surface models.
- ``bounds``: the closed-form anticanonical volume bound M(n, eps) with a
  grid oracle.
- ``reproduce``: a frozen table of worked examples re-derived from scratch.
- ``cli``: the command-line front door.

Importing the package loads none of these; import the module whose names you
use (``from seshadri.jets import LinearSystem``).  ``seshadri.cli`` loads only
``exactmath.scalars`` up front, and each subcommand imports its own module,
and the ``exactmath`` submodules that module uses, when it runs, so a CLI
call pays for the modules it uses and no others.
"""

# The seed of random-point sampling in the CLI and in `reproduce`.
DEFAULT_SEED = 1729

__version__ = "0.1.0"
