"""Exact multiderivation bases for Coxeter arrangements.

Builds the polynomial matrices P_m whose columns form free bases of the
modules D^(m) of derivations vanishing to order m along every reflecting
hyperplane, and certifies them (Saito's criterion, per-hyperplane
membership, degree tables, equivariance, the invariant B-matrices and
their recursions) in exact rational arithmetic.
"""

from .coxeter import CoxeterSystem, build_system, get_system, symmetric_polys
from .derivations import (
    BMatrix,
    DerivationBasis,
    PipelineError,
    apply_derivation,
    b_matrix,
    iterate_dkx,
    jacobian,
    p_matrix,
    primitive_dx,
)
from .exactpoly import (
    ArrFrac,
    Matrix,
    Poly,
    UnsupportedDenominator,
    divide_exact,
    is_constant_multiple,
    mat_det_adj,
)
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "ArrFrac",
    "BMatrix",
    "CoxeterSystem",
    "DerivationBasis",
    "Matrix",
    "PipelineError",
    "Poly",
    "UnsupportedDenominator",
    "VerificationReport",
    "apply_derivation",
    "b_matrix",
    "build_system",
    "divide_exact",
    "get_system",
    "is_constant_multiple",
    "iterate_dkx",
    "jacobian",
    "mat_det_adj",
    "p_matrix",
    "primitive_dx",
    "run_verification",
    "symmetric_polys",
    "__version__",
]
