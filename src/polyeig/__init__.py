"""Exact eigenstructure of polynomial matrices and row-completion feasibility.

Computes Smith forms, multiplicities at infinity and minimal indices over Q
or GF(p), decides whether a prescribed (partial) eigenstructure is
achievable by adding rows, and constructs witnesses where the theory is
constructive.
"""

from .fields import GF, QQ, FieldMismatchError, FieldTag, same_field
from .poly import Poly, poly_divides, poly_gcd, poly_one, poly_s, poly_zero
from .homog import HomogPoly, homog_deg, homog_divides, homog_one, is_divisibility_chain
from .sequences import InternalError, gen_majorizes, majorizes
from .matrix import (
    Eigenstructure,
    PolyMatrix,
    ZeroMatrixError,
    companion_form,
    companion_transform,
    degree_of,
    eigenstructure,
    infinite_multiplicities,
    minimal_indices,
    rank_of,
    smith_form,
    stack_rows,
)
from .feasibility import (
    CompletionTarget,
    ConstantMatrixError,
    FeasibilityReport,
    InvalidTargetError,
    check_existence,
    check_finite_only,
    check_full,
    check_hom_only,
    check_hom_plus_cols,
    check_hom_plus_rows,
    check_infinite_only,
    construct_d,
)
from .realize import (
    BudgetExceededError,
    enumerate_targets,
    realize_low_degree,
    search_realization,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "QQ",
    "FieldMismatchError",
    "FieldTag",
    "same_field",
    "Poly",
    "poly_divides",
    "poly_gcd",
    "poly_one",
    "poly_s",
    "poly_zero",
    "HomogPoly",
    "homog_deg",
    "homog_divides",
    "homog_one",
    "is_divisibility_chain",
    "InternalError",
    "gen_majorizes",
    "majorizes",
    "Eigenstructure",
    "PolyMatrix",
    "ZeroMatrixError",
    "companion_form",
    "companion_transform",
    "degree_of",
    "eigenstructure",
    "infinite_multiplicities",
    "minimal_indices",
    "rank_of",
    "smith_form",
    "stack_rows",
    "CompletionTarget",
    "ConstantMatrixError",
    "FeasibilityReport",
    "InvalidTargetError",
    "check_existence",
    "check_finite_only",
    "check_full",
    "check_hom_only",
    "check_hom_plus_cols",
    "check_hom_plus_rows",
    "check_infinite_only",
    "construct_d",
    "BudgetExceededError",
    "enumerate_targets",
    "realize_low_degree",
    "search_realization",
]
