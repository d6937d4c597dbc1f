"""Exact Hilbert depth of Hilbert functions, with certificates.

The package computes, in exact integer and rational arithmetic, the Hilbert
depth of numerical functions given as integer numerators over powers of
(1 - t), builds the standard constructions (finite tables, polynomial
rings, shifted free modules, complete intersections, squarefree monomial
quotients), and ships verification batteries that check the governing laws
at desk scale with machine-checkable certificates.
"""

from .depth import (
    BetaTable,
    QDepthResult,
    beta,
    beta_table,
    bounds,
    qdepth,
    reconstruct,
)
from .dsl import FunctionSpec, elaborate, parse_function, parse_spec
from .errors import (
    BudgetExceededError,
    ElaborationError,
    EmptyFunctionError,
    GenerationFailedError,
    HilbertDepthError,
    InvalidArityError,
    InvalidDegreeError,
    InvalidQuotientError,
    NegativeValueError,
    OutOfRangeError,
    ParseError,
    TooManyFormsError,
    TooManyVariablesError,
)
from .hypergeometric import CoeffTable, big_e, coeff_table, gauss_2f1
from .series import (
    HilbertFunction,
    complete_intersection,
    extend,
    free_module,
    from_table,
    polynomial_ring,
    scale,
    shift,
)
from .squarefree import (
    SquarefreeIdeal,
    SquarefreeQuotient,
    alpha_vector,
    check_qdepth_match,
    parse_ideal,
    qdepth_from_alpha,
    random_quotient,
)
from .verify import VerificationReport, Violation

__version__ = "0.1.0"

__all__ = [
    "BetaTable",
    "BudgetExceededError",
    "CoeffTable",
    "ElaborationError",
    "EmptyFunctionError",
    "FunctionSpec",
    "GenerationFailedError",
    "HilbertDepthError",
    "HilbertFunction",
    "InvalidArityError",
    "InvalidDegreeError",
    "InvalidQuotientError",
    "NegativeValueError",
    "OutOfRangeError",
    "ParseError",
    "QDepthResult",
    "SquarefreeIdeal",
    "SquarefreeQuotient",
    "TooManyFormsError",
    "TooManyVariablesError",
    "VerificationReport",
    "Violation",
    "alpha_vector",
    "beta",
    "beta_table",
    "big_e",
    "bounds",
    "check_qdepth_match",
    "coeff_table",
    "complete_intersection",
    "elaborate",
    "extend",
    "free_module",
    "from_table",
    "gauss_2f1",
    "parse_function",
    "parse_ideal",
    "parse_spec",
    "polynomial_ring",
    "qdepth",
    "qdepth_from_alpha",
    "random_quotient",
    "reconstruct",
    "scale",
    "shift",
]
