"""Exact finite-scale workbench for quantale-enriched categories.

Builds and validates quantales, matrices over them, (T,V)-categories
(V-categories being the case T = identity), lax extensions and module
adjunctions, and decides completeness together with its order-theoretic,
topological and quasi-uniform readings, all by exhaustive search on
finite data.
"""

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    GateUnavailable,
    LawcatError,
    ParseError,
    QuantaleMismatch,
)
from .laxext import LaxExtension
from .monad import builtin_monad, builtin_monads
from .quantale import Quantale, builtin, builtin_quantales, validate_quantale
from .tvcat import TVCategory
from .vmatrix import VMatrix

__all__ = [
    "BudgetExceeded",
    "DimensionMismatch",
    "GateUnavailable",
    "LawcatError",
    "LaxExtension",
    "ParseError",
    "Quantale",
    "QuantaleMismatch",
    "TVCategory",
    "VMatrix",
    "builtin",
    "builtin_monad",
    "builtin_monads",
    "builtin_quantales",
    "validate_quantale",
]

__version__ = "0.1.0"
