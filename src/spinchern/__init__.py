"""Exact characteristic-class computations for spin representations.

Everything is computed symbolically over Z and F2: the signed weight maps
of the exterior-power and (half-)spinor generators of R(Spin(n)) restricted
to the first circle factor of a maximal torus, total Chern and
Stiefel-Whitney classes of those restrictions, the presentation data of the
mod-2 cohomology of BSpin(n) (iterated Steenrod squares of w_2 and the
degree of the polynomial generator z), and the indecomposability verdicts
for the classical low-dimensional representations of F4, E6, E7 and E8.
"""

__version__ = "0.1.0"

from .char_classes import (
    TruncatedPoly,
    VirtualCharacterError,
    complexification_check,
    is_palindromic,
    mod2,
    total_chern,
    total_sw_real,
    vanishing_on_bso_check,
)
from .exceptional import (
    ExceptionalCase,
    VerificationReport,
    builtin_cases,
    dimension_audit,
    indecomposable_in_image,
    verify_all,
    verify_case,
)
from .spin_reps import (
    CONVENTIONS,
    DELTA,
    DELTA_MINUS,
    DELTA_PLUS,
    PAPER_LITERAL,
    VECTOR_REP,
    RepExpr,
    RepSymbol,
    SpinGroup,
    SpinorTypeInfo,
    circle_weights,
    closed_form_f1_lambda,
    dimension,
    format_character,
    lam,
    parse_expr,
    quillen_h,
    spinor_type,
    triv,
)
from .steenrod import (
    GradedPolyF2,
    binom_mod2,
    j_degrees_expected,
    j_ideal_generators,
    sq_bso,
)

__all__ = [
    "TruncatedPoly",
    "SpinGroup",
    "RepSymbol",
    "RepExpr",
    "SpinorTypeInfo",
    "DELTA",
    "DELTA_PLUS",
    "DELTA_MINUS",
    "PAPER_LITERAL",
    "VECTOR_REP",
    "CONVENTIONS",
    "lam",
    "triv",
    "parse_expr",
    "circle_weights",
    "format_character",
    "closed_form_f1_lambda",
    "dimension",
    "spinor_type",
    "quillen_h",
    "VirtualCharacterError",
    "is_palindromic",
    "total_chern",
    "mod2",
    "total_sw_real",
    "complexification_check",
    "vanishing_on_bso_check",
    "GradedPolyF2",
    "binom_mod2",
    "sq_bso",
    "j_degrees_expected",
    "j_ideal_generators",
    "ExceptionalCase",
    "VerificationReport",
    "builtin_cases",
    "indecomposable_in_image",
    "verify_case",
    "verify_all",
    "dimension_audit",
    "__version__",
]
