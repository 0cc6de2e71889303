"""Exact characteristic-class computations for spin representations.

Everything is computed symbolically over Z and F2: characters of the
exterior-power and (half-)spinor generators of R(Spin(n)) restricted to a
maximal torus and to its first circle factor, total Chern and
Stiefel-Whitney classes of those restrictions, the presentation data of the
mod-2 cohomology of BSpin(n) (iterated Steenrod squares of w_2 and the
degree of the polynomial generator z), and the indecomposability verdicts
for the classical low-dimensional representations of F4, E6, E7 and E8.
"""

__version__ = "0.1.0"

from .char_classes import (
    VirtualCharacterError,
    complexification_check,
    is_palindromic,
    mod2,
    total_chern,
    total_sw_real,
    vanishing_on_bso_check,
    weights_from_character,
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
from .laurent import MultiLaurent, TruncatedPoly, elementary_symmetric
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
    character_on_T1,
    character_on_Tm,
    closed_form_f1_lambda,
    dimension,
    lam,
    parse_expr,
    quillen_h,
    spinor_type,
    triv,
)
from .steenrod import (
    GradedPolyF2,
    SpinPresentation,
    binom_mod2,
    drop_w1,
    j_degrees_expected,
    j_ideal_generators,
    sq,
    sq_bso,
    sq_on_generator,
)

__all__ = [
    "MultiLaurent",
    "TruncatedPoly",
    "elementary_symmetric",
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
    "character_on_Tm",
    "character_on_T1",
    "closed_form_f1_lambda",
    "dimension",
    "spinor_type",
    "quillen_h",
    "VirtualCharacterError",
    "weights_from_character",
    "is_palindromic",
    "total_chern",
    "mod2",
    "total_sw_real",
    "complexification_check",
    "vanishing_on_bso_check",
    "GradedPolyF2",
    "SpinPresentation",
    "binom_mod2",
    "sq_on_generator",
    "sq",
    "sq_bso",
    "drop_w1",
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
