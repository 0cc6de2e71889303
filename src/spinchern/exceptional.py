"""The four exceptional restriction computations and their verdicts.

Each of F4, E6, E7, E8 receives a classical low-dimensional representation
whose pullback along a spin group is a fixed combination of exterior-power
and (half-)spinor generators.  Restricting further to a circle and taking
total classes, the mod-2 class collapses to 1 + u^{2^{h-1}} where 2^h is
the degree of the polynomial generator z of the mod-2 cohomology of
BSpin(n).  Since the image of the circle restriction is the polynomial ring
on u^{2^{h-1}}, the top class is indecomposable there exactly when its
u-exponent equals 2^{h-1}; that is the verdict this module checks, case by
case, together with the dimension audit and (for the real cases) the
square relation between Stiefel-Whitney and Chern classes.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .char_classes import complexification_check, total_chern, total_sw_real, u_text
from .spin_reps import (
    DELTA,
    DELTA_MINUS,
    DELTA_PLUS,
    PAPER_LITERAL,
    VECTOR_REP,
    RepExpr,
    SpinGroup,
    circle_weights,
    dimension,
    format_character,
    lam,
    quillen_h,
    triv,
)

SW_KIND = "SW"
CHERN_KIND = "Chern"

INDECOMPOSABLE = "indecomposable"
DECOMPOSABLE = "decomposable"
NOT_IN_IMAGE = "not-in-image"


class ExceptionalCase(NamedTuple):
    """One exceptional group with its spin restriction data.

    ``top_degree`` is the cohomological degree of the asserted top class
    (16, 32, 64, 128): twice its u-exponent for both kinds, since w_{2k}
    and c_k both sit at u^k.
    """

    group: str
    spin_n: int
    restriction: RepExpr
    target: str
    ambient_dim: int
    class_kind: str  # SW (real representation) or Chern (complex)
    top_degree: int


# The four built-in cases by group, in the order F4, E6, E7, E8.
_CASES = {
    case.group: case
    for case in (
        ExceptionalCase(
            group="F4",
            spin_n=9,
            restriction=RepExpr.from_dict({triv(1): 1, lam(1): 1, DELTA: 1}),
            target="SO(26)",
            ambient_dim=26,
            class_kind=SW_KIND,
            top_degree=16,
        ),
        ExceptionalCase(
            group="E6",
            spin_n=10,
            restriction=RepExpr.from_dict({triv(1): 1, lam(1): 1, DELTA_PLUS: 1}),
            target="SU(27)",
            ambient_dim=27,
            class_kind=CHERN_KIND,
            top_degree=32,
        ),
        ExceptionalCase(
            group="E7",
            spin_n=12,
            restriction=RepExpr.from_dict({lam(1): 2, DELTA_MINUS: 1}),
            target="Sp(28) in SU(56)",
            ambient_dim=56,
            class_kind=CHERN_KIND,
            top_degree=64,
        ),
        ExceptionalCase(
            group="E8",
            spin_n=16,
            restriction=RepExpr.from_dict({triv(1): 8, lam(2): 1, DELTA_PLUS: 1}),
            target="SO(248)",
            ambient_dim=248,
            class_kind=SW_KIND,
            top_degree=128,
        ),
    )
}
GROUP_ORDER = tuple(_CASES)


def builtin_cases() -> list[ExceptionalCase]:
    """The four built-in cases, in the order F4, E6, E7, E8."""
    return list(_CASES.values())


def get_case(group: str) -> ExceptionalCase:
    try:
        return _CASES[group]
    except KeyError:
        raise ValueError(f"unknown group {group!r}; expected one of {GROUP_ORDER}") from None


def indecomposable_in_image(u_power: int, h: int) -> str:
    """Classify u^{u_power} inside the image F2[u^{2^{h-1}}] of the circle
    restriction.

    Monomials v^q of the generator v = u^{2^{h-1}} are indecomposable
    exactly for q = 1; powers of u not divisible by 2^{h-1} are not in the
    image at all.
    """
    if u_power <= 0:
        raise ValueError("u-exponent must be positive")
    gen = 2 ** (h - 1)
    if u_power % gen:
        return NOT_IN_IMAGE
    return INDECOMPOSABLE if u_power == gen else DECOMPOSABLE


class VerificationReport(NamedTuple):
    """Machine-checkable record of one case verification.

    ``_asdict()`` is the case's entry in a theorem1 report, so
    ``total_class`` keys its coefficients by the u-exponent as text.  The
    case generates the image exactly when its top class is indecomposable
    there.
    """

    group: str
    n: int
    h: int
    class_kind: str
    convention: str
    cutoff: int
    character: str
    target: str
    total_class: dict[str, int]
    total_class_str: str
    top_class: str
    expected: str
    verdicts: dict[str, object]
    complexified: dict[str, object] | None
    dimensions: dict[str, int]
    notes: list[str]
    passed: bool
    generates_image: bool


def verify_case(case: ExceptionalCase, convention: str = VECTOR_REP) -> VerificationReport:
    """Run the whole pipeline for one case and build its theorem1 entry.

    Steps: build the circle character; take the total class of the matching
    kind (plus the complexified Chern class for SW-kind cases, checking the
    square relation c = w^2 against the integral class); check the total
    class is exactly 1 plus the expected top class; classify the top class
    in the image subring; audit the dimension under both lambda conventions
    (the vector-rep one must be the ambient one; a literal-convention
    mismatch is only a note).  Every series is cut at twice the highest
    u-power checked (the complexified top class for SW kind).
    Mismatches produce a failing report with the computed witness, never an
    exception.
    """
    g = SpinGroup(case.spin_n)
    h = quillen_h(case.spin_n).h
    top_u = case.top_degree // 2  # w_{2k} and c_k both sit at u^k
    cutoff = 2 * (case.top_degree if case.class_kind == SW_KIND else top_u)

    weights = circle_weights(g, case.restriction, convention)
    chern_f2 = total_chern(weights, cutoff, "F2")
    series = chern_f2 if case.class_kind == CHERN_KIND else total_sw_real(weights, cutoff)
    top_coeff = series.terms.get(top_u, 0)
    shape_ok = series.terms == {0: 1, top_u: 1}
    membership = indecomposable_in_image(top_u, h) if top_coeff else NOT_IN_IMAGE
    notes = [] if shape_ok else [f"total class is {series}, expected 1 + {u_text(top_u)}"]
    verdicts: dict[str, object] = {
        "top_class_present": bool(top_coeff),
        "total_class_shape": shape_ok,
        "membership": "in-image" if membership != NOT_IN_IMAGE else NOT_IN_IMAGE,
        "indecomposability": membership,
        "square_relation": "n/a",
    }

    complexified = None
    sw_ok = True
    if case.class_kind == SW_KIND:
        chern_top_exp = case.top_degree  # c_{top_degree} sits at u^{top_degree}
        chern_top = chern_top_exp in chern_f2.terms
        chern_shape_ok = chern_f2.terms == {0: 1, chern_top_exp: 1}
        chern_membership = indecomposable_in_image(chern_top_exp, h) if chern_top else NOT_IN_IMAGE
        square_ok = complexification_check(weights, cutoff)
        sw_ok = square_ok and chern_shape_ok and chern_membership == DECOMPOSABLE
        complexified = {
            "total_class_str": str(chern_f2),
            "top_class": u_text(chern_top_exp) if chern_top else "0",
            "shape": chern_shape_ok,
            "indecomposability": chern_membership,
        }
        verdicts["square_relation"] = square_ok

    generates_image = membership == INDECOMPOSABLE
    dim_vec = dimension(g, case.restriction, VECTOR_REP)
    dim_lit = dimension(g, case.restriction, PAPER_LITERAL)
    dimension_ok = dim_vec == case.ambient_dim
    verdicts["dimension"] = "pass" if dimension_ok else "fail"
    if dim_lit != dim_vec:
        notes.append(
            f"literal lambda convention gives dimension {dim_lit} "
            f"(vector-rep gives {dim_vec}, ambient is {case.ambient_dim})"
        )

    return VerificationReport(
        group=case.group,
        n=case.spin_n,
        h=h,
        class_kind=case.class_kind,
        convention=convention,
        cutoff=cutoff,
        character=format_character(weights),
        target=case.target,
        total_class={str(k): c for k, c in sorted(series.terms.items())},
        total_class_str=str(series),
        top_class=u_text(top_u) if top_coeff else "0",
        expected=u_text(top_u),
        verdicts=verdicts,
        complexified=complexified,
        dimensions={"ambient": case.ambient_dim, "vector_rep": dim_vec, "paper_literal": dim_lit},
        notes=notes,
        passed=generates_image and shape_ok and sw_ok and dimension_ok,
        generates_image=generates_image,
    )


def verify_all(
    groups: Sequence[str] = GROUP_ORDER, convention: str = VECTOR_REP
) -> list[VerificationReport]:
    """Verify the named groups in the order given, by default all four.

    An unknown name raises ``ValueError`` (see :func:`get_case`).
    """
    return [verify_case(get_case(name), convention) for name in groups]
