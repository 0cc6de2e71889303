"""Representation-ring symbols of Spin(n) and their circle characters.

The representation ring of Spin(2m) is Z[lambda_1, ..., lambda_{m-2},
Delta+, Delta-] and that of Spin(2m+1) is Z[lambda_1, ..., lambda_{m-1},
Delta].  Restricted to the maximal torus T^m, lambda_i becomes the i-th
elementary symmetric function of z_1^2 + z_1^{-2}, ..., z_m^2 + z_m^{-2}
and the (half-)spin characters are signed sums of the monomials
z_1^{e_1} ... z_m^{e_m} over sign vectors e in {+1, -1}^m.  This package
takes characteristic classes of the further restriction to the first circle
factor (all z_j = 1 except z_1), read off the paper's closed forms:
lambda_i becomes alpha_i + beta_i (z^2 + z^-2) and each (half-)spinor equal
numbers of z and z^-1.  A circle character is held as its signed weight map
``{k: a_k}``, the multiplicity a_k of z^k, negative where the character is
virtual; :func:`format_character` prints it.  The T^m characters are never
expanded.

Two conventions are supported for lambda_i when n is odd.  Under
``paper-literal`` the character is exactly the elementary symmetric function
above (so dim lambda_1 = 2m); under ``vector-rep`` the argument list gains a
constant 1, making lambda_1 the full (2m+1)-dimensional vector
representation.  The two differ only by trivial summands and lower
elementary symmetric terms with even weights, so all mod-2 characteristic
classes agree; dimensions differ, which matters for the F4 audit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import comb

from .laurent import signed_sum


PAPER_LITERAL = "paper-literal"
VECTOR_REP = "vector-rep"
CONVENTIONS = (PAPER_LITERAL, VECTOR_REP)

TYPE_REAL = "R"
TYPE_COMPLEX = "C"
TYPE_QUATERNIONIC = "H"


@dataclass(frozen=True)
class SpinGroup:
    """Spin(n) for n >= 6, with m = floor(n/2) the rank of the maximal torus."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 6:
            raise ValueError(f"Spin(n) requires n >= 6, got n = {self.n}")

    @property
    def m(self) -> int:
        return self.n // 2

    @property
    def is_even(self) -> bool:
        return self.n % 2 == 0

    def max_lambda_index(self) -> int:
        """Largest lambda index appearing in the polynomial ring presentation."""
        return self.m - 2 if self.is_even else self.m - 1

    def __str__(self) -> str:
        return f"Spin({self.n})"


@dataclass(frozen=True)
class RepSymbol:
    """One generator symbol: lambda_i, a (half-)spin representation, or a
    trivial summand of a given dimension."""

    kind: str  # "lambda" | "delta+" | "delta-" | "delta" | "triv"
    index: int = 0  # lambda subscript, or the dimension of a trivial summand

    def __post_init__(self) -> None:
        if self.kind not in ("lambda", "delta+", "delta-", "delta", "triv"):
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.kind == "lambda" and self.index < 1:
            raise ValueError("lambda index must be >= 1")
        if self.kind == "triv" and self.index < 0:
            raise ValueError("trivial summand dimension must be >= 0")

    def __str__(self) -> str:
        if self.kind == "lambda":
            return f"lambda{self.index}"
        if self.kind == "triv":
            return f"triv:{self.index}"
        return self.kind


def lam(i: int) -> RepSymbol:
    return RepSymbol("lambda", i)


def triv(k: int) -> RepSymbol:
    return RepSymbol("triv", k)


DELTA_PLUS = RepSymbol("delta+")
DELTA_MINUS = RepSymbol("delta-")
DELTA = RepSymbol("delta")

_SORT_ORDER = {"triv": 0, "lambda": 1, "delta+": 2, "delta-": 3, "delta": 4}


@dataclass(frozen=True)
class RepExpr:
    """A formal integer combination of representation symbols.

    Multiplicities may be negative (virtual representations).  Expressions
    are immutable; use ``+`` and integer ``*`` to build them.
    """

    terms: tuple[tuple[RepSymbol, int], ...] = field(default=())

    @classmethod
    def from_dict(cls, d: dict[RepSymbol, int]) -> RepExpr:
        items = [(s, c) for s, c in d.items() if c]
        items.sort(key=lambda sc: (_SORT_ORDER[sc[0].kind], sc[0].index))
        return cls(tuple(items))

    @classmethod
    def single(cls, sym: RepSymbol, mult: int = 1) -> RepExpr:
        return cls.from_dict({sym: mult})

    def as_dict(self) -> dict[RepSymbol, int]:
        return dict(self.terms)

    def __add__(self, other: RepExpr) -> RepExpr:
        d = self.as_dict()
        for s, c in other.terms:
            d[s] = d.get(s, 0) + c
        return RepExpr.from_dict(d)

    def __rmul__(self, mult: int) -> RepExpr:
        return RepExpr.from_dict({s: mult * c for s, c in self.terms})

    def __str__(self) -> str:
        return signed_sum((c, "" if sym == triv(1) else str(sym)) for sym, c in self.terms)


_TERM_RE = re.compile(
    r"^(?:(?P<mult>-?\d+)\s*\*\s*)?"
    r"(?P<sym>lambda(?P<lami>\d+)|delta\+|delta-|delta|triv:(?P<trivk>\d+)|(?P<const>-?\d+))$"
)


def parse_expr(text: str) -> RepExpr:
    """Parse the CLI expression grammar.

    Symbols: ``lambda1``, ``delta+``, ``delta-``, ``delta``, ``triv:k``; a
    bare integer is that many trivial summands; integer multipliers attach
    with ``*`` as in ``2*lambda1``; terms join with ``+`` or ``-``:

    >>> str(parse_expr("8 + lambda2 + delta+"))
    '8 + lambda2 + delta+'
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty expression")
    # split into signed terms: leading sign optional, then +/- separators
    chunks = re.split(r"\s+([+-])\s+", stripped)
    terms: dict[RepSymbol, int] = {}
    sign = 1
    for i, chunk in enumerate(chunks):
        if i % 2 == 1:
            sign = 1 if chunk == "+" else -1
            continue
        m = _TERM_RE.match(chunk.strip())
        if not m:
            raise ValueError(f"cannot parse term {chunk!r} in expression {text!r}")
        mult = sign * (int(m.group("mult")) if m.group("mult") else 1)
        if m.group("const") is not None:
            k = int(m.group("const"))
            sym, mult = triv(1), mult * k
        elif m.group("trivk") is not None:
            sym = triv(int(m.group("trivk")))
        elif m.group("lami") is not None:
            sym = lam(int(m.group("lami")))
        else:
            sym = RepSymbol(m.group("sym"))
        terms[sym] = terms.get(sym, 0) + mult
    return RepExpr.from_dict(terms)


def _check_symbol(g: SpinGroup, sym: RepSymbol) -> None:
    if sym.kind == "triv":
        return
    if sym.kind == "delta" and g.is_even:
        raise ValueError(f"delta is only defined for odd n (got {g})")
    if sym.kind in ("delta+", "delta-") and not g.is_even:
        raise ValueError(f"{sym.kind} is only defined for even n (got {g})")
    if sym.kind == "lambda" and not 1 <= sym.index <= g.max_lambda_index():
        raise ValueError(
            f"lambda{sym.index} is outside the presentation range "
            f"1..{g.max_lambda_index()} for {g}"
        )


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; use one of {CONVENTIONS}")


def circle_weights(
    g: SpinGroup, expr: RepExpr | RepSymbol, convention: str = PAPER_LITERAL
) -> dict[int, int]:
    """Restrict a symbol or expression to the first circle factor of T^m.

    The result is the signed weight map ``{k: a_k}`` of the circle
    character, zero multiplicities dropped.  Read off the closed forms,
    additively in the expression: triv:k is k copies of weight 0;
    lambda_i is alpha_i + beta_i (z^2 + z^-2) from
    :func:`closed_form_f1_lambda`, plus the same for lambda_{i-1} under
    ``vector-rep`` at odd n, because e_i(x, 1) = e_i(x) + e_{i-1}(x); Delta
    is 2^{m-1} (z + z^-1) and either half-spinor 2^{m-2} (z + z^-1).
    """
    _check_convention(convention)
    if isinstance(expr, RepSymbol):
        expr = RepExpr.single(expr)
    out: dict[int, int] = {}
    for sym, mult in expr.terms:
        _check_symbol(g, sym)
        if sym.kind == "triv":
            weights = {0: sym.index}
        elif sym.kind == "lambda":
            alpha, beta = closed_form_f1_lambda(g, sym.index)
            if convention == VECTOR_REP and not g.is_even:
                alpha0, beta0 = closed_form_f1_lambda(g, sym.index - 1)
                alpha, beta = alpha + alpha0, beta + beta0
            weights = {0: alpha, 2: beta, -2: beta}
        else:
            half = 2 ** (g.m - 1 if sym.kind == "delta" else g.m - 2)
            weights = {1: half, -1: half}
        for k, c in weights.items():
            out[k] = out.get(k, 0) + mult * c
    return {k: a for k, a in out.items() if a}


def format_character(weights: dict[int, int]) -> str:
    """The circle character of a signed weight map as a Laurent polynomial
    in z1, highest power first; ``"0"`` for the empty map.

    >>> format_character({-1: 8, 1: 8})
    '8*z1 + 8*z1^-1'
    """
    return signed_sum(
        (weights[k], "" if k == 0 else ("z1" if k == 1 else f"z1^{k}"))
        for k in sorted(weights, reverse=True)
    )


def closed_form_f1_lambda(g: SpinGroup, i: int) -> tuple[int, int]:
    """Coefficients (alpha_i, beta_i) with f1*(lambda_i) = alpha_i + beta_i (z^2 + z^-2).

    Under the paper-literal convention every argument z_j^2 + z_j^{-2} with
    j > 1 evaluates to 2, which collapses the elementary symmetric function
    to alpha_i = 2^i C(m-1, i), beta_i = 2^{i-1} C(m-1, i-1).  i = 0 is the
    empty product: (1, 0).
    """
    if i == 0:
        return (1, 0)
    _check_symbol(g, lam(i))
    m = g.m
    return (2**i * comb(m - 1, i), 2 ** (i - 1) * comb(m - 1, i - 1))


def dimension(g: SpinGroup, expr: RepExpr | RepSymbol, convention: str = PAPER_LITERAL) -> int:
    """Virtual dimension: the circle character evaluated at z = 1."""
    return sum(circle_weights(g, expr, convention).values())


def spinor_type(n: int) -> str:
    """Type of the (half-)spinor representation of Spin(n): R, C or H.

    Periodic in n mod 8: residues 0, 1, 7 are real; 2, 6 complex;
    3, 4, 5 quaternionic.
    """
    if n < 6:
        raise ValueError(f"spinor_type requires n >= 6, got {n}")
    r = n % 8
    if r in (0, 1, 7):
        return TYPE_REAL
    if r in (2, 6):
        return TYPE_COMPLEX
    return TYPE_QUATERNIONIC


# h values by residue n = 8k + l, l = 0..7: the Radon-Hurwitz rule, i.e.
# log2 of the real dimension of the (half-)spinor representation.
_RADON_HURWITZ_OFFSETS = (-1, 0, 1, 2, 2, 3, 3, 3)

# An alternative tabulation of h sometimes quoted alongside the type table.
# Where it differs from the rule above (residues 1, 3, 5, 7 mod 8) it is
# inconsistent with deg z = 2^h, the real spinor dimension; kept only so
# reports can flag the discrepancy.
_TABLE_VARIANT_OFFSETS = (-1, -1, 1, 1, 2, 2, 3, 2)


@dataclass(frozen=True)
class SpinorTypeInfo:
    """Spinor type and the exponent h with deg z = 2^h for Spin(n)."""

    n: int
    type: str
    h: int
    table_h: int  # the inconsistent tabulated value, equal to h off the bad residues
    note: str | None

    @property
    def deg_z(self) -> int:
        return 2**self.h


def quillen_h(n: int) -> SpinorTypeInfo:
    """h = log2 of the real dimension of the spinor representation of Spin(n).

    The polynomial generator z of the mod-2 cohomology of BSpin(n) has
    degree 2^h.  For n = 9, 10, 12, 16 this gives deg z = 16, 32, 64, 128.
    """
    if n < 6:
        raise ValueError(f"quillen_h requires n >= 6, got {n}")
    k, l = divmod(n, 8)
    h = 4 * k + _RADON_HURWITZ_OFFSETS[l]
    table_h = 4 * k + _TABLE_VARIANT_OFFSETS[l]
    note = None
    if table_h != h:
        note = (
            f"tabulated h = {table_h} for n = {n} is inconsistent with the real "
            f"spinor dimension 2^{h}; using h = {h}"
        )
    return SpinorTypeInfo(n=n, type=spinor_type(n), h=h, table_h=table_h, note=note)
