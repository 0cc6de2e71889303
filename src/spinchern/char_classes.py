"""Chern and Stiefel-Whitney class calculus for circle characters.

A character on the circle with nonnegative coefficients is a sum of line
bundles: the coefficient of z^k counts copies of the weight-k line bundle,
whose total Chern class is 1 + k*u with deg u = 2.  The total Chern class of
the character is the product over its weights, computed exactly over Z or
directly over F2.  For palindromic characters (coefficient of z^k
equal to that of z^-k) each conjugate pair {k, -k} is the complexification
of one real 2-plane bundle with total Stiefel-Whitney class 1 + k*u mod 2,
which gives the real class calculus and the c = w^2 cross-check.

A single generator u of cohomological degree 2 serves both the integral and
the mod-2 series: c_k and w_{2k} both read off the u^k coefficient.
"""

from __future__ import annotations

from math import comb

from .laurent import MultiLaurent, TruncatedPoly
from .spin_reps import PAPER_LITERAL, SpinGroup, character_on_T1, lam

WeightMultiset = dict[int, int]


class VirtualCharacterError(ValueError):
    """Raised when a genuine-representation operation meets a virtual character."""


def weights_from_character(ch: MultiLaurent) -> WeightMultiset:
    """Read off the weight multiset of a univariate character.

    Weight k has multiplicity equal to the coefficient of z^k; the total
    count is the dimension.  Negative coefficients mean the character is
    virtual and only total_chern_virtual applies.
    """
    if ch.nvars != 1:
        raise ValueError("weights are read off univariate characters")
    weights: WeightMultiset = {}
    for exps, coeff in ch.items():
        if coeff < 0:
            raise VirtualCharacterError(
                f"coefficient {coeff} of z^{exps[0]} is negative; decompose the "
                "virtual character and use total_chern_virtual"
            )
        weights[exps[0]] = coeff
    return weights


def _binomial_factor(ring: str, k: int, mult: int, cutoff: int) -> TruncatedPoly:
    """(1 + k*u)^mult truncated, by direct binomial expansion."""
    if k == 0 or mult == 0:
        return TruncatedPoly.one(ring, cutoff)
    top = min(mult, cutoff)
    if ring == "F2":
        if k % 2 == 0:
            return TruncatedPoly.one(ring, cutoff)
        # binom(mult, j) mod 2 by Lucas; the weight contributes k^j = 1
        coeffs = [1 if (mult & j) == j else 0 for j in range(top + 1)]
    else:
        coeffs = [comb(mult, j) * k**j for j in range(top + 1)]
    return TruncatedPoly(ring, cutoff, coeffs)


def total_chern(weights: WeightMultiset, cutoff: int, ring: str = "Z") -> TruncatedPoly:
    """Total Chern class: the product of (1 + k*u)^a_k over all weights.

    ``ring`` is ``"Z"`` for the integral class or ``"F2"`` for its mod-2
    reduction computed directly over F2.  Reduction mod 2 is a ring
    homomorphism, so ``total_chern(w, c, "F2") == mod2(total_chern(w, c))``,
    but the F2 route stays cheap where the integer coefficients would be
    astronomically large: even weights contribute the factor 1 outright.
    """
    out = TruncatedPoly.one(ring, cutoff)
    for k in sorted(weights):
        out = out * _binomial_factor(ring, k, weights[k], cutoff)
    return out


def total_chern_virtual(
    pos: WeightMultiset, neg: WeightMultiset, cutoff: int
) -> TruncatedPoly:
    """Total Chern class of a virtual difference of weight multisets.

    Whitney formula extended by truncated-series division:
    c(pos - neg) = c(pos) * c(neg)^{-1}.  Reduces to total_chern when neg
    is empty, and satisfies total_chern_virtual(p, n) * total_chern(n) ==
    total_chern(p) up to the cutoff.
    """
    return total_chern(pos, cutoff) * total_chern(neg, cutoff).inverse()


def mod2(c: TruncatedPoly) -> TruncatedPoly:
    """Coefficientwise mod-2 reduction of a total class."""
    return c.to_f2()


def total_sw_real(ch: MultiLaurent, cutoff: int) -> TruncatedPoly:
    """Total Stiefel-Whitney class of the real form of a palindromic character.

    Each conjugate pair z^k + z^-k (k > 0) is the complexification of a real
    2-plane bundle with total class 1 + k*u mod 2; weight-0 summands are
    trivial real lines and contribute 1.
    """
    if ch.nvars != 1:
        raise ValueError("real Stiefel-Whitney classes need a univariate character")
    if not ch.is_palindromic():
        raise ValueError("character is not palindromic; it has no real form here")
    weights = weights_from_character(ch)
    return total_chern({k: a for k, a in weights.items() if k > 0}, cutoff, "F2")


def complexification_check(ch: MultiLaurent, cutoff: int) -> bool:
    """Verify c_i of the complexification equals w_i squared, coefficientwise.

    The complexification of the real form of a palindromic character has
    exactly the character's own weights, so the left side is the mod-2
    reduction of the integral total Chern class of those weights and the
    right side is the square of total_sw_real.  Both sides are computed
    independently.
    """
    left = mod2(total_chern(weights_from_character(ch), cutoff))
    sw = total_sw_real(ch, cutoff)
    return left == sw * sw


def vanishing_on_bso_check(g: SpinGroup, cutoff: int = 32) -> bool:
    """All positive-degree universal SW classes restrict to zero on the circle.

    The circle character of lambda_1 has only even weights, so each real
    factor is 1 + 2u = 1 mod 2 and the total class collapses to 1; this is
    the class-level witness that the composite of the circle inclusion with
    Spin(n) -> SO(n) kills reduced mod-2 cohomology.
    """
    ch = character_on_T1(g, lam(1), PAPER_LITERAL)
    return total_sw_real(ch, cutoff) == TruncatedPoly.one("F2", cutoff)
