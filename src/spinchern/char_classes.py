"""Chern and Stiefel-Whitney class calculus for circle characters.

A character on the circle is a signed weight map ``{k: a_k}``, as
:func:`spinchern.spin_reps.circle_weights` returns it: the multiplicity a_k
of z^k counts copies of the weight-k line bundle, whose total Chern class is
1 + k*u with deg u = 2, and a negative a_k marks a virtual difference.  By
the Whitney formula the total Chern class of the character is the product
of (1 + k*u)^a_k over its weights for every sign of a_k, a negative power
being the truncated binomial series.  Mod 2 the factor 1 + k*u is 1 + u
for odd k and 1 for even k, so the mod-2 class is (1 + u)^N with N the
signed count of odd weights, whose terms Lucas' theorem lists with no
product and no coefficient row.
For genuine palindromic characters (coefficient of z^k equal to that of
z^-k) each conjugate pair {k, -k} is the complexification of one real
2-plane bundle with total Stiefel-Whitney class 1 + k*u mod 2, which gives
the real class calculus and the c = w^2 cross-check.

A single generator u of cohomological degree 2 serves both the integral and
the mod-2 series: c_k and w_{2k} both read off the u^k coefficient.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from .laurent import TruncatedPoly
from .spin_reps import PAPER_LITERAL, SpinGroup, circle_weights, lam

WeightMultiset = dict[int, int]


class VirtualCharacterError(ValueError):
    """Raised when a genuine-representation operation meets a virtual character."""


def is_palindromic(weights: WeightMultiset) -> bool:
    """True iff weights k and -k have the same multiplicity for every k
    (the character is self-conjugate under z -> z^-1)."""
    return all(a == weights.get(-k, 0) for k, a in weights.items())


def _binomial_factor(k: int, mult: int, cutoff: int) -> TruncatedPoly:
    """(1 + k*u)^mult over Z, truncated, by direct binomial expansion.

    A negative ``mult`` gives the binomial series, which runs up to the
    cutoff: binom(mult, j) = (-1)^j binom(j - mult - 1, j).
    """
    if k == 0 or mult == 0:
        return TruncatedPoly.one("Z", cutoff)
    if mult > 0:
        coeffs = [comb(mult, j) * k**j for j in range(min(mult, cutoff) + 1)]
    else:
        coeffs = [comb(j - mult - 1, j) * (-k) ** j for j in range(cutoff + 1)]
    return TruncatedPoly("Z", cutoff, coeffs)


def _odd_binomials(n: int, cutoff: int) -> Iterator[int]:
    """The j <= cutoff with binom(n, j) odd, in ascending order.

    By Lucas' theorem binom(n, j) is odd iff j is a 2-adic submask of n.
    With 2^L > cutoff, (1 + u)^n = (1 + u)^(n mod 2^L) mod (2, u^(2^L)), so
    the submasks of n's low L bits serve every n, negative ones included.
    """
    mask = n & ((1 << cutoff.bit_length()) - 1)
    j = 0
    while j <= cutoff:
        yield j
        if j == mask:
            return
        j = (j - mask) & mask  # the next submask of mask above j


def total_chern(weights: WeightMultiset, cutoff: int, ring: str = "Z") -> TruncatedPoly:
    """Total Chern class: the product of (1 + k*u)^a_k over all weights.

    The multiplicities a_k may be negative, so one routine serves genuine
    and virtual characters: c(pos - neg) = c(pos) * c(neg)^{-1} by the
    Whitney formula.  ``ring`` is ``"Z"`` for the integral class or
    ``"F2"`` for its mod-2 reduction, which is (1 + u)^N with N the signed
    count of odd weights.  Its terms are the u^j with binom(N, j) odd, that
    is, by Lucas' theorem, the j <= cutoff that are 2-adic submasks of
    N mod 2^L for any 2^L > cutoff; they are enumerated directly, so the F2
    class costs its number of terms, not its cutoff.  Reduction mod 2 is a
    ring homomorphism, so ``total_chern(w, c, "F2") == mod2(total_chern(w, c))``.
    """
    if ring == "F2":
        odd = sum(a for k, a in weights.items() if k % 2)
        return TruncatedPoly.from_dict("F2", cutoff, dict.fromkeys(_odd_binomials(odd, cutoff), 1))
    out = TruncatedPoly.one(ring, cutoff)
    for k in sorted(weights):
        out = out * _binomial_factor(k, weights[k], cutoff)
    return out


def mod2(c: TruncatedPoly) -> TruncatedPoly:
    """Coefficientwise mod-2 reduction of a total class."""
    return TruncatedPoly.from_dict("F2", c.cutoff, c.terms)


def total_sw_real(weights: WeightMultiset, cutoff: int) -> TruncatedPoly:
    """Total Stiefel-Whitney class of the real form of a palindromic weight map.

    Each conjugate pair z^k + z^-k (k > 0) is the complexification of a real
    2-plane bundle with total class 1 + k*u mod 2; weight-0 summands are
    trivial real lines and contribute 1.  A virtual character has no real
    form here and raises VirtualCharacterError.
    """
    for k, a in weights.items():
        if a < 0:
            raise VirtualCharacterError(
                f"coefficient {a} of z^{k} is negative; a virtual character "
                "has no real form here"
            )
    if not is_palindromic(weights):
        raise ValueError("character is not palindromic; it has no real form here")
    return total_chern({k: a for k, a in weights.items() if k > 0}, cutoff, "F2")


def _f2_square(p: TruncatedPoly) -> TruncatedPoly:
    """p^2 for an F2 series: the Frobenius map sends each u^k to u^{2k}."""
    return TruncatedPoly.from_dict("F2", p.cutoff, {2 * k: 1 for k in p.terms})


def complexification_check(weights: WeightMultiset, cutoff: int) -> bool:
    """Verify c_i of the complexification equals w_i squared, coefficientwise.

    The complexification of the real form of a palindromic character has
    exactly the character's own weights, so the left side is the mod-2
    reduction of the integral total Chern class of those weights and the
    right side is the square of total_sw_real.  Both sides are computed
    independently.
    """
    return mod2(total_chern(weights, cutoff)) == _f2_square(total_sw_real(weights, cutoff))


def vanishing_on_bso_check(g: SpinGroup, cutoff: int = 32) -> bool:
    """All positive-degree universal SW classes restrict to zero on the circle.

    The circle character of lambda_1 has only even weights, so each real
    factor is 1 + 2u = 1 mod 2 and the total class collapses to 1; this is
    the class-level witness that the composite of the circle inclusion with
    Spin(n) -> SO(n) kills reduced mod-2 cohomology.
    """
    weights = circle_weights(g, lam(1), PAPER_LITERAL)
    return total_sw_real(weights, cutoff) == TruncatedPoly.one("F2", cutoff)
