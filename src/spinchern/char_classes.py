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
the mod-2 series: c_k and w_{2k} both read off the u^k coefficient.  A total
class is a :class:`TruncatedPoly`, a series in u cut above a chosen power:
its ring, its cutoff and its nonzero terms, so 1 + u^65536 costs two
entries whatever the cutoff.  Coefficients are Python ints throughout, so
nothing overflows or rounds.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .spin_reps import PAPER_LITERAL, SpinGroup, circle_weights, lam, signed_sum

WeightMultiset = dict[int, int]


def u_text(k: int) -> str:
    """The text of u^k: ``1``, ``u`` or ``u^k``."""
    return "1" if k == 0 else ("u" if k == 1 else f"u^{k}")


class TruncatedPoly:
    """A polynomial in one generator u, truncated above u^cutoff.

    ``ring`` is ``"Z"`` or ``"F2"``.  ``TruncatedPoly(ring, cutoff, terms)``
    takes a map ``{k: c}`` from powers of u to coefficients; keys outside
    0..cutoff and zero coefficients (over F2, the even ones) are dropped.
    ``terms`` is what remains, in ascending k with every F2 coefficient 1,
    so equal values have equal ``terms``; treat it as read-only.  The
    generator u carries cohomological degree 2, so k represents degree 2k.
    A value is its ring, cutoff and terms, with equality and printing only:
    :func:`total_chern` forms the one product the package needs.
    """

    __slots__ = ("ring", "cutoff", "terms")

    def __init__(self, ring: str, cutoff: int, terms: Mapping[int, int]):
        if ring not in ("Z", "F2"):
            raise ValueError(f"ring must be 'Z' or 'F2', got {ring!r}")
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        self.ring = ring
        self.cutoff = cutoff
        if ring == "F2":
            self.terms = {k: 1 for k in sorted(terms) if terms[k] & 1 and 0 <= k <= cutoff}
        else:
            self.terms = {k: c for k in sorted(terms) if (c := terms[k]) and 0 <= k <= cutoff}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return (self.ring, self.cutoff, self.terms) == (other.ring, other.cutoff, other.terms)

    def __hash__(self) -> int:
        return hash((self.ring, self.cutoff, tuple(self.terms.items())))

    def __str__(self) -> str:
        return signed_sum((c, u_text(k) if k else "") for k, c in self.terms.items())

    def __repr__(self) -> str:
        return f"TruncatedPoly({self.ring!r}, {self.cutoff}, '{self}')"


class VirtualCharacterError(ValueError):
    """Raised when a genuine-representation operation meets a virtual character."""


def is_palindromic(weights: WeightMultiset) -> bool:
    """True iff weights k and -k have the same multiplicity for every k
    (the character is self-conjugate under z -> z^-1)."""
    return all(a == weights.get(-k, 0) for k, a in weights.items())


def _binomial_factor(k: int, mult: int, cutoff: int) -> list[int]:
    """The coefficients of (1 + k*u)^mult over Z up to u^cutoff; k and mult
    are nonzero.

    They follow from c_0 = 1 and c_{j+1} = c_j * k * (mult - j) / (j + 1),
    J.C.P. Miller's recurrence for one factor, from (1 + k*u) f' = mult*k*f;
    c_j = binom(mult, j) k^j, so the division is exact for either sign of
    mult.  A positive ``mult`` stops at u^mult, and a negative one gives the
    binomial series, which runs up to the cutoff.
    """
    c, out = 1, [1]
    for j in range(min(mult, cutoff) if mult > 0 else cutoff):
        c = c * (k * (mult - j)) // (j + 1)
        out.append(c)
    return out


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
    Whitney formula.  ``ring`` is ``"Z"`` for the integral class, the
    schoolbook product of the binomial factors in one dense coefficient
    list, or ``"F2"`` for its mod-2 reduction (1 + u)^N, N the signed count
    of odd weights, whose terms :func:`_odd_binomials` lists, so the F2
    class costs its number of terms, not its cutoff.  Reduction mod 2 is a
    ring homomorphism, so ``total_chern(w, c, "F2") == mod2(total_chern(w, c))``.
    """
    if ring == "F2":
        odd = 0  # the signed count of odd weights
        for k, a in weights.items():
            if k % 2:
                odd += a
        return TruncatedPoly("F2", cutoff, dict.fromkeys(_odd_binomials(odd, cutoff), 1))
    out = [1]  # the dense coefficients of the product so far
    for k, a in sorted(weights.items()):
        if k and a:  # weight 0 and zero multiplicities give the factor 1
            factor = _binomial_factor(k, a, cutoff)
            product = [0] * min(cutoff + 1, len(out) + len(factor) - 1)
            for i, c in enumerate(out):
                if c:
                    for j, b in enumerate(factor[: len(product) - i]):
                        product[i + j] += c * b
            out = product
    return TruncatedPoly(ring, cutoff, dict(enumerate(out)))


def mod2(c: TruncatedPoly) -> TruncatedPoly:
    """Coefficientwise mod-2 reduction of a total class."""
    return TruncatedPoly("F2", c.cutoff, c.terms)


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
    return TruncatedPoly("F2", p.cutoff, {2 * k: 1 for k in p.terms})


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
    return total_sw_real(weights, cutoff) == TruncatedPoly("F2", cutoff, {0: 1})
