"""An independent oracle for the BSpin(n) presentation.

Quillen's theorem gives H*(BSpin(n); F2) = F2[w_2..w_n]/(theta_1..theta_h)
tensor F2[z], where the theta_r form a regular sequence and
theta_{h+1} = Sq^{2^{h-1}} theta_h lies in the ideal (theta_1..theta_h).
The library builds the theta_r by iterated squares; these tests check the
ideal they generate by linear algebra over F2, one degree at a time.  A
graded piece of the ideal is spanned by the products mu * theta_r with mu a
monomial; each product is a Python-int bit row over the monomial basis of
its degree, and rows are reduced by XOR against pivots keyed by their
leading bit.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from spinchern.spin_reps import quillen_h
from spinchern.steenrod import GradedPolyF2, Monomial, j_ideal_generators, sq_bso


@lru_cache(maxsize=None)
def monomials(n: int, degree: int, lowest: int = 2) -> tuple[Monomial, ...]:
    """Monomials in w_lowest..w_n of the given degree, as sorted index tuples."""
    if degree == 0:
        return ((),)
    return tuple(
        (j,) + rest
        for j in range(lowest, min(n, degree) + 1)
        for rest in monomials(n, degree - j, j)
    )


def reduce(pivots: dict[int, int], row: int) -> int:
    """The remainder of a bit row after XOR against the pivots; 0 iff in their span."""
    while row:
        lead = row.bit_length() - 1
        if lead not in pivots:
            return row
        row ^= pivots[lead]
    return 0


def ideal_piece(
    n: int, thetas: list[GradedPolyF2], degree: int
) -> tuple[dict[Monomial, int], dict[int, int]]:
    """The monomial basis of one degree, and pivots spanning the ideal there."""
    index = {mon: bit for bit, mon in enumerate(monomials(n, degree))}
    pivots: dict[int, int] = {}
    for theta in thetas:
        if theta.degree() > degree:
            continue
        for mu in monomials(n, degree - theta.degree()):
            row = 0
            for term in theta.monomials():
                row ^= 1 << index[tuple(sorted(mu + term))]
            rest = reduce(pivots, row)
            if rest:
                pivots[rest.bit_length() - 1] = rest
    return index, pivots


def expected_hilbert(n: int, degrees: list[int], top: int) -> list[int]:
    """Coefficients of prod_r (1 - t^deg theta_r) / prod_{i=2..n} (1 - t^i) up to t^top."""
    series = [1] + [0] * top
    for i in range(2, n + 1):
        for d in range(i, top + 1):
            series[d] += series[d - i]
    for e in degrees:
        for d in range(top, e - 1, -1):
            series[d] -= series[d - e]
    return series


def first_hilbert_mismatch(n: int, thetas: list[GradedPolyF2], top: int) -> int | None:
    """The lowest degree where the quotient's dimension differs from the
    regular-sequence Hilbert series, or None if they agree through ``top``."""
    expected = expected_hilbert(n, [t.degree() for t in thetas], top)
    for d in range(top + 1):
        index, pivots = ideal_piece(n, thetas, d)
        if len(index) - len(pivots) != expected[d]:
            return d
    return None


@pytest.mark.parametrize("n,top", [(6, 30), (7, 30), (8, 30), (9, 30), (10, 30), (12, 28)])
def test_quotient_has_the_regular_sequence_hilbert_series(n, top):
    thetas = list(j_ideal_generators(n))
    assert first_hilbert_mismatch(n, thetas, top) is None


@pytest.mark.parametrize("n", range(6, 11))
def test_next_square_lies_in_the_ideal(n):
    thetas, h = list(j_ideal_generators(n)), quillen_h(n).h
    nxt = sq_bso(2 ** (h - 1), thetas[-1])
    assert nxt and nxt.degree() == 2**h + 1
    index, pivots = ideal_piece(n, thetas, nxt.degree())
    row = 0
    for term in nxt.monomials():
        row ^= 1 << index[term]
    assert reduce(pivots, row) == 0


def test_hilbert_oracle_catches_a_flipped_monomial():
    # theta_3 = w5 + w2*w3; without w5 it is w2*w3, which lies in (w2), so
    # the ideal loses one dimension in degree 5 and the sequence is not regular
    # (flipping w2*w3 instead leaves the ideal unchanged)
    n = 8
    thetas = list(j_ideal_generators(n))
    assert thetas[2].monomials() == {(5,), (2, 3)}
    thetas[2] = thetas[2] + GradedPolyF2.from_monomials(n, [(5,)])
    assert first_hilbert_mismatch(n, thetas, 30) == 5
