"""An independent oracle for the BSpin(n) presentation.

Quillen's theorem gives H*(BSpin(n); F2) = F2[w_2..w_n]/(theta_1..theta_h)
tensor F2[z], where the theta_r form a regular sequence and
theta_{h+1} = Sq^{2^{h-1}} theta_h lies in the ideal (theta_1..theta_h).
The library builds the theta_r by iterated squares; these tests check the
ideal they generate by linear algebra over F2, one degree at a time.  A
graded piece of the ideal is spanned by the products mu * theta_r with mu a
monomial; each product is a Python-int bit row over the monomial basis of
its degree, and rows are reduced by XOR against pivots keyed by their
leading bit.  Beyond that cutoff, the elimination tests check the first step
of an all-degree proof: each theta_r of degree d <= n is linear in w_d, and
at n = 10 substituting for those w_d leaves Quillen's relation w7*w10.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from oracles import poly_degree, poly_sum
from spinchern.spin_reps import quillen_h
from spinchern.steenrod import (
    GradedPolyF2,
    Monomial,
    j_degrees_expected,
    j_ideal_generators,
    sq_bso,
)


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
        for mu in monomials(n, degree - poly_degree(theta)):  # none below degree 0
            row = 0
            for term in theta.monomials():
                row ^= 1 << index[tuple(sorted(mu + term))]
            rest = reduce(pivots, row)
            if rest:
                pivots[rest.bit_length() - 1] = rest
    return index, pivots


def lies_in_ideal(n: int, thetas: list[GradedPolyF2], p: GradedPolyF2) -> bool:
    """Whether the homogeneous p lies in the ideal the thetas generate."""
    index, pivots = ideal_piece(n, thetas, p.degree)
    row = 0
    for term in p.monomials():
        row ^= 1 << index[term]
    return reduce(pivots, row) == 0


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
    expected = expected_hilbert(n, list(map(poly_degree, thetas)), top)
    for d in range(top + 1):
        index, pivots = ideal_piece(n, thetas, d)
        if len(index) - len(pivots) != expected[d]:
            return d
    return None


def presentation(n: int, thetas) -> tuple[list[int], list[set[Monomial]]]:
    """The w_i left, and the nonzero relations, once each theta_r in turn,
    reduced by the eliminations before it, eliminates w_d (d its degree) if it
    has w_d as a term.  No other monomial of degree d holds w_d, so such a
    theta_r is w_d plus terms in lower w_i, and w_d = theta_r + w_d."""
    rules: dict[int, set[Monomial]] = {}

    def reduced(poly) -> set[Monomial]:
        out: set[Monomial] = set()
        for mon in poly:
            d = next((i for i in mon if i in rules), None)
            if d is None:
                out ^= {mon}
            else:  # mon = w_d * rest: replace w_d by its rule
                k = mon.index(d)
                out ^= reduced({tuple(sorted(mon[:k] + mon[k + 1:] + term)) for term in rules[d]})
        return out

    relations = []
    for theta in thetas:
        poly, d = reduced(theta.monomials()), theta.degree
        if (d,) in poly:
            rules[d] = poly - {(d,)}
        elif poly:
            relations.append(poly)
    return [i for i in range(2, n + 1) if i not in rules], relations


@pytest.mark.parametrize("n,top", [(6, 30), (7, 30), (8, 30), (9, 30), (10, 30), (12, 28)])
def test_quotient_has_the_regular_sequence_hilbert_series(n, top):
    thetas = list(j_ideal_generators(n))
    assert first_hilbert_mismatch(n, thetas, top) is None


@pytest.mark.parametrize("n", range(6, 11))
def test_next_square_lies_in_the_ideal(n):
    thetas, h = list(j_ideal_generators(n)), quillen_h(n).h
    nxt = sq_bso(2 ** (h - 1), thetas[-1])
    assert nxt and poly_degree(nxt) == 2**h + 1
    assert lies_in_ideal(n, thetas, nxt)


@pytest.mark.parametrize("n,top", [(n, 30) for n in range(6, 11)] + [(11, 28), (12, 28)])
def test_every_square_of_a_generator_lies_in_the_ideal(n, top):
    # J is the kernel of H*(BSO(n)) -> H*(BSpin(n)), a map of algebras over
    # the Steenrod algebra, so Sq^i theta_r lies in J for every i and r
    thetas = list(j_ideal_generators(n, top))
    squares = [sq for theta in thetas for i in range(1, top - theta.degree + 1)
               if (sq := sq_bso(i, theta))]
    assert squares
    for sq in squares:
        assert lies_in_ideal(n, thetas, sq), (n, str(sq))


@pytest.mark.parametrize(
    "n,top", [(n, n) for n in range(6, 41)] + [(n, 65) for n in (64, 65, 127, 128, 512, 1024)]
)
def test_theta_is_linear_in_the_generator_of_its_degree(n, top):
    # theta_r is homogeneous of degree d = 2^{r-1} + 1, so when w_d is one of
    # its terms, theta_r = w_d + (a polynomial in the w_i with i < d), and
    # the quotient by theta_r eliminates w_d (the first step of an
    # all-degree proof of the presentation).  The packed layout is fixed by
    # n and the degree, so w_d's packed term is compared directly, without
    # decoding theta_r's thousands of monomials.
    h = quillen_h(n).h
    for d, theta in zip(j_degrees_expected(h), j_ideal_generators(n, top)):
        if d <= n:
            assert theta.degree == d, (n, d)
            assert GradedPolyF2.generator(d, n).terms <= theta.terms, (n, d)


@pytest.mark.parametrize("n", range(6, 10))
def test_elimination_leaves_quillens_polynomial_ring(n):
    # for n = 6..9 every theta_r has degree d_r <= n and eliminates w_{d_r}, so
    # eliminating w_2, w_3, w_5 (and w_9) in turn leaves, in every degree,
    # H*(BSpin(n); F2) = F2[w_i : 4 <= i <= n, i not in {5, 9}] tensor F2[z]
    thetas = j_ideal_generators(n)
    assert len(thetas) == quillen_h(n).h
    assert presentation(n, thetas) == ([i for i in range(4, n + 1) if i not in (5, 9)], [])


def test_elimination_at_n10_leaves_quillens_relation():
    # theta_1..theta_4 eliminate w2, w3, w5 and w9, and theta_5, of degree 17,
    # reduces to w7*w10: H*(BSpin(10); F2) = F2[w4, w6, w7, w8, w10, z32]/(w7*w10)
    thetas = list(j_ideal_generators(10))
    assert [theta.degree for theta in thetas] == [2, 3, 5, 9, 17]
    assert presentation(10, thetas) == ([4, 6, 7, 8, 10], [{(7, 10)}])
    # negative control: flip w9 in theta_4 and square it again.  Its other six
    # terms lie in (w2, w3, w5) and their Sq^8 in (theta_1..theta_4), so a flip
    # of one of them would leave the result as it is
    flipped = poly_sum(10, thetas[3], GradedPolyF2.generator(9, 10))
    thetas[3:] = [flipped, sq_bso(8, flipped)]
    assert presentation(10, thetas) == ([4, 6, 7, 8, 9, 10], [{(4, 4, 9)}])


def test_hilbert_oracle_catches_a_flipped_monomial():
    # theta_3 = w5 + w2*w3; without w5 it is w2*w3, which lies in (w2), so
    # the ideal loses one dimension in degree 5 and the sequence is not regular
    # (flipping w2*w3 instead leaves the ideal unchanged)
    n = 8
    thetas = list(j_ideal_generators(n))
    assert thetas[2].monomials() == {(5,), (2, 3)}
    thetas[2] = poly_sum(n, thetas[2], GradedPolyF2.from_monomials(n, [(5,)]))
    assert first_hilbert_mismatch(n, thetas, 30) == 5
