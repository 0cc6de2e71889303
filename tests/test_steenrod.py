"""Tests for Steenrod squares, the Wu formula and the ideal generators.

The independent oracle works in the polynomial ring on "roots" t_1 ... t_n
(exponents are nonnegative, coefficients mod 2): w_j is the j-th elementary
symmetric function of the roots, the total square sends each root t to
t + t^2 and extends multiplicatively, and Sq^i picks out the homogeneous
degree j + i part.  Expressing the result back in the w-basis uses the
classical leading-term algorithm for symmetric functions.  None of that
shares code with the Wu/Cartan implementation under test.  The oracle
squares in the full ring F2[w_1, ..., w_n]; ``sq_bso`` squares in
H*(BSO(n)), so its results are compared with the oracle's after the w_1
monomials are removed.  The roots oracle is slow for high powers, so
``sq_bso`` is also checked against ``oracles.sq_by_factors``, which takes
its Wu pieces from the full-ring ``oracles.sq_on_generator`` and applies the
Cartan formula one factor at a time.  Each ideal generator is also checked
against ``oracles.sq_top_oracle``, the square one below the top, which
takes no Wu binomials.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from functools import lru_cache
from math import comb
from typing import Iterable

import pytest

from oracles import (
    MultiLaurent,
    elementary_symmetric,
    poly_degree,
    poly_product,
    poly_sum,
    sq_by_factors,
    sq_on_generator,
    sq_top_oracle,
)
from spinchern.spin_reps import quillen_h
from spinchern.steenrod import (
    GradedPolyF2,
    binom_mod2,
    j_degrees_expected,
    j_ideal_generators,
    sq_bso,
)


def w(*indices: int, n: int) -> GradedPolyF2:
    return GradedPolyF2.from_monomials(n, [tuple(sorted(indices))])


def without_w1(p: GradedPolyF2) -> GradedPolyF2:
    """The image of p in H*(BSO(n)): its monomials with a w_1 factor removed."""
    return GradedPolyF2.from_monomials(p.n, [m for m in p.monomials() if 1 not in m])


# ---- oracle machinery -------------------------------------------------------


def _reduce2(p: MultiLaurent) -> MultiLaurent:
    return MultiLaurent(p.nvars, {e: c & 1 for e, c in p.items()})


def _roots_w(j: int, n: int) -> MultiLaurent:
    ts = [MultiLaurent.variable(n, k) for k in range(n)]
    return elementary_symmetric(ts, j)[j]


def _roots_of_monomial(mon: tuple[int, ...], n: int) -> MultiLaurent:
    out = MultiLaurent.constant(n, 1)
    for j in mon:
        out = _reduce2(out * _roots_w(j, n))
    return out


def _total_square(p: MultiLaurent) -> MultiLaurent:
    # substitute t_k -> t_k + t_k^2 throughout, mod 2
    n = p.nvars
    out = MultiLaurent.zero(n)
    for exps, coeff in p.items():
        term = MultiLaurent.constant(n, coeff)
        for k, a in enumerate(exps):
            if a:
                factor = MultiLaurent.variable(n, k) + MultiLaurent.variable(n, k, 2)
                term = _reduce2(term * factor**a)
        out = _reduce2(out + term)
    return out


def _homogeneous_part(p: MultiLaurent, degree: int) -> MultiLaurent:
    return MultiLaurent(p.nvars, {e: c for e, c in p.items() if sum(e) == degree})


def _express_in_w(p: MultiLaurent, n: int) -> GradedPolyF2:
    """Rewrite a symmetric mod-2 polynomial in the roots as a w-monomial sum.

    Greedy leading-term elimination: the lex-largest monomial of a symmetric
    polynomial has weakly decreasing exponents a; subtracting the product of
    elementary symmetric functions indexed by the conjugate partition of a
    strictly lowers the leading term.
    """
    remaining = _reduce2(p)
    collected: set[tuple[int, ...]] = set()
    while remaining:
        exps = max(e for e, _ in remaining.items())
        assert tuple(sorted(exps, reverse=True)) == exps, "not symmetric"
        conjugate = [sum(1 for a in exps if a >= i) for i in range(1, exps[0] + 1)]
        collected ^= {tuple(sorted(conjugate))}
        remaining = _reduce2(remaining + _roots_of_monomial(tuple(conjugate), n))
    return GradedPolyF2.from_monomials(n, collected)


@lru_cache(maxsize=None)
def _squared_roots(mon: tuple[int, ...], n: int) -> MultiLaurent:
    """The total square of a w-monomial in the roots; every Sq^i is one
    homogeneous part of it, so it is expanded once per (monomial, n)."""
    return _total_square(_roots_of_monomial(mon, n))


def oracle_sq_monomial(i: int, mon: tuple[int, ...], n: int) -> GradedPolyF2:
    part = _homogeneous_part(_squared_roots(mon, n), sum(mon) + i)
    return _express_in_w(part, n)


# ---- Wu formula on generators ----------------------------------------------


def test_sq1_w2_full_and_bso():
    full = sq_on_generator(1, 2, 10)
    assert full == GradedPolyF2.from_monomials(10, [(1, 2), (3,)])
    assert without_w1(full) == sq_bso(1, w(2, n=10)) == w(3, n=10)


def test_sq2_w2_is_top_square():
    assert sq_on_generator(2, 2, 10) == w(2, 2, n=10)


def test_sq3_w2_vanishes():
    assert not sq_on_generator(3, 2, 10)


def test_sq0_is_identity_on_generators():
    for j in range(1, 7):
        assert sq_on_generator(0, j, 8) == w(j, n=8)


def test_sq_on_generator_matches_roots_oracle():
    n = 6
    for j in range(1, n + 1):
        for i in range(0, j + 3):
            got = sq_on_generator(i, j, n)
            want = oracle_sq_monomial(i, (j,), n)
            assert got == want, (i, j)


def test_sq_generator_index_out_of_range():
    with pytest.raises(ValueError):
        sq_on_generator(1, 7, 6)
    for j in (0, 7):
        with pytest.raises(ValueError, match="out of range 1..6"):
            GradedPolyF2.generator(j, 6)
    for mon in ((0, 2), (2, 7)):
        with pytest.raises(ValueError, match="outside 1..6"):
            GradedPolyF2.from_monomials(6, [mon])


@pytest.mark.parametrize("n", [6, 12, 40, 1024])
def test_sq_bso_wu_pieces_match_full_ring_wu_formula(n):
    # sq_bso packs each Wu piece into the square's own layout, whose fields
    # stop at w_J, J = min(n, i + j), below n for the larger n here
    for j in range(2, min(n, 16) + 1):
        for i in range(j + 2):
            got = sq_bso(i, GradedPolyF2.generator(j, n))
            assert got == without_w1(sq_on_generator(i, j, n)), (i, j)


# ---- Cartan formula -----------------------------------------------------------


def test_sq_products_match_roots_oracle():
    n = 5
    monomials = [(2, 3), (2, 2), (3, 4), (2, 2, 3), (2, 5), (2, 3, 3)]
    for mon in monomials:
        for i in range(0, sum(mon) + 2):
            got = sq_bso(i, GradedPolyF2.from_monomials(n, [mon]))
            want = without_w1(oracle_sq_monomial(i, mon, n))
            assert got == want, (i, mon)


def test_sq_high_powers_match_roots_oracle():
    # exponents of 4 and more; w2^5 w3 stays at n = 4, where the oracle is
    # quick (the factor oracle checks it at n = 6, below)
    for n, mon in [(6, (2, 2, 2, 2)), (6, (3, 3, 3, 3)), (4, (2, 2, 2, 2, 2, 3))]:
        for i in range(0, sum(mon) + 2):
            got = sq_bso(i, GradedPolyF2.from_monomials(n, [mon]))
            assert got == without_w1(oracle_sq_monomial(i, mon, n)), (i, mon)


def test_sq_w2_power_w3_at_n6_matches_factor_oracle():
    n, mon = 6, (2, 2, 2, 2, 2, 3)
    p = GradedPolyF2.from_monomials(n, [mon])
    for i in range(0, sum(mon) + 2):
        assert sq_bso(i, p) == sq_by_factors(i, mon, n), i


def test_sq1_of_w2w3():
    # Sq^1(w2 w3) = w3 Sq^1 w2 + w2 Sq^1 w3 = w3(w1w2 + w3) + w2 w1w3,
    # frozen from the roots oracle: the w1 terms cancel in the full ring,
    # and sq_bso skips them, leaving w3^2 either way
    got = sq_bso(1, w(2, 3, n=8))
    assert got == w(3, 3, n=8)
    assert got == oracle_sq_monomial(1, (2, 3), 8)


def test_sq0_is_identity():
    p = GradedPolyF2.from_monomials(6, [(2, 3), (5,)])
    assert sq_bso(0, p) == p


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        sq_bso(-1, w(2, n=6))
    with pytest.raises(ValueError):
        sq_on_generator(-1, 2, 6)


def test_cartan_coherence_random():
    # Sq^i(ab) equals the convolution of squares of the factors
    rng = random.Random(23)
    n = 8
    for _ in range(120):
        a = tuple(sorted(rng.choices(range(2, n + 1), k=rng.randint(1, 2))))
        b = tuple(sorted(rng.choices(range(2, n + 1), k=rng.randint(1, 2))))
        if sum(a) > 8 or sum(b) > 8:
            continue
        i = rng.randint(0, 8)
        pa = GradedPolyF2.from_monomials(n, [a])
        pb = GradedPolyF2.from_monomials(n, [b])
        direct = sq_bso(i, poly_product(pa, pb))
        terms = (poly_product(sq_bso(t, pa), sq_bso(i - t, pb)) for t in range(i + 1))
        assert direct == poly_sum(n, *terms), (a, b, i)


def _random_power_monomial(rng: random.Random, lo: int, n: int) -> tuple[int, ...]:
    """Up to 4 distinct generators from w_lo..w_n, exponents up to 16, degree <= 60."""
    while True:
        gens = rng.sample(range(lo, n + 1), rng.randint(1, min(4, n - lo + 1)))
        mon = tuple(sorted(j for j in gens for _ in range(rng.randint(1, 16))))
        if sum(mon) <= 60:
            return mon


def test_packed_engine_matches_factor_oracle():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(2, 12)
        mon = _random_power_monomial(rng, 2, n)
        i = rng.randint(1, sum(mon) + 1)
        p = GradedPolyF2.from_monomials(n, [mon])
        assert sq_bso(i, p) == sq_by_factors(i, mon, n), (i, mon, n)


def _sq_w2_power(i: int, e: int, n: int) -> GradedPolyF2:
    """Sq^i(w2^e) from Sq(w2) = w2 + w3 + w2^2 in H*(BSO(n)): the sum of
    multinomial(e; a, b, c) w2^(a + 2c) w3^b over a + b + c = e, b + 2c = i."""
    mons = []
    for c in range(i // 2 + 1):
        b, a = i - 2 * c, e - i + c
        if a >= 0 and comb(e, a) * comb(e - a, b) % 2:
            mons.append((2,) * (a + 2 * c) + (3,) * b)
    return GradedPolyF2.from_monomials(n, mons)


def test_sq_powers_of_w2_across_field_widths():
    # the output degree 2e + i sets the packed field width, and these
    # squares fill a field up to 2^k - 1 (15, 511, 1023) and pass it
    # (16, 512, 1024)
    n = 3
    for e in (7, 255, 256):
        p = w(*[2] * e, n=n)
        assert sq_bso(2 * e, p) == poly_product(p, p)
        for i in sorted({*range(12), *range(2 * e - 10, 2 * e + 3)}):
            got = sq_bso(i, p)
            assert got == _sq_w2_power(i, e, n), (e, i)
            assert not got or got.width == (2 * e + i).bit_length(), (e, i)


def test_sq_additive():
    n = 7
    p = GradedPolyF2.from_monomials(n, [(2, 3)])
    q = GradedPolyF2.from_monomials(n, [(5,)])
    for i in range(6):
        assert sq_bso(i, poly_sum(n, p, q)) == poly_sum(n, sq_bso(i, p), sq_bso(i, q))


# ---- packed terms -------------------------------------------------------------


def _sorted_xor(monomials: Iterable[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The mod-2 sum of index tuples in any order, each sorted."""
    out: set[tuple[int, ...]] = set()
    for mon in monomials:
        out ^= {tuple(sorted(mon))}
    return out


def _monomial_text(mon: tuple[int, ...]) -> str:
    """A sorted index tuple as printed text: (2, 3, 3) is w2*w3^2."""
    return "*".join(f"w{j}" if e == 1 else f"w{j}^{e}" for j, e in Counter(mon).items())


@pytest.mark.parametrize("n", [17, 1024])
def test_monomials_round_trip_through_from_monomials(n):
    # at n = 1024 the degree-65 layout has 7-bit fields for w_1 .. w_65 only;
    # both layouts end in a partial chunk (J = 17 and J = 65), read alike by
    # the printer and by monomials()
    for theta in j_ideal_generators(n, 65):
        assert GradedPolyF2.from_monomials(n, theta.monomials()) == theta, poly_degree(theta)
        text = " + ".join(map(_monomial_text, sorted(theta.monomials())))
        assert str(theta) == text, poly_degree(theta)


def test_from_monomials_is_canonical_after_cancellation():
    # w2^8 listed twice cancels, leaving w2*w3 (degree 5, 3-bit fields) in
    # any order of the repeated monomials; equal values hash alike, and the
    # width, read off the degree, cannot be set
    p = GradedPolyF2.from_monomials(6, [(2,) * 8, (3, 2), (2,) * 8])
    want = w(2, 3, n=6)
    assert p == want and hash(p) == hash(want) and {want: 1}[p] == 1
    assert (p.degree, p.width, p.terms) == (5, 3, want.terms)
    with pytest.raises(AttributeError):
        p.width = 5
    zero = GradedPolyF2.from_monomials(6, [(2,) * 8, (2,) * 8])
    assert zero == GradedPolyF2.from_monomials(6, []) and str(zero) == "0"
    assert str(GradedPolyF2.from_monomials(6, [()])) == "1"


def test_homogeneous_polynomial_prints_in_tuple_order():
    p = GradedPolyF2.from_monomials(6, [(3, 3), (4, 2), (2, 2, 2), (6,)])
    assert str(p) == "w2^3 + w2*w4 + w3^2 + w6"


def test_from_monomials_rejects_mixed_degrees():
    with pytest.raises(ValueError, match="degrees"):
        GradedPolyF2.from_monomials(6, [(2,), (3,)])
    with pytest.raises(ValueError, match="degrees"):
        GradedPolyF2.from_monomials(6, [(), (2, 2)])
    # the degrees are read off the monomials that survive the mod-2 sum
    assert GradedPolyF2.from_monomials(6, [(2,), (3,), (3,)]) == w(2, n=6)


def test_zero_is_the_degree_0_value():
    n = 6
    zero = GradedPolyF2(n, 0, frozenset())
    p = GradedPolyF2.from_monomials(n, [(2, 3), (5,)])
    assert poly_sum(n, p, p) == zero == GradedPolyF2.from_monomials(n, [])
    # beyond the degree, and where every Cartan term cancels (Sq^1 w2^8)
    assert sq_bso(6, p) == sq_bso(1, w(*[2] * 8, n=n)) == zero
    assert zero.degree == 0 and sq_bso(3, zero) == zero


def _partitions(d: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """The ascending tuples of parts in lo..hi that sum to d."""
    if d == 0:
        return [()]
    parts = range(lo, min(d, hi) + 1)
    return [(j, *rest) for j in parts for rest in _partitions(d - j, j, hi)]


@pytest.mark.parametrize("n", [5, 12])
def test_sq_bso_masks_w1_in_the_top_field(n):
    # output degree 4..7 gives 3-bit fields with w_1's on top, at bit
    # 3 * (J - 1) for J = min(n, d + i): at n = 12 it moves with the
    # output degree, and at n = 5 it stops at bit 12
    for d in range(2, 8):
        for mon in _partitions(d, 2, n):
            p = GradedPolyF2.from_monomials(n, [mon])
            for i in range(0, 8 - d):
                got = sq_bso(i, p)
                assert got == sq_by_factors(i, mon, n), (i, mon)
                assert not got or d + i < 4 or got.width == 3, (i, mon)


def _random_homogeneous(rng: random.Random, n: int, degree: int) -> list[tuple[int, ...]]:
    """One to four random unsorted index tuples in 1..n, all of one degree."""
    out = []
    for _ in range(rng.randint(1, 4)):
        mon, left = [], degree
        while left:
            mon.append(rng.randint(1, min(n, left)))
            left -= mon[-1]
        rng.shuffle(mon)
        out.append(tuple(mon))
    return out


def test_mul_across_widths_matches_tuple_oracle():
    rng = random.Random(43)
    for _ in range(80):
        n = rng.randint(1, 9)
        a, b = (_random_homogeneous(rng, n, rng.randint(0, top)) for top in (8, 40))
        pa, pb = GradedPolyF2.from_monomials(n, a), GradedPolyF2.from_monomials(n, b)
        assert pa.monomials() == _sorted_xor(a) and pb.monomials() == _sorted_xor(b), (a, b, n)
        want = _sorted_xor(x + y for x in pa.monomials() for y in pb.monomials())
        got = poly_product(pa, pb)
        assert got.monomials() == want, (a, b, n)
        assert got == GradedPolyF2.from_monomials(n, want) == poly_product(pb, pa)


def test_adem_relations_random():
    # Sq^a Sq^b = sum_c binom(b - c - 1, a - 2c) Sq^{a+b-c} Sq^c for 0 < a < 2b
    # (Adem, PNAS 38, 1952): the Steenrod algebra's own relations, which
    # need no second square routine
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randint(6, 12)
        mon = rng.choice(_partitions(rng.randint(2, 10), 2, n))
        b = rng.randint(1, 6)
        a = rng.randint(1, 2 * b - 1)
        p = GradedPolyF2.from_monomials(n, [mon])
        right = [sq_bso(a + b - c, sq_bso(c, p))
                 for c in range(a // 2 + 1) if comb(b - c - 1, a - 2 * c) % 2]
        assert sq_bso(a, sq_bso(b, p)) == poly_sum(n, *right), (a, b, mon)


# ---- instability --------------------------------------------------------------


def test_instability_random():
    rng = random.Random(29)
    n = 9
    for _ in range(200):
        mon = tuple(sorted(rng.choices(range(2, n + 1), k=rng.randint(1, 3))))
        deg = sum(mon)
        p = GradedPolyF2.from_monomials(n, [mon])
        assert not sq_bso(deg + rng.randint(1, 4), p)
        assert sq_bso(deg, p) == poly_product(p, p)


def test_homogeneity():
    rng = random.Random(31)
    n = 8
    for _ in range(60):
        mon = tuple(sorted(rng.choices(range(2, n + 1), k=rng.randint(1, 3))))
        i = rng.randint(0, sum(mon))
        result = sq_bso(i, GradedPolyF2.from_monomials(n, [mon]))
        if result:
            assert poly_degree(result) == sum(mon) + i


# ---- mod-2 binomials ------------------------------------------------------------


def test_binom_mod2_small_table():
    from math import comb

    for n in range(0, 20):
        for k in range(0, 20):
            assert binom_mod2(n, k) == comb(n, k) % 2


def test_binom_mod2_negative_top():
    # binom(-a, k) = (-1)^k binom(a + k - 1, k)
    from math import comb

    for a in range(1, 8):
        for k in range(0, 8):
            assert binom_mod2(-a, k) == comb(a + k - 1, k) % 2
    # binom(n, k) = 0 for k < 0, whatever the sign of n
    for n in (-3, -1, 0, 5):
        assert binom_mod2(n, -1) == binom_mod2(n, -4) == 0


# ---- ideal generators ---------------------------------------------------------------


def test_theta2_is_w3():
    for n in range(6, 17):
        gens = j_ideal_generators(n)
        assert gens[0] == w(2, n=n)
        assert gens[1] == w(3, n=n)


def degrees(gens):
    return tuple(map(poly_degree, gens))


def test_j_degrees():
    assert degrees(j_ideal_generators(10)) == (2, 3, 5, 9, 17)
    assert degrees(j_ideal_generators(9)) == (2, 3, 5, 9)
    assert degrees(j_ideal_generators(16)) == (2, 3, 5, 9, 17, 33, 65)


def test_j_degrees_match_recursion():
    for n in range(6, 17):
        gens, h = j_ideal_generators(n), quillen_h(n).h
        assert list(degrees(gens)) == j_degrees_expected(h)
        assert len(gens) == h


def test_theta4_frozen_value():
    # degree-9 generator for any n >= 9, frozen from the roots oracle run
    # over Sq^4(w2 w3 + w5)
    theta4 = j_ideal_generators(12)[3]
    expected = GradedPolyF2.from_monomials(
        12,
        [(2, 2, 2, 3), (2, 2, 5), (2, 7), (3, 3, 3), (3, 6), (4, 5), (9,)],
    )
    assert theta4 == expected


def test_theta4_matches_roots_oracle():
    n = 9
    theta3 = j_ideal_generators(n)[2]  # w2 w3 + w5
    want = poly_sum(n, *(oracle_sq_monomial(4, mon, n) for mon in theta3.monomials()))
    assert without_w1(want) == j_ideal_generators(n)[3]


def test_presentation_shape_small_n():
    for n in range(6, 18):
        gens = j_ideal_generators(n)
        assert len(gens) == quillen_h(n).h
        assert gens[0] == w(2, n=n)
        assert [g.degree for g in gens] == j_degrees_expected(len(gens))


def test_theta_is_the_top_minus_one_square_of_the_theta_before():
    # deg theta_r = d = 2^{r-1} + 1 and theta_{r+1} = Sq^{d-1} theta_r, so
    # the oracle, which needs no Wu binomials, checks every theta past w_2;
    # at n = 16 the last one has degree 65
    cases = [(n, None) for n in range(6, 17)] + [(n, 65) for n in (17, 40, 1024)]
    for n, top in cases:
        gens = j_ideal_generators(n, top)
        for theta, nxt in zip(gens, gens[1:]):
            assert sq_top_oracle(theta.monomials(), n) == nxt.monomials(), (n, nxt.degree)


def test_top_minus_one_oracle_matches_factor_oracle():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(2, 12)
        mon = _random_power_monomial(rng, 2, n)
        want = sq_by_factors(sum(mon) - 1, mon, n)
        assert sq_top_oracle([mon], n) == want.monomials(), (mon, n)


def test_presentation_shape_large_n_depth_limited():
    # the degree-257 and degree-513 generators exist but are too large to
    # expand routinely; check the count structurally and the prefix exactly
    for n in (18, 19, 20):
        h = quillen_h(n).h
        assert len(j_degrees_expected(h)) == h
        gens = j_ideal_generators(n, max_degree=17)
        assert degrees(gens) == (2, 3, 5, 9, 17)


def test_max_degree_edges():
    # the cutoff is inclusive, and below deg w_2 = 2 nothing is expanded
    for n in (6, 9, 20):
        assert j_ideal_generators(n, max_degree=1) == ()
        assert j_ideal_generators(n, max_degree=-5) == ()
        assert j_ideal_generators(n, max_degree=2) == (w(2, n=n),)
    assert degrees(j_ideal_generators(20, max_degree=16)) == (2, 3, 5, 9)
    assert degrees(j_ideal_generators(20, max_degree=17)) == (2, 3, 5, 9, 17)
    # a cutoff past the top degree returns all h, as None does
    assert j_ideal_generators(9, max_degree=10**6) == j_ideal_generators(9)


@pytest.mark.parametrize("n", [6, 7, 9, 10, 11, 16, 17, 1024])
def test_generator_count_at_every_degree_boundary(n):
    # theta_r has degree 2^{r-1} + 1, so each d on either side of one is a
    # boundary of the count, and n = 6, 7 hold fewer generators than d allows
    expected = j_degrees_expected(quillen_h(n).h)
    for d in (-5, 0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 16, 17, 18, 32, 33, 34, 64, 65, 66):
        assert len(j_ideal_generators(n, d)) == sum(1 for e in expected if e <= d), d


@pytest.mark.parametrize(
    "n, counts, digest",
    [
        (17, [1, 1, 2, 7, 38, 268, 2123, 17541],
         "e4a4de8e5b96fadf55cc6686276cac31440b76d5d906151304bc466bcc3a4e02"),
        (18, [1, 1, 2, 7, 38, 277, 2304, 20099],
         "faed25c6d1dbd05dd4f77c97cf05e9ccd7dfa06494befcdb3b79e62278d13e70"),
    ],
    ids=["n17", "n18"],
)
def test_degree_129_generators_frozen(n, counts, digest):
    # theta_1..theta_8 (degree 129), frozen from the per-factor engine
    gens = j_ideal_generators(n, max_degree=129)
    assert [len(g.terms) for g in gens] == counts
    assert hashlib.sha256(str(gens[7]).encode()).hexdigest() == digest


def test_truncation_consistency_across_n():
    big = j_ideal_generators(16)
    for n in (13, 14, 15):
        small = j_ideal_generators(n)
        for a, b in zip(big, small):
            truncated = GradedPolyF2.from_monomials(
                n, [m for m in a.monomials() if all(i <= n for i in m)]
            )
            assert truncated == b


def test_sq_bso_equals_sq_then_drop():
    # sq_by_factors is the full-ring square with its w_1 monomials removed
    rng = random.Random(37)
    n = 10
    for _ in range(60):
        mon = tuple(sorted(rng.choices(range(2, n + 1), k=rng.randint(1, 3))))
        p = GradedPolyF2.from_monomials(n, [mon])
        i = rng.randint(0, sum(mon))
        assert sq_bso(i, p) == sq_by_factors(i, mon, n)


def test_j_requires_n_at_least_6():
    with pytest.raises(ValueError):
        j_ideal_generators(5)
