"""Tests for Steenrod squares, the Wu formula and the ideal generators.

The independent oracle works in the polynomial ring on "roots" t_1 ... t_n
(exponents are nonnegative, coefficients mod 2): w_j is the j-th elementary
symmetric function of the roots, the total square sends each root t to
t + t^2 and extends multiplicatively, and Sq^i picks out the homogeneous
degree j + i part.  Expressing the result back in the w-basis uses the
classical leading-term algorithm for symmetric functions.  None of that
shares code with the Wu/Cartan implementation under test.  The roots oracle
is slow for high powers, so the packed engine is also checked against
``oracles.sq_by_factors``, which shares only the Wu formula with it and
applies the Cartan formula one factor at a time.
"""

from __future__ import annotations

import hashlib
import random
from math import comb

import pytest

from oracles import MultiLaurent, elementary_symmetric, sq_by_factors
from spinchern.spin_reps import quillen_h
from spinchern.steenrod import (
    GradedPolyF2,
    binom_mod2,
    drop_w1,
    j_degrees_expected,
    j_ideal_generators,
    sq,
    sq_bso,
    sq_on_generator,
)


def w(*indices: int, n: int) -> GradedPolyF2:
    return GradedPolyF2.from_monomials(n, [tuple(sorted(indices))])


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


def oracle_sq_monomial(i: int, mon: tuple[int, ...], n: int) -> GradedPolyF2:
    roots = _roots_of_monomial(mon, n)
    squared = _total_square(roots)
    part = _homogeneous_part(squared, sum(mon) + i)
    return _express_in_w(part, n)


# ---- Wu formula on generators ----------------------------------------------


def test_sq1_w2_full_and_bso():
    full = sq_on_generator(1, 2, 10)
    assert full == GradedPolyF2.from_monomials(10, [(1, 2), (3,)])
    assert drop_w1(full) == w(3, n=10)


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


# ---- Cartan formula -----------------------------------------------------------


def test_sq_products_match_roots_oracle():
    n = 5
    monomials = [(2, 3), (2, 2), (3, 4), (2, 2, 3), (1, 2), (2, 3, 3)]
    for mon in monomials:
        for i in range(0, sum(mon) + 2):
            got = sq(i, GradedPolyF2.from_monomials(n, [mon]))
            want = oracle_sq_monomial(i, mon, n)
            assert got == want, (i, mon)


def test_sq_high_powers_match_roots_oracle():
    # exponents of 4 and more; w2^5 w3 stays at n = 4, where the oracle is quick
    for n, mon in [(6, (2, 2, 2, 2)), (6, (3, 3, 3, 3)), (4, (2, 2, 2, 2, 2, 3))]:
        for i in range(0, sum(mon) + 2):
            got = sq(i, GradedPolyF2.from_monomials(n, [mon]))
            assert got == oracle_sq_monomial(i, mon, n), (i, mon)


def test_sq1_of_w2w3():
    # Sq^1(w2 w3) = w3 Sq^1 w2 + w2 Sq^1 w3 = w3(w1w2 + w3) + w2 w1w3,
    # frozen from the roots oracle: the w1 terms cancel, leaving w3^2
    got = sq(1, w(2, 3, n=8))
    assert got == w(3, 3, n=8)
    assert got == oracle_sq_monomial(1, (2, 3), 8)


def test_sq0_is_identity():
    p = GradedPolyF2.from_monomials(6, [(2, 3), (5,)])
    assert sq(0, p) == p


def test_negative_index_rejected():
    p = w(2, n=6)
    with pytest.raises(ValueError):
        sq(-1, p)
    with pytest.raises(ValueError):
        sq_bso(-1, p)


def test_cartan_coherence_random():
    # Sq^i(ab) equals the convolution of squares of the factors
    rng = random.Random(23)
    n = 8
    for _ in range(120):
        a = tuple(sorted(rng.choices(range(1, n + 1), k=rng.randint(1, 2))))
        b = tuple(sorted(rng.choices(range(1, n + 1), k=rng.randint(1, 2))))
        if sum(a) > 8 or sum(b) > 8:
            continue
        i = rng.randint(0, 8)
        pa = GradedPolyF2.from_monomials(n, [a])
        pb = GradedPolyF2.from_monomials(n, [b])
        direct = sq(i, pa * pb)
        convolved = GradedPolyF2.zero(n)
        for t in range(i + 1):
            convolved = convolved + sq(t, pa) * sq(i - t, pb)
        assert direct == convolved, (a, b, i)


def _random_power_monomial(rng: random.Random, lo: int, n: int) -> tuple[int, ...]:
    """Up to 4 distinct generators from w_lo..w_n, exponents up to 16, degree <= 60."""
    while True:
        gens = rng.sample(range(lo, n + 1), rng.randint(1, min(4, n - lo + 1)))
        mon = tuple(sorted(j for j in gens for _ in range(rng.randint(1, 16))))
        if sum(mon) <= 60:
            return mon


def test_packed_engine_matches_factor_oracle():
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(2, 12)
        mon = _random_power_monomial(rng, 1, n)
        i = rng.randint(1, sum(mon) + 1)
        p = GradedPolyF2.from_monomials(n, [mon])
        assert sq(i, p) == sq_by_factors(i, mon, n), (i, mon, n)
    for _ in range(150):
        n = rng.randint(3, 12)
        mon = _random_power_monomial(rng, 2, n)
        i = rng.randint(1, sum(mon) + 1)
        p = GradedPolyF2.from_monomials(n, [mon])
        assert sq_bso(i, p) == sq_by_factors(i, mon, n, drop_w1=True), (i, mon, n)


def test_sq_powers_of_w1_across_field_widths():
    # Sq^i(w1^e) = binom(e, i) w1^(e+i); the output degree e + i sets the
    # packed field width, and these exponents fill a field up to 2^k - 1
    # (15, 511) and pass it (512, 513)
    n = 3
    for e in (7, 255, 256):
        p = w(*[1] * e, n=n)
        assert sq(e, p) == w(*[1] * (2 * e), n=n)
        for i in range(max(0, e - 9), e + 2):
            want = w(*[1] * (e + i), n=n) if comb(e, i) % 2 else GradedPolyF2.zero(n)
            assert sq(i, p) == want, (e, i)


def test_sq_additive():
    n = 7
    p = GradedPolyF2.from_monomials(n, [(2, 3)])
    q = GradedPolyF2.from_monomials(n, [(5,)])
    for i in range(6):
        assert sq(i, p + q) == sq(i, p) + sq(i, q)


# ---- packed terms -------------------------------------------------------------


def _tuple_product(a: GradedPolyF2, b: GradedPolyF2) -> set[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()
    for x in a.monomials():
        for y in b.monomials():
            out ^= {tuple(sorted(x + y))}
    return out


def test_inhomogeneous_polynomial_prints_in_tuple_order():
    p = GradedPolyF2.from_monomials(4, [(3,), (2, 3), (2,), (), (2, 2)])
    assert str(p) == "1 + w2 + w2^2 + w2*w3 + w3"
    assert (str(GradedPolyF2.one(4)), str(GradedPolyF2.zero(4))) == ("1", "0")


def test_width_shrinks_back_when_the_top_degree_cancels():
    n = 6
    p = w(2, 3, n=n) + w(5, n=n)  # degree 5: 3-bit fields
    q = w(*[2] * 8, n=n) + w(3, 5, n=n)  # degrees 16 and 8: 5-bit fields
    widened = p + q
    assert widened.width > p.width
    back = widened + q
    assert back == p and hash(back) == hash(p)
    assert (back.width, back.terms) == (p.width, p.terms)


@pytest.mark.parametrize("n", [5, 12])
def test_drop_w1_works_on_the_top_field(n):
    # degree 7 fills w_1's field (w1^7 = 0b111); at n = 12 the layout stops
    # at w_7, below n, so w_1's field sits lower in the int
    mons = [(1,) * 7, (1, 2, 4), (2, 2, 3), (3, 4), (2, 5), (1, 1, 5)]
    p = GradedPolyF2.from_monomials(n, mons)
    assert p.width == 3
    kept = drop_w1(p)
    assert kept.monomials() == {m for m in mons if 1 not in m}
    assert kept == GradedPolyF2.from_monomials(n, [m for m in mons if 1 not in m])
    assert drop_w1(w(*[1] * 7, n=n)) == GradedPolyF2.zero(n)


def test_mul_across_widths_matches_tuple_oracle():
    rng = random.Random(43)
    for _ in range(80):
        n = rng.randint(1, 9)
        a, b = (
            [tuple(rng.choices(range(1, n + 1), k=rng.randint(0, top))) for _ in range(rng.randint(1, 4))]
            for top in (3, 12)
        )
        pa, pb = GradedPolyF2.from_monomials(n, a), GradedPolyF2.from_monomials(n, b)
        want = _tuple_product(pa, pb)
        got = pa * pb
        assert got.monomials() == want, (a, b, n)
        assert got == GradedPolyF2.from_monomials(n, want) == pb * pa


# ---- instability --------------------------------------------------------------


def test_instability_random():
    rng = random.Random(29)
    n = 9
    for _ in range(200):
        mon = tuple(sorted(rng.choices(range(1, n + 1), k=rng.randint(1, 3))))
        deg = sum(mon)
        p = GradedPolyF2.from_monomials(n, [mon])
        assert not sq(deg + rng.randint(1, 4), p)
        assert sq(deg, p) == p * p


def test_homogeneity():
    rng = random.Random(31)
    n = 8
    for _ in range(60):
        mon = tuple(sorted(rng.choices(range(1, n + 1), k=rng.randint(1, 3))))
        i = rng.randint(0, sum(mon))
        result = sq(i, GradedPolyF2.from_monomials(n, [mon]))
        if result:
            assert result.degree() == sum(mon) + i


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


# ---- ideal generators ---------------------------------------------------------------


def test_theta2_is_w3():
    for n in range(6, 17):
        gens = j_ideal_generators(n)
        assert gens[0] == w(2, n=n)
        assert gens[1] == w(3, n=n)


def degrees(gens):
    return tuple(g.degree() for g in gens)


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
    want = GradedPolyF2.zero(n)
    for mon in theta3.monomials():
        want = want + oracle_sq_monomial(4, mon, n)
    assert drop_w1(want) == j_ideal_generators(n)[3]


def test_presentation_shape_small_n():
    for n in range(6, 18):
        gens = j_ideal_generators(n)
        assert len(gens) == quillen_h(n).h
        assert gens[0] == w(2, n=n)
        assert all(g.is_homogeneous() for g in gens)


def test_presentation_shape_large_n_depth_limited():
    # the degree-257 and degree-513 generators exist but are too large to
    # expand routinely; check the count structurally and the prefix exactly
    for n in (18, 19, 20):
        h = quillen_h(n).h
        assert len(j_degrees_expected(h)) == h
        gens = j_ideal_generators(n, max_degree=17)
        assert [g.degree() for g in gens] == [2, 3, 5, 9, 17]


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
    rng = random.Random(37)
    n = 10
    for _ in range(60):
        mon = tuple(sorted(rng.choices(range(2, n + 1), k=rng.randint(1, 3))))
        p = GradedPolyF2.from_monomials(n, [mon])
        i = rng.randint(0, sum(mon))
        assert sq_bso(i, p) == drop_w1(sq(i, p))


def test_j_requires_n_at_least_6():
    with pytest.raises(ValueError):
        j_ideal_generators(5)
