"""Tests for the Chern / Stiefel-Whitney class calculus."""

from __future__ import annotations

import random
from math import comb

import pytest

from spinchern.char_classes import (
    VirtualCharacterError,
    _f2_square,
    complexification_check,
    is_palindromic,
    mod2,
    total_chern,
    total_sw_real,
    vanishing_on_bso_check,
)
from oracles import series_inverse, series_pow
from spinchern.laurent import TruncatedPoly
from spinchern.spin_reps import (
    DELTA,
    DELTA_MINUS,
    DELTA_PLUS,
    RepExpr,
    SpinGroup,
    circle_weights,
    lam,
    parse_expr,
    triv,
)
from spinchern.steenrod import binom_mod2


def one(ring: str, cutoff: int) -> TruncatedPoly:
    return TruncatedPoly.one(ring, cutoff)


def random_weights(rng: random.Random, lo: int = -6, hi: int = 6) -> dict[int, int]:
    return {
        k: rng.randint(1, 5)
        for k in rng.sample(range(lo, hi + 1), rng.randint(0, 5))
    }


def signed(pos: dict[int, int], neg: dict[int, int]) -> dict[int, int]:
    """The signed weight map of the virtual difference pos - neg."""
    return {k: pos.get(k, 0) - neg.get(k, 0) for k in pos.keys() | neg.keys()}


def random_palindromic_weights(rng: random.Random) -> dict[int, int]:
    # weights in [-5, 5], dimension <= 40
    terms: dict[int, int] = {}
    budget = 40
    a0 = rng.randint(0, 4)
    if a0:
        terms[0] = a0
        budget -= a0
    for k in rng.sample(range(1, 6), rng.randint(0, 4)):
        a = rng.randint(1, max(1, budget // (2 * 4)))
        if budget - 2 * a < 0:
            break
        terms[k] = a
        terms[-k] = a
        budget -= 2 * a
    return terms


# ---- circle weight maps ----------------------------------------------------


def test_weights_from_spin_character():
    assert circle_weights(SpinGroup(10), DELTA_PLUS) == {1: 8, -1: 8}


def test_weights_from_constant():
    assert circle_weights(SpinGroup(9), triv(5)) == {0: 5}


def test_weights_from_lambda_restriction():
    assert circle_weights(SpinGroup(9), lam(1)) == {0: 6, 2: 1, -2: 1}


def test_weights_of_virtual_character_are_signed():
    w = circle_weights(SpinGroup(9), parse_expr("delta - 4*lambda1"))
    assert w == {1: 8, -1: 8, 0: -24, 2: -4, -2: -4}


def test_is_palindromic():
    assert is_palindromic({1: 8, -1: 8})
    assert not is_palindromic({1: 1})
    assert is_palindromic({0: 5})
    assert is_palindromic({})
    assert is_palindromic({2: -1, -2: -1, 3: 0})
    assert not is_palindromic({2: 1, -2: -1})


def test_sw_rejects_palindromic_virtual_character():
    w = {0: 3, 2: -1, -2: -1}
    assert is_palindromic(w)
    with pytest.raises(VirtualCharacterError):
        total_sw_real(w, 8)
    with pytest.raises(VirtualCharacterError):
        complexification_check(w, 8)


# ---- total Chern classes -----------------------------------------------------


def test_total_chern_of_spin9_delta():
    w = circle_weights(SpinGroup(9), DELTA)
    expected = series_pow(TruncatedPoly("Z", 32, [1, 0, -1]), 8)  # (1 - u^2)^8
    assert total_chern(w, 32) == expected


def test_total_chern_of_lambda_restrictions():
    # weights 0 and +-2 give (1 - 4u^2)^beta
    for n, i in ((9, 1), (10, 2), (16, 2)):
        g = SpinGroup(n)
        w = circle_weights(g, lam(i))
        beta = w.get(2, 0)
        expected = series_pow(TruncatedPoly("Z", 64, [1, 0, -4]), beta)
        assert total_chern(w, 64) == expected


def test_total_chern_of_trivial_weights():
    assert total_chern({0: 7}, 8) == one("Z", 8)
    assert total_chern({}, 8) == one("Z", 8)


def test_whitney_multiplicativity():
    rng = random.Random(3)
    for _ in range(200):
        w1 = random_weights(rng)
        w2 = random_weights(rng)
        union = dict(w1)
        for k, a in w2.items():
            union[k] = union.get(k, 0) + a
        got = total_chern(union, 24)
        assert got == total_chern(w1, 24) * total_chern(w2, 24)


def test_conjugation_symmetry():
    # a pure +-k pair of multiplicity a contributes (1 - k^2 u^2)^a, so the
    # whole class has only even powers of u
    rng = random.Random(5)
    for _ in range(50):
        pairs = {k: rng.randint(1, 4) for k in rng.sample(range(1, 7), rng.randint(1, 4))}
        weights = {}
        for k, a in pairs.items():
            weights[k] = a
            weights[-k] = a
        got = total_chern(weights, 24)
        expected = one("Z", 24)
        for k, a in sorted(pairs.items()):
            factor = TruncatedPoly.from_dict("Z", 24, {0: 1, 2: -k * k})
            expected = expected * series_pow(factor, a)
        assert got == expected
        assert all(c == 0 for j, c in got.sparse().items() if j % 2)


# ---- virtual classes ------------------------------------------------------------


def test_virtual_reduces_to_total_chern():
    w = {1: 3, -2: 1}
    assert total_chern(signed(w, {}), 16) == total_chern(w, 16)


def test_virtual_self_cancels():
    w = {1: 2, 3: 1}
    assert total_chern(signed(w, w), 16) == one("Z", 16)


def test_virtual_geometric_expansion():
    got = total_chern(signed({1: 1}, {2: 1}), 6)
    # (1 + u) * (1 + 2u)^{-1}, checked by re-multiplying
    assert got * total_chern({2: 1}, 6) == total_chern({1: 1}, 6)
    expected = [1, -1, 2, -4, 8, -16, 32]
    assert list(got.coeffs) == expected


def test_virtual_round_trip_random():
    rng = random.Random(9)
    for _ in range(200):
        pos = random_weights(rng)
        neg = random_weights(rng)
        virt = total_chern(signed(pos, neg), 16)
        assert virt * total_chern(neg, 16) == total_chern(pos, 16)


def test_negative_multiplicity_is_binomial_series():
    # (1 + 2u)^{-1} = sum of (-2u)^j
    assert total_chern({2: -1}, 6).coeffs == (1, -2, 4, -8, 16, -32, 64)


def test_signed_weights_match_series_division_oracle():
    rng = random.Random(19)
    for _ in range(200):
        w = {
            k: rng.choice((-1, 1)) * rng.randint(1, 9)
            for k in rng.sample(range(-6, 7), rng.randint(0, 6))
        }
        pos = {k: a for k, a in w.items() if a > 0}
        neg = {k: -a for k, a in w.items() if a < 0}
        got = total_chern(w, 24)
        assert got == total_chern(pos, 24) * series_inverse(total_chern(neg, 24)), w
        assert total_chern(w, 24, "F2") == mod2(got), w


# ---- mod-2 reduction --------------------------------------------------------------


def test_mod2_of_half_spin_class():
    # (1 - u^2)^{2^{m-2}} reduces to 1 + u^{2^{m-1}} for m = 5
    c = series_pow(TruncatedPoly("Z", 32, [1, 0, -1]), 8)
    assert mod2(c) == TruncatedPoly.from_dict("F2", 32, {0: 1, 16: 1})


def test_mod2_of_lambda_class_is_one():
    c = series_pow(TruncatedPoly("Z", 32, [1, 0, -4]), 14)
    assert mod2(c) == one("F2", 32)


def test_mod2_identity():
    assert mod2(one("Z", 8)) == one("F2", 8)


def test_f2_class_is_a_power_of_one_plus_u():
    # only odd weights count mod 2: (1 + u)^(3 - 1) = 1 + u^2
    assert total_chern({1: 3, 2: 5, -3: -1, 0: 4}, 8, "F2").sparse() == {0: 1, 2: 1}
    # (1 + u)^-1 = 1 + u + u^2 + ... up to the cutoff
    assert total_chern({1: -1, 4: 2}, 6, "F2").coeffs == (1,) * 7
    assert total_chern({2: 9}, 6, "F2") == one("F2", 6)
    # the row stops at u^N, and the cutoff truncates it
    assert total_chern({-1: 4}, 2, "F2").sparse() == {0: 1}
    assert total_chern({5: 3}, 8, "F2").sparse() == {0: 1, 1: 1, 2: 1, 3: 1}


def test_f2_lucas_terms_match_dense_binomial_row():
    # the dense row of binom(N, j) mod 2, built as the class once was
    for n in range(-80, 81):
        for cutoff in range(70):
            top = min(n, cutoff) if n >= 0 else cutoff
            dense = TruncatedPoly("F2", cutoff, [binom_mod2(n, j) for j in range(top + 1)])
            got = total_chern({1: n}, cutoff, "F2")
            assert got == dense, (n, cutoff)
            assert got.coeffs == dense.coeffs, (n, cutoff)


def test_f2_spinor_class_at_m16_is_two_terms():
    cutoff = 2**17
    for g, sym in ((SpinGroup(32), DELTA_PLUS), (SpinGroup(32), DELTA_MINUS), (SpinGroup(33), DELTA)):
        dim = sum(circle_weights(g, sym).values())
        assert total_chern(circle_weights(g, sym), cutoff, "F2").terms == {0: 1, dim: 1}


def test_f2_route_matches_integral_route():
    rng = random.Random(13)
    for _ in range(100):
        w = random_weights(rng)
        assert total_chern(w, 20, "F2") == mod2(total_chern(w, 20))


# ---- real Stiefel-Whitney classes ----------------------------------------------------


def test_sw_of_f4_restriction():
    g = SpinGroup(9)
    expr = RepExpr.from_dict({triv(1): 1, lam(1): 1, DELTA: 1})
    sw = total_sw_real(circle_weights(g, expr), 16)
    assert sw == TruncatedPoly.from_dict("F2", 16, {0: 1, 8: 1})
    # w_16 is the u^8 coefficient
    assert sw.coefficient(8) == 1


def test_sw_of_e8_restriction():
    g = SpinGroup(16)
    expr = RepExpr.from_dict({triv(1): 8, lam(2): 1, DELTA_PLUS: 1})
    sw = total_sw_real(circle_weights(g, expr), 128)
    assert sw == TruncatedPoly.from_dict("F2", 128, {0: 1, 64: 1})


def test_sw_of_constant_character():
    assert total_sw_real({0: 9}, 8) == one("F2", 8)


def test_sw_rejects_non_palindromic():
    with pytest.raises(ValueError):
        total_sw_real({1: 1, -1: 2}, 8)


def test_sw_rejects_virtual():
    with pytest.raises(ValueError):
        total_sw_real({1: 1, -1: 1, 0: -2}, 8)


# ---- c = w^2 ---------------------------------------------------------------------------


def test_complexification_check_f4():
    g = SpinGroup(9)
    expr = RepExpr.from_dict({triv(1): 1, lam(1): 1, DELTA: 1})
    w = circle_weights(g, expr)
    assert complexification_check(w, 32)
    # explicitly: (1 + u^8)^2 == 1 + u^16
    sw = total_sw_real(w, 32)
    assert sw * sw == mod2(total_chern(w, 32))


def test_complexification_check_constant():
    assert complexification_check({0: 3}, 8)


def test_complexification_random_palindromic():
    rng = random.Random(17)
    for _ in range(200):
        w = random_palindromic_weights(rng)
        assert sum(w.values()) <= 40
        for cutoff in (64, 11):  # 11 drops the top squares of larger maps
            sw = total_sw_real(w, cutoff)
            chern2 = mod2(total_chern(w, cutoff))
            assert _f2_square(sw) == sw * sw == chern2


# ---- vanishing on BSO -------------------------------------------------------------------


def test_vanishing_on_bso():
    for n in (9, 10, 16):
        assert vanishing_on_bso_check(SpinGroup(n))


def test_vanishing_on_bso_full_range():
    for n in range(6, 17):
        assert vanishing_on_bso_check(SpinGroup(n)), n


# ---- binomial shape oracles ---------------------------------------------------------------


def test_integral_shape_against_binomial_oracle():
    # total_chern of the weight pairs must match the direct binomial
    # expansion computed from scratch with math.comb
    m = 6
    cutoff = 2 ** (m + 1)
    g = SpinGroup(2 * m)
    w = circle_weights(g, DELTA_PLUS)
    got = total_chern(w, cutoff)
    expo = 2 ** (m - 2)
    expected = TruncatedPoly.from_dict(
        "Z", cutoff, {2 * j: (-1) ** j * comb(expo, j) for j in range(expo + 1)}
    )
    assert got == expected
