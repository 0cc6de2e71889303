"""Tests for the Chern / Stiefel-Whitney class calculus."""

from __future__ import annotations

import random
from math import comb

import pytest

from spinchern.char_classes import (
    VirtualCharacterError,
    complexification_check,
    mod2,
    total_chern,
    total_chern_virtual,
    total_sw_real,
    vanishing_on_bso_check,
    weights_from_character,
)
from spinchern.laurent import MultiLaurent, TruncatedPoly
from spinchern.spin_reps import (
    DELTA,
    DELTA_PLUS,
    RepExpr,
    SpinGroup,
    character_on_T1,
    lam,
    triv,
)


def z(power: int = 1) -> MultiLaurent:
    return MultiLaurent.variable(1, 0, power)


def one(ring: str, cutoff: int) -> TruncatedPoly:
    return TruncatedPoly.one(ring, cutoff)


def random_weights(rng: random.Random, lo: int = -6, hi: int = 6) -> dict[int, int]:
    return {
        k: rng.randint(1, 5)
        for k in rng.sample(range(lo, hi + 1), rng.randint(0, 5))
    }


def random_palindromic_character(rng: random.Random) -> MultiLaurent:
    # weights in [-5, 5], dimension <= 40
    terms: dict[tuple[int, ...], int] = {}
    budget = 40
    a0 = rng.randint(0, 4)
    if a0:
        terms[(0,)] = a0
        budget -= a0
    for k in rng.sample(range(1, 6), rng.randint(0, 4)):
        a = rng.randint(1, max(1, budget // (2 * 4)))
        if budget - 2 * a < 0:
            break
        terms[(k,)] = a
        terms[(-k,)] = a
        budget -= 2 * a
    return MultiLaurent(1, terms)


# ---- weight extraction ----------------------------------------------------


def test_weights_from_spin_character():
    assert weights_from_character(8 * (z() + z(-1))) == {1: 8, -1: 8}


def test_weights_from_constant():
    assert weights_from_character(MultiLaurent.constant(1, 5)) == {0: 5}


def test_weights_from_lambda_restriction():
    ch = character_on_T1(SpinGroup(9), lam(1))
    assert weights_from_character(ch) == {0: 6, 2: 1, -2: 1}


def test_weights_reject_virtual_character():
    with pytest.raises(VirtualCharacterError, match="total_chern_virtual"):
        weights_from_character(z() - z(-1))


# ---- total Chern classes -----------------------------------------------------


def test_total_chern_of_spin9_delta():
    w = weights_from_character(character_on_T1(SpinGroup(9), DELTA))
    expected = TruncatedPoly("Z", 32, [1, 0, -1]) ** 8  # (1 - u^2)^8
    assert total_chern(w, 32) == expected


def test_total_chern_of_lambda_restrictions():
    # weights 0 and +-2 give (1 - 4u^2)^beta
    for n, i in ((9, 1), (10, 2), (16, 2)):
        g = SpinGroup(n)
        ch = character_on_T1(g, lam(i))
        w = weights_from_character(ch)
        beta = w.get(2, 0)
        expected = TruncatedPoly("Z", 64, [1, 0, -4]) ** beta
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
            expected = expected * factor**a
        assert got == expected
        assert all(c == 0 for j, c in got.sparse().items() if j % 2)


# ---- virtual classes ------------------------------------------------------------


def test_virtual_reduces_to_total_chern():
    w = {1: 3, -2: 1}
    assert total_chern_virtual(w, {}, 16) == total_chern(w, 16)


def test_virtual_self_cancels():
    w = {1: 2, 3: 1}
    assert total_chern_virtual(w, w, 16) == one("Z", 16)


def test_virtual_geometric_expansion():
    got = total_chern_virtual({1: 1}, {2: 1}, 6)
    # (1 + u) * (1 + 2u)^{-1}, checked by re-multiplying
    assert got * total_chern({2: 1}, 6) == total_chern({1: 1}, 6)
    expected = [1, -1, 2, -4, 8, -16, 32]
    assert list(got.coeffs) == expected


def test_virtual_round_trip_random():
    rng = random.Random(9)
    for _ in range(200):
        pos = random_weights(rng)
        neg = random_weights(rng)
        virt = total_chern_virtual(pos, neg, 16)
        assert virt * total_chern(neg, 16) == total_chern(pos, 16)


# ---- mod-2 reduction --------------------------------------------------------------


def test_mod2_of_half_spin_class():
    # (1 - u^2)^{2^{m-2}} reduces to 1 + u^{2^{m-1}} for m = 5
    c = TruncatedPoly("Z", 32, [1, 0, -1]) ** 8
    assert mod2(c) == TruncatedPoly.from_dict("F2", 32, {0: 1, 16: 1})


def test_mod2_of_lambda_class_is_one():
    c = TruncatedPoly("Z", 32, [1, 0, -4]) ** 14
    assert mod2(c) == one("F2", 32)


def test_mod2_identity():
    assert mod2(one("Z", 8)) == one("F2", 8)


def test_f2_route_matches_integral_route():
    rng = random.Random(13)
    for _ in range(100):
        w = random_weights(rng)
        assert total_chern(w, 20, "F2") == mod2(total_chern(w, 20))


# ---- real Stiefel-Whitney classes ----------------------------------------------------


def test_sw_of_f4_restriction():
    g = SpinGroup(9)
    expr = RepExpr.from_dict({triv(1): 1, lam(1): 1, DELTA: 1})
    ch = character_on_T1(g, expr)
    sw = total_sw_real(ch, 16)
    assert sw == TruncatedPoly.from_dict("F2", 16, {0: 1, 8: 1})
    # w_16 is the u^8 coefficient
    assert sw.coefficient(8) == 1


def test_sw_of_e8_restriction():
    g = SpinGroup(16)
    expr = RepExpr.from_dict({triv(1): 8, lam(2): 1, DELTA_PLUS: 1})
    ch = character_on_T1(g, expr)
    sw = total_sw_real(ch, 128)
    assert sw == TruncatedPoly.from_dict("F2", 128, {0: 1, 64: 1})


def test_sw_of_constant_character():
    assert total_sw_real(MultiLaurent.constant(1, 9), 8) == one("F2", 8)


def test_sw_rejects_non_palindromic():
    with pytest.raises(ValueError):
        total_sw_real(z() + 2 * z(-1), 8)


def test_sw_rejects_virtual():
    with pytest.raises(ValueError):
        total_sw_real(z() + z(-1) - 2, 8)


# ---- c = w^2 ---------------------------------------------------------------------------


def test_complexification_check_f4():
    g = SpinGroup(9)
    expr = RepExpr.from_dict({triv(1): 1, lam(1): 1, DELTA: 1})
    ch = character_on_T1(g, expr)
    assert complexification_check(ch, 32)
    # explicitly: (1 + u^8)^2 == 1 + u^16
    sw = total_sw_real(ch, 32)
    assert sw * sw == mod2(total_chern(weights_from_character(ch), 32))


def test_complexification_check_constant():
    assert complexification_check(MultiLaurent.constant(1, 3), 8)


def test_complexification_random_palindromic():
    rng = random.Random(17)
    for _ in range(200):
        ch = random_palindromic_character(rng)
        assert ch.evaluate_at_one() <= 40
        sw = total_sw_real(ch, 64)
        chern2 = mod2(total_chern(weights_from_character(ch), 64))
        assert sw * sw == chern2


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
    w = weights_from_character(character_on_T1(g, DELTA_PLUS))
    got = total_chern(w, cutoff)
    expo = 2 ** (m - 2)
    expected = TruncatedPoly.from_dict(
        "Z", cutoff, {2 * j: (-1) ** j * comb(expo, j) for j in range(expo + 1)}
    )
    assert got == expected
