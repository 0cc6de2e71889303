"""Tests for spin representation symbols, characters and closed forms."""

from __future__ import annotations

from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import MultiLaurent, character_on_Tm, circle_oracle, weight_map
from spinchern.char_classes import is_palindromic
from spinchern.spin_reps import (
    DELTA,
    DELTA_MINUS,
    DELTA_PLUS,
    PAPER_LITERAL,
    VECTOR_REP,
    RepExpr,
    SpinGroup,
    circle_weights,
    closed_form_f1_lambda,
    dimension,
    format_character,
    lam,
    parse_expr,
    quillen_h,
    spinor_type,
    triv,
)


def spinor(mult: int) -> dict[int, int]:
    """The weight map of mult (z + z^-1)."""
    return {1: mult, -1: mult}


# ---- group bookkeeping ------------------------------------------------------


def test_spin_group_requires_n_at_least_6():
    with pytest.raises(ValueError):
        SpinGroup(5)


def test_m_and_parity():
    assert SpinGroup(10).m == 5 and SpinGroup(10).is_even
    assert SpinGroup(9).m == 4 and not SpinGroup(9).is_even


def test_symbol_validity():
    g10, g9 = SpinGroup(10), SpinGroup(9)
    for g, sym in (
        (g10, DELTA),  # delta needs odd n
        (g9, DELTA_PLUS),  # half-spins need even n
        (g10, lam(4)),  # above m - 2 = 3
        (g9, lam(4)),  # above m - 1 = 3
        (g10, lam(5)),  # lambda_m is outside the presentation too
    ):
        with pytest.raises(ValueError):
            circle_weights(g, sym)
        with pytest.raises(ValueError):
            character_on_Tm(g, sym)


# ---- characters on T^m ---------------------------------------------------------


def test_half_spin_character_dimension():
    ch = character_on_Tm(SpinGroup(10), DELTA_PLUS)
    assert ch.term_count() == 16
    assert ch.evaluate_at_one() == 16


def test_spin_character_term_signs():
    # Delta+ terms have an even number of -1 exponents, Delta- odd
    ch_plus = character_on_Tm(SpinGroup(10), DELTA_PLUS)
    for exps, coeff in ch_plus.items():
        assert coeff == 1
        assert sum(1 for e in exps if e == -1) % 2 == 0
    ch_minus = character_on_Tm(SpinGroup(10), DELTA_MINUS)
    for exps, _ in ch_minus.items():
        assert sum(1 for e in exps if e == -1) % 2 == 1


def test_delta_character_on_T1():
    w = circle_weights(SpinGroup(9), DELTA)
    assert w == spinor(8)
    assert format_character(w) == "8*z1 + 8*z1^-1"


def test_lambda1_character_is_weight_sum():
    ch = character_on_Tm(SpinGroup(12), lam(1))
    assert ch.evaluate_at_one() == 12
    expected = MultiLaurent.zero(6)
    for j in range(6):
        expected = expected + MultiLaurent.variable(6, j, 2) + MultiLaurent.variable(6, j, -2)
    assert ch == expected


def test_trivial_character():
    assert character_on_Tm(SpinGroup(9), triv(5)) == MultiLaurent.constant(4, 5)


# ---- characters on T^1 -----------------------------------------------------------


def test_half_spin_f1_closed_form():
    # f1* of either half-spin representation is 2^{m-2}(z + z^-1)
    for n in (10, 12, 16):
        g = SpinGroup(n)
        expected = spinor(2 ** (g.m - 2))
        assert circle_weights(g, DELTA_PLUS) == expected
        assert circle_weights(g, DELTA_MINUS) == expected


def test_spin_f1_closed_form_range():
    for m in range(3, 13):
        g = SpinGroup(2 * m + 1)
        assert circle_weights(g, DELTA) == spinor(2 ** (m - 1))
        ge = SpinGroup(2 * m)
        assert circle_weights(ge, DELTA_PLUS) == spinor(2 ** (m - 2))
        assert circle_weights(ge, DELTA_MINUS) == spinor(2 ** (m - 2))


def test_f1_characters_palindromic():
    for n in (9, 10, 12, 16):
        g = SpinGroup(n)
        symbols = [lam(1)]
        symbols.append(DELTA if not g.is_even else DELTA_PLUS)
        for sym in symbols:
            assert is_palindromic(circle_weights(g, sym))


def test_expression_restriction_f4():
    g = SpinGroup(9)
    expr = RepExpr.from_dict({triv(1): 1, lam(1): 1, DELTA: 1})
    w = circle_weights(g, expr)
    # frozen from the brute-force expansion: 1 + (6 + z^2 + z^-2) + 8(z + z^-1)
    assert w == {0: 7, 2: 1, -2: 1, 1: 8, -1: 8}
    assert format_character(w) == "z1^2 + 8*z1 + 7 + 8*z1^-1 + z1^-2"


def test_empty_expression_restricts_to_zero():
    assert circle_weights(SpinGroup(9), RepExpr()) == {}
    g = SpinGroup(12)
    for text in ("lambda1 - lambda1", "triv:0", "delta+ - delta+", "0"):
        assert circle_weights(g, parse_expr(text)) == {}, text
    assert format_character({}) == "0"


# ---- closed forms vs brute force ----------------------------------------------------


def test_closed_form_spin9_lambda1():
    assert closed_form_f1_lambda(SpinGroup(9), 1) == (6, 1)


def test_closed_form_index_zero():
    assert closed_form_f1_lambda(SpinGroup(9), 0) == (1, 0)


def test_closed_form_spin16_lambda2():
    assert closed_form_f1_lambda(SpinGroup(16), 2) == (4 * comb(7, 2), 2 * comb(7, 1))


def test_circle_characters_match_torus_oracle():
    # circle_weights reads the closed forms; the oracle expands every symbol
    # on T^m and substitutes, for every symbol kind and both conventions
    for n in range(6, 18):
        g = SpinGroup(n)
        spin = [DELTA_PLUS, DELTA_MINUS] if g.is_even else [DELTA]
        mix = parse_expr("3 + 2*lambda1 - " + ("delta+" if g.is_even else "delta"))
        for convention in (PAPER_LITERAL, VECTOR_REP):
            lambdas = [lam(i) for i in range(1, g.max_lambda_index() + 1)]
            for sym in lambdas + spin + [triv(3)]:
                got = circle_weights(g, sym, convention)
                assert got == circle_oracle(g, sym, convention), (n, convention, sym)
            oracle = [
                (mult, character_on_Tm(g, sym, convention)) for sym, mult in mix.terms
            ]
            expected = sum(
                (mult * ch.substitute_ones(0) for mult, ch in oracle), MultiLaurent.zero(1)
            )
            assert circle_weights(g, mix, convention) == weight_map(expected), (n, convention)
            assert dimension(g, mix, convention) == sum(
                mult * ch.evaluate_at_one() for mult, ch in oracle
            ), (n, convention)


def test_closed_form_out_of_range():
    with pytest.raises(ValueError):
        closed_form_f1_lambda(SpinGroup(10), 4)


# ---- conventions ----------------------------------------------------------------


def test_vector_rep_convention_dimension():
    g = SpinGroup(9)
    assert dimension(g, lam(1), PAPER_LITERAL) == 8
    assert dimension(g, lam(1), VECTOR_REP) == 9
    expr = RepExpr.from_dict({triv(1): 1, lam(1): 1, DELTA: 1})
    assert dimension(g, expr, PAPER_LITERAL) == 25
    assert dimension(g, expr, VECTOR_REP) == 26


def test_conventions_agree_for_even_n():
    g = SpinGroup(10)
    assert character_on_Tm(g, lam(1), PAPER_LITERAL) == character_on_Tm(
        g, lam(1), VECTOR_REP
    )
    assert circle_weights(g, lam(1), PAPER_LITERAL) == circle_weights(g, lam(1), VECTOR_REP)


def test_unknown_convention_rejected():
    with pytest.raises(ValueError):
        circle_weights(SpinGroup(9), lam(1), "other")
    with pytest.raises(ValueError):
        dimension(SpinGroup(9), lam(1), "other")


# ---- dimensions of the built-in restrictions ------------------------------------


def test_restriction_dimensions():
    assert dimension(SpinGroup(10), parse_expr("1 + lambda1 + delta+")) == 27
    assert dimension(SpinGroup(12), parse_expr("2*lambda1 + delta-")) == 56
    assert dimension(SpinGroup(16), parse_expr("8 + lambda2 + delta+")) == 248


def test_spinor_dimensions():
    for m in range(3, 13):
        assert dimension(SpinGroup(2 * m), DELTA_PLUS) == 2 ** (m - 1)
        assert dimension(SpinGroup(2 * m), DELTA_MINUS) == 2 ** (m - 1)
        assert dimension(SpinGroup(2 * m + 1), DELTA) == 2**m


# ---- spinor type and h ------------------------------------------------------------


def test_spinor_type_examples():
    assert spinor_type(9) == "R"
    assert spinor_type(12) == "H"
    assert spinor_type(10) == "C"


def test_spinor_type_periodicity():
    expected = {0: "R", 1: "R", 2: "C", 3: "H", 4: "H", 5: "H", 6: "C", 7: "R"}
    for n in range(6, 40):
        assert spinor_type(n) == expected[n % 8]


def test_spinor_type_requires_n_at_least_6():
    with pytest.raises(ValueError):
        spinor_type(5)


def test_quillen_h_summary_values():
    expected = {9: 16, 10: 32, 12: 64, 16: 128}
    for n, deg in expected.items():
        info = quillen_h(n)
        assert info.deg_z == deg
        assert 2**info.h == deg


def test_quillen_h_monotone():
    values = [quillen_h(n).h for n in range(6, 40)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_quillen_h_matches_real_spinor_dimension():
    # deg z equals the real dimension of the spinor representation: the
    # complex dimension 2^{m-1} (even n) or 2^m (odd n), doubled for complex
    # and quaternionic type
    for n in range(6, 26):
        g = SpinGroup(n)
        complex_dim = 2 ** (g.m - 1) if g.is_even else 2**g.m
        real_dim = complex_dim if spinor_type(n) == "R" else 2 * complex_dim
        assert quillen_h(n).deg_z == real_dim, n


def test_quillen_h_discrepancy_notes():
    for n in range(6, 21):
        info = quillen_h(n)
        if n % 8 in (1, 3, 5, 7):
            assert info.note is not None
            assert info.table_h != info.h
        else:
            assert info.note is None
            assert info.table_h == info.h


# ---- expression parsing -------------------------------------------------------------


def test_parse_expr_grammar():
    expr = parse_expr("8 + lambda2 + delta+")
    assert expr.as_dict() == {triv(1): 8, lam(2): 1, DELTA_PLUS: 1}
    expr = parse_expr("2*lambda1 + delta-")
    assert expr.as_dict() == {lam(1): 2, DELTA_MINUS: 1}
    expr = parse_expr("triv:3 + delta")
    assert expr.as_dict() == {triv(3): 1, DELTA: 1}
    expr = parse_expr("lambda1 - delta")
    assert expr.as_dict() == {lam(1): 1, DELTA: -1}


def test_parse_expr_round_trip():
    for text in ("8 + lambda2 + delta+", "2*lambda1 + delta-", "1 + lambda1 + delta"):
        assert str(parse_expr(text)) == text


def test_parse_expr_rejects_garbage():
    for bad in ("", "lambda", "delta++", "2**lambda1", "spin(9)"):
        with pytest.raises(ValueError):
            parse_expr(bad)


def test_expr_arithmetic():
    e = RepExpr.single(lam(1)) + RepExpr.single(lam(1)) + 3 * RepExpr.single(DELTA)
    assert e.as_dict() == {lam(1): 2, DELTA: 3}


# ---- rendering ------------------------------------------------------------------


@given(st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=13))
@example({})
@example({0: 0, 2: 0, -5: 0})
@example({3: 0, 1: -1, 0: 1, -1: 9, -6: -2})
def test_format_character_matches_oracle(weights):
    # zero multiplicities and the empty map included
    oracle = MultiLaurent(1, {(k,): a for k, a in weights.items()})
    assert format_character(weights) == str(oracle)
