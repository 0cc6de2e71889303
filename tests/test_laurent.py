"""Tests for truncated series arithmetic and for the Laurent polynomial oracle."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import MultiLaurent, elementary_symmetric, series_inverse, series_pow, truncate
from spinchern.char_classes import mod2
from spinchern.laurent import TruncatedPoly


def z(power: int = 1) -> MultiLaurent:
    return MultiLaurent.variable(1, 0, power)


def const(c: int, nvars: int = 1) -> MultiLaurent:
    return MultiLaurent.constant(nvars, c)


# ---- construction and canonical form ---------------------------------------


def test_zero_coefficients_pruned():
    p = MultiLaurent(1, {(1,): 0, (0,): 3})
    assert p.items() == [((0,), 3)]


def test_duplicate_keys_merge():
    p = MultiLaurent(1, [((1,), 2), ((1,), 3)])
    assert p.coefficient((1,)) == 5


def test_wrong_exponent_length_rejected():
    with pytest.raises(ValueError):
        MultiLaurent(2, {(1,): 1})


def test_equality_is_term_map_equality():
    assert z() + z(-1) == MultiLaurent(1, {(1,): 1, (-1,): 1})
    assert z() - z() == const(0)
    assert const(0) == 0


# ---- add / mul / pow examples ----------------------------------------------


def test_add_cancellation():
    assert (z() + z(-1)) + (z() - z(-1)) == 2 * z()


def test_add_identity():
    p = 3 * z(2) - z(-1)
    assert p + const(0) == p


def test_add_like_terms():
    z1z2 = MultiLaurent(2, {(1, 1): 1})
    assert z1z2 + z1z2 == MultiLaurent(2, {(1, 1): 2})


def test_add_variable_count_mismatch():
    with pytest.raises(ValueError):
        MultiLaurent(1, {(1,): 1}) + MultiLaurent(2, {(1, 0): 1})


def test_mul_difference_of_squares():
    assert (z() + z(-1)) * (z() - z(-1)) == z(2) - z(-2)


def test_mul_identity():
    p = 5 * z(3) + 2
    assert p * const(1) == p


def test_mul_binomial_square():
    assert (z() + z(-1)) ** 2 == z(2) + 2 + z(-2)


def test_pow_zero_is_one():
    assert (z() + z(-1)) ** 0 == const(1)


def test_pow_of_constant():
    assert const(2) ** 3 == const(8)


def test_pow_negative_of_monomial():
    assert z() ** -1 == z(-1)
    with pytest.raises(ValueError):
        (z() + z(-1)) ** -1


# ---- substitute_ones ---------------------------------------------------------


def test_substitute_ones_spin_character():
    # sum over all sign vectors in 4 variables collapses to 8(z + z^-1)
    m = 4
    terms = {}
    for bits in range(16):
        exps = tuple(-1 if bits >> j & 1 else 1 for j in range(m))
        terms[exps] = 1
    delta = MultiLaurent(m, terms)
    assert delta.substitute_ones(0) == 8 * (z() + z(-1))


def test_substitute_ones_monomial():
    p = MultiLaurent(2, {(2, -2): 1})
    assert p.substitute_ones(0) == z(2)
    assert p.substitute_ones(1) == z(-2)


def test_substitute_ones_e2_closed_form():
    # e2 of (z1^2 + z1^-2, z2^2 + z2^-2) at z2 = 1 is 2(z^2 + z^-2):
    # frozen from expanding the product and collecting by the z1 exponent
    a = MultiLaurent(2, {(2, 0): 1, (-2, 0): 1})
    b = MultiLaurent(2, {(0, 2): 1, (0, -2): 1})
    e2 = elementary_symmetric([a, b], 2)[2]
    assert e2.substitute_ones(0) == 2 * (z(2) + z(-2))


def test_substitute_ones_out_of_range():
    with pytest.raises(ValueError):
        z().substitute_ones(1)


# ---- elementary symmetric -----------------------------------------------------


def test_e0_is_one():
    vals = [z(2) + z(-2)]
    assert elementary_symmetric(vals, 0) == [const(1)]


def test_e1_is_sum():
    a = MultiLaurent(2, {(2, 0): 1, (-2, 0): 1})
    b = MultiLaurent(2, {(0, 2): 1, (0, -2): 1})
    assert elementary_symmetric([a, b], 1)[1] == a + b


def test_e_top_at_all_ones():
    m = 5
    vals = [
        MultiLaurent.variable(m, j, 2) + MultiLaurent.variable(m, j, -2)
        for j in range(m)
    ]
    top = elementary_symmetric(vals, m)[m]
    assert top.evaluate_at_one() == 2**m


def test_e_beyond_length_is_zero():
    vals = [z(), z(-1)]
    assert elementary_symmetric(vals, 3)[3] == const(0)


def test_e_negative_index_rejected():
    with pytest.raises(ValueError):
        elementary_symmetric([z()], -1)


def test_elementary_symmetric_generating_function_oracle():
    # e_i must match the t^i coefficient of prod_j (1 + t v_j) where t is an
    # auxiliary extra variable
    import random

    rng = random.Random(7)
    for _ in range(25):
        m = rng.randint(1, 2)
        k = rng.randint(1, 6)
        vals = []
        for _ in range(k):
            terms = {
                tuple(rng.randint(-2, 2) for _ in range(m)): rng.randint(-3, 3)
                for _ in range(rng.randint(0, 3))
            }
            vals.append(MultiLaurent(m, terms))
        # lift to m+1 variables, last one playing t
        lifted = [
            MultiLaurent(m + 1, {e + (0,): c for e, c in v.items()}) for v in vals
        ]
        t = MultiLaurent.variable(m + 1, m)
        product = MultiLaurent.constant(m + 1, 1)
        for v in lifted:
            product = product * (MultiLaurent.constant(m + 1, 1) + t * v)
        every = elementary_symmetric(vals, k)
        for i in range(k + 1):
            expected = MultiLaurent(
                m, {e[:-1]: c for e, c in product.items() if e[-1] == i}
            )
            assert elementary_symmetric(vals, i)[i] == every[i] == expected


# ---- evaluate_at_one / palindromic -------------------------------------------


def test_evaluate_at_one():
    assert (8 * (z() + z(-1))).evaluate_at_one() == 16
    assert const(0).evaluate_at_one() == 0
    assert (z(2) - 2 + z(-2)).evaluate_at_one() == 0


# ---- serialization --------------------------------------------------------------


def test_str_deterministic_ordering():
    p = z(-2) + 3 * z(2) - 2
    assert str(p) == "3*z1^2 - 2 + z1^-2"
    assert str(const(0)) == "0"
    assert str(MultiLaurent(2, {(1, -2): -1})) == "-z1*z2^-2"


# ---- hypothesis: ring axioms ------------------------------------------------------


@st.composite
def laurent_triples(draw):
    m = draw(st.integers(1, 3))

    def poly():
        n_terms = draw(st.integers(0, 4))
        terms = {}
        for _ in range(n_terms):
            exps = tuple(draw(st.integers(-3, 3)) for _ in range(m))
            terms[exps] = draw(st.integers(-9, 9))
        return MultiLaurent(m, terms)

    return poly(), poly(), poly()


@given(laurent_triples())
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == MultiLaurent.zero(a.nvars)


@given(laurent_triples())
def test_substitute_ones_is_ring_homomorphism(triple):
    a, b, _ = triple
    assert (a * b).substitute_ones(0) == a.substitute_ones(0) * b.substitute_ones(0)
    assert (a + b).substitute_ones(0) == a.substitute_ones(0) + b.substitute_ones(0)


@given(laurent_triples())
def test_evaluate_at_one_is_ring_homomorphism(triple):
    a, b, _ = triple
    assert (a * b).evaluate_at_one() == a.evaluate_at_one() * b.evaluate_at_one()
    assert (a + b).evaluate_at_one() == a.evaluate_at_one() + b.evaluate_at_one()
    for keep in range(a.nvars):
        assert a.substitute_ones(keep).evaluate_at_one() == a.evaluate_at_one()


# ---- truncated polynomials ---------------------------------------------------------


def test_trunc_pow_binomial():
    p = TruncatedPoly("Z", 16, [1, 0, -1])  # 1 - u^2
    result = series_pow(p, 8)
    expected = TruncatedPoly.from_dict(
        "Z", 16, {2 * k: (-1) ** k * math.comb(8, k) for k in range(9)}
    )
    assert result == expected


def test_trunc_inverse_geometric_mod2():
    p = TruncatedPoly("F2", 4, [1, 1])  # 1 + u
    assert series_inverse(p) == TruncatedPoly("F2", 4, [1, 1, 1, 1, 1])


def test_trunc_mul_identity():
    p = TruncatedPoly("Z", 8, [1, 2, 3])
    assert p * TruncatedPoly.one("Z", 8) == p


def test_trunc_inverse_round_trip():
    p = TruncatedPoly("Z", 12, [1, 5, -3, 7])
    assert p * series_inverse(p) == TruncatedPoly.one("Z", 12)
    q = TruncatedPoly("Z", 12, [-1, 4, 9])
    assert q * series_inverse(q) == TruncatedPoly.one("Z", 12)


def test_trunc_inverse_requires_unit():
    with pytest.raises(ValueError):
        series_inverse(TruncatedPoly("Z", 4, [2, 1]))
    with pytest.raises(ValueError):
        series_inverse(TruncatedPoly("F2", 4, [0, 1]))


def test_trunc_mismatch_errors():
    a = TruncatedPoly("Z", 4, [1])
    with pytest.raises(ValueError):
        a * TruncatedPoly("F2", 4, [1])
    with pytest.raises(ValueError):
        a * TruncatedPoly("Z", 5, [1])


def test_f2_reduces_coefficients():
    p = TruncatedPoly("F2", 4, [3, -2, 5])
    assert p.coeffs == (1, 0, 1, 0, 0)
    assert p.terms == {0: 1, 2: 1}
    assert TruncatedPoly.from_dict("F2", 4, {1: 4, 3: -6}) == TruncatedPoly("F2", 4)


@given(
    st.sampled_from(["Z", "F2"]),
    st.integers(0, 12),
    st.lists(st.integers(-9, 9), max_size=16),
)
def test_dense_and_sparse_constructors_agree(ring, cutoff, coeffs):
    dense = TruncatedPoly(ring, cutoff, coeffs)
    # keys past the cutoff are dropped and the insertion order is irrelevant
    sparse = TruncatedPoly.from_dict(ring, cutoff, dict(reversed(list(enumerate(coeffs)))))
    assert dense == sparse
    assert hash(dense) == hash(sparse)
    kept = [c & 1 if ring == "F2" else c for c in coeffs[: cutoff + 1]]
    assert dense.coeffs == tuple(kept + [0] * (cutoff + 1 - len(kept)))
    assert list(dense.terms.items()) == [(k, c) for k, c in enumerate(kept) if c]
    assert list(sparse.terms.items()) == list(dense.terms.items())
    assert dense.sparse() == dense.terms


def test_mod2_of_integral_series():
    p = series_pow(TruncatedPoly("Z", 16, [1, 0, -1]), 8)
    assert mod2(p) == TruncatedPoly.from_dict("F2", 16, {0: 1, 16: 1})


def test_str_of_series():
    assert str(TruncatedPoly.from_dict("F2", 16, {0: 1, 16: 1})) == "1 + u^16"
    assert str(TruncatedPoly("Z", 4, [1, -4])) == "1 - 4*u"
    assert str(TruncatedPoly("Z", 4)) == "0"


@st.composite
def trunc_pairs(draw):
    ring = draw(st.sampled_from(["Z", "F2"]))
    cutoff = draw(st.integers(1, 10))
    def poly():
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=0, max_size=cutoff + 1))
        return TruncatedPoly(ring, cutoff, coeffs)
    return poly(), poly()


@given(trunc_pairs())
def test_truncation_coherence(pair):
    # computing at cutoff N then truncating to N' equals computing at N'
    a, b = pair
    smaller = max(0, a.cutoff - 2)
    direct = truncate(a, smaller) * truncate(b, smaller)
    assert truncate(a * b, smaller) == direct


@given(trunc_pairs(), st.integers(0, 5))
def test_trunc_pow_matches_repeated_mul(pair, k):
    a, _ = pair
    expected = TruncatedPoly.one(a.ring, a.cutoff)
    for _ in range(k):
        expected = expected * a
    assert series_pow(a, k) == expected


def test_large_dense_product_matches_naive_convolution():
    # big-coefficient Z products against the truncated convolution formula
    import random

    rng = random.Random(11)
    cutoff = 300
    a = [rng.randint(-(10**9), 10**9) for _ in range(cutoff + 1)]
    b = [rng.randint(-(10**9), 10**9) for _ in range(cutoff + 1)]
    expected = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(cutoff + 1)]
    got = TruncatedPoly("Z", cutoff, a) * TruncatedPoly("Z", cutoff, b)
    assert list(got.coeffs) == expected
