"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import random
import time
from math import comb

from spinchern.char_classes import (
    TruncatedPoly,
    mod2,
    total_chern,
    total_sw_real,
    vanishing_on_bso_check,
)
from oracles import (
    lambda_characters,
    poly_degree,
    poly_product,
    poly_sum,
    series_product,
    weight_map,
)
from spinchern.cli import run_prop2
from spinchern.exceptional import (
    DECOMPOSABLE,
    INDECOMPOSABLE,
    builtin_cases,
    dimension_audit,
    verify_case,
)
from spinchern.spin_reps import (
    DELTA,
    DELTA_MINUS,
    DELTA_PLUS,
    PAPER_LITERAL,
    VECTOR_REP,
    SpinGroup,
    circle_weights,
    closed_form_f1_lambda,
    dimension,
    lam,
    quillen_h,
    spinor_type,
)
from spinchern.steenrod import (
    GradedPolyF2,
    j_degrees_expected,
    j_ideal_generators,
    sq_bso,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_mod2_chern_sweep():
    t0 = time.perf_counter()
    report = run_prop2(3, 12)
    elapsed = time.perf_counter() - t0
    ok = report["all_passed"] and elapsed < 10.0
    _report(
        1,
        ok,
        f"mod-2 total Chern identities, {report['passed']}/{report['total']} "
        f"checks over m=3..12 in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_02_closed_form_vs_brute_force():
    checked = 0
    for m in range(3, 13):
        g = SpinGroup(2 * m + 1)
        # one T^m expansion of every lambda_i, each collapsed to the first circle
        characters = lambda_characters(g, m - 1)
        for i in range(1, m):
            alpha, beta = closed_form_f1_lambda(g, i)
            assert alpha == 2**i * comb(m - 1, i)
            assert beta == 2 ** (i - 1) * comb(m - 1, i - 1)
            brute = weight_map(characters[i].substitute_ones(0))
            assert brute == {0: alpha, 2: beta, -2: beta}, (m, i)
            assert circle_weights(g, lam(i)) == brute, (m, i)
            assert alpha + 2 * beta == dimension(g, lam(i)), (m, i)
            checked += 1
    _report(2, True, f"closed form alpha/beta vs brute force, {checked} (m, i) pairs")


def test_criterion_03_integral_chern_shapes():
    checked = 0
    for m in range(3, 11):
        cutoff = 2 ** (m + 1)
        godd, geven = SpinGroup(2 * m + 1), SpinGroup(2 * m)
        # half-spin: (1 - u^2)^{2^{m-2}}; spin: (1 - u^2)^{2^{m-1}}
        for g, sym, expo in (
            (geven, DELTA_PLUS, 2 ** (m - 2)),
            (geven, DELTA_MINUS, 2 ** (m - 2)),
            (godd, DELTA, 2 ** (m - 1)),
        ):
            got = total_chern(circle_weights(g, sym), cutoff)
            expected = TruncatedPoly(
                "Z",
                cutoff,
                {2 * j: (-1) ** j * comb(expo, j) for j in range(min(expo, cutoff // 2) + 1)},
            )
            assert got == expected, (m, sym)
            checked += 1
        # exterior powers: (1 - 4u^2)^{beta_i}
        for i in range(1, m):
            _, beta = closed_form_f1_lambda(godd, i)
            got = total_chern(circle_weights(godd, lam(i)), cutoff)
            expected = TruncatedPoly(
                "Z",
                cutoff,
                {2 * j: comb(beta, j) * (-4) ** j for j in range(min(beta, cutoff // 2) + 1)},
            )
            assert got == expected, (m, i)
            checked += 1
    _report(3, True, f"integral total Chern class shapes over Z, {checked} series")


def test_criterion_04_exceptional_pipeline():
    t0 = time.perf_counter()
    reports = {c.group: verify_case(c) for c in builtin_cases()}
    elapsed = time.perf_counter() - t0

    e6 = reports["E6"]
    assert e6.total_class_str == "1 + u^16" and e6.h == 5
    assert e6.verdicts["indecomposability"] == INDECOMPOSABLE

    e7 = reports["E7"]
    assert e7.total_class_str == "1 + u^32" and e7.h == 6
    assert e7.verdicts["indecomposability"] == INDECOMPOSABLE

    f4 = reports["F4"]
    assert f4.total_class_str == "1 + u^8" and f4.h == 4
    assert f4.verdicts["indecomposability"] == INDECOMPOSABLE
    assert f4.complexified["total_class_str"] == "1 + u^16"
    assert f4.complexified["indecomposability"] == DECOMPOSABLE

    e8 = reports["E8"]
    assert e8.total_class_str == "1 + u^64" and e8.h == 7
    assert e8.cutoff == 256
    assert e8.verdicts["indecomposability"] == INDECOMPOSABLE
    assert e8.complexified["total_class_str"] == "1 + u^128"
    assert e8.complexified["indecomposability"] == DECOMPOSABLE

    ok = all(r.passed for r in reports.values()) and elapsed < 60.0
    _report(
        4,
        ok,
        f"exceptional top classes u^16/u^32/u^8/u^64 with expected verdicts "
        f"in {elapsed:.2f}s (< 60s)",
    )


def test_criterion_05_quillen_table():
    for n, deg in {9: 16, 10: 32, 12: 64, 16: 128}.items():
        assert quillen_h(n).deg_z == deg, n
    type_by_residue = {0: "R", 1: "R", 2: "C", 3: "H", 4: "H", 5: "H", 6: "C", 7: "R"}
    for n in range(6, 21):
        assert spinor_type(n) == type_by_residue[n % 8], n
    noted = [n for n in range(6, 21) if quillen_h(n).note is not None]
    assert noted == [n for n in range(6, 21) if n % 8 in (1, 3, 5, 7)]
    _report(
        5,
        True,
        f"deg z table for n=9,10,12,16; type column for n=6..20; "
        f"{len(noted)} discrepancy notes emitted",
    )


def test_criterion_06_steenrod_suite():
    for n in range(6, 17):
        gens = j_ideal_generators(n)
        assert gens[1] == GradedPolyF2.from_monomials(n, [(3,)]), n
        assert list(map(poly_degree, gens)) == j_degrees_expected(quillen_h(n).h), n

    rng = random.Random(41)
    cases = 0
    nvars = 8
    while cases < 200:
        a = tuple(sorted(rng.choices(range(2, nvars + 1), k=rng.randint(1, 2))))
        b = tuple(sorted(rng.choices(range(2, nvars + 1), k=rng.randint(1, 2))))
        if sum(a) > 8 or sum(b) > 8:
            continue
        i = rng.randint(0, 8)
        pa = GradedPolyF2.from_monomials(nvars, [a])
        pb = GradedPolyF2.from_monomials(nvars, [b])
        prod = poly_product(pa, pb)
        terms = (poly_product(sq_bso(t, pa), sq_bso(i - t, pb)) for t in range(i + 1))
        assert sq_bso(i, prod) == poly_sum(nvars, *terms), (a, b, i)
        # instability on the product
        deg = sum(a) + sum(b)
        assert not sq_bso(deg + 1 + rng.randint(0, 3), prod)
        assert sq_bso(deg, prod) == poly_product(prod, prod)
        cases += 1
    _report(
        6,
        True,
        f"theta_2 = w3 and degree sequence for n=6..16; {cases} Cartan + "
        f"instability random cases",
    )


def test_criterion_07_c_equals_w_squared():
    rng = random.Random(43)
    for _ in range(200):
        w: dict[int, int] = {}
        budget = 40
        a0 = rng.randint(0, 6)
        if a0:
            w[0] = a0
            budget -= a0
        for k in rng.sample(range(1, 6), rng.randint(0, 4)):
            a = rng.randint(1, 4)
            if budget - 2 * a < 0:
                break
            w[k] = a
            w[-k] = a
            budget -= 2 * a
        sw = total_sw_real(w, 64)
        chern = mod2(total_chern(w, 64))
        assert series_product(sw, sw) == chern, w
    _report(7, True, "(total SW)^2 == mod-2 total Chern for 200 random characters")


def test_criterion_08_whitney_and_virtual_round_trip():
    rng = random.Random(47)
    for _ in range(200):
        w1 = {k: rng.randint(1, 5) for k in rng.sample(range(-6, 7), rng.randint(0, 5))}
        w2 = {k: rng.randint(1, 5) for k in rng.sample(range(-6, 7), rng.randint(0, 5))}
        union = dict(w1)
        for k, a in w2.items():
            union[k] = union.get(k, 0) + a
        assert total_chern(union, 24) == series_product(total_chern(w1, 24), total_chern(w2, 24))
        difference = {k: w1.get(k, 0) - w2.get(k, 0) for k in w1.keys() | w2.keys()}
        virt = total_chern(difference, 24)
        assert series_product(virt, total_chern(w2, 24)) == total_chern(w1, 24)
    _report(8, True, "Whitney multiplicativity and virtual inverses, 200 pairs each")


def test_criterion_09_dimension_audit():
    audits = {c.group: dimension_audit(c) for c in builtin_cases()}
    assert audits["E6"]["computed_vector_rep"] == 27
    assert audits["E7"]["computed_vector_rep"] == 56
    assert audits["E8"]["computed_vector_rep"] == 248
    assert audits["F4"]["computed_vector_rep"] == 26
    assert audits["F4"]["computed_paper_literal"] == 25
    assert audits["F4"]["pass"] and audits["F4"]["note"] is not None
    g9 = SpinGroup(9)
    f4_expr = next(c for c in builtin_cases() if c.group == "F4").restriction
    assert dimension(g9, f4_expr, VECTOR_REP) == 26
    assert dimension(g9, f4_expr, PAPER_LITERAL) == 25
    _report(9, True, "dimensions 26 (27, 56, 248) with the 25 reading logged")


def test_criterion_10_vanishing_on_bso():
    for n in range(6, 17):
        assert vanishing_on_bso_check(SpinGroup(n)), n
    _report(10, True, "positive-degree classes vanish on the circle for n=6..16")


def test_mod2_routes_agree_where_feasible():
    # the F2-direct route used by the sweep equals reduce-after-Z wherever
    # the integral computation is tractable
    for m in (3, 5, 7):
        for n in (2 * m, 2 * m + 1):
            g = SpinGroup(n)
            sym = DELTA_PLUS if g.is_even else DELTA
            w = circle_weights(g, sym)
            cutoff = 2 ** (m + 1)
            assert total_chern(w, cutoff, "F2") == mod2(total_chern(w, cutoff))
