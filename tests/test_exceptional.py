"""Tests for the four exceptional-group verification pipelines."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from oracles import character_on_Tm, e8_roots, f4_short_roots
from spinchern.exceptional import (
    CHERN_KIND,
    DECOMPOSABLE,
    GROUP_ORDER,
    INDECOMPOSABLE,
    NOT_IN_IMAGE,
    SW_KIND,
    ExceptionalCase,
    builtin_cases,
    get_case,
    indecomposable_in_image,
    verify_all,
    verify_case,
)
from spinchern.spin_reps import (
    DELTA,
    DELTA_PLUS,
    PAPER_LITERAL,
    VECTOR_REP,
    RepExpr,
    SpinGroup,
    circle_weights,
    lam,
    triv,
)


# ---- built-in data -----------------------------------------------------------


def test_builtin_cases_table():
    cases = {c.group: c for c in builtin_cases()}
    assert [c.group for c in builtin_cases()] == ["F4", "E6", "E7", "E8"]

    assert cases["F4"].spin_n == 9
    assert cases["F4"].class_kind == SW_KIND
    assert cases["F4"].top_degree == 16
    assert str(cases["F4"].restriction) == "1 + lambda1 + delta"

    assert cases["E6"].spin_n == 10
    assert cases["E6"].class_kind == CHERN_KIND
    assert cases["E6"].top_degree == 32
    assert str(cases["E6"].restriction) == "1 + lambda1 + delta+"

    assert cases["E7"].spin_n == 12
    assert cases["E7"].class_kind == CHERN_KIND
    assert cases["E7"].top_degree == 64
    assert str(cases["E7"].restriction) == "2*lambda1 + delta-"

    assert cases["E8"].spin_n == 16
    assert cases["E8"].class_kind == SW_KIND
    assert cases["E8"].top_degree == 128
    assert str(cases["E8"].restriction) == "8 + lambda2 + delta+"


def test_builtin_ambient_dimensions():
    dims = {c.group: c.ambient_dim for c in builtin_cases()}
    assert dims == {"F4": 26, "E6": 27, "E7": 56, "E8": 248}


def test_get_case_unknown_group():
    with pytest.raises(ValueError):
        get_case("G2")


def test_get_case_and_group_order_read_the_case_table():
    assert GROUP_ORDER == ("F4", "E6", "E7", "E8")
    for case in builtin_cases():
        assert get_case(case.group) is case


def test_verify_all_runs_exactly_the_named_groups():
    assert verify_all([]) == []
    assert [r.group for r in verify_all(["E7", "E6"])] == ["E7", "E6"]
    # an unknown name is an error, not a silent drop
    for groups in (["G2"], ["F4", "G2"]):
        with pytest.raises(ValueError, match="unknown group 'G2'"):
            verify_all(groups)


# ---- the case table against the E8 root system -------------------------------------


def _torus_weights(case: ExceptionalCase, convention: str = VECTOR_REP) -> Counter:
    """The weights of the case's restriction, from its full T^m character."""
    g = SpinGroup(case.spin_n)
    out: Counter = Counter()
    for sym, mult in case.restriction.terms:
        for exps, c in character_on_Tm(g, sym, convention).items():
            out[exps] += mult * c
    return +out


def _root_weights() -> dict[str, Counter]:
    """The four representations read off root data, in doubled coordinates
    (Adams, *Lectures on Exceptional Lie Groups*): the 248 of E8 is its
    roots and 8 zero weights; the 56 of E7 is the roots mu with
    <mu, e7 - e8> = 1; the 27 of E6 is the roots whose (mu6, mu7, mu8)
    projects onto the plane orthogonal to (1, 1, 1) as e6 does; the 26 of
    F4 is its short roots and 2 zero weights."""
    roots = e8_roots()
    return {
        "F4": Counter(f4_short_roots()) + Counter({(0,) * 4: 2}),
        # mu6 - 1 = mu7 = mu8, doubled
        "E6": Counter(r[:5] for r in roots if r[5] - 2 == r[6] == r[7]),
        # the pinned root e7 - e8 gives Delta-; e7 + e8 would give Delta+
        "E7": Counter(r[:6] for r in roots if r[6] - r[7] == 2),
        "E8": Counter(roots) + Counter({(0,) * 8: 8}),
    }


def test_case_table_matches_e8_root_system():
    roots = _root_weights()
    for case in builtin_cases():
        weights = _torus_weights(case)
        assert weights == roots[case.group], case.group
        assert sum(weights.values()) == case.ambient_dim
        # a weight's circle weight is its first doubled coordinate
        circle = circle_weights(SpinGroup(case.spin_n), case.restriction, VECTOR_REP)
        assert Counter(exps[0] for exps in weights.elements()) == Counter(circle)


def test_root_system_negative_controls():
    roots = _root_weights()
    # the E7 label depends on the pinned root: <mu, e7 + e8> = 1 keeps the
    # half-integer roots with an even number of minus signs among the first
    # six coordinates, which is 2 lambda1 + Delta+, not the case's Delta-
    e7 = get_case("E7")
    other_root = Counter(r[:6] for r in e8_roots() if r[6] + r[7] == 2)
    assert other_root != _torus_weights(e7)
    plus = e7._replace(restriction=RepExpr.from_dict({lam(1): 2, DELTA_PLUS: 1}))
    assert other_root == _torus_weights(plus)
    # lambda1 at n = 9 loses its weight-0 line under the literal convention
    literal = _torus_weights(get_case("F4"), PAPER_LITERAL)
    assert sum(literal.values()) == 25
    assert literal != roots["F4"]
    # flipping the last torus coordinate swaps Delta+ and Delta- (the outer
    # automorphism of D_m), which the even cases must notice
    for group in ("E6", "E7", "E8"):
        weights = _torus_weights(get_case(group))
        flipped = Counter({e[:-1] + (-e[-1],): c for e, c in weights.items()})
        assert flipped != roots[group], group


# ---- image subring -------------------------------------------------------------


def test_indecomposable_classification():
    assert indecomposable_in_image(16, 5) == INDECOMPOSABLE
    assert indecomposable_in_image(16, 4) == DECOMPOSABLE
    assert indecomposable_in_image(8, 4) == INDECOMPOSABLE
    assert indecomposable_in_image(12, 4) == NOT_IN_IMAGE
    assert indecomposable_in_image(24, 4) == DECOMPOSABLE


def test_indecomposable_rejects_nonpositive():
    with pytest.raises(ValueError):
        indecomposable_in_image(0, 4)


# ---- case verification ------------------------------------------------------------


def test_f4_case():
    report = verify_case(get_case("F4"))
    assert report.passed
    assert report.h == 4
    assert report.total_class_str == "1 + u^8"
    assert report.top_class == "u^8"
    assert report.verdicts["indecomposability"] == INDECOMPOSABLE
    assert report.verdicts["square_relation"] is True
    assert report.complexified["total_class_str"] == "1 + u^16"
    assert report.complexified["indecomposability"] == DECOMPOSABLE


def test_e6_case():
    report = verify_case(get_case("E6"))
    assert report.passed
    assert report.h == 5
    assert report.total_class_str == "1 + u^16"
    assert report.verdicts["indecomposability"] == INDECOMPOSABLE
    assert report.complexified is None


def test_e7_case():
    report = verify_case(get_case("E7"))
    assert report.passed
    assert report.h == 6
    assert report.total_class_str == "1 + u^32"
    assert report.verdicts["indecomposability"] == INDECOMPOSABLE


def test_e8_case():
    report = verify_case(get_case("E8"))
    assert report.passed
    assert report.h == 7
    assert report.total_class_str == "1 + u^64"
    assert report.verdicts["indecomposability"] == INDECOMPOSABLE
    assert report.complexified["total_class_str"] == "1 + u^128"
    assert report.complexified["indecomposability"] == DECOMPOSABLE


def test_verify_all_order_and_verdict_pattern():
    reports = verify_all()
    assert [r.group for r in reports] == ["F4", "E6", "E7", "E8"]
    assert all(r.passed for r in reports)
    # decomposability duality: SW tops indecomposable with decomposable
    # complexifications; Chern tops indecomposable outright
    for r in reports:
        assert r.verdicts["indecomposability"] == INDECOMPOSABLE
        if r.class_kind == SW_KIND:
            assert r.complexified["indecomposability"] == DECOMPOSABLE


def test_square_relation_is_the_complexification_check(monkeypatch):
    # c = w^2 is checked through the integral class of the complexification,
    # so a failing check must fail exactly the SW-kind cases
    monkeypatch.setattr("spinchern.exceptional.complexification_check", lambda w, c: False)
    reports = {r.group: r._asdict() for r in verify_all()}
    for group in ("F4", "E8"):
        assert reports[group]["verdicts"]["square_relation"] is False
        assert reports[group]["passed"] is False
    for group in ("E6", "E7"):
        assert reports[group]["verdicts"]["square_relation"] == "n/a"
        assert reports[group]["passed"] is True


def test_trivial_summand_invariance():
    # adding trivial summands must not change any class
    for case in builtin_cases():
        terms = dict(case.restriction.terms)
        terms[triv(1)] = terms.get(triv(1), 0) + 3
        perturbed = ExceptionalCase(
            group=case.group,
            spin_n=case.spin_n,
            restriction=RepExpr.from_dict(terms),
            target=case.target,
            ambient_dim=case.ambient_dim + 3,
            class_kind=case.class_kind,
            top_degree=case.top_degree,
        )
        base = verify_case(case)
        bumped = verify_case(perturbed)
        assert bumped.total_class == base.total_class
        assert bumped.verdicts["indecomposability"] == base.verdicts["indecomposability"]


def test_convention_invariance_of_classes():
    for case in builtin_cases():
        lit = verify_case(case, convention=PAPER_LITERAL)
        vec = verify_case(case, convention=VECTOR_REP)
        assert lit.total_class == vec.total_class
        assert lit.verdicts["indecomposability"] == vec.verdicts["indecomposability"]
        if case.class_kind == SW_KIND:
            assert lit.complexified["total_class_str"] == vec.complexified["total_class_str"]


def test_paper_literal_convention_flags_f4_dimension():
    report = verify_case(get_case("F4"), convention=PAPER_LITERAL)
    # classes pass either way; the dimension audit passes on the vector-rep
    # reading and flags the literal one in a note
    assert report.passed
    assert report.dimensions["paper_literal"] == 25
    assert report.dimensions["vector_rep"] == 26
    assert any("25" in note for note in report.notes)


def test_failing_case_reports_witness():
    # a wrong expected top degree must fail with notes, not raise
    bogus = ExceptionalCase(
        group="E6",
        spin_n=10,
        restriction=get_case("E6").restriction,
        target="SU(27)",
        ambient_dim=27,
        class_kind=CHERN_KIND,
        top_degree=16,  # the real top class sits at u^16, not u^8
    )
    report = verify_case(bogus)
    assert not report.passed
    assert report.verdicts["total_class_shape"] is False
    assert report.notes


def test_total_class_keys_are_text():
    # the record is the report entry itself: u-exponents are text keys, so a
    # sorted json dump orders a class of three or more terms as text
    bogus = ExceptionalCase(
        group="F4",
        spin_n=9,
        restriction=RepExpr.from_dict({lam(1): 1, DELTA: 3}),
        target="SO(57)",
        ambient_dim=57,
        class_kind=SW_KIND,
        top_degree=16,
    )
    report = verify_case(bogus)
    assert not report.passed
    assert report.total_class == {"0": 1, "8": 1, "16": 1, "24": 1}
    assert json.dumps(report._asdict()["total_class"], sort_keys=True) == (
        '{"0": 1, "16": 1, "24": 1, "8": 1}'
    )


# ---- remark and dimension audit ------------------------------------------------------


def test_remark_generation():
    for case in builtin_cases():
        report = verify_case(case)
        assert report.generates_image


def test_dimension_audit_entries():
    reports = {c.group: verify_case(c) for c in builtin_cases()}
    assert reports["E6"].dimensions["vector_rep"] == 27
    assert reports["E7"].dimensions["vector_rep"] == 56
    assert reports["E8"].dimensions["vector_rep"] == 248
    assert reports["E8"].dimensions["paper_literal"] == 248
    assert reports["F4"].dimensions["vector_rep"] == 26
    assert reports["F4"].dimensions["paper_literal"] == 25
    assert reports["F4"].verdicts["dimension"] == "pass"
    assert reports["F4"].notes == [
        "literal lambda convention gives dimension 25 (vector-rep gives 26, ambient is 26)"
    ]
    for grp in ("E6", "E7", "E8"):
        assert reports[grp].verdicts["dimension"] == "pass" and reports[grp].notes == []


def test_e8_dimension_breakdown():
    # 8 + dim(lambda2) + dim(delta+) = 8 + 112 + 128
    from spinchern.spin_reps import SpinGroup, dimension

    g = SpinGroup(16)
    assert dimension(g, lam(2)) == 112
    assert dimension(g, DELTA_PLUS) == 128


def test_report_serialization_is_json_friendly():
    report = verify_case(get_case("E8"))
    payload = json.dumps(report._asdict(), sort_keys=True)
    assert '"passed": true' in payload
    # reports and cases are immutable values
    assert verify_case(get_case("E8")) == report
    with pytest.raises(AttributeError):
        report.passed = False
    with pytest.raises(AttributeError):
        get_case("E8").top_degree = 64
