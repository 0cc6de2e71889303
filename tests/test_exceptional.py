"""Tests for the four exceptional-group verification pipelines."""

from __future__ import annotations

import pytest

from spinchern.exceptional import (
    CHERN_KIND,
    DECOMPOSABLE,
    INDECOMPOSABLE,
    NOT_IN_IMAGE,
    SW_KIND,
    ExceptionalCase,
    builtin_cases,
    dimension_audit,
    get_case,
    indecomposable_in_image,
    verify_all,
    verify_case,
)
from spinchern.spin_reps import (
    DELTA_PLUS,
    PAPER_LITERAL,
    VECTOR_REP,
    RepExpr,
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
    reports = {r.group: r.to_dict() for r in verify_all()}
    for group in ("F4", "E8"):
        assert reports[group]["verdicts"]["square_relation"] is False
        assert reports[group]["passed"] is False
    for group in ("E6", "E7"):
        assert reports[group]["verdicts"]["square_relation"] == "n/a"
        assert reports[group]["passed"] is True


def test_trivial_summand_invariance():
    # adding trivial summands must not change any class
    for case in builtin_cases():
        perturbed = ExceptionalCase(
            group=case.group,
            spin_n=case.spin_n,
            restriction=case.restriction + RepExpr.single(triv(1), 3),
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


# ---- remark and dimension audit ------------------------------------------------------


def test_remark_generation():
    for case in builtin_cases():
        report = verify_case(case)
        assert report.generates_image


def test_dimension_audit_entries():
    audits = {c.group: dimension_audit(c) for c in builtin_cases()}
    assert audits["E6"]["computed_vector_rep"] == 27
    assert audits["E7"]["computed_vector_rep"] == 56
    assert audits["E8"]["computed_vector_rep"] == 248
    assert audits["E8"]["computed_paper_literal"] == 248
    assert audits["F4"]["computed_vector_rep"] == 26
    assert audits["F4"]["computed_paper_literal"] == 25
    assert audits["F4"]["pass"] and audits["F4"]["note"]
    for grp in ("E6", "E7", "E8"):
        assert audits[grp]["pass"] and audits[grp]["note"] is None


def test_e8_dimension_breakdown():
    # 8 + dim(lambda2) + dim(delta+) = 8 + 112 + 128
    from spinchern.spin_reps import SpinGroup, dimension

    g = SpinGroup(16)
    assert dimension(g, lam(2)) == 112
    assert dimension(g, DELTA_PLUS) == 128


def test_report_serialization_is_json_friendly():
    import json

    report = verify_case(get_case("E8"))
    payload = json.dumps(report.to_dict(), sort_keys=True)
    assert '"passed": true' in payload
