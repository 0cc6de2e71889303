"""Tests for the command-line interface: exit codes, formats, determinism."""

from __future__ import annotations

import argparse
import ast
import contextlib
import doctest
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import report_pins
import spinchern
from report_pins import run
from spinchern.char_classes import TruncatedPoly, total_chern
from spinchern.cli import (
    SUBCOMMANDS,
    UsageError,
    _chern_bounds,
    _coeff_bits,
    build_parser,
    main,
    run_quillen,
    verify_all,
)


def spawn(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python args`` in a fresh interpreter that imports the same
    package as this process, installed or not, with its stdout buffered as
    in a plain shell whatever ``PYTHONUNBUFFERED`` says here."""
    env = {**os.environ, "PYTHONPATH": str(Path(spinchern.__file__).parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], text=True, env=env, **kwargs)


# ---- exit code contract -----------------------------------------------------


def test_prop2_small_range_passes():
    code, out, _ = run(("prop2", "--m", "4..6"))
    assert code == 0
    assert "identities hold" in out


def test_prop2_whole_range_passes():
    # every accepted m; the spinor classes at m = 16 are cut at 2^16 and 2^17
    code, out, _ = run(("prop2", "--m", "3..16", "--format", "json"))
    report = json.loads(out)
    assert code == 0
    assert report["all_passed"]
    assert report["passed"] == report["total"] == 266


def test_prop2_below_regime_is_usage_error():
    # a range that reaches into the regime but starts below it
    assert run(("prop2", "--m", "2..5"))[0] == 2


def test_prop2_bad_range_syntax(capsys):
    assert main(["prop2", "--m", "4..x"]) == 2
    assert main(["prop2", "--m", "6..4"]) == 2
    assert main(["prop2", "--m", "4..3"]) == 2
    assert main(["prop2", "--m", "3..4..5"]) == 2
    err = capsys.readouterr().err
    # refused as empty, not by the runner's 3..16 check, which also exits 2
    assert "empty m range '4..3'" in err
    assert "cannot parse m range '3..4..5'" in err


def test_a_mismatch_exits_1_and_still_prints_the_report(monkeypatch):
    # one wrong prop2 class: 1 + u where the first lambda class is 1
    calls = []

    def first_wrong(weights, cutoff, ring):
        calls.append(weights)
        if len(calls) == 1:
            return TruncatedPoly(ring, cutoff, {0: 1, 1: 1})
        return total_chern(weights, cutoff, ring)

    monkeypatch.setattr("spinchern.cli.total_chern", first_wrong)
    code, out, _ = run(("prop2", "--m", "3", "--format", "json"))
    report = json.loads(out)
    assert code == 1
    assert report["all_passed"] is False
    assert report["passed"] == report["total"] - 1 and not report["checks"][0]["pass"]

    # one failing theorem1 case
    def e7_fails(groups, convention):
        return [r._replace(passed=False) if r.group == "E7" else r
                for r in verify_all(groups, convention=convention)]

    monkeypatch.setattr("spinchern.cli.verify_all", e7_fails)
    code, out, _ = run(("theorem1", "--format", "json"))
    report = json.loads(out)
    assert code == 1
    assert report["all_passed"] is False
    assert [c["group"] for c in report["cases"] if not c["passed"]] == ["E7"]
    code, out, _ = run(("theorem1",))
    assert code == 1 and "all passed: False" in out


def test_theorem1_all_groups():
    code, out, _ = run(("theorem1",))
    assert code == 0
    for grp in ("F4", "E6", "E7", "E8"):
        assert grp in out
    assert "all passed: True" in out


def test_theorem1_single_group():
    code, out, _ = run(("theorem1", "--group", "E7"))
    assert code == 0
    assert "1 + u^32" in out
    assert "indecomposable" in out
    assert "F4" not in out


def test_theorem1_group_choices():
    code, out, _ = run(("theorem1", "--help"))
    assert code == 0 and "--group {all,F4,E6,E7,E8}" in out


def test_theorem1_paper_literal_flags_f4():
    code, out, _ = run(("theorem1", "--group", "F4", "--convention", "paper-literal"))
    assert code == 0
    assert "25" in out and "26" in out


def test_quillen_single_n():
    code, out, _ = run(("quillen", "--n", "9"))
    assert code == 0
    assert "h=4" in out
    assert "deg_z=16" in out
    assert "[2, 3, 5, 9]" in out
    assert "note:" in out  # the tabulated-h discrepancy


def test_quillen_n16():
    code, out, _ = run(("quillen", "--n", "16"))
    assert code == 0
    assert "h=7" in out
    assert "[2, 3, 5, 9, 17, 33, 65]" in out


@pytest.mark.parametrize("fmt", ["md", "plain"])
def test_md_and_plain_quillen_take_no_square(fmt, monkeypatch):
    # neither format prints a generator polynomial, so none is expanded, and
    # --full-j (refused past n = 20 for json) changes nothing
    def refuse(i, p):
        raise AssertionError(f"Sq^{i} taken for a {fmt} report")

    monkeypatch.setattr("spinchern.steenrod.sq_bso", refuse)
    start = time.perf_counter()
    code, out, _ = run(("quillen", "--n", "6..21", "--full-j", "--format", fmt))
    assert code == 0 and "[2, 3, 5, 9, 17, 33, 65, 129, 257, 513]" in out
    assert time.perf_counter() - start < 1.0
    assert out == run(("quillen", "--n", "6..21", "--format", fmt))[1]


def test_md_and_plain_rows_carry_no_generator():
    # md and plain pass max_degree 0, which every h >= 1 row truncates to none
    rows = run_quillen(897, 1024, 0)["rows"]
    assert len(rows) == 128
    assert all(r["generators"] == [] and r["generators_truncated"] is True for r in rows)


def test_quillen_below_6_is_usage_error():
    # a range that reaches n = 6 but starts below it
    assert run(("quillen", "--n", "5..8"))[0] == 2


def test_restrict_e7_expression():
    code, out, _ = run(("restrict", "--n", "12", "2*lambda1 + delta-"))
    assert code == 0
    assert "1 + u^32" in out


def test_restrict_delta_spin9():
    code, out, _ = run(("restrict", "--n", "9", "delta"))
    assert code == 0
    assert "8*z1 + 8*z1^-1" in out
    assert "1 + u^8" in out  # SW total


def test_restrict_lambda_class_is_one():
    code, out, _ = run(("restrict", "--n", "10", "lambda1", "--format", "json"))
    assert code == 0
    report = json.loads(out)
    assert report["total_chern_mod2"] == "1"


def test_restrict_zero_characters():
    for expression in ("lambda1 - lambda1", "triv:0"):
        code, out, _ = run(("restrict", "--n", "12", expression, "--format", "json"))
        assert code == 0
        report = json.loads(out)
        assert report["character"] == "0" and report["dimension"] == 0, expression
        assert report["weights"] == {} and report["negative_weights"] == {}, expression
        assert report["total_chern"] == {"0": 1} and not report["virtual"], expression


def test_restrict_dash_expression_must_follow_double_dash():
    # argparse takes a dash-led expression for an option; the error says so
    assert report_pins.refused(run(("restrict", "--n", "12", "-3*lambda1")), "must follow '--'")
    code, out, _ = run(("restrict", "--n", "12", "--", "-3*lambda1"))
    assert code == 0
    assert "character: -3*z1^2 - 30 - 3*z1^-2\n" in out
    # a unit term prints as "-lambda1", and that text parses back
    code, unit, _ = run(("restrict", "--n", "12", "--", "-lambda1"))
    assert code == 0 and unit.startswith("Spin(12)  -lambda1\n")
    assert unit == run(("restrict", "--n", "12", "--", "-1*lambda1"))[1]


def test_restrict_bad_expression():
    assert main(["restrict", "--n", "9", "nonsense(3)"]) == 2


def test_restrict_symbol_invalid_for_parity():
    assert main(["restrict", "--n", "10", "delta"]) == 2


def test_restrict_negative_cutoff_is_usage_error():
    assert main(["restrict", "--n", "9", "delta", "--cutoff", "-1"]) == 2


def test_restrict_virtual_expression():
    code, out, _ = run(("restrict", "--n", "9", "delta - 16", "--format", "json"))
    assert code == 0
    report = json.loads(out)
    assert report["virtual"] is True
    assert report["negative_weights"] == {"0": 16}


def test_restrict_virtual_with_moving_weights_on_both_sides():
    code, out, _ = run(("restrict", "--n", "12", "--cutoff", "64", "--format", "json",
                        "3*delta+ - lambda2"))
    assert code == 0
    report = json.loads(out)
    pos = {int(k): a for k, a in report["weights"].items()}
    neg = {int(k): a for k, a in report["negative_weights"].items()}
    assert pos.keys() - {0} and neg.keys() - {0}
    chern = TruncatedPoly(
        "Z", 64, {int(k): c for k, c in report["total_chern"].items()}
    )
    # Whitney round trip: c(pos - neg) * c(neg) == c(pos)
    assert oracles.series_product(chern, total_chern(neg, 64)) == total_chern(pos, 64)


@pytest.mark.parametrize(
    "argv",
    [
        ("restrict", "--n", "201", "delta"),
        ("restrict", "--n", "9", "8 - delta", "--cutoff", "99999999999999999999"),
    ],
)
def test_unallocatable_cutoff_is_usage_error(argv):
    code, _, err = run(argv)
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_cutoff_over_the_series_budget_is_named():
    # a virtual class runs to its cutoff: (cutoff + 1) * 2 (cutoff + 1) products
    code, _, err = run(("restrict", "--n", "12", "--cutoff", "262144", "3 - lambda1"))
    assert (code, err) == (2, "error: the total Chern class with cutoff 262144 may need "
                              "137440002050 coefficient products; that is over budget\n")


def test_4300_digit_cutoff_is_one_short_error_line():
    # the cutoff and its product count have too many digits to print
    code, _, err = run(("restrict", "--n", "12", "--cutoff", "9" * 4300, "3 - lambda1"))
    assert (code, err) == (2, "error: the total Chern class with cutoff a 4300-digit number "
                              "may need a 8601-digit number coefficient products; "
                              "that is over budget\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("restrict", "--n", "40", "delta+"),
        ("restrict", "--n", "14", "--cutoff", "100000000", "3 - lambda1"),
        # a multiplicity that drives the series length past the work budget
        ("restrict", "--n", "9", "99999999999999999999*lambda1"),
        # 15,170-bit coefficients, over the 14,000 a printed integer may have
        ("restrict", "--n", "30", "--cutoff", "4000", "delta+"),
        # 203-bit coefficients, but (cutoff + 1)^2 products of them
        ("restrict", "--n", "9", "--cutoff", "60000", "8 - delta"),
        # a dense virtual series: (cutoff + 1)^2 products of 4000-bit integers
        ("restrict", "--n", "9", "--convention", "vector-rep", "--cutoff", "4000",
         "16 - lambda1"),
        ("restrict", "--n", "1025", "--cutoff", "16", "lambda1"),
        ("quillen", "--n", "6..2000000"),
        ("quillen", "--n", "6..134"),
        ("quillen", "--n", "40000"),
        ("quillen", "--n", "6..21", "--full-j", "--format", "json"),
    ],
)
def test_over_budget_input_is_refused_before_work(argv):
    start = time.perf_counter()
    code, _, err = run(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "admitted,text",
    [
        # width: 13,975-bit coefficients, and 14,048 at cutoff 189
        (("restrict", "--n", "30", "--cutoff", "188", f"{10**20}*delta+"), "-bit integers"),
        # work: 0.9997 of the budget, and over it at cutoff 3663
        (("restrict", "--n", "9", "--cutoff", "3662", "8 - delta"), "coefficient products"),
        # width: exactly the 14,000-bit budget, and 14,098 at cutoff 142
        (("restrict", "--n", "12", "--cutoff", "141", f"{10**30}*lambda2"), "-bit integers"),
    ],
)
def test_each_budget_admits_an_input_just_inside_it(admitted, text):
    assert run(admitted)[0] == 0
    cut = admitted.index("--cutoff") + 1
    over = admitted[:cut] + (str(int(admitted[cut]) + 1),) + admitted[cut + 1:]
    assert report_pins.refused(run(over), text)


@pytest.mark.parametrize(
    "argv",
    [
        # the four argvs that the refusal tests above took on a genuine class
        ("restrict", "--n", "9", "delta", "--cutoff", "99999999999999999999"),
        ("restrict", "--n", "12", "--cutoff", "262144", "lambda1"),
        ("restrict", "--n", "12", "--cutoff", "9" * 4300, "lambda1"),
        ("restrict", "--n", "14", "--cutoff", "100000000", "lambda1"),
        # (1 - u^2)^64, which was charged 17039490 products of cutoff + 1 coefficients
        ("restrict", "--n", "12", "--cutoff", "131072", "4*delta+"),
    ],
)
def test_a_genuine_class_is_charged_up_to_its_top_power(argv):
    # it stops at u^A, A its positive moving multiplicity, whatever the cutoff,
    # and plain reports print no cutoff
    start = time.perf_counter()
    code, out, _ = run(argv)
    assert time.perf_counter() - start < 1.0 and code == 0
    cut = argv.index("--cutoff") + 1
    assert run(argv[:cut] + ("65535",) + argv[cut + 1:]) == (0, out, "")


def test_budgets_admit_the_largest_documented_runs():
    # the benchmark's costliest restrict item, README's quillen range and a
    # --full-j range; prop2 --m 16..16 runs in the test below
    argv = ("restrict", "--n", "17", "--cutoff", "512", "--convention", "vector-rep",
            "--format", "json", "3*lambda6 + 3*lambda7 - 3*delta")
    assert run(argv)[0] == 0
    assert run(("quillen", "--n", "6..20", "--format", "md"))[0] == 0
    assert run(("quillen", "--n", "6..12", "--full-j"))[0] == 0


@given(
    st.dictionaries(st.integers(-4, 4), st.integers(-8, 8), max_size=5),
    st.integers(1, 48),
)
@settings(max_examples=150, deadline=None)
def test_chern_bounds_cover_the_computed_series(weights, cutoff):
    terms, products = _chern_bounds(weights, cutoff)
    series = total_chern(weights, cutoff).terms
    assert max(abs(c).bit_length() for c in series.values()) <= _coeff_bits(weights, cutoff)
    # no nonzero power reaches the length charged, and it is charged at least its square
    assert max(series) < terms and (products >= terms**2 or products == 0)


ORACLE_NAMES = {
    "MultiLaurent",
    "character_on_Tm",
    "elementary_symmetric",
    "oracles",
    "sq_on_generator",
}


def _package_modules() -> list:
    return [spinchern] + [
        importlib.import_module(f"spinchern.{info.name}")
        for info in pkgutil.iter_modules(spinchern.__path__)
    ]


# docstring examples per module: signed_sum, shown, parse_expr and
# format_character in spin_reps; a module not named here has none
DOCSTRING_EXAMPLES = {"spinchern.spin_reps": 4, "oracles": 2}


@pytest.mark.parametrize(
    "module", _package_modules() + [oracles], ids=lambda module: module.__name__
)
def test_docstring_examples_hold(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted == DOCSTRING_EXAMPLES.get(module.__name__, 0)


def test_public_namespace_has_no_laurent_module():
    # TruncatedPoly lives beside total_chern, and the package root exports it
    for name in spinchern.__all__:
        assert hasattr(spinchern, name), name
    assert spinchern.TruncatedPoly is spinchern.char_classes.TruncatedPoly
    assert find_spec("spinchern.laurent") is None
    for module in _package_modules():
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                assert not any(name.split(".")[-1] == "laurent" for name in names), module


def test_readme_example_prints_its_comments(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("\n## Example\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    # each commented print gives the value it prints, then an optional remark
    values = [line.split("# ", 1)[1].split(", ")[0] for line in code.splitlines()
              if line.startswith("print(") and "# " in line]
    assert values == ["8*z1 + 8*z1^-1", "1 + u^16", "1 + u^16", "1 + u^8"]
    for line, value in zip(printed, values):
        assert line.startswith(value), (line, value)
    assert printed[4:] == [
        "F4 1 + u^8 indecomposable",
        "E6 1 + u^16 indecomposable",
        "E7 1 + u^32 indecomposable",
        "E8 1 + u^64 indecomposable",
    ]
    weights_line = next(line for line in code.splitlines() if line.startswith("weights ="))
    assert namespace["weights"] == ast.literal_eval(weights_line.split("# ", 1)[1])


def test_cli_never_expands_full_torus_characters():
    # circle characters come from the closed forms; the T^m expansion and its
    # Laurent algebra live in tests/oracles.py only (at m = 16 the expansion
    # would not fit in memory), and so does the full-ring Wu formula, since
    # the package squares in H*(BSO(n)) alone: no package module defines or
    # imports them
    for module in _package_modules():
        assert not ORACLE_NAMES & vars(module).keys(), module.__name__
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                bound = {node.module or ""} | {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                bound = {alias.name for alias in node.names}
            elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                bound = {node.name}
            else:
                continue
            assert not ORACLE_NAMES & bound, (module.__name__, bound)
    code, out, _ = run(("prop2", "--m", "16..16"))
    assert code == 0
    assert "32/32 identities hold" in out
    for convention in ("paper-literal", "vector-rep"):
        assert run(("theorem1", "--convention", convention))[0] == 0
    argv = ("restrict", "--n", "17", "--cutoff", "64", "3*delta + lambda1 - 2*lambda7")
    assert run(argv)[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        # mod 2 neither a cutoff past the top class nor the odd-n lambda
        # convention can change a prop2 or theorem1 result
        ("prop2", "--cutoff", "64"),
        ("prop2", "--convention", "vector-rep"),
        ("theorem1", "--cutoff", "300"),
    ],
)
def test_options_that_change_no_result_are_not_offered(argv):
    text = f"unrecognized arguments: {' '.join(map(repr, argv[1:]))}"
    assert report_pins.refused(run(argv), text)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("restrict", "--n", "twelve", "lambda1"), "argument --n: invalid int value: 'twelve'"),
        (("restrict", "--n", "12", "--format", "xml", "lambda1"),
         "argument --format: invalid choice: 'xml' (choose from 'json', 'md', 'plain')"),
        # two pinned refusals, here with their whole error line and usage
        (report_pins.REFUSALS[1][0],
         "argument --group: invalid choice: 'G2' (choose from 'all', 'F4', 'E6', 'E7', 'E8')"),
        (report_pins.REFUSALS[4][0], "the following arguments are required: expression"),
    ],
)
def test_argparse_errors_quote_a_short_value(argv, message):
    code, _, err = run(argv)
    assert code == 2
    assert err.splitlines()[-1].endswith(f"error: {message}")
    # the subcommand's own usage, also for the errors main raises itself
    assert err.startswith(f"usage: spinchern {argv[0]} "), err


def test_version_matches_pyproject():
    # a regex, not tomllib, so the test runs on Python 3.10 too
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    assert spinchern.__version__ == re.search(r'^version = "([^"]+)"', text, re.M).group(1)
    assert run(("--version",))[:2] == (0, f"{spinchern.__version__}\n")


def test_unknown_subcommand_exits_2():
    assert run(("frobnicate",))[0] == 2


def _parsed(parser: argparse.ArgumentParser, argv: tuple[str, ...]) -> tuple:
    """What ``parser`` makes of ``argv``: its namespace without the ``parser``
    and ``run`` callables, the arguments it left over, stdout, stderr and the
    exit code argparse raised, if any."""
    out, err = io.StringIO(), io.StringIO()
    fields = extra = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, extra = parser.parse_known_args(list(argv))
            fields = {k: v for k, v in vars(args).items() if k not in ("parser", "run")}
        except SystemExit as exc:  # refusals and --help
            code = exc.code
    return fields, extra, out.getvalue(), err.getvalue(), code


def _subcommands(parser: argparse.ArgumentParser) -> list[str]:
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def test_one_subcommand_parser_parses_as_all_four():
    argvs = ([("theorem1", *argv) for argv, _ in report_pins.THEOREM1_DIGESTS]
             + [argv for argv, _ in report_pins.REPORT_DIGESTS + report_pins.REFUSALS]
             + [("-h",)] + [(name, "-h") for name in SUBCOMMANDS])
    differ = [report_pins.named(argv) for argv in argvs
              if _parsed(build_parser(argv), argv) != _parsed(build_parser(), argv)]
    assert not differ
    assert _parsed(build_parser(), ("prop2", "-h"))[2].startswith("usage: spinchern prop2 ")


def test_a_named_subcommand_builds_its_parser_alone():
    for name in SUBCOMMANDS:
        assert _subcommands(build_parser([name, "-h"])) == [name]
    for argv in [(), ("-h",), ("--version",), ("prop",), ("--", "prop2")]:
        assert _subcommands(build_parser(argv)) == list(SUBCOMMANDS), argv


# ---- determinism ----------------------------------------------------------------


def test_json_reports_are_byte_identical():
    _, first, _ = run(("theorem1", "--format", "json"))
    _, second, _ = run(("theorem1", "--format", "json"))
    assert first == second
    report = json.loads(first)
    assert report["all_passed"] is True
    assert [c["group"] for c in report["cases"]] == ["F4", "E6", "E7", "E8"]
    assert report["tool_version"]


@pytest.mark.parametrize("argv,digest", report_pins.THEOREM1_DIGESTS)
def test_theorem1_reports_are_pinned(argv, digest):
    assert report_pins.matches(run(("theorem1", *argv)), digest)


@pytest.mark.parametrize("argv,digest", report_pins.REPORT_DIGESTS)
def test_reports_are_pinned(argv, digest):
    assert report_pins.matches(run(argv), digest)


@pytest.mark.parametrize("argv,text", report_pins.REFUSALS,
                         ids=[report_pins.named(argv) for argv, _ in report_pins.REFUSALS])
def test_refusals_are_pinned(argv, text):
    result = run(argv)
    assert report_pins.refused(result, text), result[2][:400]


def test_the_pin_checker_names_a_report_that_differs(capsys, monkeypatch):
    argv, digest = report_pins.REPORT_DIGESTS[2]
    monkeypatch.setattr(report_pins, "THEOREM1_DIGESTS", [])
    monkeypatch.setattr(report_pins, "REPORT_DIGESTS", [(argv, digest), (argv, "0" * 64)])
    monkeypatch.setattr(report_pins, "REFUSALS", [])
    assert report_pins.check() == 1
    out, err = capsys.readouterr()
    assert out == "1/2 pinned reports match, 0/0 pinned refusals hold\n"
    assert err == "differs from its pin: spinchern prop2 --m 3..12 --format plain\n"


def test_the_pin_checker_names_a_refusal_that_fails(capsys, monkeypatch):
    # a pinned refusal holds; a report that exits 0 and a refusal with
    # another text fail theirs
    (argv, text), (other, _) = report_pins.REFUSALS[:2]
    monkeypatch.setattr(report_pins, "THEOREM1_DIGESTS", [])
    monkeypatch.setattr(report_pins, "REPORT_DIGESTS", [])
    monkeypatch.setattr(report_pins, "REFUSALS",
                        [(argv, text), (("prop2", "--m", "3..3"), text), (other, text)])
    assert report_pins.check() == 1
    out, err = capsys.readouterr()
    assert out == "0/0 pinned reports match, 1/3 pinned refusals hold\n"
    assert err == ("not refused as pinned: spinchern prop2 --m 3..3\n"
                   f"not refused as pinned: {report_pins.named(other)}\n")


def test_the_pin_checker_imports_only_the_standard_library_and_spinchern():
    # so CI runs it on the Python floor, where pytest is not installed
    nodes = list(ast.walk(ast.parse(Path(report_pins.__file__).read_text())))
    names = [a.name for node in nodes if isinstance(node, ast.Import) for a in node.names]
    names += [node.module for node in nodes if isinstance(node, ast.ImportFrom)]
    assert {name.split(".")[0] for name in names} - sys.stdlib_module_names == {"spinchern"}


def test_json_report_fields():
    _, out, _ = run(("theorem1", "--group", "E6", "--format", "json"))
    case = json.loads(out)["cases"][0]
    for key in (
        "group", "n", "h", "class_kind", "total_class", "top_class",
        "expected", "verdicts", "dimensions", "notes",
    ):
        assert key in case
    assert case["verdicts"]["membership"] == "in-image"
    assert case["verdicts"]["indecomposability"] == "indecomposable"
    assert case["total_class"] == {"0": 1, "16": 1}


def test_markdown_format():
    _, out, _ = run(("theorem1", "--format", "md"))
    assert "| G | spin group |" in out
    assert "| n | m | h | deg z |" in out
    _, out, _ = run(("quillen", "--n", "9..10", "--format", "md"))
    assert "| n | m | type | h | deg z |" in out


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    code = main(["quillen", "--n", "9", "--format", "json", "--out", str(target)])
    assert code == 0
    data = json.loads(target.read_text())
    assert data["rows"][0]["deg_z"] == 16
    assert data["rows"][0]["note"]


def test_out_to_missing_directory_is_usage_error(tmp_path):
    target = tmp_path / "missing" / "r.txt"
    code, _, err = run(("prop2", "--m", "3..3", "--out", str(target)))
    assert code == 2 and err.startswith("error: ") and not target.exists()


def test_out_is_opened_before_the_work(tmp_path, monkeypatch):
    # as a shell's > does: an unwritable path is refused before the runner
    # runs, and a run that fails after the open leaves the file empty
    calls = []

    def refuse(*args):
        calls.append(args)
        raise UsageError("refused by the runner")

    monkeypatch.setattr("spinchern.cli.run_quillen", refuse)
    missing = tmp_path / "missing" / "x.json"
    argv = ("quillen", "--n", "6..18", "--full-j", "--format", "json", "--out")
    code, _, err = run((*argv, str(missing)))
    assert (code, calls) == (2, [])
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    target = tmp_path / "x.json"
    target.write_text("old report")
    code, _, err = run((*argv, str(target)))
    assert (code, err, len(calls)) == (2, "error: refused by the runner\n", 1)
    assert target.read_text() == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("flags", [(), ("-u",)], ids=["buffered", "unbuffered"])
def test_an_error_line_that_cannot_be_written_exits_2(flags):
    # stderr on a full device: without the fix the exit code was 120 from
    # Python's flush at exit (buffered) or 1 from a traceback (unbuffered)
    with open("/dev/full", "w") as full:
        refused = spawn(*flags, "-m", "spinchern", "prop2", "--m", "2..2",
                        stdout=subprocess.PIPE, stderr=full)
        unwritten = spawn(*flags, "-m", "spinchern", "theorem1", stdout=full, stderr=full)
    assert (refused.returncode, refused.stdout) == (2, "")
    assert unwritten.returncode == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_stdout_write_error_is_usage_error():
    # the report fits stdout's buffer, so the first write to fail is main's
    # flush; Python's own flush at exit must then find the buffer empty
    with open("/dev/full", "w") as full:
        proc = spawn("-m", "spinchern", "prop2", "--m", "3..4", stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_closed_stdout_is_usage_error(capsys, monkeypatch):
    # Python sets sys.stdout to None when it starts with fd 1 closed
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", None)
        code = main(["theorem1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child")
def test_spawned_process_with_closed_stdout_exits_2():
    proc = spawn("-m", "spinchern", "theorem1", stderr=subprocess.PIPE,
                 preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1  # no traceback


def test_empty_out_path_is_usage_error():
    # an empty path is one that cannot be written, not a request for stdout
    code, out, err = run(("prop2", "--m", "3..3", "--out", ""))
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


def test_quillen_json_schema():
    _, out, _ = run(("quillen", "--n", "9..12", "--format", "json"))
    data = json.loads(out)
    rows = {r["n"]: r for r in data["rows"]}
    assert rows[9]["type"] == "R" and rows[9]["h"] == 4
    assert rows[10]["type"] == "C" and rows[10]["h"] == 5
    assert rows[11]["type"] == "H" and rows[11]["h"] == 6
    assert rows[12]["type"] == "H" and rows[12]["h"] == 6
    assert rows[9]["j_degrees"] == [2, 3, 5, 9]
    assert data["discrepancies"] == 2  # n = 9 and n = 11


def test_spawned_process_exit_codes():
    # the exit-code contract holds for the module entry point too
    ok = spawn("-m", "spinchern", "theorem1", "--group", "F4", capture_output=True)
    assert ok.returncode == 0 and "indecomposable" in ok.stdout, ok.stderr
    for argv, text in report_pins.REFUSALS:
        proc = spawn("-m", "spinchern", *argv, capture_output=True)
        result = proc.returncode, proc.stdout, proc.stderr
        assert report_pins.refused(result, text), (report_pins.named(argv), proc.stderr[:400])


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # they cost a fifth of the CLI's start-up, and json loads only for a json
    # report; -S keeps site's own imports out.  The benchmark's tracer wraps
    # the modules loaded at import, so steenrod and exceptional stay among them.
    code = ("import sys, spinchern.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'json'} & set(sys.modules)), "
            "{'spinchern.steenrod', 'spinchern.exceptional'} <= set(sys.modules))")
    proc = spawn("-S", "-c", code, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] True\n"


def test_python_dash_m_spinchern_runs_the_cli():
    proc = spawn("-m", "spinchern", "quillen", "--n", "9", capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(("quillen", "--n", "9"))[1]


# ---- fuzzing -------------------------------------------------------------------

# Small sizes keep accepted runs cheap; the large ones meet the input budgets.
_SIZES = st.integers(-2, 14) | st.sampled_from([17, 21, 40, 201, 400, 1025, 10**6, 10**30])
_CUTOFFS = (
    st.none()
    | st.integers(-3, 300).map(str)
    | st.sampled_from(["262144", "100000000", str(10**20), "abc", "1e3", "", "-", "0x10"])
)
_TERMS = st.tuples(
    st.sampled_from(["", "2*", "3*", "0*", "-1*", "99999999999999999999*"]),
    st.sampled_from(["lambda1", "lambda2", "lambda5", "lambda0", "delta", "delta+",
                     "delta-", "triv:2", "7", "0", "beta"]),
).map("".join)
_EXPRESSIONS = (
    st.lists(st.tuples(st.sampled_from([" + ", " - "]), _TERMS), min_size=1, max_size=3)
    .map(lambda parts: "".join(sep + term for sep, term in parts)[3:])
    | st.text(alphabet="lambdet+-*:0123456789 ", max_size=16)
)


def _range(bounds: tuple[int, int]) -> str:
    return f"{bounds[0]}..{bounds[1]}"


_ARGVS = st.one_of(
    st.tuples(st.just("restrict"), st.just("--n"), _SIZES.map(str), _EXPRESSIONS),
    st.tuples(
        st.just("prop2"), st.just("--m"),
        st.tuples(st.integers(-1, 8), st.integers(-1, 8) | st.sampled_from([17, 100]))
        .map(_range) | st.sampled_from(["4", "x..5", "3..4..5", ""]),
    ),
    st.tuples(
        st.just("quillen"), st.just("--n"),
        st.tuples(_SIZES, _SIZES).map(_range) | _SIZES.map(str),
    ),
    st.tuples(st.just("theorem1"), st.just("--group"),
              st.sampled_from(["all", "F4", "E6", "E7", "E8", "G2"])),
)


@given(
    _ARGVS,
    _CUTOFFS,
    st.sampled_from([(), ("--convention", "vector-rep"), ("--full-j",), ("--format", "md")]),
)
@settings(max_examples=120, deadline=None)
def test_cli_fuzz_ends_in_a_documented_exit_code(argv, cutoff, extra):
    argv = list(argv) + list(extra)
    if cutoff is not None and argv[0] == "restrict":  # the only subcommand with --cutoff
        argv += ["--cutoff", cutoff]
    assert run(argv)[0] in (0, 1, 2)
