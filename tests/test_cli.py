"""Tests for the command-line interface: exit codes, formats, determinism."""

from __future__ import annotations

import ast
import contextlib
import doctest
import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import spinchern
from spinchern.char_classes import total_chern
from spinchern.cli import _chern_bounds, main
from spinchern.laurent import TruncatedPoly


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---- exit code contract -----------------------------------------------------


def test_prop2_small_range_passes(capsys):
    code, out = run_cli(capsys, "prop2", "--m", "4..6")
    assert code == 0
    assert "identities hold" in out


def test_prop2_whole_range_passes(capsys):
    # every accepted m; the spinor classes at m = 16 are cut at 2^16 and 2^17
    code, out = run_cli(capsys, "prop2", "--m", "3..16", "--format", "json")
    report = json.loads(out)
    assert code == 0
    assert report["all_passed"]
    assert report["passed"] == report["total"] == 266


def test_prop2_below_regime_is_usage_error(capsys):
    code = main(["prop2", "--m", "2..2"])
    assert code == 2


def test_prop2_bad_range_syntax(capsys):
    assert main(["prop2", "--m", "4..x"]) == 2
    assert main(["prop2", "--m", "6..4"]) == 2


def test_theorem1_all_groups(capsys):
    code, out = run_cli(capsys, "theorem1")
    assert code == 0
    for grp in ("F4", "E6", "E7", "E8"):
        assert grp in out
    assert "all passed: True" in out


def test_theorem1_single_group(capsys):
    code, out = run_cli(capsys, "theorem1", "--group", "E7")
    assert code == 0
    assert "1 + u^32" in out
    assert "indecomposable" in out
    assert "F4" not in out


def test_theorem1_paper_literal_flags_f4(capsys):
    code, out = run_cli(
        capsys, "theorem1", "--group", "F4", "--convention", "paper-literal"
    )
    assert code == 0
    assert "25" in out and "26" in out


def test_quillen_single_n(capsys):
    code, out = run_cli(capsys, "quillen", "--n", "9")
    assert code == 0
    assert "h=4" in out
    assert "deg_z=16" in out
    assert "[2, 3, 5, 9]" in out
    assert "note:" in out  # the tabulated-h discrepancy


def test_quillen_n16(capsys):
    code, out = run_cli(capsys, "quillen", "--n", "16")
    assert code == 0
    assert "h=7" in out
    assert "[2, 3, 5, 9, 17, 33, 65]" in out


@pytest.mark.parametrize("fmt", ["md", "plain"])
def test_md_and_plain_quillen_take_no_square(fmt, capsys, monkeypatch):
    # neither format prints a generator polynomial, so none is expanded, and
    # --full-j (refused past n = 20 for json) changes nothing
    def refuse(i, p):
        raise AssertionError(f"Sq^{i} taken for a {fmt} report")

    monkeypatch.setattr("spinchern.steenrod.sq_bso", refuse)
    start = time.perf_counter()
    code, out = run_cli(capsys, "quillen", "--n", "6..21", "--full-j", "--format", fmt)
    assert code == 0 and "[2, 3, 5, 9, 17, 33, 65, 129, 257, 513]" in out
    assert time.perf_counter() - start < 1.0
    assert out == run_cli(capsys, "quillen", "--n", "6..21", "--format", fmt)[1]


def test_quillen_below_6_is_usage_error(capsys):
    assert main(["quillen", "--n", "5"]) == 2


def test_restrict_e7_expression(capsys):
    code, out = run_cli(capsys, "restrict", "--n", "12", "2*lambda1 + delta-")
    assert code == 0
    assert "1 + u^32" in out


def test_restrict_delta_spin9(capsys):
    code, out = run_cli(capsys, "restrict", "--n", "9", "delta")
    assert code == 0
    assert "8*z1 + 8*z1^-1" in out
    assert "1 + u^8" in out  # SW total


def test_restrict_lambda_class_is_one(capsys):
    code, out = run_cli(capsys, "restrict", "--n", "10", "lambda1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["total_chern_mod2"] == "1"


def test_restrict_zero_characters(capsys):
    for expression in ("lambda1 - lambda1", "triv:0"):
        code, out = run_cli(capsys, "restrict", "--n", "12", expression, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["character"] == "0" and report["dimension"] == 0, expression
        assert report["weights"] == {} and report["negative_weights"] == {}, expression
        assert report["total_chern"] == {"0": 1} and not report["virtual"], expression


def test_restrict_dash_expression_must_follow_double_dash(capsys):
    # argparse takes a dash-led expression for an option; the error says so
    with pytest.raises(SystemExit) as exc:
        main(["restrict", "--n", "12", "-3*lambda1"])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "must follow '--'" in errors[0], errors
    code, out = run_cli(capsys, "restrict", "--n", "12", "--", "-3*lambda1")
    assert code == 0
    assert "character: -3*z1^2 - 30 - 3*z1^-2\n" in out


def test_restrict_bad_expression(capsys):
    assert main(["restrict", "--n", "9", "nonsense(3)"]) == 2


def test_restrict_symbol_invalid_for_parity(capsys):
    assert main(["restrict", "--n", "10", "delta"]) == 2


def test_restrict_negative_cutoff_is_usage_error(capsys):
    assert main(["restrict", "--n", "9", "delta", "--cutoff", "-1"]) == 2


def test_restrict_virtual_expression(capsys):
    code, out = run_cli(
        capsys, "restrict", "--n", "9", "delta - 16", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["virtual"] is True
    assert report["negative_weights"] == {"0": 16}


def test_restrict_virtual_with_moving_weights_on_both_sides(capsys):
    code, out = run_cli(
        capsys, "restrict", "--n", "12", "--cutoff", "64", "--format", "json",
        "3*delta+ - lambda2",
    )
    assert code == 0
    report = json.loads(out)
    pos = {int(k): a for k, a in report["weights"].items()}
    neg = {int(k): a for k, a in report["negative_weights"].items()}
    assert pos.keys() - {0} and neg.keys() - {0}
    chern = TruncatedPoly.from_dict(
        "Z", 64, {int(k): c for k, c in report["total_chern"].items()}
    )
    # Whitney round trip: c(pos - neg) * c(neg) == c(pos)
    assert chern * total_chern(neg, 64) == total_chern(pos, 64)


@pytest.mark.parametrize(
    "argv",
    [
        ("restrict", "--n", "201", "delta"),
        ("restrict", "--n", "9", "delta", "--cutoff", "99999999999999999999"),
    ],
)
def test_unallocatable_cutoff_is_usage_error(argv, capsys):
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("restrict", "--n", "40", "delta+"),
        ("restrict", "--n", "14", "--cutoff", "100000000", "lambda1"),
        # a multiplicity that drives the derived cutoff past the series budget
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
def test_over_budget_input_is_refused_before_work(argv, capsys):
    start = time.perf_counter()
    assert main(list(argv)) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_budgets_admit_the_largest_documented_runs(capsys):
    # the benchmark's costliest restrict item, README's quillen range and a
    # --full-j range; prop2 --m 16..16 runs in the test below
    argv = ("restrict", "--n", "17", "--cutoff", "512", "--convention", "vector-rep",
            "--format", "json", "3*lambda6 + 3*lambda7 - 3*delta")
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, "quillen", "--n", "6..20", "--format", "md")[0] == 0
    assert run_cli(capsys, "quillen", "--n", "6..12", "--full-j")[0] == 0


@given(
    st.dictionaries(st.integers(-4, 4), st.integers(-8, 8), max_size=5),
    st.integers(1, 48),
)
@settings(max_examples=150, deadline=None)
def test_chern_bounds_cover_the_computed_series(weights, cutoff):
    bits, _ = _chern_bounds(weights, cutoff)
    widest = max(abs(c).bit_length() for c in total_chern(weights, cutoff).coeffs)
    assert widest <= bits


ORACLE_NAMES = {"MultiLaurent", "character_on_Tm", "elementary_symmetric", "oracles"}


def _package_modules() -> list:
    return [spinchern] + [
        importlib.import_module(f"spinchern.{info.name}")
        for info in pkgutil.iter_modules(spinchern.__path__)
    ]


def test_docstring_examples_hold():
    attempted = 0
    for module in _package_modules() + [oracles]:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    assert attempted >= 5


def test_cli_never_expands_full_torus_characters(capsys):
    # circle characters come from the closed forms; the T^m expansion and its
    # Laurent algebra live in tests/oracles.py only (at m = 16 the expansion
    # would not fit in memory), so no package module defines or imports them
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
    code, out = run_cli(capsys, "prop2", "--m", "16..16")
    assert code == 0
    assert "32/32 identities hold" in out
    for convention in ("paper-literal", "vector-rep"):
        assert run_cli(capsys, "theorem1", "--convention", convention)[0] == 0
    argv = ("restrict", "--n", "17", "--cutoff", "64", "3*delta + lambda1 - 2*lambda7")
    assert run_cli(capsys, *argv)[0] == 0


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
def test_options_that_change_no_result_are_not_offered(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---- determinism ----------------------------------------------------------------


def test_json_reports_are_byte_identical(capsys):
    _, first = run_cli(capsys, "theorem1", "--format", "json")
    _, second = run_cli(capsys, "theorem1", "--format", "json")
    assert first == second
    report = json.loads(first)
    assert report["all_passed"] is True
    assert [c["group"] for c in report["cases"]] == ["F4", "E6", "E7", "E8"]
    assert report["tool_version"]


# sha256 of theorem1 reports as printed before VerificationReport.to_dict
# became dataclasses.asdict; a report format change must update these on purpose
THEOREM1_DIGESTS = [
    (("--format", "json"),
     "c5dfc3ac74b6f23054adb1731c298c1005672f3d3b46356a44c8ce871ce2991b"),
    (("--format", "md"),
     "60fb526e2676b6a11b532e6ec1c54009074d7af4ed449aff33f98a6669e1c4f7"),
    (("--format", "plain"),
     "a68f75497e960e24ef7ee5b4fa831259cf61e615a220a2795caf71666736dc25"),
    (("--convention", "paper-literal", "--format", "json"),
     "20d94264ff6b1e66eef6e54e6082596f1643821079b064fbb1c0eda83733f406"),
    (("--convention", "paper-literal", "--format", "md"),
     "60fb526e2676b6a11b532e6ec1c54009074d7af4ed449aff33f98a6669e1c4f7"),
    (("--convention", "paper-literal", "--format", "plain"),
     "a68f75497e960e24ef7ee5b4fa831259cf61e615a220a2795caf71666736dc25"),
    (("--group", "E8", "--format", "json"),
     "c481effda542e9b42b20fb5a7edb70005cc7043b096530d996f853fdd47ca0f4"),
]


@pytest.mark.parametrize("argv,digest", THEOREM1_DIGESTS)
def test_theorem1_reports_are_pinned(argv, digest, capsys):
    code, out = run_cli(capsys, "theorem1", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the other reports as printed before the mod-2 classes came from
# the odd-weight count (the md report of "3 - lambda1" after it gained its
# "- minus:" line); a report format change must update these on purpose
REPORT_DIGESTS = [
    (("prop2", "--m", "3..12", "--format", "json"),
     "a9faef93dfd4ec1a9b88f4acb00c4396f485cbd67bb7de6497029d1b8934cb79"),
    (("prop2", "--m", "3..12", "--format", "md"),
     "8d91d4d87b75cb57b55b5449c8a3e8973125e1fb0c0e8d0fadfde27fbbc3e8f6"),
    (("prop2", "--m", "3..12", "--format", "plain"),
     "47910f2a2480316f643563485faeca11da8e2844a32aee530e169f72c0919d78"),
    # the top of the prop2 range, at the cutoffs it derives
    (("prop2", "--m", "13..16", "--format", "md"),
     "caee14679d8e97b9b513ea83f50fad6c6085e3ebd201be432de49a600a3128b8"),
    (("quillen", "--n", "6..16", "--format", "json"),
     "3fdbc448f9b6855e6433a0aedecf38065638904c7cdde470c7fa31d0e75ceeda"),
    (("quillen", "--n", "6..16", "--format", "md"),
     "8672532110434b8d83e2858599a9d72541733e1d7afcaea952ad4f56a7cd2f3c"),
    (("quillen", "--n", "6..16", "--format", "plain"),
     "e62e7fad4b84fa44b1aaf0c4689808ce520728924d3abb7493e7f737c2a3fb35"),
    (("restrict", "--n", "12", "--format", "json", "2*lambda1 + delta-"),
     "69e74cd4b38ebb8531331865ceae5beb365938a9d9dac914b0a26e1f1ffb69ef"),
    (("restrict", "--n", "12", "--format", "md", "2*lambda1 + delta-"),
     "94f0fd4ac347e81832f76ec238c969aab6bce5d95d7276c20c1c9e245d8e2db5"),
    (("restrict", "--n", "12", "--format", "plain", "2*lambda1 + delta-"),
     "fbad74eeba3246c2e7c86d779618ae43a1cebbe18f7b8eb8be1622a7b55bc101"),
    (("restrict", "--n", "9", "--format", "json", "3 + lambda1 + delta"),
     "3512acf6e8553521dad8d8ba9f7aeb82470bf92cdf2533ca8154cf381d92e6b4"),
    (("restrict", "--n", "9", "--format", "md", "3 + lambda1 + delta"),
     "691ed070de4ccf94f82f2b42ea71afafa8f4dbae11902176cceca5eb54e53426"),
    (("restrict", "--n", "9", "--format", "plain", "3 + lambda1 + delta"),
     "3c3322b8725b5348f277c9c77539647a08e7bd74c781cffa6bf2e8489821fc7e"),
    (("restrict", "--n", "12", "--format", "json", "3 - lambda1"),
     "94db5e99680b8cdb214202215c85687a9d56a3e85b4f631bc589f66f044ed22c"),
    (("restrict", "--n", "12", "--format", "md", "3 - lambda1"),
     "929213f7cffe0f48a7944ed380a808d191614c2b3f7ade0aecb4b489b4f11052"),
    (("restrict", "--n", "12", "--format", "plain", "3 - lambda1"),
     "6a4cd20846a4b10b7281c0acdaad0c1037d83f4d22819788f7782fdb1a2b68d6"),
    (("restrict", "--n", "12", "--cutoff", "64", "--format", "json", "3*delta+ - lambda2"),
     "f226cce748cce717026a31419bfdfc7f396f1a99519977b549dbfaa8f691205d"),
    (("restrict", "--n", "12", "--cutoff", "64", "--format", "plain", "3*delta+ - lambda2"),
     "8a541594e62206193c878d677632a207501e4ad842876db4019c6837d65ee083"),
    # theta_8 and theta_9 at n = 17 and 18; the benchmark's reference digest
    (("quillen", "--n", "6..18", "--full-j", "--format", "json"),
     "468b2710b946e1dc6851d87d583c77d198c665d2f9907d130c3e7b6985cfcd70"),
    # md and plain print the J degrees only, so --full-j up to n = 20 is cheap
    (("quillen", "--n", "17..20", "--full-j", "--format", "md"),
     "0db14658335227aac41d3537a8f75ef792f93400406a828dbb18b8f73501161a"),
    (("quillen", "--n", "17..20", "--full-j", "--format", "plain"),
     "b2813ef2c6341067ad42b027f383e5c8778d89b1a0bad5e51e7e4746091a0cad"),
    # the other two formats of the top of the prop2 range
    (("prop2", "--m", "13..16", "--format", "json"),
     "3e95cc6540254e83837142245536ee0123faf9199ececceeb2aa9fce40045d95"),
    (("prop2", "--m", "13..16", "--format", "plain"),
     "b037d76584f78ae77a86d2c9c8876f0b41719a0a2c70e4960befd1fb9bac8a50"),
]


@pytest.mark.parametrize("argv,digest", REPORT_DIGESTS)
def test_reports_are_pinned(argv, digest, capsys):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_report_fields(capsys):
    _, out = run_cli(capsys, "theorem1", "--group", "E6", "--format", "json")
    case = json.loads(out)["cases"][0]
    for key in (
        "group", "n", "h", "class_kind", "total_class", "top_class",
        "expected", "verdicts", "dimensions", "notes",
    ):
        assert key in case
    assert case["verdicts"]["membership"] == "in-image"
    assert case["verdicts"]["indecomposability"] == "indecomposable"
    assert case["total_class"] == {"0": 1, "16": 1}


def test_markdown_format(capsys):
    _, out = run_cli(capsys, "theorem1", "--format", "md")
    assert "| G | spin group |" in out
    assert "| n | m | h | deg z |" in out
    _, out = run_cli(capsys, "quillen", "--n", "9..10", "--format", "md")
    assert "| n | m | type | h | deg z |" in out


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["quillen", "--n", "9", "--format", "json", "--out", str(target)])
    assert code == 0
    data = json.loads(target.read_text())
    assert data["rows"][0]["deg_z"] == 16
    assert data["rows"][0]["note"]


def test_out_to_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.txt"
    code = main(["prop2", "--m", "3..3", "--out", str(target)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_stdout_write_error_is_usage_error():
    env = {**os.environ, "PYTHONPATH": str(Path(spinchern.__file__).parent.parent)}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "spinchern.cli", "prop2", "--m", "3..4"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_quillen_json_schema(capsys):
    _, out = run_cli(capsys, "quillen", "--n", "9..12", "--format", "json")
    data = json.loads(out)
    rows = {r["n"]: r for r in data["rows"]}
    assert rows[9]["type"] == "R" and rows[9]["h"] == 4
    assert rows[10]["type"] == "C" and rows[10]["h"] == 5
    assert rows[11]["type"] == "H" and rows[11]["h"] == 6
    assert rows[12]["type"] == "H" and rows[12]["h"] == 6
    assert rows[9]["j_degrees"] == [2, 3, 5, 9]
    assert data["discrepancies"] == 2  # n = 9 and n = 11


def test_spawned_process_exit_codes():
    # the exit-code contract holds for the module entry point too; the child
    # imports the same package as this process, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(spinchern.__file__).parent.parent)}
    ok = subprocess.run(
        [sys.executable, "-m", "spinchern.cli", "theorem1", "--group", "F4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert ok.returncode == 0, ok.stderr
    assert "indecomposable" in ok.stdout

    usage = subprocess.run(
        [sys.executable, "-m", "spinchern.cli", "prop2", "--m", "1..2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert usage.returncode == 2
    assert "error:" in usage.stderr


def test_python_dash_m_spinchern_runs_the_cli(capsys):
    env = {**os.environ, "PYTHONPATH": str(Path(spinchern.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "spinchern", "quillen", "--n", "9"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(capsys, "quillen", "--n", "9")[1]


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
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses malformed options itself
            code = exc.code
    assert code in (0, 1, 2)
