"""Tests for the command-line interface: exit codes, formats, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinchern
from spinchern.char_classes import total_chern
from spinchern.cli import main
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


def test_restrict_bad_expression(capsys):
    assert main(["restrict", "--n", "9", "nonsense(3)"]) == 2


def test_restrict_symbol_invalid_for_parity(capsys):
    assert main(["restrict", "--n", "10", "delta"]) == 2


def test_theorem1_cutoff_too_small_is_usage_error(capsys):
    assert main(["theorem1", "--group", "E8", "--cutoff", "8"]) == 2


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
        ("prop2", "--m", "3..3", "--cutoff", "99999999999999999999"),
        ("theorem1", "--cutoff", "99999999999999999999"),
    ],
)
def test_unallocatable_cutoff_is_usage_error(argv, capsys):
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_never_expands_full_torus_characters(monkeypatch, capsys):
    # circle characters come from the closed forms; the T^m expansion is the
    # tests' oracle only, and at m = 16 it would not fit in memory
    def refuse(*args, **kwargs):
        raise AssertionError("character_on_Tm called from the CLI")

    monkeypatch.setattr("spinchern.spin_reps.character_on_Tm", refuse)
    code, out = run_cli(capsys, "prop2", "--m", "16..16")
    assert code == 0
    assert "32/32 identities hold" in out
    for convention in ("paper-literal", "vector-rep"):
        assert run_cli(capsys, "theorem1", "--convention", convention)[0] == 0
    argv = ("restrict", "--n", "17", "--cutoff", "64", "3*delta + lambda1 - 2*lambda7")
    assert run_cli(capsys, *argv)[0] == 0


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
