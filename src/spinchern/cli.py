"""Command-line front end: verification suites and one-off restrictions.

Four subcommands:

* ``prop2``     -- sweep the mod-2 total Chern class identities of the
                   circle-restricted generators over a range of torus ranks.
* ``theorem1``  -- run the exceptional-group verification pipeline.
* ``quillen``   -- emit spinor type, h, deg z and the ideal generators of
                   the BSpin presentation for a range of n.
* ``restrict``  -- restrict an expression to the circle and print its
                   classes.

Exit codes: 0 all checks pass, 1 a verification mismatch, 2 a usage error or
an unwritable ``--out`` path.
Identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from . import __version__
from .char_classes import (
    mod2,
    total_chern,
    total_chern_virtual,
    total_sw_real,
    weights_from_character,
)
from .exceptional import GROUP_ORDER, get_case, verify_case, verify_remark_generation
from .laurent import TruncatedPoly
from .spin_reps import (
    CONVENTIONS,
    DELTA,
    DELTA_MINUS,
    DELTA_PLUS,
    PAPER_LITERAL,
    VECTOR_REP,
    RepSymbol,
    SpinGroup,
    character_on_T1,
    lam,
    parse_expr,
    quillen_h,
)
from .steenrod import j_degrees_expected, j_ideal_generators

USAGE_ERROR = 2
MISMATCH = 1

# j-generator polynomials above this degree are expensive to expand and are
# reported by degree only (override with --full-j).
DEFAULT_J_POLY_LIMIT = 65


class UsageError(Exception):
    pass


def _parse_range(text: str, what: str) -> tuple[int, int]:
    """Parse 'A..B' or a single integer into an inclusive range."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"cannot parse {what} range {text!r}; use N or A..B") from None
    if lo > hi:
        raise UsageError(f"empty {what} range {text!r}")
    return lo, hi


def _expected_delta_class(m: int, even: bool, cutoff: int) -> TruncatedPoly:
    exp = 2 ** (m - 1) if even else 2**m
    return TruncatedPoly.from_dict("F2", cutoff, {0: 1, exp: 1})


def run_prop2(m_lo: int, m_hi: int, convention: str, cutoff: int | None) -> dict:
    """Check that the mod-2 total Chern class of every generator's circle
    restriction is 1 for the exterior powers and 1 + u^dim for the spinors."""
    if not 3 <= m_lo <= m_hi <= 16:
        raise UsageError(f"m range must sit inside 3..16, got {m_lo}..{m_hi}")
    checks = []
    all_pass = True
    for m in range(m_lo, m_hi + 1):
        for n in (2 * m, 2 * m + 1):
            g = SpinGroup(n)
            spin_dim = 2 ** (m - 1) if g.is_even else 2**m
            cut = cutoff if cutoff is not None else 2 * spin_dim
            if cut < spin_dim:
                raise UsageError(
                    f"cutoff {cut} cannot see the top class at u^{spin_dim} for n={n}"
                )
            symbols: list[RepSymbol] = [lam(i) for i in range(1, g.max_lambda_index() + 1)]
            symbols += [DELTA_PLUS, DELTA_MINUS] if g.is_even else [DELTA]
            for sym in symbols:
                ch = character_on_T1(g, sym, convention)
                series = total_chern(weights_from_character(ch), cut, "F2")
                if sym.kind == "lambda":
                    expected = TruncatedPoly.one("F2", cut)
                else:
                    expected = _expected_delta_class(m, g.is_even, cut)
                ok = series == expected
                all_pass = all_pass and ok
                checks.append(
                    {
                        "m": m,
                        "n": n,
                        "symbol": str(sym),
                        "computed": str(series),
                        "expected": str(expected),
                        "pass": ok,
                    }
                )
    return {
        "command": "prop2",
        "tool_version": __version__,
        "convention": convention,
        "m_range": f"{m_lo}..{m_hi}",
        "checks": checks,
        "total": len(checks),
        "passed": sum(1 for c in checks if c["pass"]),
        "all_passed": all_pass,
    }


def run_theorem1(groups: list[str], convention: str, cutoff: int | None) -> dict:
    cases = []
    all_passed = True
    for name in GROUP_ORDER:
        if name not in groups:
            continue
        case = get_case(name)
        try:
            report = verify_case(case, cutoff=cutoff, convention=convention)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        entry = report.to_dict()
        entry["generates_image"] = verify_remark_generation(case, report)
        entry["target"] = case.target
        cases.append(entry)
        all_passed = all_passed and report.passed and entry["generates_image"]
    return {
        "command": "theorem1",
        "tool_version": __version__,
        "convention": convention,
        "cases": cases,
        "all_passed": all_passed,
    }


def run_quillen(n_lo: int, n_hi: int, full_j: bool) -> dict:
    if n_lo < 6:
        raise UsageError(f"n must be >= 6, got {n_lo}")
    rows = []
    for n in range(n_lo, n_hi + 1):
        info = quillen_h(n)
        expected_degrees = j_degrees_expected(info.h)
        limit = None if full_j else DEFAULT_J_POLY_LIMIT
        if limit is None or expected_degrees[-1] <= limit:
            pres = j_ideal_generators(n)
            gens = [str(g) for g in pres.generators]
            degrees = list(pres.degrees)
            truncated = False
        else:
            depth = sum(1 for d in expected_degrees if d <= limit)
            pres = j_ideal_generators(n, depth=depth)
            gens = [str(g) for g in pres.generators]
            degrees = expected_degrees
            truncated = True
        row = {
            "n": n,
            "m": n // 2,
            "type": info.type,
            "h": info.h,
            "deg_z": info.deg_z,
            "table_h": info.table_h,
            "note": info.note,
            "j_degrees": degrees,
            "generators": gens,
            "generators_truncated": truncated,
        }
        rows.append(row)
    return {
        "command": "quillen",
        "tool_version": __version__,
        "rows": rows,
        "discrepancies": sum(1 for r in rows if r["note"]),
    }


def run_restrict(n: int, expression: str, convention: str, cutoff: int | None) -> dict:
    if n < 6:
        raise UsageError(f"n must be >= 6, got {n}")
    try:
        expr = parse_expr(expression)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    g = SpinGroup(n)
    try:
        ch = character_on_T1(g, expr, convention)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    pos: dict[int, int] = {}
    neg: dict[int, int] = {}
    for exps, coeff in ch.items():
        (pos if coeff > 0 else neg)[exps[0]] = abs(coeff)
    moving = sum(a for k, a in pos.items() if k) + sum(a for k, a in neg.items() if k)
    cut = cutoff if cutoff is not None else max(16, 2 * moving)
    if cut < 1:
        raise UsageError(f"cutoff must be positive, got {cut}")

    virtual = bool(neg)
    if virtual:
        chern = total_chern_virtual(pos, neg, cut)
    else:
        chern = total_chern(pos, cut)
    palindromic = ch.is_palindromic()
    sw = None
    if palindromic and not virtual:
        sw = str(total_sw_real(ch, cut))

    return {
        "command": "restrict",
        "tool_version": __version__,
        "n": n,
        "expression": str(expr),
        "convention": convention,
        "cutoff": cut,
        "character": str(ch),
        "dimension": ch.evaluate_at_one(),
        "virtual": virtual,
        "weights": {str(k): pos[k] for k in sorted(pos)},
        "negative_weights": {str(k): neg[k] for k in sorted(neg)},
        "total_chern": {str(k): v for k, v in sorted(chern.sparse().items())},
        "total_chern_str": str(chern),
        "total_chern_mod2": str(mod2(chern)),
        "palindromic": palindromic,
        "total_sw": sw,
    }


# ---- rendering ------------------------------------------------------------


def _render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _md_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines


def _render_md(report: dict) -> str:
    cmd = report["command"]
    lines = [f"# {cmd} report", ""]
    if cmd == "prop2":
        lines.append(f"Convention: `{report['convention']}`; range m = {report['m_range']}.")
        lines.append("")
        rows = [
            [str(c["m"]), str(c["n"]), c["symbol"], f"`{c['computed']}`",
             f"`{c['expected']}`", "pass" if c["pass"] else "FAIL"]
            for c in report["checks"]
        ]
        lines += _md_table(["m", "n", "symbol", "computed", "expected", "verdict"], rows)
        lines += ["", f"{report['passed']}/{report['total']} identities hold."]
    elif cmd == "theorem1":
        spin_rows = []
        case_rows = []
        for c in report["cases"]:
            spin_rows.append(
                [str(c["n"]), str(c["n"] // 2), str(c["h"]), str(2 ** c["h"])]
            )
            case_rows.append(
                [
                    c["group"],
                    f"Spin({c['n']})",
                    c["class_kind"],
                    str(c["dimensions"]["vector_rep"]),
                    str(2 ** c["h"]),
                    f"`{c['total_class_str']}`",
                    c["verdicts"]["indecomposability"],
                    "pass" if c["passed"] else "FAIL",
                ]
            )
        lines += _md_table(["n", "m", "h", "deg z"], spin_rows)
        lines.append("")
        lines += _md_table(
            ["G", "spin group", "kind", "dim", "deg z", "total class", "top class verdict", "case"],
            case_rows,
        )
        notes = [f"- {c['group']}: {note}" for c in report["cases"] for note in c["notes"]]
        if notes:
            lines += ["", "Notes:", *notes]
        lines += ["", f"All passed: {report['all_passed']}."]
    elif cmd == "quillen":
        rows = [
            [
                str(r["n"]), str(r["m"]), r["type"], str(r["h"]), str(r["deg_z"]),
                str(r["j_degrees"]),
                r["note"] or "",
            ]
            for r in report["rows"]
        ]
        lines += _md_table(["n", "m", "type", "h", "deg z", "J degrees", "note"], rows)
    else:  # restrict
        lines.append(f"Spin({report['n']}), expression `{report['expression']}`.")
        lines.append("")
        lines.append(f"- character: `{report['character']}`")
        lines.append(f"- dimension: {report['dimension']}")
        lines.append(f"- weights: `{report['weights']}`")
        lines.append(f"- total Chern class: `{report['total_chern_str']}`")
        lines.append(f"- mod 2: `{report['total_chern_mod2']}`")
        if report["total_sw"] is not None:
            lines.append(f"- total SW class: `{report['total_sw']}`")
    return "\n".join(lines) + "\n"


def _render_plain(report: dict) -> str:
    cmd = report["command"]
    lines: list[str] = []
    if cmd == "prop2":
        for c in report["checks"]:
            verdict = "pass" if c["pass"] else "FAIL"
            lines.append(
                f"m={c['m']:>2} n={c['n']:>2} {c['symbol']:<10} {c['computed']} [{verdict}]"
            )
        lines.append(f"{report['passed']}/{report['total']} identities hold")
    elif cmd == "theorem1":
        for c in report["cases"]:
            verdict = "PASS" if c["passed"] else "FAIL"
            lines.append(
                f"{c['group']}: Spin({c['n']}) {c['class_kind']} total {c['total_class_str']}; "
                f"top {c['top_class']} {c['verdicts']['indecomposability']}; "
                f"dim {c['dimensions']['vector_rep']}/{c['dimensions']['ambient']} [{verdict}]"
            )
            for note in c["notes"]:
                lines.append(f"  note: {note}")
        lines.append(f"all passed: {report['all_passed']}")
    elif cmd == "quillen":
        for r in report["rows"]:
            lines.append(
                f"n={r['n']:>2} m={r['m']:>2} type={r['type']} h={r['h']} "
                f"deg_z={r['deg_z']} J degrees {r['j_degrees']}"
            )
            if r["note"]:
                lines.append(f"  note: {r['note']}")
    else:
        lines.append(f"Spin({report['n']})  {report['expression']}")
        lines.append(f"character: {report['character']}")
        lines.append(f"dimension: {report['dimension']}")
        weights = ", ".join(f"{k}: {a}" for k, a in report["weights"].items())
        lines.append(f"weights:   {{{weights}}}")
        if report["virtual"]:
            negs = ", ".join(f"{k}: {a}" for k, a in report["negative_weights"].items())
            lines.append(f"minus:     {{{negs}}}")
        lines.append(f"total Chern: {report['total_chern_str']}")
        lines.append(f"mod 2:      {report['total_chern_mod2']}")
        if report["total_sw"] is not None:
            lines.append(f"total SW:   {report['total_sw']}")
    return "\n".join(lines) + "\n"


_RENDERERS: dict[str, Callable[[dict], str]] = {
    "json": _render_json,
    "md": _render_md,
    "plain": _render_plain,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinchern",
        description="Exact characteristic-class computations for spin representations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_convention: str) -> None:
        p.add_argument("--convention", choices=CONVENTIONS, default=default_convention,
                       help="odd-n lambda convention (default: %(default)s)")
        p.add_argument("--cutoff", type=int, default=None,
                       help="truncation cutoff in powers of u (default: task-derived)")
        p.add_argument("--format", choices=("json", "md", "plain"), default="plain",
                       dest="fmt", help="report format (default: %(default)s)")
        p.add_argument("--out", default=None, help="write the report to this path")

    p = sub.add_parser("prop2", help="sweep the mod-2 total Chern class identities")
    p.add_argument("--m", default="3..12", help="torus rank range A..B (default: %(default)s)")
    add_common(p, PAPER_LITERAL)

    p = sub.add_parser("theorem1", help="verify the exceptional-group top classes")
    p.add_argument("--group", choices=("all",) + GROUP_ORDER, default="all")
    add_common(p, VECTOR_REP)

    p = sub.add_parser("quillen", help="spinor type, h, deg z and ideal generators")
    p.add_argument("--n", required=True, help="n or range A..B")
    p.add_argument("--full-j", action="store_true",
                   help="expand ideal generator polynomials of every degree")
    p.add_argument("--format", choices=("json", "md", "plain"), default="plain", dest="fmt")
    p.add_argument("--out", default=None)

    p = sub.add_parser("restrict", help="restrict an expression to the circle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("expression", help="e.g. '8 + lambda2 + delta+' or '2*lambda1 + delta-'")
    add_common(p, PAPER_LITERAL)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "prop2":
            m_lo, m_hi = _parse_range(args.m, "m")
            report = run_prop2(m_lo, m_hi, args.convention, args.cutoff)
            code = 0 if report["all_passed"] else MISMATCH
        elif args.command == "theorem1":
            groups = list(GROUP_ORDER) if args.group == "all" else [args.group]
            report = run_theorem1(groups, args.convention, args.cutoff)
            code = 0 if report["all_passed"] else MISMATCH
        elif args.command == "quillen":
            n_lo, n_hi = _parse_range(args.n, "n")
            report = run_quillen(n_lo, n_hi, args.full_j)
            code = 0
        else:
            report = run_restrict(args.n, args.expression, args.convention, args.cutoff)
            code = 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    text = _RENDERERS[args.fmt](report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
