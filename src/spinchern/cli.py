"""Command-line front end: verification suites and one-off restrictions.

Four subcommands:

* ``prop2``     -- sweep the mod-2 total Chern class identities of the
                   circle-restricted generators over a range of torus ranks.
* ``theorem1``  -- run the exceptional-group verification pipeline.
* ``quillen``   -- emit spinor type, h, deg z and the ideal generators of
                   the BSpin presentation for a range of n.
* ``restrict``  -- restrict an expression to the circle and print its
                   classes.

Every subcommand takes ``--format`` and ``--out``.  An option is offered
only where it can change a result: ``--convention`` for ``theorem1`` and
``restrict``, ``--cutoff`` for ``restrict``.  ``prop2`` and ``theorem1``
cut each series at twice the degree of the class they check; mod 2 a class
depends only on the count of odd circle weights, which neither the cutoff
nor the odd-n lambda convention (it moves the weights 0 and +-2) changes.

Exit codes: 0 all checks pass, 1 a verification mismatch, 2 a usage error,
an input over one of the ``MAX_*`` budgets (estimated from closed forms
before any work), or a report that cannot be written (``--out`` or stdout).
Identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Callable

from . import __version__
from .char_classes import TruncatedPoly, is_palindromic, mod2, total_chern, total_sw_real
from .exceptional import GROUP_ORDER, verify_all
from .spin_reps import (
    CONVENTIONS,
    DELTA,
    DELTA_MINUS,
    DELTA_PLUS,
    PAPER_LITERAL,
    VECTOR_REP,
    RepSymbol,
    SpinGroup,
    circle_weights,
    format_character,
    lam,
    parse_expr,
    quillen_h,
    shown,
)
from .steenrod import j_degrees_expected, j_ideal_generators

USAGE_ERROR = 2
MISMATCH = 1

# json reports expand the ideal generator polynomials up to this degree and
# give the larger ones by degree only (override with --full-j).
DEFAULT_J_POLY_LIMIT = 65

# Input budgets, estimated from closed forms and checked before any work.
MAX_N = 1024  # quillen and restrict; a quillen row at n holds ~n^2/8 bits of degrees
MAX_QUILLEN_ROWS = 128  # a row costs ~0.03 s and 82-132 KB of json report (n 6..1024)
# json --full-j up to n = 20, where the degree-513 generator has 2,534,841 terms.
# The largest request accepted, `quillen --n 19..20 --full-j`, has two such
# rows: its 166.8 MB report took 33-45 s and 763 MiB peak RSS, against 23-28 s,
# 686 MiB and 92.3 MB for n = 20 alone (2-vCPU VM, Python 3.11), most of it
# the packed terms and the printed report
MAX_FULL_J_DEGREE = 513
MAX_SERIES_TERMS = 2**18  # coefficients of one truncated series
MAX_SERIES_BITS = 2**24  # one integral series, all its coefficients together
MAX_COEFF_BITS = 14_000  # one printed integer; Python prints at most 4300 digits
MAX_PRODUCT_WORK = 2**28  # coefficient products, each weighted by 8 + its 64-bit limbs
MAX_DIGITS = 4300  # one numeral in an argument: Python's default int/str conversion limit


class UsageError(Exception):
    pass


def _log2_binom(n: int, k: int) -> float:
    """An upper bound on log2 binom(n, k), from binom(n, k) <= (e n / k)^k."""
    k = min(k, n - k)
    return k * (math.log2(math.e) + math.log2(n) - math.log2(k)) if k > 0 else 0.0


def _chern_bounds(weights: dict[int, int], cutoff: int) -> tuple[int, int]:
    """Upper bounds on the bit length of every coefficient of
    ``total_chern(weights, cutoff)`` and on its coefficient products.

    With c the cutoff, K the largest moving |weight| and A, B the positive
    and negative moving multiplicities, the u^j coefficient of
    prod (1 + k u)^a_k is at most that of (1 + K u)^A (1 - K u)^-B, which is
    at most K^j min(2^A, binom(A + c, c)) binom(c + B - 1, c) (the last
    factor is 1 when B = 0, and then also j <= A).  ``total_chern``
    multiplies the factors in one at a time, each product at most c + 1
    times the factor's length: min(a, c) + 1, or c + 1 for a series.
    """
    moving = {k: a for k, a in weights.items() if k and a}
    if not moving:
        return 1, 0
    a_pos = sum(a for a in moving.values() if a > 0)
    b_neg = -sum(a for a in moving.values() if a < 0)
    top = cutoff if b_neg else min(cutoff, a_pos)
    log_coeff = (
        top * math.log2(max(abs(k) for k in moving))
        + min(a_pos, _log2_binom(a_pos + cutoff, cutoff))
        + _log2_binom(cutoff + b_neg - 1, cutoff)
    )
    lengths = (min(a, cutoff) + 1 if a > 0 else cutoff + 1 for a in moving.values())
    return 1 + math.ceil(log_coeff), (cutoff + 1) * sum(lengths)


def _check_chern_budget(weights: dict[int, int], cutoff: int) -> None:
    """Refuse an integral total Chern class over budget, before building it.

    The widest printed integer is a Chern coefficient or a multiplicity.
    """
    if cutoff + 1 > MAX_SERIES_TERMS:
        raise UsageError(
            f"a {cutoff.bit_length()}-bit cutoff is over the {MAX_SERIES_TERMS}-coefficient budget"
        )
    bits, products = _chern_bounds(weights, cutoff)
    bits = max(bits, max((abs(a) for a in weights.values()), default=0).bit_length())
    if (
        bits > MAX_COEFF_BITS
        or (cutoff + 1) * bits > MAX_SERIES_BITS
        or products * (8 + bits // 64) > MAX_PRODUCT_WORK
    ):
        raise UsageError(
            f"the total Chern class up to u^{cutoff} may need {bits}-bit coefficients "
            f"and {products} coefficient products; that is over budget"
        )


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
        raise UsageError(f"cannot parse {what} range {shown(text)}; use N or A..B") from None
    if lo > hi:
        raise UsageError(f"empty {what} range {shown(text)}")
    return lo, hi


def run_prop2(m_lo: int, m_hi: int) -> dict:
    """Check that the mod-2 total Chern class of every generator's circle
    restriction is 1 for the exterior powers and 1 + u^dim for the spinors.

    Each series is cut at twice the spinor dimension, past the top class.
    """
    if not 3 <= m_lo <= m_hi <= 16:
        raise UsageError(f"m range must sit inside 3..16, got {shown(m_lo)}..{shown(m_hi)}")
    checks = []
    for m in range(m_lo, m_hi + 1):
        for n in (2 * m, 2 * m + 1):
            g = SpinGroup(n)
            symbols: list[RepSymbol] = [lam(i) for i in range(1, g.max_lambda_index() + 1)]
            symbols += [DELTA_PLUS, DELTA_MINUS] if g.is_even else [DELTA]
            weights = [circle_weights(g, sym, PAPER_LITERAL) for sym in symbols]
            cut = 2 * sum(weights[-1].values())
            for sym, w in zip(symbols, weights):
                series = total_chern(w, cut, "F2")
                terms = {0: 1} if sym.kind == "lambda" else {0: 1, sum(w.values()): 1}
                expected = TruncatedPoly("F2", cut, terms)
                checks.append({"m": m, "n": n, "symbol": str(sym), "computed": str(series),
                               "expected": str(expected), "pass": series == expected})
    return {
        "command": "prop2",
        "tool_version": __version__,
        "convention": PAPER_LITERAL,
        "m_range": f"{m_lo}..{m_hi}",
        "checks": checks,
        "total": len(checks),
        "passed": sum(1 for c in checks if c["pass"]),
        "all_passed": all(c["pass"] for c in checks),
    }


def run_theorem1(groups: list[str] | None, convention: str) -> dict:
    reports = verify_all(groups, convention=convention)
    return {
        "command": "theorem1",
        "tool_version": __version__,
        "convention": convention,
        "cases": [r._asdict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }


def run_quillen(n_lo: int, n_hi: int, full_j: bool, generators: bool = True) -> dict:
    """The Quillen table rows for n_lo..n_hi.  With ``generators`` each row
    also carries the ideal generator polynomials up to degree
    ``DEFAULT_J_POLY_LIMIT`` (every degree under ``full_j``); md and plain
    reports print only their degrees, so they expand none, and only json
    reports meet the ``--full-j`` budget."""
    if not 6 <= n_lo <= n_hi <= MAX_N:
        raise UsageError(f"n range must sit inside 6..{MAX_N}, got {shown(n_lo)}..{shown(n_hi)}")
    if n_hi - n_lo + 1 > MAX_QUILLEN_ROWS:
        raise UsageError(f"{n_hi - n_lo + 1} rows requested; the budget is {MAX_QUILLEN_ROWS}")
    if generators and full_j and 2 ** (quillen_h(n_hi).h - 1) + 1 > MAX_FULL_J_DEGREE:
        raise UsageError(f"--full-j stops at degree {MAX_FULL_J_DEGREE} (n <= 20), got n = {n_hi}")
    max_degree = None if full_j else DEFAULT_J_POLY_LIMIT
    rows = []
    for n in range(n_lo, n_hi + 1):
        info = quillen_h(n)
        row = {
            "n": n,
            "m": n // 2,
            "type": info.type,
            "h": info.h,
            "deg_z": info.deg_z,
            "table_h": info.table_h,
            "note": info.note,
            "j_degrees": j_degrees_expected(info.h),
        }
        if generators:
            gens = j_ideal_generators(n, max_degree)
            row["generators"] = [str(g) for g in gens]
            row["generators_truncated"] = len(gens) < info.h
        rows.append(row)
    return {
        "command": "quillen",
        "tool_version": __version__,
        "rows": rows,
        "discrepancies": sum(1 for r in rows if r["note"]),
    }


def run_restrict(n: int, expression: str, convention: str, cutoff: int | None) -> dict:
    if not 6 <= n <= MAX_N:
        raise UsageError(f"n must sit inside 6..{MAX_N}, got {shown(n)}")
    try:
        expr = parse_expr(expression)
        weights = circle_weights(SpinGroup(n), expr, convention)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    pos = {k: a for k, a in weights.items() if a > 0}
    neg = {k: -a for k, a in weights.items() if a < 0}
    moving = sum(abs(a) for k, a in weights.items() if k)
    cut = cutoff if cutoff is not None else max(16, 2 * moving)
    if cut < 1:
        raise UsageError(f"cutoff must be positive, got {cut}")
    _check_chern_budget(weights, cut)

    chern = total_chern(weights, cut)
    virtual = bool(neg)
    palindromic = is_palindromic(weights)
    sw = str(total_sw_real(weights, cut)) if palindromic and not virtual else None

    return {
        "command": "restrict",
        "tool_version": __version__,
        "n": n,
        "expression": str(expr),
        "convention": convention,
        "cutoff": cut,
        "character": format_character(weights),
        "dimension": sum(weights.values()),
        "virtual": virtual,
        "weights": {str(k): pos[k] for k in sorted(pos)},
        "negative_weights": {str(k): neg[k] for k in sorted(neg)},
        "total_chern": {str(k): v for k, v in chern.terms.items()},
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
        if report["virtual"]:
            lines.append(f"- minus: `{report['negative_weights']}`")
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


class _Parser(argparse.ArgumentParser):
    """argparse, with a rejected value named by :func:`shown`, not repeated
    in full; its subcommand parsers are of this class too."""

    def _get_value(self, action, arg_string):
        try:
            return super()._get_value(action, arg_string)
        except argparse.ArgumentError:
            raise argparse.ArgumentError(
                action, f"invalid {action.type.__name__} value: {shown(arg_string)}"
            ) from None

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {shown(value)} (choose from {choices})"
            )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinchern",
        description="Exact characteristic-class computations for spin representations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("json", "md", "plain"), default="plain",
                       dest="fmt", help="report format (default: %(default)s)")
        p.add_argument("--out", default=None, help="write the report to this path")
        return p

    p = subcommand("prop2", "sweep the mod-2 total Chern class identities")
    p.add_argument("--m", default="3..12", help="torus rank range A..B (default: %(default)s)")

    p = subcommand("theorem1", "verify the exceptional-group top classes")
    p.add_argument("--group", choices=("all",) + GROUP_ORDER, default="all")
    p.add_argument("--convention", choices=CONVENTIONS, default=VECTOR_REP,
                   help="odd-n lambda convention (default: %(default)s)")

    p = subcommand("quillen", "spinor type, h, deg z and ideal generators")
    p.add_argument("--n", required=True, help="n or range A..B")
    p.add_argument("--full-j", action="store_true",
                   help="in json reports, expand ideal generator polynomials of every "
                        "degree (n <= 20); md and plain reports expand none")

    p = subcommand("restrict", "restrict an expression to the circle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("expression", nargs="?",
                   help="e.g. '8 + lambda2 + delta+' or '2*lambda1 + delta-'; "
                        "one that starts with '-' goes after '--'")
    p.add_argument("--convention", choices=CONVENTIONS, default=PAPER_LITERAL,
                   help="odd-n lambda convention (default: %(default)s)")
    p.add_argument("--cutoff", type=int, default=None,
                   help="truncation cutoff in powers of u (default: task-derived)")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    digits = max((len(run) for arg in argv for run in re.findall(r"\d+", arg)), default=0)
    if digits > MAX_DIGITS:  # refused by its length: int() fails on it and argparse echoes it
        sys.stderr.write(f"error: a {digits}-digit number is over the {MAX_DIGITS}-digit limit\n")
        return USAGE_ERROR
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.command == "restrict" and args.expression is None:
        # argparse takes a dash-led expression such as -3*lambda1 for an option
        if extra and not extra[0].startswith("--"):
            parser.error("an expression that starts with '-' must follow '--', as in "
                         f"restrict --n {args.n} -- {shown(extra[0])}")
        parser.error("the following arguments are required: expression")
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(map(shown, extra))}")
    try:
        if args.command == "prop2":
            m_lo, m_hi = _parse_range(args.m, "m")
            report = run_prop2(m_lo, m_hi)
            code = 0 if report["all_passed"] else MISMATCH
        elif args.command == "theorem1":
            groups = None if args.group == "all" else [args.group]
            report = run_theorem1(groups, args.convention)
            code = 0 if report["all_passed"] else MISMATCH
        elif args.command == "quillen":
            n_lo, n_hi = _parse_range(args.n, "n")
            report = run_quillen(n_lo, n_hi, args.full_j, generators=args.fmt == "json")
            code = 0
        else:
            report = run_restrict(args.n, args.expression, args.convention, args.cutoff)
            code = 0
    except (UsageError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    text = _RENDERERS[args.fmt](report)
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
