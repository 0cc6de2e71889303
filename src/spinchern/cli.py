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
``restrict``, ``--cutoff`` for ``restrict``.  ``SUBCOMMANDS`` lists each
subcommand's help and options, and a call builds the parser of the
subcommand it names alone (all four for ``--help`` or a typo).  ``prop2``
and ``theorem1`` cut each series at twice the degree of the class they
check; mod 2 a class depends only on the count of odd circle weights, which
neither the cutoff nor the odd-n lambda convention (it moves the weights 0
and +-2) changes.

Exit codes: 0 all checks pass, 1 a verification mismatch, 2 a usage error,
an input over one of the ``MAX_*`` budgets (estimated from closed forms
before any work), or a report that cannot be written: an unwritable
``--out`` path (the empty one too), a closed stdout or a failing write.
``--out`` is opened before the work, as a shell's ``>`` is, so a run that
then fails leaves the file empty.  An ``error:`` line that cannot be written
still exits 2.
Identical inputs produce byte-identical reports.  ``restrict`` has two
budgets, charged on the series ``total_chern`` builds: its widest printed
integer (``MAX_COEFF_BITS``) and its coefficient products, each weighted by
8 + its 64-bit limbs (``MAX_PRODUCT_WORK``).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import Callable, Sequence

from . import __version__
from .char_classes import TruncatedPoly, is_palindromic, mod2, total_chern, total_sw_real
from .exceptional import GROUP_ORDER, verify_all
from .spin_reps import (
    CONVENTIONS,
    PAPER_LITERAL,
    VECTOR_REP,
    SpinGroup,
    circle_weights,
    format_character,
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
    """The length of the list ``total_chern(weights, cutoff)`` builds and a
    bound on its coefficient products, as integers: min(c, A) + 1 entries
    for a genuine class (c the cutoff, A its positive moving multiplicity)
    and c + 1 for a virtual one, each factor (1 + k u)^a multiplied in at
    most that many times its length, min(a, c) + 1 or c + 1 for a series."""
    moving = [a for k, a in weights.items() if k and a]
    terms = (cutoff if min(moving, default=0) < 0 else min(cutoff, sum(moving))) + 1
    return terms, terms * sum(min(a, cutoff) + 1 if a > 0 else cutoff + 1 for a in moving)


def _coeff_bits(weights: dict[int, int], cutoff: int) -> int:
    """A bound on the bit length of every coefficient of ``total_chern``: with
    K the largest moving |weight| and A, B the positive and negative moving
    multiplicities, the u^j coefficient of prod (1 + k u)^a_k is at most that
    of (1 + K u)^A (1 - K u)^-B, so at most K^j min(2^A, binom(A + c, c))
    binom(c + B - 1, c), whose last factor is 1 and j <= A when B = 0."""
    moving = {k: a for k, a in weights.items() if k and a}
    a_pos = sum(a for a in moving.values() if a > 0)
    b_neg = a_pos - sum(moving.values())
    return 1 + math.ceil(
        (cutoff if b_neg else min(cutoff, a_pos)) * math.log2(max(map(abs, moving), default=1))
        + min(a_pos, _log2_binom(a_pos + cutoff, cutoff))
        + _log2_binom(cutoff + b_neg - 1, cutoff)
    )


def _check_chern_budget(weights: dict[int, int], cutoff: int) -> None:
    """Refuse an integral total Chern class over either budget, before
    building it; the widest integer is a coefficient or a multiplicity.  The
    product count, an integer, comes first: the width bound takes floats, and
    a cutoff of thousands of digits overflows one."""
    products = _chern_bounds(weights, cutoff)[1]
    bits = 0 if 8 * products > MAX_PRODUCT_WORK else max(
        _coeff_bits(weights, cutoff), max(map(abs, weights.values()), default=0).bit_length())
    if bits > MAX_COEFF_BITS:
        raise UsageError(f"the total Chern class with cutoff {shown(cutoff)} may need "
                         f"{bits}-bit integers; the budget is {MAX_COEFF_BITS} bits")
    if products * (8 + bits // 64) > MAX_PRODUCT_WORK:
        raise UsageError(f"the total Chern class with cutoff {shown(cutoff)} may need "
                         f"{shown(products)} coefficient products; that is over budget")


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
            symbols = g.generators()
            weights = [circle_weights(g, sym, PAPER_LITERAL) for sym in symbols]
            cut = 2 * sum(weights[-1].values())
            expected: dict[int, tuple[TruncatedPoly, str]] = {}  # by top power, once a group
            for sym, w in zip(symbols, weights):
                series = total_chern(w, cut, "F2")
                top = 0 if sym.kind == "lambda" else sum(w.values())
                if top not in expected:
                    poly = TruncatedPoly("F2", cut, {0: 1, top: 1} if top else {0: 1})
                    expected[top] = poly, str(poly)
                poly, text = expected[top]
                checks.append({"m": m, "n": n, "symbol": str(sym), "computed": str(series),
                               "expected": text, "pass": series == poly})
    return {
        "convention": PAPER_LITERAL,
        "m_range": f"{m_lo}..{m_hi}",
        "checks": checks,
        "total": len(checks),
        "passed": sum(1 for c in checks if c["pass"]),
        "all_passed": all(c["pass"] for c in checks),
    }


def run_theorem1(groups: Sequence[str], convention: str) -> dict:
    reports = verify_all(groups, convention=convention)
    return {
        "convention": convention,
        "cases": [r._asdict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }


def run_quillen(n_lo: int, n_hi: int, max_degree: int | None) -> dict:
    """The Quillen table rows for n_lo..n_hi.  Each row carries the ideal
    generator polynomials of degree at most ``max_degree`` (every degree for
    ``None``, the one limit that meets the ``--full-j`` budget) and whether
    that limit left some out.  Every row takes them from
    :func:`j_ideal_generators`, which counts them from their degrees alone;
    md and plain reports print none, so they pass 0 and no square is taken."""
    if not 6 <= n_lo <= n_hi <= MAX_N:
        raise UsageError(f"n range must sit inside 6..{MAX_N}, got {shown(n_lo)}..{shown(n_hi)}")
    if n_hi - n_lo + 1 > MAX_QUILLEN_ROWS:
        raise UsageError(f"{n_hi - n_lo + 1} rows requested; the budget is {MAX_QUILLEN_ROWS}")
    if max_degree is None and j_degrees_expected(quillen_h(n_hi).h)[-1] > MAX_FULL_J_DEGREE:
        raise UsageError(f"--full-j stops at degree {MAX_FULL_J_DEGREE} (n <= 20), got n = {n_hi}")
    rows = []
    for n in range(n_lo, n_hi + 1):
        info = quillen_h(n)
        gens = j_ideal_generators(n, max_degree)
        rows.append({**info._asdict(), "m": n // 2, "deg_z": info.deg_z,
                     "j_degrees": j_degrees_expected(info.h),
                     "generators": [str(g) for g in gens],
                     "generators_truncated": len(gens) < info.h})
    return {
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
        raise UsageError(f"cutoff must be positive, got {shown(cut)}")
    _check_chern_budget(weights, cut)

    chern = total_chern(weights, cut)
    virtual = bool(neg)
    palindromic = is_palindromic(weights)
    sw = str(total_sw_real(weights, cut)) if palindromic and not virtual else None

    return {
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
    import json  # five modules; imported here so only json reports load them

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


# Each subcommand's help text, the report it runs, and its options beyond
# --format and --out, which every subcommand takes, as add_argument's
# keywords by name, in the order its --help lists them.
SUBCOMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], dict], dict[str, dict]]] = {
    "prop2": (
        "sweep the mod-2 total Chern class identities",
        lambda args: run_prop2(*_parse_range(args.m, "m")),
        {"--m": dict(default="3..12", help="torus rank range A..B (default: %(default)s)")},
    ),
    "theorem1": (
        "verify the exceptional-group top classes",
        lambda args: run_theorem1(
            GROUP_ORDER if args.group == "all" else [args.group], args.convention),
        {"--group": dict(choices=("all",) + GROUP_ORDER, default="all"),
         "--convention": dict(choices=CONVENTIONS, default=VECTOR_REP,
                              help="odd-n lambda convention (default: %(default)s)")},
    ),
    "quillen": (
        "spinor type, h, deg z and ideal generators",
        lambda args: run_quillen(
            *_parse_range(args.n, "n"),
            0 if args.fmt != "json" else None if args.full_j else DEFAULT_J_POLY_LIMIT),
        {"--n": dict(required=True, help="n or range A..B"),
         "--full-j": dict(action="store_true",
                          help="in json reports, expand ideal generator polynomials of every "
                               "degree (n <= 20); md and plain reports expand none")},
    ),
    "restrict": (
        "restrict an expression to the circle",
        lambda args: run_restrict(args.n, args.expression, args.convention, args.cutoff),
        {"--n": dict(type=int, required=True),
         "expression": dict(nargs="?",
                            help="e.g. '8 + lambda2 + delta+' or '2*lambda1 + delta-'; "
                                 "one that starts with '-' goes after '--'"),
         "--convention": dict(choices=CONVENTIONS, default=PAPER_LITERAL,
                              help="odd-n lambda convention (default: %(default)s)"),
         "--cutoff": dict(type=int, default=None,
                          help="truncation cutoff in powers of u (default: task-derived)")},
    ),
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of ``spinchern argv``: the top-level parser and the
    subparser that ``argv[0]`` names, or all of them when it names none
    (``--help``, ``--version``, a typo or nothing), so that every usage and
    help text the parser can print for ``argv`` lists every subcommand."""
    parser = _Parser(
        prog="spinchern",
        description="Exact characteristic-class computations for spin representations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # prog, the subcommands' usage prefix, given so that argparse formats none
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name in argv[:1] if argv and argv[0] in SUBCOMMANDS else SUBCOMMANDS:
        help, run, options = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help)
        p.set_defaults(parser=p, run=run)  # main's own errors print this subcommand's usage
        p.add_argument("--format", choices=("json", "md", "plain"), default="plain",
                       dest="fmt", help="report format (default: %(default)s)")
        p.add_argument("--out", default=None, help="write the report to this path")
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def _drop_buffer(stream) -> None:
    """After a write to the real stdout or stderr failed, point its fd at the
    null device, so the text still in its buffer goes nowhere when Python
    flushes it at exit, where a second failure would turn exit code 2 into 120."""
    if stream is not None and stream in (sys.__stdout__, sys.__stderr__):
        import os  # loaded at every start-up; imported here so cli imports nothing more

        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stream.fileno())
        os.close(null)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        digits = max((len(run) for arg in argv if len(arg) > MAX_DIGITS
                      for run in re.findall(r"\d+", arg)), default=0)
        if digits > MAX_DIGITS:  # refused by its length: int() fails on it and argparse echoes it
            raise UsageError(f"a {digits}-digit number is over the {MAX_DIGITS}-digit limit")
        args, extra = build_parser(argv).parse_known_args(argv)
        if args.command == "restrict" and args.expression is None:
            # argparse takes a dash-led expression such as -3*lambda1 for an option
            if extra and not extra[0].startswith("--"):
                args.parser.error("an expression that starts with '-' must follow '--', as in "
                                  f"restrict --n {args.n} -- {shown(extra[0])}")
            args.parser.error("the following arguments are required: expression")
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(map(shown, extra))}")
        # the report's destination is opened before the work, as a shell's > is
        out = sys.stdout if args.out is None else open(args.out, "w")
        if out is None:
            raise OSError("stdout is closed")
        try:
            report = {"command": args.command, "tool_version": __version__, **args.run(args)}
            out.write(_RENDERERS[args.fmt](report))
            out.flush()
        except OSError:
            _drop_buffer(out)
            raise
        finally:
            if args.out is not None:
                out.close()
    except (UsageError, OverflowError, OSError) as exc:
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            _drop_buffer(sys.stderr)
        return USAGE_ERROR
    return MISMATCH if report.get("all_passed") is False else 0
