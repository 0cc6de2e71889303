"""Benchmark of the spinchern CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of the workload runs in a
fresh child interpreter (child.py), one child at a time, so the library's
caches start cold as they do for a CLI user.  Passes repeat until
``--seconds`` have been measured.  Every report is checked; a failed item
counts against ``pass_ratio`` and never stops the run.  Every reported
time is rescaled to a reference CPU speed (speed.py); the raw medians go
to the environment line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` each untraced pass is followed by a traced one (spans.py)
and the line carries the per-layer metrics.  The line before it records the
environment.  See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import MODULES, SPANS
from speed import REFERENCE_PROBE_S, fastest_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

END_TO_END_UNITS = {
    "wall_ref_s": "s",
    "cpu_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "pass_ratio": "ratio",
}

PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in SPANS},
    **{f"{name}.self_s": "s" for name in SPANS},
    **{f"{module}.self_s": "s" for module in MODULES},
    "spin_reps.character_on_Tm.terms": "count",
    "spin_reps.collapse_ratio": "ratio",
    "laurent.TruncatedPoly.mul.pairs": "count",
    "laurent.TruncatedPoly.mul.big_share": "ratio",
    "laurent.TruncatedPoly.mul.max_bits": "bits",
    "steenrod.sq_bso.terms_in": "count",
    "steenrod.sq_bso.terms_out": "count",
    "steenrod.sq_on_generator.hit_ratio": "ratio",
    "cli.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

DEFAULT_SEED = 0
SETUP_PROBES = 15  # extra children that only import, for a steady setup_s
DEADLINE_S = 165.0  # no child is started or kept alive past this point


class Pass:
    """The measured outcome of one child."""

    def __init__(self, items: list[list[str]], child: dict | None, elapsed: float,
                 setup_s: float = 0.0, setup_ref_s: float = 0.0):
        self.items = items
        self.ok = child is not None
        self.setup_s = setup_s
        self.setup_ref_s = setup_ref_s
        if child is None:  # crashed or killed: every item failed
            self.results = [None] * len(items)
            self.wall_s = self.cpu_s = self.wall_ref_s = self.cpu_ref_s = elapsed
            self.speed = 1.0
            self.rss_mib = 0.0
            self.layers: dict[str, float] = {}
            self.left_patched: list[str] = []
            self.gmpy2 = None
            return
        self.results = child["items"]
        self.wall_s = sum(r["wall_s"] for r in self.results)
        self.cpu_s = sum(r["cpu_s"] for r in self.results)
        self.wall_ref_s, self.cpu_ref_s = self._at_reference_speed()
        self.speed = self.wall_ref_s / self.wall_s if self.wall_s else 1.0
        self.rss_mib = child["maxrss_kib"] / 1024
        self.layers = child.get("layers", {})
        self.left_patched = child.get("left_patched", [])
        self.gmpy2 = child["gmpy2"]

    def _at_reference_speed(self) -> tuple[float, float]:
        """Wall and CPU time of the pass had its CPU run the probe loop in
        ``REFERENCE_PROBE_S``: each item's time times REFERENCE_PROBE_S over
        the mean probe duration sampled while it ran.  An item too short
        to be sampled takes the pass's mean; a pass with no sample at all
        (toy sizes only) is left as measured."""
        probed = [(r["wall_s"], r["probe_s"]) for r in self.results if r["probe_s"]]
        if probed:
            fallback = sum(w for w, _ in probed) / sum(w / d for w, d in probed)
        else:
            fallback = REFERENCE_PROBE_S
        wall = cpu = 0.0
        for r in self.results:
            scale = REFERENCE_PROBE_S / (r["probe_s"] or fallback)
            wall += r["wall_s"] * scale
            cpu += r["cpu_s"] * scale
        return wall, cpu


def spawn(items: list[list[str]], trace: bool, timeout: float) -> Pass:
    """Run ``items`` in a fresh child and wait for it to end.

    The child is pinned to one CPU, the fastest at its start, so that its
    probe sampler (child.py) times the CPU its items run on."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from cached bytecode, as an install does
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    job = json.dumps({"items": items, "trace": trace})
    cpus = os.sched_getaffinity(0)
    cpu, before_s = fastest_cpu()
    if cpu is not None:  # the child inherits this
        os.sched_setaffinity(0, {cpu})
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )
    finally:
        os.sched_setaffinity(0, cpus)
    try:
        out, _ = proc.communicate(job, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"child killed after {timeout:.0f} s", file=sys.stderr)
        return Pass(items, None, time.monotonic() - start)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        print(f"child exited with code {proc.returncode}", file=sys.stderr)
        return Pass(items, None, elapsed)
    child = json.loads(out)
    setup_s = child["imported"] - start
    speed_s = (before_s + child["setup_probe_s"]) / 2  # probes just before and after set-up
    return Pass(items, child, elapsed, setup_s, setup_s * REFERENCE_PROBE_S / speed_s)


# ---- output checks ----------------------------------------------------------------


def chern_matches(report: dict) -> bool:
    """True iff the reported total Chern class is c(pos) / c(neg).

    With e_k the net multiplicity of weight k, c(pos) = c(pos - neg) * c(neg)
    holds exactly when c = prod (1 + k u)^(e_k) up to the cutoff, that is
    when c_0 = 1 and c' * D = c * N with D = prod (1 + k u) and
    N = sum e_k k prod_{j != k} (1 + j u) (the logarithmic derivative).
    This checks the Whitney round trip in O(cutoff) integer operations,
    without the library.
    """
    cutoff = report["cutoff"]
    c = [0] * (cutoff + 1)
    for k, v in report["total_chern"].items():
        c[int(k)] = v
    net: dict[int, int] = {}
    for k, a in report["weights"].items():
        net[int(k)] = net.get(int(k), 0) + a
    for k, a in report["negative_weights"].items():
        net[int(k)] = net.get(int(k), 0) - a
    moving = [k for k, a in net.items() if k and a]

    def times_linear(p: list[int], k: int) -> list[int]:
        return [a + k * b for a, b in zip(p + [0], [0] + p)]

    d = [1]
    n = [0] * (len(moving) + 1)
    for k in moving:
        d = times_linear(d, k)
        term = [net[k] * k]
        for j in moving:
            if j != k:
                term = times_linear(term, j)
        n = [a + b for a, b in zip(n, term + [0] * (len(n) - len(term)))]
    if c[0] != 1:
        return False
    for t in range(cutoff):
        lhs = sum(ds * (t + 1 - s) * c[t + 1 - s] for s, ds in enumerate(d) if s <= t + 1)
        rhs = sum(ns * c[t - s] for s, ns in enumerate(n) if s <= t)
        if lhs != rhs:
            return False
    return True


def verdict_problem(argv: list[str], text: str) -> str | None:
    """What is wrong with a report by its own verdicts, or None."""
    command = argv[0]
    if command == "prop2":
        lines = text.splitlines()
        held, _, total = lines[-1].partition(" identities hold")[0].partition("/")
        if any("[FAIL]" in line for line in lines) or held != total:
            return "prop2 reports a failed identity"
        return None
    report = json.loads(text)
    if command == "theorem1":
        return None if report["all_passed"] is True else "theorem1 reports a failed case"
    if command == "quillen":
        for row in report["rows"]:
            expected = [2 ** (r - 1) + 1 for r in range(1, row["h"] + 1)]
            if (row["j_degrees"] != expected or len(row["generators"]) != row["h"]
                    or row["generators_truncated"]):
                return f"quillen n={row['n']}: J degrees {row['j_degrees']} != {expected}"
        return None
    if command == "restrict":
        dim = sum(report["weights"].values()) - sum(report["negative_weights"].values())
        if report["dimension"] != dim or report["virtual"] != bool(report["negative_weights"]):
            return "restrict: dimension or virtual flag disagrees with the weights"
        return None if chern_matches(report) else "restrict: Whitney round trip fails"
    return f"no check for command {command!r}"


class Checker:
    """Checks each item's result; remembers verdicts per distinct report."""

    def __init__(self, references: dict[str, str]):
        self.references = references
        self._verdicts: dict[tuple[str, str], str | None] = {}
        self.problems: list[str] = []

    def failed(self, argv: list[str], result: dict | None) -> bool:
        key = shlex.join(argv)
        if result is None:
            problem = "child crashed or was killed"
        elif result["code"] != 0:
            problem = f"exit code {result['code']}"
        elif self.references.get(key, result["sha256"]) != result["sha256"]:
            problem = "stdout differs from the recorded reference"
        else:
            cache_key = (key, result["sha256"])
            if cache_key not in self._verdicts:
                try:
                    self._verdicts[cache_key] = verdict_problem(argv, result["report"])
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    self._verdicts[cache_key] = f"unreadable report ({exc!r})"
            problem = self._verdicts[cache_key]
        if problem is not None:
            self.problems.append(f"{key}: {problem}")
        return problem is not None


# ---- measurement ------------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def git_commit() -> str:
    """The checkout's commit from .git, without running git (which would
    search the parent directories when the checkout is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> tuple[dict, dict]:
    """Measure one run; returns (result line, environment record)."""
    items = workloads.items(workload, seed, toy)
    references = json.loads(REFERENCES.read_text())
    checker = Checker(references)
    deadline = time.monotonic() + DEADLINE_S

    probes = [spawn([], False, deadline - time.monotonic()) for _ in range(SETUP_PROBES)]
    plain: list[Pass] = []
    traced: list[Pass] = []
    attempted = failed = 0
    measure_start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        group = [spawn(items, False, deadline - time.monotonic())]
        if trace:
            group.append(spawn(items, True, deadline - time.monotonic()))
        plain.append(group[0])
        traced += group[1:]
        for p in group:
            for argv, result in zip(p.items, p.results):
                attempted += 1
                failed += checker.failed(argv, result)
        if trace:
            for argv, a, b in zip(items, group[0].results, group[1].results):
                if a is not None and b is not None and a["sha256"] != b["sha256"]:
                    failed += 1
                    checker.problems.append(f"{shlex.join(argv)}: traced report differs")
            for name in group[1].left_patched:
                checker.problems.append(f"wrapper left bound at {name}")
        now = time.monotonic()
        if not all(p.ok for p in group) or now - measure_start >= seconds:
            break
        if now + 1.5 * (now - pass_start) > deadline:
            break

    for problem in checker.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not checker.problems and all(p.ok for p in probes)
    if trace:
        metrics = {
            name: median([p.layers.get(name, 0.0) * (p.speed if unit == "s" else 1) for p in traced])
            for name, unit in PER_LAYER_UNITS.items()
        }
        metrics["cli.report_bytes"] = sum(
            len(r["report"].encode()) for r in plain[0].results if r is not None
        )
        untraced_wall = median([p.wall_ref_s for p in plain])
        metrics["trace.overhead_ratio"] = (
            median([p.wall_ref_s for p in traced]) / untraced_wall if untraced_wall else 0.0
        )
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_ref_s": median([p.wall_ref_s for p in plain]),
            "cpu_ref_s": median([p.cpu_ref_s for p in plain]),
            "setup_s": median([p.setup_ref_s for p in probes + plain if p.ok]),
            "peak_rss_mib": median([p.rss_mib for p in plain]),
            "pass_ratio": 1 - failed / attempted,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    env = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "wall_s": {"value": median([p.wall_s for p in plain]), "unit": "s"},
        "cpu_s": {"value": median([p.cpu_s for p in plain]), "unit": "s"},
        "setup_s": {"value": median([p.setup_s for p in probes + plain if p.ok]), "unit": "s"},
        "pass_wall_s": [round(p.wall_s, 4) for p in plain],
        "pass_wall_ref_s": [round(p.wall_ref_s, 4) for p in plain],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "gmpy2": next((p.gmpy2 for p in probes + plain if p.ok), None),
        "commit": git_commit(),
    }
    return result, env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinchern" / "cli.py").is_file():
        print(f"error: {SRC / 'spinchern' / 'cli.py'} not found; run from a spinchern "
              "checkout", file=sys.stderr)
        return 2
    result, env = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
