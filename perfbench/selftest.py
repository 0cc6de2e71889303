"""Quick self-test of the benchmark (well under a minute).

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that each
metric declared in BENCHMARK.json is printed with its unit and that every
output passed its checks.  It also checks that the tracer wraps a function
at every place it is bound and leaves the library unpatched afterwards,
and that the output checks reject a wrong report.
"""

import contextlib
import io
import json
import sys
import time

import run
import speed
import workloads
from spans import Tracer, find_wrappers, namespaces

sys.path.insert(0, str(run.SRC))

import spinchern.cli  # noqa: E402
from spinchern import char_classes, exceptional, laurent, spin_reps  # noqa: E402


def expect(condition: object, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_declared_metrics() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        names = {m["name"]: m["unit"] for m in declared[key]}
        expect(names == units, f"BENCHMARK.json {key} differs from run.py")
    names = [w["name"] for w in declared["workloads"]]
    expect(names == list(workloads.WORKLOADS), "BENCHMARK.json workloads differ")
    print("ok: BENCHMARK.json declares exactly the metrics run.py prints")


def check_toy_runs() -> None:
    for workload in workloads.WORKLOADS:
        for trace, units in ((False, run.END_TO_END_UNITS), (True, run.PER_LAYER_UNITS)):
            result, env = run.run(workload, run.DEFAULT_SEED, seconds=0, trace=trace, toy=True)
            line = json.loads(json.dumps(result))
            label = f"{workload} trace={trace}"
            expect(set(line) == {"correct", "attempted", "failed", "metrics"}, label)
            expect(line["correct"] and line["failed"] == 0, f"{label}: {line}")
            printed = {k: v["unit"] for k, v in line["metrics"].items()}
            expect(printed == units, f"{label}: wrong metric names or units")
            expect(all(isinstance(v["value"], (int, float)) for v in line["metrics"].values()),
                   f"{label}: a metric value is not a number")
            expect(env["commit"] and env["python"] and env["gmpy2"] is not None,
                   f"{label}: environment record incomplete: {env}")
        print(f"ok: {workload} at toy size, untraced and traced")


def snapshot() -> dict:
    return {(id(ns), name): value for ns in namespaces() for name, value in vars(ns).items()}


def check_tracer_restores() -> None:
    before = snapshot()
    argv = ["restrict", "--n", "9", "lambda1 - delta"]
    with contextlib.redirect_stdout(io.StringIO()) as plain:
        spinchern.cli.main(argv)
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()) as traced:
        wrapped = find_wrappers()
        for bound in (spinchern.cli.character_on_T1, exceptional.character_on_T1,
                      spin_reps.character_on_T1, spinchern.cli.total_chern,
                      exceptional.total_chern, char_classes.total_chern,
                      laurent.MultiLaurent.__mul__, laurent.MultiLaurent.__rmul__,
                      laurent.MultiLaurent.__radd__, spinchern.cli.main):
            expect(hasattr(bound, "_perfbench_span"), f"{bound} is not wrapped")
        spinchern.cli.main(argv)
    expect(tracer.calls["cli.run_restrict"] == 1, "run_restrict span not recorded once")
    expect(tracer.calls["char_classes.total_chern"] == 2,
           "total_chern calls from total_chern_virtual not recorded")
    expect(find_wrappers() == [] and snapshot() == before, "tracer left the library patched")
    expect(plain.getvalue() == traced.getvalue(), "traced report differs")
    print(f"ok: tracer wrapped {len(wrapped)} bindings and restored all of them")


def check_rejects_wrong_reports() -> None:
    argv = ["restrict", "--n", "9", "--format", "json", "2*lambda1 - delta"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        spinchern.cli.main(argv)
    report = json.loads(out.getvalue())
    expect(report["virtual"], "expected a virtual item")
    expect(run.verdict_problem(argv, out.getvalue()) is None, "a correct report was rejected")
    top = max(report["total_chern"], key=int)
    report["total_chern"][top] += 2
    expect(run.verdict_problem(argv, json.dumps(report)), "a wrong Chern class passed")
    quillen = {"rows": [{"n": 9, "h": 4, "j_degrees": [2, 3, 5, 8], "generators": ["x"] * 4,
                         "generators_truncated": False}]}
    expect(run.verdict_problem(["quillen"], json.dumps(quillen)), "wrong J degrees passed")
    prop2 = "m= 3 n= 6 lambda1    1 [FAIL]\n0/1 identities hold\n"
    expect(run.verdict_problem(["prop2"], prop2), "a failed prop2 identity passed")
    print("ok: output checks reject wrong reports")


def check_rescaling() -> None:
    item = {"wall_s": 2.0, "cpu_s": 1.5, "probe_s": 2 * speed.REFERENCE_PROBE_S}
    short = {"wall_s": 0.01, "cpu_s": 0.01, "probe_s": None}
    child = {"items": [item, short], "maxrss_kib": 1024, "gmpy2": False}
    p = run.Pass([["a"], ["b"]], child, 2.1)
    expect(abs(p.wall_ref_s - 1.005) < 1e-9 and abs(p.cpu_ref_s - 0.755) < 1e-9,
           f"times not rescaled by the probe: {p.wall_ref_s}, {p.cpu_ref_s}")
    sampler = speed.Sampler()
    sampler.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.2:
        pass
    sampler.stop()
    expect(sampler.mean_between(start, time.perf_counter()), "the sampler took no probe")
    print(f"ok: times rescaled by the probe; {len(sampler.samples)} probes in 0.2 s")


def main() -> int:
    check_declared_metrics()
    check_rescaling()
    check_tracer_restores()
    check_rejects_wrong_reports()
    check_toy_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
