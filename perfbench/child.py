"""One pass of a workload, run in a fresh interpreter by run.py.

Reads ``{"items": [argv, ...], "trace": bool}`` as JSON on stdin, calls
``spinchern.cli.main`` on each argv with the report rendered into a buffer,
and writes one JSON object to stdout.  The first thing it does is import
``spinchern.cli``, so its ``imported`` timestamp (``time.monotonic``, which
the parent shares) marks the end of set-up.

Right after the import, and every 20 ms while the items run, the child
times the probe loop of speed.py.  The parent pins the child to one CPU,
so the probe runs on the CPU the items run on, and its duration tells how
fast that CPU ran at that moment; run.py rescales the times by it.
"""

import time

import spinchern.cli

IMPORTED = time.monotonic()

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from speed import Sampler, probe_s  # noqa: E402

# The CPU's speed right after set-up, to rescale setup_s.
SETUP_PROBE_S = probe_s()


def run_items(items: list[list[str]]) -> list[dict]:
    results = []
    spans = []
    real_stdout = sys.stdout
    sampler = Sampler()
    sampler.start()
    for argv in items:
        buf = io.StringIO()
        sys.stdout = buf
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        try:
            code = spinchern.cli.main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
        except Exception as exc:  # a crash is a failed item, not a failed pass
            traceback.print_exc()
            code = f"{type(exc).__name__}: {exc}"
        finally:
            wall, cpu = time.perf_counter() - wall0, time.thread_time() - cpu0
            sys.stdout = real_stdout
            spans.append((wall0, wall0 + wall))
        text = buf.getvalue()
        results.append({
            "code": code,
            "wall_s": wall,
            "cpu_s": cpu,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "report": text,
        })
    sampler.stop()
    for result, (start, end) in zip(results, spans):
        result["probe_s"] = sampler.mean_between(start, end)
    return results


def main() -> None:
    job = json.load(sys.stdin)
    out = {"imported": IMPORTED, "setup_probe_s": SETUP_PROBE_S, "gmpy2": "gmpy2" in sys.modules}
    if job["trace"]:
        from spans import Tracer, find_wrappers

        with Tracer() as tracer:
            out["items"] = run_items(job["items"])
        out["layers"] = tracer.metrics()
        out["left_patched"] = find_wrappers()
    else:
        out["items"] = run_items(job["items"])
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
