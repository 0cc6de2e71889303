"""Record the sha256 of every report of the default seed into references.json.

    python3 perfbench/record_references.py

Run it only when a change alters the reports on purpose.  An item is
recorded only if it exits with 0 and passes its own verdict checks.
"""

import json
import shlex
import sys

import run
import workloads


def main() -> int:
    references = {}
    for workload in workloads.WORKLOADS:
        items = workloads.items(workload, run.DEFAULT_SEED)
        outcome = run.spawn(items, False, 600.0)
        for argv, result in zip(items, outcome.results):
            if result is None or result["code"] != 0:
                print(f"{shlex.join(argv)}: did not run cleanly", file=sys.stderr)
                return 1
            problem = run.verdict_problem(argv, result["report"])
            if problem is not None:
                print(f"{shlex.join(argv)}: {problem}", file=sys.stderr)
                return 1
            references[shlex.join(argv)] = result["sha256"]
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(references)} references in {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
