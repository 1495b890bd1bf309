"""Record the reference outputs that ``checks.py`` compares the default seed's
tasks against.

    python3 perfbench/record_reference.py

Runs one cycle of every workload with seed 1 and writes
``perfbench/reference.json``.  Re-record only when the workloads' inputs
change, never to absorb a change in the program's results: the tolerances in
``checks.py`` already allow what the acceptance criteria allow.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import REFERENCE_PATH, check, outputs  # noqa: E402
from workloads import WORKLOADS, build_tasks, run_task  # noqa: E402

SEED = 1


def main() -> int:
    recorded = {}
    for workload in WORKLOADS:
        entries = []
        for task in build_tasks(workload, SEED):
            result = run_task(task)
            fails = check(task, result, None)
            if fails:
                print(f"{workload}: {task}: {fails}", file=sys.stderr)
                return 1
            entries.append({"task": task, "outputs": outputs(task, result)})
        recorded[workload] = entries
        print(f"{workload}: {len(entries)} tasks", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps({"seed": SEED, "workloads": recorded}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
