"""Run every workload and print every metric by name, with its unit.

    python3 perfbench/report.py                # end-to-end metrics, seed 1
    python3 perfbench/report.py --trace        # per-layer metrics as well

Each workload runs in its own ``run.py`` process, which checks every task's
output.  Besides the end-to-end metrics the table shows the raw host figures
and the error rate from each run's details.  Exits with status 1 when a run
fails or a task fails its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("settle", "sweep", "drive")
# (details key, printed name, unit)
DETAIL_FIGURES = (("tasks_per_s", "host tasks_per_s", "1/s"),
                  ("latency_p50_ms", "host latency_p50_ms", "ms"),
                  ("latency_p90_ms", "host latency_p90_ms", "ms"),
                  ("error_rate", "error_rate", "fraction"))


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    details_line, result_line = out.stdout.strip().splitlines()[-2:]
    return json.loads(details_line)["details"], json.loads(result_line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true",
                        help="also make the traced runs and print per-layer metrics")
    args = parser.parse_args()

    all_correct = True
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            details, result = _run(workload, args.seed, args.seconds, trace)
            all_correct &= result["correct"]
            print(f"{workload} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
            if trace == 0:
                for key, name, unit in DETAIL_FIGURES:
                    if key in details:
                        print(f"  {name:32s} {details[key]:14.6g} {unit}")
            for failure in details["failures"]:
                print(f"  FAILED {failure}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
