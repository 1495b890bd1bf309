"""Time what a benchmark run does before its first task, in a fresh process:
import mirrorsim and build the workload's inputs from the seed.

    python3 perfbench/setup_probe.py --workload settle --seed 1

Prints the seconds taken, then the calibration probe's time in this process
(see ``calibrate.py``).  ``run.py`` starts this several times per run and
reports the median, in reference seconds, as ``setup_s``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mirrorsim  # noqa: E402,F401
from workloads import WORKLOADS, build_tasks  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    build_tasks(args.workload, args.seed)
    elapsed = time.perf_counter() - _T0
    from calibrate import probe_seconds

    print(elapsed, probe_seconds(9))


if __name__ == "__main__":
    main()
