"""mirrorsim benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload settle --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; mirrorsim is imported from ``src/`` there.
One caller in one thread issues each task only after the previous one
returns, and passes no ``jobs`` argument.  Inputs come from ``--seed`` alone
(see ``workloads.py``); every task's output is checked (see ``checks.py``).

``--trace 0`` runs tasks for ``--seconds`` and reports the end-to-end
metrics.  Their times are in reference seconds: host time scaled by a
calibration probe timed during and after every task (see ``calibrate.py``),
because the host's speed drifts by up to 2x while a run lasts.  The raw host
figures go in the details line.

``--trace 1`` runs whole cycles of the workload until ``--seconds`` have
passed, each task once untraced and once under the tracer (see
``tracer.py``), and reports the per-layer metrics and the tracing overhead.
Its spans are written to ``perfbench/out/spans-<workload>.npz``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the run's details:
metadata, sample counts, raw host figures, the error rate and the first
failures.  Exits with status 1 when mirrorsim cannot be imported from the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 15
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import mirrorsim
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import mirrorsim from {SRC}: {exc}")
    if Path(mirrorsim.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: mirrorsim was imported from "
                         f"{mirrorsim.__file__}, not from {SRC}")


def _setup_samples(workload: str, seed: int) -> list[tuple[float, float]]:
    """(import-and-build seconds, probe seconds) of ``SETUP_REPEATS`` fresh
    processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            check=True, capture_output=True, text=True, timeout=120)
        elapsed, probe = out.stdout.split()[-2:]
        samples.append((float(elapsed), float(probe)))
    return samples


def _metadata(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
        "seed": seed,
    }


class Loop:
    """The closed-loop client: runs tasks in cycle order and checks each.

    With ``scale`` set, a calibration probe is timed while each task runs
    and after it, and the task's time in reference seconds is its host time
    scaled by the mean probe time (see ``calibrate.py``); the probes' own
    time is taken out of the task's host time.  Without it (the traced run)
    no probe runs and reference seconds equal host seconds.
    """

    def __init__(self, tasks: list[dict], reference: list[dict] | None,
                 scale: bool):
        from calibrate import SpeedMeter, probe_seconds

        self.tasks = tasks
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self._meter = SpeedMeter() if scale else None
        self._probe = probe_seconds() if scale else None

    def run(self, index: int, call=None) -> tuple[float, float, bool]:
        """Run task ``index`` (mod the cycle), through ``call(run_task, task)``
        when given; returns its host seconds, its reference seconds and
        whether it passed its checks."""
        from calibrate import REFERENCE_S, probe_seconds
        from workloads import run_task

        task = self.tasks[index % len(self.tasks)]
        self.attempted += 1
        if self._meter:
            self._meter.start()
        t0 = perf_counter()
        try:
            result = call(run_task, task) if call else run_task(task)
            error = None
        except Exception:  # a raising task is a failed task; keep running
            error = traceback.format_exc(limit=4)
        elapsed = perf_counter() - t0
        inside = self._meter.stop() if self._meter else []
        elapsed -= sum(inside)
        fails = [error] if error else self._check(index, task, result)
        if fails:
            msg = (f"task {index % len(self.tasks)} {json.dumps(task)}: "
                   + "; ".join(fails))
            self.failures.append(msg)
            print(msg, file=sys.stderr)
        if not self._meter:
            return elapsed, elapsed, not fails
        before, self._probe = self._probe, probe_seconds()
        speed = statistics.fmean(inside + [before, self._probe])
        return elapsed, elapsed * REFERENCE_S / speed, not fails

    def _check(self, index: int, task: dict, result) -> list[str]:
        from checks import check

        ref = self.reference[index % len(self.tasks)] if self.reference else None
        try:
            return check(task, result, ref)
        except Exception:  # a check that cannot run fails the task
            return [traceback.format_exc(limit=4)]


def _untraced(loop: Loop, seconds: float) -> list[tuple[float, float, bool]]:
    """Tasks run until ``seconds`` have passed: (host s, reference s, passed)."""
    runs = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        runs.append(loop.run(len(runs)))
    return runs


def _traced(loop: Loop, tracer, seconds: float):
    """Whole cycles until ``seconds`` have passed, each task run untraced and
    then traced, so drift of the host's speed hits both alike.  Returns the
    (host s, passed) pairs of each side."""
    def traced_call(run_task, task):
        with tracer.installed():
            return tracer.as_task(run_task, task)

    plain, traced = [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        for _ in range(len(loop.tasks)):
            index = len(traced)
            host, _, ok = loop.run(index)
            plain.append((host, ok))
            host, _, ok = loop.run(index, traced_call)
            traced.append((host, ok))
    return plain, traced


def _tasks_per_s(runs) -> float:
    """Tasks that passed per second of task time, from (seconds, passed)."""
    return sum(ok for _, ok in runs) / sum(s for s, _ in runs)


def _end_to_end(loop: Loop, workload: str, seed: int, seconds: float):
    from calibrate import REFERENCE_S

    setup = _setup_samples(workload, seed)
    loop.run(0)  # warm-up, not timed
    runs = _untraced(loop, seconds)
    host = [h for h, _, _ in runs]
    scaled = [s for _, s, _ in runs]
    metrics = {
        "ref_tasks_per_s": (_tasks_per_s([(s, ok) for _, s, ok in runs]), "1/ref_s"),
        "ref_latency_p50_ms": (statistics.median(scaled) * 1e3, "ref_ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (statistics.median(e * REFERENCE_S / k for e, k in setup), "s"),
    }
    details = {
        "timed_tasks": len(runs),
        "latency_p50_samples": len(runs),
        "tasks_per_s": _tasks_per_s([(h, ok) for h, _, ok in runs]),
        "latency_p50_ms": statistics.median(host) * 1e3,
        "setup_samples": len(setup),
        "setup_host_s": [e for e, _ in setup],
        "setup_probe_s": [k for _, k in setup],
    }
    if len(runs) >= 100:  # at least ten samples beyond the 90th percentile
        details["latency_p90_ms"] = statistics.quantiles(host, n=10)[-1] * 1e3
        details["ref_latency_p90_ms"] = statistics.quantiles(scaled, n=10)[-1] * 1e3
    return metrics, details


def _per_layer(loop: Loop, workload: str, seconds: float):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced = _traced(loop, tracer, seconds)
    layer = layer_metrics(tracer, len(loop.tasks))
    layer["trace.overhead_tasks_per_s"] = _tasks_per_s(traced) - _tasks_per_s(plain)
    metrics = {k: (v, _unit(k)) for k, v in layer.items()}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}.npz")
    details = {"traced_tasks": len(traced),
               "counted_tasks": len(loop.tasks),
               "spans": len(tracer.start),
               "untraced_tasks_per_s": _tasks_per_s(plain),
               "traced_tasks_per_s": _tasks_per_s(traced)}
    return metrics, details


def _unit(metric: str) -> str:
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_share"):
        return "fraction"
    if metric == "analysis.sim_s_per_task":
        return "s"
    if metric == "trace.overhead_tasks_per_s":
        return "1/s"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one mirrorsim benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, help="settle, sweep or drive")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (reference outputs exist for 1)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 for the traced run and the per-layer metrics")
    args = parser.parse_args()

    _import_program()
    from checks import load_reference
    from workloads import WORKLOADS, build_tasks

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    tasks = build_tasks(args.workload, args.seed)
    loop = Loop(tasks, load_reference(args.workload, args.seed),
                scale=not args.trace)
    if args.trace:
        metrics, details = _per_layer(loop, args.workload, args.seconds)
    else:
        metrics, details = _end_to_end(loop, args.workload, args.seed, args.seconds)

    failed = len(loop.failures)
    details.update({
        "workload": args.workload,
        "trace": args.trace,
        "cycle_tasks": len(tasks),
        "checked_against_reference": loop.reference is not None,
        "error_rate": failed / loop.attempted,
        "failures": loop.failures[:5],
        "metadata": _metadata(args.seed),
    })
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
