"""Seeded task lists for the three benchmark workloads and the code that runs
one task.

A task is a plain dict of JSON values: its workload, the public mirrorsim
call it makes and that call's inputs.  ``build_tasks(workload, seed)``
returns one *cycle* of tasks; the runner repeats the cycle until its time is
up.  Each cycle holds the same number of tasks of every class (configuration
and call), and the continuous inputs of a class are Latin-hypercube samples
of the paper's operating ranges, so two seeds give the same mix and spread
of work and differ only in where inside each range the inputs fall.

Every call goes through attribute lookup on the ``mirrorsim`` package at call
time, so the traced run sees the wrapped entry points.
"""

from __future__ import annotations

import math
import random

import mirrorsim as ms

WORKLOADS = ("settle", "sweep", "drive")

ZERO_C = ms.ZERO_CELSIUS

# Tasks of each class in one cycle.  Larger values balance the mix better
# across seeds; smaller ones let a run cover more whole cycles.
_PER_CLASS = {"settle": 4, "sweep": 3, "drive": 4}

# Parameter paths a parameter_sweep task may step, with the range its grid
# spans.  vbias exists only on the PMOS-input mirror.
_PARAM_RANGES = {
    "2r": {
        "T2.width": (0.2e-6, 0.4e-6),
        "T2.vth0": (0.35, 0.55),
        "vdd": (2.0, 3.0),
        "R2.r_nominal": (20e3, 60e3),
    },
    "pmos-r": {
        "T2.width": (0.2e-6, 0.4e-6),
        "T2.vth0": (0.35, 0.55),
        "vdd": (1.8, 2.4),
        "vbias": (0.5, 0.9),
        "R2.r_nominal": (20e3, 60e3),
    },
}

_GRID_POINTS = (100, 200)


def _lhs(rng: random.Random, n: int, dims: int) -> list[list[float]]:
    """``n`` Latin-hypercube points in the unit cube: each dimension's values
    fall one per stratum of width 1/n, in a seeded order."""
    cols = []
    for _ in range(dims):
        strata = list(range(n))
        rng.shuffle(strata)
        cols.append([(s + rng.random()) / n for s in strata])
    return [[cols[d][i] for d in range(dims)] for i in range(n)]


def _lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def _loglerp(lo: float, hi: float, u: float) -> float:
    return math.exp(_lerp(math.log(lo), math.log(hi), u))


def _grid(lo: float, hi: float, u_points: float, u_lo: float, u_hi: float) -> dict:
    """Grid spec: a sub-range trimmed by up to 10% at each end, 100-200 points."""
    span = hi - lo
    n = int(round(_lerp(*_GRID_POINTS, u_points)))
    return {"lo": lo + 0.1 * span * u_lo, "hi": hi - 0.1 * span * u_hi, "n": n}


def _grid_values(grid: dict) -> list[float]:
    n = grid["n"]
    return [grid["lo"] + (grid["hi"] - grid["lo"]) * k / (n - 1) for k in range(n)]


def _settle_tasks(rng: random.Random, n: int) -> list[list[dict]]:
    def tasks(config: str, vdd_range: tuple[float, float], count: int) -> list[dict]:
        return [{"call": "settled_transient", "config": config,
                 "vdd": _lerp(*vdd_range, u[0]), "m0": _lerp(3e3, 10e3, u[1]),
                 "temp_c": _lerp(0.0, 100.0, u[2])}
                for u in _lhs(rng, count, 3)]

    # Two 2m tasks to each pmos-m task.  A pmos-m task runs about 1.4x as
    # long as any 2m task, so with equal shares the median task time would
    # fall in the gap between the two and jump from run to run.
    two_m = tasks("2m", (2.0, 3.0), 2 * n)
    return [two_m[0::2], two_m[1::2], tasks("pmos-m", (1.8, 2.4), n)]


def _sweep_tasks(rng: random.Random, n: int) -> list[list[dict]]:
    classes = []
    for config, ranges in _PARAM_RANGES.items():
        for path, (lo, hi) in ranges.items():
            classes.append([
                {"call": "parameter_sweep", "config": config, "path": path,
                 "grid": _grid(lo, hi, *u)}
                for u in _lhs(rng, n, 3)
            ])
    for config in ("2r", "pmos-r"):
        classes.append([
            {"call": "temperature_sweep", "config": config,
             "grid": _grid(0.0, 100.0, *u)}
            for u in _lhs(rng, n, 3)
        ])
    for config in ("2r", "pmos-r"):
        classes.append([
            {"call": "mismatch_sweep", "config": config, "r_load": 38e3,
             "grid": _grid(20e3, 60e3, *u)}
            for u in _lhs(rng, n, 3)
        ])
    # memristive loads held frozen at their stated memristance
    classes.append([
        {"call": "mismatch_sweep", "config": "2m", "m0": _lerp(4e3, 8e3, u[3]),
         "grid": _grid(3e3, 10e3, *u[:3])}
        for u in _lhs(rng, n, 4)
    ])
    return classes


def _drive_tasks(rng: random.Random, n: int) -> list[list[dict]]:
    classes = []
    for device in ("memristor", "resistor"):
        classes.append([
            {"call": "hysteresis_trace", "device": device,
             "frequency": _loglerp(5.0, 500.0, u[0]),
             "amplitude": _lerp(1.0, 3.0, u[1])}
            for u in _lhs(rng, n, 2)
        ])
    for config in ("2r", "pmos-r"):
        classes.append([
            {"call": "distortion_trace", "config": config,
             "amplitude": _lerp(0.5, 2.5, u[0]),
             "frequency": _loglerp(20.0, 200.0, u[1]),
             "temp_c": _lerp(0.0, 100.0, u[2])}
            for u in _lhs(rng, n, 3)
        ])
    return classes


_BUILDERS = {"settle": _settle_tasks, "sweep": _sweep_tasks, "drive": _drive_tasks}


def build_tasks(workload: str, seed: int) -> list[dict]:
    """One cycle of tasks for ``workload``, generated from ``seed`` alone.

    Classes are interleaved (one task of each class in turn), so any prefix
    of the cycle is close to the full mix.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    classes = _BUILDERS[workload](rng, _PER_CLASS[workload])
    tasks = []
    for round_ in zip(*classes):
        for task in round_:
            tasks.append({"workload": workload, **task})
    return tasks


# --------------------------------------------------------------------------- #
# running one task
# --------------------------------------------------------------------------- #

def _config(task: dict, **extra) -> ms.MirrorConfig:
    return ms.MirrorConfig(kind=ms.MirrorKind(task["config"]), **extra)


def run_task(task: dict):
    """Make the task's public mirrorsim call and return its result object.

    The runner times this call and nothing else.
    """
    call = task["call"]
    if call == "settled_transient":
        circuit = ms.mirror_circuit(_config(task, vdd=task["vdd"], m0=task["m0"]))
        return ms.settled_transient(circuit, temp=task["temp_c"] + ZERO_C)
    if call == "parameter_sweep":
        return ms.parameter_sweep(_config(task), task["path"],
                                  _grid_values(task["grid"]))
    if call == "temperature_sweep":
        temps = [t + ZERO_C for t in _grid_values(task["grid"])]
        return ms.temperature_sweep(_config(task), temps)
    if call == "mismatch_sweep":
        extra = {"m0": task["m0"]} if "m0" in task else {"r_load": task["r_load"]}
        return ms.mismatch_sweep(_config(task, **extra), _grid_values(task["grid"]))
    if call == "hysteresis_trace":
        params = (ms.MEMRISTOR_DEFAULTS if task["device"] == "memristor"
                  else ms.RESISTOR_DEFAULTS)
        drive = ms.SourceSpec(kind="sine", amplitude=task["amplitude"],
                              frequency=task["frequency"])
        return ms.hysteresis_trace(params, drive)
    if call == "distortion_trace":
        return ms.distortion_trace(_config(task), amplitude=task["amplitude"],
                                   frequency=task["frequency"],
                                   temp=task["temp_c"] + ZERO_C)
    raise ValueError(f"unknown call {call!r}")

