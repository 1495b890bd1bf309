"""Span tracing from outside the program, for the benchmark's traced run.

The tracer wraps the public entry points of each mirrorsim layer wherever a
loaded ``mirrorsim`` module binds them, plus ``numpy.linalg.solve``, which is
the engine's LU solve.  Each wrapped call records a span: name, start, end and
the span that was open when it began (its parent).  Every task is one root
span, so the spans of a task are the ones recorded between its root and the
next root.  Spans live in flat arrays in memory and are written out once, at
the end of the run.

Layers, bottom up, and the names wrapped for each:

* ``devices``: the device laws ``mirrorsim.engine`` and ``mirrorsim.analysis``
  look up (MOSFET calls are split by polarity);
* ``netlist``: ``mirror_circuit``, ``with_override``, ``parse``, ``elaborate``;
* ``engine``: ``solve_dc``, ``run_transient`` and ``numpy.linalg.solve``;
* ``analysis``: every public function of ``mirrorsim.analysis``.

A layer's self time is its spans' durations minus the part their child spans
cover.  The wrappers cost about a microsecond per call, which the traced run
reports as tracing overhead; end-to-end metrics come from untraced runs.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

import mirrorsim
import mirrorsim.analysis
import mirrorsim.devices
import mirrorsim.engine
import mirrorsim.netlist

TASK = "task"

_DEVICE_LAWS = ("memristance", "memristor_dwdt", "mosfet_current",
                "mosfet_linearized", "resistor_value", "source_value",
                "gate_leakage", "subthreshold_leakage")
_MOSFET_LAWS = ("mosfet_current", "mosfet_linearized", "subthreshold_leakage")
_NETLIST = ("mirror_circuit", "with_override", "parse", "elaborate")
_ENGINE = ("solve_dc", "run_transient")


class Tracer:
    """Records spans of wrapped calls while installed (see :meth:`installed`)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # per-task counts read off results: Newton iterations, steps, ...
        self.task_counts: list[dict[str, float]] = []
        self._patches = self._plan_patches()

    # ------------------------------------------------------------ recording

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def as_task(self, fn, *args):
        """Call ``fn(*args)`` as one task: a root span with fresh counts."""
        self.task_counts.append({})
        idx = self._open(self._id(TASK))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _count(self, key: str, value: float) -> None:
        counts = self.task_counts[-1]
        counts[key] = counts.get(key, 0) + value

    # ------------------------------------------------------------- wrapping

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return traced

    def _wrap_mosfet(self, fn, name: str):
        # params is the third positional argument of every MOSFET law
        nmos, pmos = self._id(f"{name}.nmos"), self._id(f"{name}.pmos")
        open_, close = self._open, self._close

        def traced(vgs, vds, params, *args, **kwargs):
            idx = open_(pmos if params.polarity == "pmos" else nmos)
            try:
                return fn(vgs, vds, params, *args, **kwargs)
            finally:
                close(idx)
        return traced

    def _wrap_counting(self, fn, name: str, on_result):
        inner = self._wrap(fn, name)

        def traced(*args, **kwargs):
            result = inner(*args, **kwargs)
            on_result(result)
            return result
        return traced

    def _on_dc(self, op) -> None:
        self._count("dc_newton_iterations", op.newton_iterations)

    def _on_transient(self, result) -> None:
        t = result.waveforms[0].t
        self._count("tran_steps", len(t) - 1)
        self._count("sim_s", float(t[-1] - t[0]))

    def _plan_patches(self) -> list[tuple[object, str, object]]:
        """(namespace, attribute, wrapper) for every binding of a wrapped name."""
        targets: list[tuple[object, str]] = []
        for name in _DEVICE_LAWS:
            targets.append((getattr(mirrorsim.devices, name), f"devices.{name}"))
        for name in _NETLIST:
            targets.append((getattr(mirrorsim.netlist, name), f"netlist.{name}"))
        for name in _ENGINE:
            targets.append((getattr(mirrorsim.engine, name), f"engine.{name}"))
        for name in mirrorsim.analysis.__all__:
            obj = getattr(mirrorsim.analysis, name)
            if inspect.isfunction(obj):
                targets.append((obj, f"analysis.{name}"))

        modules = [m for key, m in sys.modules.items()
                   if key == "mirrorsim" or key.startswith("mirrorsim.")]
        # device laws call each other inside mirrorsim.devices; only the
        # lookups of the layers above count as entries into the layer
        law_users = [mirrorsim.engine, mirrorsim.analysis]
        patches: list[tuple[object, str, object]] = []
        for original, span_name in targets:
            layer, short = span_name.split(".", 1)
            if short in _MOSFET_LAWS:
                wrapper = self._wrap_mosfet(original, span_name)
            elif short == "solve_dc":
                wrapper = self._wrap_counting(original, span_name, self._on_dc)
            elif short == "run_transient":
                wrapper = self._wrap_counting(original, span_name, self._on_transient)
            else:
                wrapper = self._wrap(original, span_name)
            for module in law_users if layer == "devices" else modules:
                for attr, value in vars(module).items():
                    if value is original:
                        patches.append((module, attr, wrapper))
        patches.append((np.linalg, "solve", self._wrap(np.linalg.solve, "engine.lu")))
        return patches

    def installed(self):
        """Context manager: the wrappers are bound only inside it."""
        return _Installed(self._patches)

    # -------------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans as arrays (views, valid until the next span): name id,
        parent index, start and end (s); plus the name of each id."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        np.savez(path, **self.arrays())


class _Installed:
    def __init__(self, patches):
        self._patches = patches
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for ns, attr, wrapper in self._patches:
            self._saved.append((ns, attr, getattr(ns, attr)))
            setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved.clear()
        return False


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #

def layer_metrics(tracer: Tracer, counted_tasks: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    Counts (``*_per_task``, ``engine.lu_per_step``, ``engine.newton_per_dc``)
    come from the first ``counted_tasks`` tasks only, one whole cycle of the
    workload, so they repeat exactly between runs on one seed.  Times and
    shares use every traced task.
    """
    a = tracer.arrays()
    names = tracer.names
    nid, parent = a["name_id"], a["parent"]
    dur = a["end"] - a["start"]
    k = len(names)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    # per name id: calls, total and self time over all tasks
    calls = np.bincount(nid, minlength=k)
    total = np.bincount(nid, weights=dur, minlength=k)
    self_total = np.bincount(nid, weights=dur - child, minlength=k)
    del child, has_parent

    task_id = names.index(TASK)
    roots = np.flatnonzero(nid == task_id)
    # the spans of the first `counted_tasks` tasks sit before the next root
    cut = int(roots[counted_tasks]) if len(roots) > counted_tasks else len(nid)
    calls_first = np.bincount(nid[:cut], minlength=k)
    task_time = float(total[task_id])
    counts = tracer.task_counts[:counted_tasks]

    def ids(pred) -> list[int]:
        return [i for i, nm in enumerate(names) if pred(nm)]

    def layer(name: str) -> list[int]:
        return ids(lambda nm: nm.split(".", 1)[0] == name)

    def mosfet(polarity: str) -> list[int]:
        return ids(lambda nm: nm.startswith("devices.mosfet")
                   and nm.endswith("." + polarity))

    def named(*wanted: str) -> list[int]:
        return [names.index(w) for w in wanted if w in names]

    def per_task(i: list[int]) -> float:
        return int(calls_first[i].sum()) / counted_tasks

    def mean_us(i: list[int]) -> float:
        n = int(calls[i].sum())
        return float(total[i].sum()) / n * 1e6 if n else 0.0

    def share(i: list[int]) -> float:
        return float(self_total[i].sum()) / task_time

    def count_sum(key: str, of=counts) -> float:
        return sum(c.get(key, 0) for c in of)

    tran, dc, lu = (named("engine.run_transient"), named("engine.solve_dc"),
                    named("engine.lu"))
    steps_first = count_sum("tran_steps")
    steps_all = count_sum("tran_steps", tracer.task_counts)
    dc_first = int(calls_first[dc].sum())
    lu_in_tran = 0
    if lu and tran:
        head = nid[:cut] == lu[0]
        parents = parent[:cut][head]
        lu_in_tran = int(np.count_nonzero(nid[parents[parents >= 0]] == tran[0]))

    return {
        "devices.calls_per_task": per_task(layer("devices")),
        "devices.self_share": share(layer("devices")),
        "devices.memristor_us": mean_us(named("devices.memristance",
                                              "devices.memristor_dwdt")),
        "devices.mosfet_nmos_us": mean_us(mosfet("nmos")),
        "devices.mosfet_pmos_us": mean_us(mosfet("pmos")),
        "netlist.calls_per_task": per_task(layer("netlist")),
        "netlist.with_override_us": mean_us(named("netlist.with_override")),
        "netlist.self_share": share(layer("netlist")),
        "engine.tran_steps_per_task": steps_first / counted_tasks,
        "engine.step_us": (float(total[tran].sum()) / steps_all * 1e6
                           if steps_all else 0.0),
        "engine.lu_per_step": lu_in_tran / steps_first if steps_first else 0.0,
        "engine.dc_per_task": dc_first / counted_tasks,
        "engine.newton_per_dc": (count_sum("dc_newton_iterations") / dc_first
                                 if dc_first else 0.0),
        "engine.dc_us": mean_us(dc),
        "engine.lu_us": mean_us(lu),
        "engine.lu_share": float(total[lu].sum()) / task_time,
        "engine.self_share": share(layer("engine")),
        "analysis.tran_runs_per_task": per_task(tran),
        "analysis.sim_s_per_task": count_sum("sim_s") / counted_tasks,
        "analysis.thd_ms": mean_us(named("analysis.compute_thd")) / 1e3,
        "analysis.switching_us": mean_us(named("analysis.switching_time")),
        "analysis.self_share": share(layer("analysis")),
    }
