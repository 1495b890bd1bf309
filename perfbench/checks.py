"""Output checks for benchmark tasks.

Two kinds of check run on every task:

* invariants that hold for any seed: the KCL residual is at or below the
  solver's ``abstol`` (recomputed from the device laws for sweep rows, which
  expose no operating point), settled memristances lie in [r_on, r_off],
  ``0 < settle_time <= max_time``, THD and the fundamental are finite and
  positive, loop areas are finite and non-negative, and no sweep row carries
  an error;
* for the seed the reference file was recorded with, agreement with the
  recorded outputs, within tolerances taken from the acceptance criteria (so
  a more accurate integrator or a batched solver still passes).

A check returns a list of failure messages; an empty list means the task
passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mirrorsim as ms
from mirrorsim.devices import memristance, mosfet_current, resistor_value

REFERENCE_PATH = Path(__file__).with_name("reference.json")

_DEFAULTS = ms.SimOptions()
ABSTOL = _DEFAULTS.abstol      # A, Newton's KCL tolerance
RELTOL = _DEFAULTS.reltol      # Newton's relative voltage tolerance
VNTOL = _DEFAULTS.vntol        # V, Newton's absolute voltage tolerance
MAX_SETTLE_TIME = 24.0         # s, settled_transient's default max_time

# (relative, absolute) tolerance of each recorded output against the
# reference.  Settle time 1% and settled currents 0.1% (the criterion-10
# step-halving bound); DC rows within Newton's own dual tolerance; THD,
# fundamental and loop area 1%.
_TOLERANCES = {
    "settle_time": (1e-2, 0.0),
    "settled_i_in": (1e-3, 0.0),
    "settled_i_out": (1e-3, 0.0),
    "i_in": (RELTOL, ABSTOL),
    "i_out": (RELTOL, ABSTOL),
    "v_out": (RELTOL, VNTOL),
    "baseline_current": (RELTOL, ABSTOL),
    "thd": (1e-2, 0.0),
    "fundamental": (1e-2, 0.0),
    "area": (1e-2, 1e-12),          # A*V; a resistor's loop is noise near 0
    "peak_current": (1e-3, 0.0),
}


def outputs(task: dict, result) -> dict:
    """The task's result as JSON values, the form the reference stores."""
    call = task["call"]
    if call == "settled_transient":
        return {"settle_time": result.settle_time,
                "settled_i_in": result.op.device_currents["M1"],
                "settled_i_out": result.op.device_currents["M2"]}
    if call == "parameter_sweep":
        return {"i_out": [r.i_out for r in result],
                "v_out": [r.v_out for r in result]}
    if call == "temperature_sweep":
        return {"i_in": [r.i_in for r in result],
                "i_out": [r.i_out for r in result]}
    if call == "mismatch_sweep":
        return {"baseline_current": result.baseline_current,
                "simulated": [r.simulated for r in result.rows]}
    if call == "hysteresis_trace":
        return {"area": result.area,
                "peak_current": float(max(abs(result.current)))}
    if call == "distortion_trace":
        return {"thd": result.thd, "fundamental": result.fundamental}
    raise ValueError(f"unknown call {call!r}")


# --------------------------------------------------------------------------- #
# KCL from the device laws, for mirror sweep rows
# --------------------------------------------------------------------------- #

def _load_current(dev, vdd: float, v: float, circuit, temp: float) -> float:
    """Current a load hanging from vdd delivers into the node at ``v``."""
    if isinstance(dev.params, ms.ResistorParams):
        return (vdd - v) / resistor_value(dev.params, temp)
    if isinstance(dev.params, ms.MemristorParams):
        # solve_dc holds memristors at their initial state
        return (vdd - v) / memristance(ms.MemristorState(dev.w0), dev.params)
    # PMOS input device MP1: source at vdd, gate at vbias, drain at the node
    vb = circuit.device("VB").spec.dc_value
    return -mosfet_current(vb - vdd, v - vdd, dev.params, temp)


def _root(f, lo: float, hi: float) -> float:
    """Root of ``f`` on [lo, hi], where f(lo) and f(hi) differ in sign, by the
    Illinois variant of false position, to the last bit of the bracket."""
    f_lo, f_hi = f(lo), f(hi)
    side = 0
    for _ in range(200):
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if x in (lo, hi):
                break
        f_x = f(x)
        if f_x == 0.0:
            return x
        if (f_x > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, f_x
            if side == -1:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = x, f_x
            if side == 1:
                f_lo *= 0.5
            side = 1
    return lo if abs(f_lo) < abs(f_hi) else hi


class _Mirror:
    """Device parameters of one elaborated mirror, for evaluating its laws."""

    def __init__(self, circuit, temp: float):
        self.circuit = circuit
        self.temp = temp
        self.vdd = circuit.device("V1").spec.dc_value
        names = {d.name for d in circuit.devices}
        self.load1 = circuit.device(next(n for n in ("MP1", "Y1", "R1") if n in names))
        self.load2 = circuit.device(next(n for n in ("Y2", "R2") if n in names))
        self.m1 = circuit.device("M1").params
        self.m2 = circuit.device("M2").params

    def i_load1(self, v: float) -> float:
        return _load_current(self.load1, self.vdd, v, self.circuit, self.temp)

    def i_load2(self, v: float) -> float:
        return _load_current(self.load2, self.vdd, v, self.circuit, self.temp)

    def i_m1(self, v_d1: float) -> float:
        return mosfet_current(v_d1, v_d1, self.m1, self.temp)

    def i_m2(self, v_d1: float, v_d2: float) -> float:
        return mosfet_current(v_d1, v_d2, self.m2, self.temp)

    def v_d2_for(self, i_out: float) -> float:
        """Output-node voltage at which the output load carries ``i_out``
        (the output load is a resistor or a frozen memristor: linear)."""
        conductance = self.i_load2(0.0) / self.vdd
        return self.vdd - i_out / conductance


def _kcl_parameter_row(mirror: _Mirror, i_out: float, v_out: float) -> float:
    # the row carries the output node's voltage: KCL at d2 is direct
    return abs(mirror.i_load2(v_out) - i_out)


def _kcl_temperature_row(mirror: _Mirror, i_in: float, i_out: float) -> float:
    # the input current fixes d1 through the diode-connected M1's law
    v_d1 = _root(lambda v: mirror.i_m1(v) - i_in, 0.0, mirror.vdd)
    v_d2 = mirror.v_d2_for(i_out)
    return max(abs(mirror.i_load1(v_d1) - i_in),
               abs(mirror.i_m2(v_d1, v_d2) - i_out))


def _kcl_mismatch_row(mirror: _Mirror, simulated: float) -> float:
    # the row carries only (I2 - I1)/I1: the input branch alone fixes d1
    v_d1 = _root(lambda v: mirror.i_load1(v) - mirror.i_m1(v), 0.0, mirror.vdd)
    i_out = mirror.i_m1(v_d1) * (1.0 + simulated)
    v_d2 = mirror.v_d2_for(i_out)
    return abs(mirror.i_m2(v_d1, v_d2) - i_out)


def _sweep_kcl(task: dict, result) -> list[float]:
    """Per-row KCL residual (A) of a sweep, from the device laws alone."""
    config = ms.MirrorConfig(kind=ms.MirrorKind(task["config"]),
                             **({"m0": task["m0"]} if "m0" in task else {}))
    base = ms.mirror_circuit(config)
    call = task["call"]
    if call == "parameter_sweep":
        return [_kcl_parameter_row(
                    _Mirror(ms.with_override(base, task["path"], r.value), base.temp),
                    r.i_out, r.v_out)
                for r in result]
    if call == "temperature_sweep":
        return [_kcl_temperature_row(_Mirror(base, r.temp), r.i_in, r.i_out)
                for r in result]
    path = "Y2.m0" if "m0" in task else "R2.r_nominal"
    return [_kcl_mismatch_row(
                _Mirror(ms.with_override(base, path, r.load2), ms.T_REF), r.simulated)
            for r in result.rows]


# --------------------------------------------------------------------------- #
# invariants
# --------------------------------------------------------------------------- #

def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_settle(task: dict, result) -> list[str]:
    fails = []
    if not result.op.kcl_residual <= ABSTOL:
        fails.append(f"KCL residual {result.op.kcl_residual:.3g} A > abstol")
    circuit = ms.mirror_circuit(ms.MirrorConfig(
        kind=ms.MirrorKind(task["config"]), vdd=task["vdd"], m0=task["m0"]))
    for name, w in result.states.items():
        params = circuit.device(name).params
        m = memristance(ms.MemristorState(w), params)
        if not params.r_on <= m <= params.r_off:
            fails.append(f"{name} settled at {m:.6g} ohm, outside [r_on, r_off]")
    if not 0.0 < result.settle_time <= MAX_SETTLE_TIME:
        fails.append(f"settle_time {result.settle_time} outside (0, {MAX_SETTLE_TIME}]")
    return fails


def _check_sweep(task: dict, result) -> list[str]:
    rows = result.rows if task["call"] == "mismatch_sweep" else result
    fails = [f"row {k} carries error: {r.error}"
             for k, r in enumerate(rows) if getattr(r, "error", None)]
    if len(rows) != task["grid"]["n"]:
        fails.append(f"{len(rows)} rows for a {task['grid']['n']}-point grid")
    values = [v for vs in outputs(task, result).values()
              for v in (vs if isinstance(vs, list) else [vs])]
    if not _finite(values):
        fails.append("non-finite value in sweep rows")
        return fails
    worst = max(_sweep_kcl(task, result))
    if not worst <= ABSTOL:
        fails.append(f"recomputed KCL residual {worst:.3g} A > abstol")
    return fails


def _check_hysteresis(task: dict, result) -> list[str]:
    fails = []
    if not (math.isfinite(result.area) and result.area >= 0.0):
        fails.append(f"loop area {result.area} not finite and >= 0")
    if not _finite(result.current):
        fails.append("non-finite current sample")
        return fails
    if task["device"] == "memristor":
        if not result.area > 0.0:
            fails.append("memristor loop encloses no area")
    else:
        # the lone resistor hangs across the drive: KCL at the drive node
        g = 1.0 / resistor_value(ms.RESISTOR_DEFAULTS, ms.T_REF)
        worst = float(max(abs(result.current - g * result.voltage)))
        if not worst <= ABSTOL:
            fails.append(f"resistor KCL residual {worst:.3g} A > abstol")
    return fails


def _check_distortion(task: dict, result) -> list[str]:
    return [f"{name} = {v} is not finite and positive"
            for name, v in (("thd", result.thd), ("fundamental", result.fundamental))
            if not (math.isfinite(v) and v > 0.0)]


_INVARIANTS = {
    "settled_transient": _check_settle,
    "parameter_sweep": _check_sweep,
    "temperature_sweep": _check_sweep,
    "mismatch_sweep": _check_sweep,
    "hysteresis_trace": _check_hysteresis,
    "distortion_trace": _check_distortion,
}


# --------------------------------------------------------------------------- #
# reference comparison
# --------------------------------------------------------------------------- #

def load_reference(workload: str, seed: int) -> list[dict] | None:
    """Recorded ``{"task", "outputs"}`` entries for this workload, or None when
    the reference was recorded with another seed."""
    data = json.loads(REFERENCE_PATH.read_text())
    if data["seed"] != seed:
        return None
    return data["workloads"][workload]


def _compare(outs: dict, ref: dict) -> list[str]:
    fails = []
    for key, want in ref.items():
        got = outs[key]
        got_list = got if isinstance(got, list) else [got]
        want_list = want if isinstance(want, list) else [want]
        if len(got_list) != len(want_list):
            fails.append(f"{key}: {len(got_list)} values, reference has {len(want_list)}")
            continue
        if key == "simulated":
            # (I2 - I1)/I1: each current may move by abstol
            rtol, atol = RELTOL, 2.0 * ABSTOL / abs(outs["baseline_current"])
        else:
            rtol, atol = _TOLERANCES[key]
        for k, (g, w) in enumerate(zip(got_list, want_list)):
            if not abs(g - w) <= rtol * abs(w) + atol:
                fails.append(f"{key}[{k}] = {g!r}, reference {w!r}")
                break
    return fails


def check(task: dict, result, reference: dict | None) -> list[str]:
    """Failure messages for one task's result (empty when it passed)."""
    fails = _INVARIANTS[task["call"]](task, result)
    if reference is not None:
        if reference["task"] != task:
            fails.append("task inputs differ from the reference's")
        else:
            fails.extend(_compare(outputs(task, result), reference["outputs"]))
    return fails
