"""Measurement and sweep layer on top of the nodal engine.

Everything here consumes elaborated circuits (usually the built-in mirror
configurations) and produces plain result records: harmonic distortion of a
waveform, settling/switching times, load-mismatch tables, temperature and
parameter sweeps, pinched-hysteresis traces, and the side-by-side
power/area/distortion report across the four mirror configurations.

Two conventions hold throughout:

* ``I_in`` is the drain current of the diode-connected input device M1 and
  ``I_out`` the drain current of the output device M2; both are positive in
  normal operation for every configuration, PMOS-input ones included.
* Sweeps never mutate the circuit they are given.  When the circuit has no
  memristor to settle, a sweep compiles it once and solves all its points
  as one batch: a swept parameter's value goes straight into the one
  per-row column it changes (a conductance, a frozen memristance, MOSFET
  coefficients or a source value), through the parameter records and
  checks of :func:`mirrorsim.netlist.overrides`.  Every row equals
  ``solve_dc(with_override(...))`` of that point alone, to the bit, and a
  failing row fails alone.  Memristive points each run their own settled
  transient, one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .constants import T_REF
from .devices import (
    DeviceError,
    MemristorParams,
    ResistorParams,
    SourceSpec,
    gate_leakage,
    mosfet_current,
    mosfet_linearized,
    subthreshold_leakage,
)
from .engine import (
    OperatingPoint,
    SimOptions,
    SimulationError,
    Waveform,
    _compile,
    _quadratic_read,
    run_transient,
    solve_dc,
)
from .netlist import (
    BoundMemristor,
    BoundMosfet,
    BoundResistor,
    BoundSource,
    Circuit,
    ElaborationError,
    MIRROR_MEMRISTOR,
    MirrorConfig,
    MirrorKind,
    mirror_circuit,
    overrides,
)

__all__ = [
    "AnalysisError",
    "NotSettledError",
    "ThdResult",
    "SettledResult",
    "MismatchRow",
    "MismatchTable",
    "TemperatureRow",
    "ParameterRow",
    "HysteresisTrace",
    "ConfigReport",
    "AnalysisReport",
    "REPORT_NOTES",
    "compute_thd",
    "switching_time",
    "settled_transient",
    "mismatch_sweep",
    "temperature_sweep",
    "parameter_sweep",
    "hysteresis_trace",
    "power_and_area",
    "distortion_trace",
    "config_report",
    "table1_report",
    "calibrate_mobility",
]


# --------------------------------------------------------------------------- #
# Errors
# --------------------------------------------------------------------------- #

class AnalysisError(Exception):
    """A measurement or sweep could not be carried out as requested."""


class NotSettledError(AnalysisError):
    """A waveform never stayed inside the settle band long enough to call it
    settled (the in-band tail must cover at least 10% of the run)."""


# --------------------------------------------------------------------------- #
# Harmonic distortion
# --------------------------------------------------------------------------- #

_MIN_SAMPLES_PER_PERIOD = 20

# largest spread of a THD grid's time steps, relative to its first: the
# steps of np.arange(n) * dt differ by rounding alone, a few ulps of the
# last time
_UNIFORM_GRID_RTOL = 1e-6


@dataclass(frozen=True)
class ThdResult:
    """Single-tone harmonic decomposition of a waveform.

    ``fundamental`` is the amplitude at ``f0``; ``harmonics[k]`` is the
    amplitude at ``(k + 2) * f0``.  ``thd`` is the usual amplitude ratio
    ``sqrt(sum(harmonics**2)) / fundamental`` (a fraction, not percent) and
    always equals that recomputation of the stored magnitudes.
    """

    f0: float
    fundamental: float
    harmonics: np.ndarray
    thd: float

    @property
    def n_harmonics(self) -> int:
        return 1 + len(self.harmonics)

    @property
    def thd_percent(self) -> float:
        return 100.0 * self.thd


def compute_thd(wave: Waveform, f0: float, n_harmonics: int) -> ThdResult:
    """Harmonic amplitudes of ``wave`` at ``k*f0`` and their distortion ratio.

    The leading 20% of the run or two periods of ``f0``, whichever is
    longer, are discarded as settling, and the analysis window is the
    trailing whole number of periods that survives, so drives need not start
    on a period boundary.  The window holds P whole periods, so harmonic k
    is bin k*P of its discrete Fourier transform, taken by one real FFT
    (Cooley & Tukey 1965): exact for tones on the grid and free of
    spectral leakage between the measured bins.

    Raises :class:`AnalysisError` when ``n_harmonics`` is not a whole
    number of at least 2, when the waveform is too short (fewer than
    two whole periods after the discard), when its time grid is not uniform,
    when a time is not finite, when ``f0`` is not resolvable on the sample
    grid (fewer than 20 samples per period), when the highest requested
    harmonic sits at or beyond the Nyquist rate, or when a sample of the
    window is not finite.
    """
    if not f0 > 0.0:  # NaN included
        raise AnalysisError(f"fundamental frequency must be positive, got {f0}")
    if not n_harmonics >= 2:  # NaN included
        raise AnalysisError("need n_harmonics >= 2 (distortion sums harmonics 2..N)")
    if n_harmonics % 1:  # inf % 1 is NaN
        raise AnalysisError(f"n_harmonics must be a whole number, got {n_harmonics}")
    n_harmonics = int(n_harmonics)
    t = np.asarray(wave.t, dtype=float)
    x = np.asarray(wave.values, dtype=float)
    if t.size < 2:
        raise AnalysisError("waveform too short: need at least two samples")
    if not np.isfinite(t).all():
        raise AnalysisError("waveform has a non-finite time")
    dt = float(t[1] - t[0])
    steps = np.diff(t)
    if np.ptp(steps) > _UNIFORM_GRID_RTOL * abs(dt):
        raise AnalysisError(
            f"time grid not uniform: steps range from {steps.min():.6g} to "
            f"{steps.max():.6g} s")
    samples_per_period = 1.0 / (f0 * dt)
    if samples_per_period < _MIN_SAMPLES_PER_PERIOD:
        raise AnalysisError(
            f"f0={f0} Hz not resolvable on the grid: {samples_per_period:.1f} "
            f"samples per period, need >= {_MIN_SAMPLES_PER_PERIOD}")
    if n_harmonics * f0 >= 0.5 / dt:
        raise AnalysisError(
            f"harmonic {n_harmonics} of f0={f0} Hz is at or beyond the Nyquist "
            f"rate for dt={dt}")
    span = float(t[-1] - t[0])
    discard = max(0.2 * span, 2.0 / f0)
    periods = int(math.floor((span - discard) * f0 + 1e-9))
    if periods < 2:
        raise AnalysisError(
            f"waveform too short: {max(span - discard, 0.0):.3g} s left after a "
            f"{discard:.3g} s settle discard covers fewer than two periods of "
            f"{f0} Hz")
    count = int(round(periods * samples_per_period))
    xw = x[-count:]
    if not np.isfinite(xw).all():
        raise AnalysisError("waveform has a non-finite sample in its analysis window")
    mags = np.abs(np.fft.rfft(xw)[periods * np.arange(1, n_harmonics + 1)]) * (2.0 / count)
    fundamental = float(mags[0])
    if fundamental == 0.0:
        raise AnalysisError("no component at the fundamental frequency")
    harmonics = mags[1:].copy()
    thd = float(math.sqrt(float(np.dot(harmonics, harmonics))) / fundamental)
    return ThdResult(f0=f0, fundamental=fundamental, harmonics=harmonics, thd=thd)


# --------------------------------------------------------------------------- #
# Settling
# --------------------------------------------------------------------------- #

# switching_time's band, relative to the final value; the current a settled
# transient watches; the spacing of the grid it is read on, the fixed step
# settled transients took before they were error-controlled; and the
# seconds each of its runs adds
_SETTLE_BAND = 0.01
_SETTLE_PROBE = "i(M2)"
_SETTLE_LATTICE = 1e-3
_SETTLE_CHUNK = 3.0


def switching_time(wave: Waveform) -> float:
    """Earliest time after which every sample stays within ``_SETTLE_BAND``
    (relative to the final value) of the final sample.

    A waveform that is in-band from its first sample switches at ``t[0]``
    (0.0 on engine grids).  The call is append-invariant: extending a settled
    waveform with more in-band samples does not move the switching time.

    Raises :class:`NotSettledError` when the in-band tail covers less than
    10% of the run, which is too little evidence to call the value final,
    and :class:`AnalysisError` for fewer than two samples, or a time or a
    sample that is not finite.
    """
    t = np.asarray(wave.t, dtype=float)
    x = np.asarray(wave.values, dtype=float)
    if t.size < 2:
        raise AnalysisError("waveform too short: need at least two samples")
    if not np.isfinite(t).all():
        raise AnalysisError("waveform has a non-finite time")
    if not np.isfinite(x).all():
        raise AnalysisError("waveform has a non-finite sample")
    final = float(x[-1])
    band = _SETTLE_BAND * abs(final)
    outside = np.nonzero(np.abs(x - final) > band)[0]
    settled_at = float(t[0]) if outside.size == 0 else float(t[outside[-1] + 1])
    if settled_at - t[0] > 0.9 * (t[-1] - t[0]):
        raise NotSettledError(
            f"waveform only enters the {_SETTLE_BAND:.3g} band at t={settled_at:.6g} s "
            f"of a {float(t[-1]):.6g} s run; settled tail shorter than 10% of the run")
    return settled_at


def _has_memristors(circuit: Circuit) -> bool:
    return any(isinstance(d, BoundMemristor) for d in circuit.devices)


def _sine_drive(circuit: Circuit, frequency: float, periods: int, samples: int,
                probes: list[str], *, states: dict[str, float] | None = None,
                adaptive: bool = False) -> tuple[np.ndarray, list[np.ndarray]]:
    """Times and probe values of ``circuit`` over ``periods`` periods of a
    sine drive at ``frequency``, recorded ``samples`` times a period: t =
    k*dt with dt = 1/(frequency*samples), ``periods*samples + 1`` samples.

    A memristive circuit runs the whole transient, from ``states`` (metres
    by name; None or empty: its initial states), with error-controlled
    steps when ``adaptive``.  A circuit with no memristor carries no state, so each
    period is the same solve in exact arithmetic: only samples
    0..samples-1 are solved, and they are tiled over the run.
    """
    dt = 1.0 / (frequency * samples)
    t = np.arange(periods * samples + 1) * dt
    if _has_memristors(circuit):
        opts = SimOptions(dt=dt, t_stop=periods / frequency, adaptive=adaptive)
        result = run_transient(circuit, opts, probes, initial_states=states)
        return t, [w.values for w in result.waveforms]
    result = run_transient(circuit, SimOptions(dt=dt, t_stop=(samples - 1) * dt), probes)
    return t, [np.resize(w.values, len(t)) for w in result.waveforms]


@dataclass(frozen=True)
class SettledResult:
    """A circuit driven to its settled operating point.

    ``op`` is a DC solve with memristor states frozen at ``states`` (empty for
    circuits without memristors, which settle instantly); ``settle_time`` is
    the switching time of the output current ``i(M2)``.
    """

    op: OperatingPoint
    states: dict[str, float]
    settle_time: float


def settled_transient(circuit: Circuit, *, temp: float | None = None,
                      max_time: float = 24.0) -> SettledResult:
    """Run ``circuit`` (at ``temp`` kelvin, when given) until its output
    current ``i(M2)`` settles; return the end state.

    Circuits without memristors have no state to evolve, so a plain DC solve
    is already settled.  Otherwise the transient is extended
    ``_SETTLE_CHUNK`` seconds at a time (continuing from the frozen
    memristor states) until :func:`switching_time` accepts the accumulated
    waveform; past ``max_time`` the :class:`NotSettledError` propagates.
    At least one chunk runs, however short ``max_time`` is.

    Each chunk runs error-controlled steps (``SimOptions.adaptive``) and the
    current is read onto a 1 ms grid, on which ``settle_time`` falls, by
    the quadratic through the three accepted steps around each grid time
    (:func:`~mirrorsim.engine._quadratic_read`), steps some 50 ms apart.
    That time depends on the record length, since the band is taken from
    the record's last sample: ``2m`` at 2.0 V settles at 1.900 s with 3 s
    chunks and at 1.932 s with 12 s chunks.

    A ``max_time`` that is not positive and finite raises
    :class:`AnalysisError` before any run.
    """
    if not 0.0 < max_time < math.inf:  # NaN included
        raise AnalysisError(f"max_time must be positive and finite, got {max_time}")
    if temp is not None:
        circuit = replace(circuit, temp=temp)
    if not _has_memristors(circuit):
        return SettledResult(solve_dc(circuit), {}, 0.0)
    opts = SimOptions(t_stop=_SETTLE_CHUNK, adaptive=True)
    lattice = (np.arange(math.floor(_SETTLE_CHUNK / _SETTLE_LATTICE + 1e-9) + 1)
               * _SETTLE_LATTICE)
    t = x = np.empty(0)
    states: dict[str, float] | None = None
    offset = 0.0
    while offset == 0.0 or offset < max_time - 1e-9:  # one chunk at least
        res = run_transient(circuit, opts, [_SETTLE_PROBE], initial_states=states)
        wave = res.waveform(_SETTLE_PROBE)
        # sample 0 of a continuation repeats the previous final sample
        first = 1 if x.size else 0
        t = np.concatenate([t, lattice[first:] + offset])
        read = _quadratic_read(wave.t, wave.values[:, None], lattice)[:, 0]
        x = np.concatenate([x, read[first:]])
        states, offset = dict(res.final_states), offset + _SETTLE_CHUNK
        try:
            settled_at = switching_time(Waveform(wave.name, wave.unit, t, x))
        except NotSettledError:
            continue
        return SettledResult(solve_dc(circuit, states=states), states, settled_at)
    raise NotSettledError(
        f"{circuit.title!r}: {_SETTLE_PROBE} did not settle within {max_time} s")


# --------------------------------------------------------------------------- #
# Sweeps
# --------------------------------------------------------------------------- #

def _raise_first(errors: dict) -> None:
    """Raises the error of the first row in ``errors`` (row -> error), if any."""
    if errors:
        raise errors[min(errors)]


def _settled_rows(circuit: Circuit, temps: list, records: dict | None = None):
    """Node voltages (rows, nodes) and device currents (rows, devices in
    circuit order) of ``circuit`` settled per row as the module docstring
    describes: row k at ``temps[k]`` (None: the circuit's own), the device
    at each position of ``records`` replaced by that list's entry k.  The
    first failing row's error propagates."""
    if not _has_memristors(circuit):
        solved = _compile(circuit, temps, records=records).solve()
        _raise_first(solved.errors)
        return solved.x[:, :len(circuit.node_names)], solved.currents
    ops = []
    for k, temp in enumerate(temps):
        row = circuit.copy() if records else circuit
        for position, column in (records or {}).items():
            row.devices[position] = column[k]
        ops.append(settled_transient(row, temp=temp).op)
    return (np.array([op.node_voltages for op in ops]),
            np.array([list(op.device_currents.values()) for op in ops]))


@dataclass(frozen=True)
class MismatchRow:
    """One output-load point of a mismatch sweep.

    ``simulated``, ``predicted`` and ``predicted_ro`` are the relative
    output-current error ``(I_D2 - I_D1) / I_D1``.

    ``predicted`` is the load-dominated closed form ``k_factor * (R1/R2 - 1)``,
    valid only when the output transistor's r_o is much smaller than the load.
    In the built-in mirrors M2 is saturated and r_o is 14-16x the load, so
    this form overstates the deviation by well over an order of magnitude.

    ``predicted_ro`` is the first-order response of a saturated M2 whose gate
    the input branch holds: ``d0 - (1 + d0) * k_factor_ro * (R2 - R_b)/R_b``,
    with ``d0`` the simulated deviation at the baseline load ``R_b`` (0 when
    the input branch carries a matched load).  Its gap to the exact level-1
    result is ``k_factor_ro * |R2 - R_b| / R_b`` relative.

    A row whose simulation failed carries the message in ``error`` and NaN in
    ``simulated``.
    """

    load2: float
    rel_delta_r: float
    simulated: float
    predicted: float
    predicted_ro: float
    error: str | None = None


@dataclass(frozen=True)
class MismatchTable:
    """Mismatch sweep result.

    ``k_factor`` is the load-dominated factor ``1 / (1 - V_DS1/VDD)``
    measured on the baseline, valid only when r_o is much smaller than the
    load; ``baseline_current`` is the input current I_D1 there.
    ``k_factor_ro`` is ``R_b / (R_b + r_o2)``, the share of a relative
    output-load change that reaches the output current, with
    ``r_o2 = 1/g_ds`` of M2 at its baseline bias.
    """

    rows: tuple[MismatchRow, ...]
    k_factor: float
    baseline_current: float
    k_factor_ro: float


def mismatch_sweep(config: MirrorConfig, load2_values: Iterable[float], *,
                   temp: float = T_REF) -> MismatchTable:
    """Output-current error versus output-load value, simulated and predicted.

    The input branch keeps its nominal load (``config.r_load`` for resistive
    configurations, ``config.m0`` for memristive ones) while the output load
    steps through ``load2_values``.  Memristive loads are held at the stated
    memristance for the solve — the sweep isolates the effect of a load value,
    so the state is pinned rather than allowed to drift during settling.
    A row that fails (its load's checks, compile or solve) is flagged and
    the sweep continues.  The baseline and every row are one batched DC
    solve.  A baseline that carries no input current raises
    :class:`AnalysisError`.
    """
    values = [float(v) for v in load2_values]
    if not values:
        raise AnalysisError("mismatch sweep needs at least one output-load value")
    if not all(0.0 < v < math.inf for v in values):
        raise AnalysisError("output-load values must be positive")
    memristive = config.kind.has_memristors
    base = config.m0 if memristive else config.r_load
    path = "Y2.m0" if memristive else "R2.r_nominal"
    circuit = replace(mirror_circuit(config), temp=temp)
    position, records, errors = overrides(circuit, path, [base] + values)
    solved = _compile(circuit, [None] * len(records), records={position: records})
    solved.errors.update(errors)
    solved.solve()
    if 0 in solved.errors:
        raise solved.errors[0]
    base_op = solved.operating_point(0)
    vdd = config.vdd_value
    v_ds1 = float(base_op.node_voltages[circuit.node_index("d1")])
    v_ds2 = float(base_op.node_voltages[circuit.node_index("d2")])
    k_factor = 1.0 / (1.0 - v_ds1 / vdd)
    i_d1_base = base_op.device_currents["M1"]
    if i_d1_base == 0.0:
        raise AnalysisError(
            f"mismatch baseline ({path}={base:g}) carries no input current: "
            f"I_D1 = 0 A, so the relative error is undefined")
    delta_base = (base_op.device_currents["M2"] - i_d1_base) / i_d1_base
    _, _, g_ds2 = mosfet_linearized(v_ds1, v_ds2, circuit.device("M2").params, temp)
    k_factor_ro = base / (base + 1.0 / g_ds2)
    m1, m2 = (circuit.devices.index(circuit.device(n)) for n in ("M1", "M2"))

    rows = []
    currents = solved.currents[1:, [m1, m2]].tolist()
    for k, (value, (i1, i2)) in enumerate(zip(values, currents), start=1):
        rel = (value - base) / base
        predicted = k_factor * (base / value - 1.0)
        predicted_ro = delta_base - (1.0 + delta_base) * k_factor_ro * rel
        # a failed row reads NaN currents, so its simulated deviation is NaN
        error = solved.errors.get(k)
        rows.append(MismatchRow(value, rel, (i2 - i1) / i1, predicted, predicted_ro,
                                error=str(error) if error else None))
    return MismatchTable(tuple(rows), k_factor, i_d1_base, k_factor_ro)


@dataclass(frozen=True)
class TemperatureRow:
    """Mirror currents at one temperature (kelvin)."""

    temp: float
    i_in: float
    i_out: float


def temperature_sweep(config: MirrorConfig,
                      temps: Iterable[float]) -> tuple[TemperatureRow, ...]:
    """Settled mirror currents across operating temperatures.

    Every device is re-evaluated at each temperature through its own law
    (threshold shift, mobility exponent, resistor tempco).  The first failing
    row's error propagates: a temperature row has no meaningful partial
    result.
    """
    points = [float(T) for T in temps]
    if not points:
        raise AnalysisError("temperature sweep needs at least one temperature")
    if not all(0.0 < T < math.inf for T in points):
        raise AnalysisError("temperatures are kelvin values and must be positive")
    circuit = mirror_circuit(config)
    _, currents = _settled_rows(circuit, points)
    m1, m2 = (circuit.devices.index(circuit.device(n)) for n in ("M1", "M2"))
    return tuple(TemperatureRow(T, *pair)
                 for T, pair in zip(points, currents[:, [m1, m2]].tolist()))


@dataclass(frozen=True)
class ParameterRow:
    """Output current and output-node voltage at one parameter value."""

    value: float
    i_out: float
    v_out: float


def parameter_sweep(config: MirrorConfig, param_path: str,
                    values: Iterable[float], *,
                    temp: float | None = None) -> tuple[ParameterRow, ...]:
    """Settled ``(I_out, V_out)`` while one named parameter steps through
    ``values``.

    ``param_path`` is an ``ELEMENT.field`` path with the usual schematic
    aliases (``T2.width``, ``T2.vth0``, ``source.vbias``, ...).  Unknown paths
    and invalid values fail fast, before any simulation starts.
    """
    points = [float(v) for v in values]
    if not points:
        raise AnalysisError("parameter sweep needs at least one value")
    circuit = mirror_circuit(config)
    position, records, errors = overrides(circuit, param_path, points)
    _raise_first(errors)
    volts, currents = _settled_rows(circuit, [temp] * len(points), {position: records})
    m2 = circuit.devices.index(circuit.device("M2"))
    outputs = zip(currents[:, m2].tolist(), volts[:, circuit.node_index("d2")].tolist())
    return tuple(ParameterRow(value, *pair) for value, pair in zip(points, outputs))


# --------------------------------------------------------------------------- #
# Hysteresis
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class HysteresisTrace:
    """Current-voltage trajectory of a sine-driven two-terminal loop.

    ``area`` is the unsigned area enclosed in the I-V plane by the final
    cycle (A*V).  The two lobes of a pinched loop are integrated per
    half-plane so they add instead of cancelling; a drive-proportional
    (memoryless) device encloses no area.  ``cycle_start`` indexes where
    that final cycle begins in the stored arrays.  A periodic loop (see
    :func:`hysteresis_trace`) stores its first cycle three times, so its
    final cycle is its first and its last sample repeats the first.
    """

    t: np.ndarray
    voltage: np.ndarray
    current: np.ndarray
    area: float
    cycle_start: int


def _loop_area(v: np.ndarray, i: np.ndarray) -> float:
    """Unsigned I-V loop area, one closed cycle given as sample points.

    Integrates ``i dv`` separately over the v >= 0 and v < 0 half-planes.
    A pinched loop crosses between half-planes only at v = 0, where the
    connecting segment contributes nothing, so each partial integral is the
    signed area of one lobe and their magnitudes add without cancellation.
    """
    dv = np.diff(v, append=v[:1])          # closing segment back to the start
    mid_i = 0.5 * (i + np.roll(i, -1))
    mid_v = 0.5 * (v + np.roll(v, -1))
    segments = mid_i * dv
    positive = float(np.sum(segments[mid_v >= 0.0]))
    negative = float(np.sum(segments[mid_v < 0.0]))
    return abs(positive) + abs(negative)


# a hysteresis trace's drive cycles, its memristor's start on [0, L], and
# its recorded samples per cycle (read at call time, so a test can
# monkeypatch it)
_HYSTERESIS_CYCLES = 3
_HYSTERESIS_INITIAL_FRACTION = 0.5
_HYSTERESIS_SAMPLES = 2000


def hysteresis_trace(params: MemristorParams | ResistorParams, drive: SourceSpec, *,
                     temp: float = T_REF) -> HysteresisTrace:
    """Drive a single two-terminal device with a sine for three cycles and
    trace its I-V loop.

    The harness is a source-device loop: the device hangs directly across the
    drive.  Memristor parameters start at half the boundary travel; resistor
    parameters run in the identical harness and bound the numerical noise
    floor (their loop area is zero up to rounding).  The loop area is
    measured on the last cycle.  The trace is recorded on a uniform grid of
    ``_HYSTERESIS_SAMPLES`` per cycle (:func:`_sine_drive`): a memristor's
    transient takes error-controlled steps (``SimOptions.adaptive`` with
    ``dt``), every sample a DC solution at its state, and a resistor, which
    carries no state, solves the first cycle and tiles it over three.

    A memristor's loop is periodic from its first cycle when the drive has
    no DC offset and the state stays strictly inside (0, L): the flux
    across the device, the integral of a zero-mean sine, is then periodic;
    the state is a function of the charge alone, and the memristance dphi/dq
    is positive, so the charge, the state and the current repeat with the
    flux (Chua 1971; Joglekar & Wolf 2009).  So a memristor on a zero-mean
    drive steps one cycle, and when its recorded states (clamped as the
    steps clamp them, on a grid ten times finer than the steps) stay inside
    (0, L), that cycle is tiled over three.  A loop with an offset, or whose
    state reaches a bound (a p = 0 window, or a device fast enough to lock
    at r_on), depends on its history and steps all three cycles.
    """
    if drive.kind != "sine":
        raise AnalysisError("hysteresis needs a sine drive")
    if isinstance(params, MemristorParams):
        device = BoundMemristor("Y1", 1, 0, params,
                                _HYSTERESIS_INITIAL_FRACTION * params.length)
        current_probe = "i(Y1)"
    elif isinstance(params, ResistorParams):
        device = BoundResistor("R1", 1, 0, params)
        current_probe = "i(R1)"
    else:
        raise AnalysisError(
            "hysteresis harness takes memristor or resistor parameters")
    circuit = Circuit(
        title="sine-driven device loop",
        node_names=["0", "in"],
        devices=[BoundSource("V1", 1, 0, drive), device],
        temp=temp,
    )
    cycles, samples = _HYSTERESIS_CYCLES, _HYSTERESIS_SAMPLES
    probes = ["v(in)", current_probe]
    periodic = False
    if isinstance(params, MemristorParams) and drive.dc_value == 0.0:
        t, (voltage, current, w) = _sine_drive(circuit, drive.frequency, 1, samples,
                                               probes + ["w(Y1)"], adaptive=True)
        periodic = 0.0 < w.min() and w.max() < params.length
    if periodic:
        t = np.arange(cycles * samples + 1) * t[1]
        voltage, current = (np.resize(x[:samples], len(t)) for x in (voltage, current))
    else:
        t, (voltage, current) = _sine_drive(circuit, drive.frequency, cycles, samples,
                                            probes, adaptive=True)
    start = len(voltage) - (samples + 1)
    area = _loop_area(voltage[start:], current[start:])
    return HysteresisTrace(t=t, voltage=voltage, current=current,
                           area=area, cycle_start=start)


# --------------------------------------------------------------------------- #
# Power, area, and the cross-configuration report
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class ConfigReport:
    """One mirror configuration summarized: currents, power, leakage, area.

    ``power_w`` is the supply power ``VDD*(I_in + I_out)`` plus the supply
    share of the leakage estimates; ``subthreshold_w`` counts only devices
    that the square law puts in cutoff (a conducting channel's current is
    already inside I_in/I_out), while ``gate_w`` sums the tunneling estimate
    at every gate.  ``thd`` is the output-current distortion under the
    standard sine drive (None when not measured).  A configuration whose
    simulation failed carries the message in ``error`` and NaN elsewhere.
    """

    kind: str
    i_in: float
    i_out: float
    power_w: float
    subthreshold_w: float
    gate_w: float
    area_m2: float
    thd: float | None = None
    error: str | None = None

    @property
    def power_mw(self) -> float:
        return 1e3 * self.power_w

    @property
    def area_um2(self) -> float:
        return 1e12 * self.area_m2

    @property
    def thd_percent(self) -> float | None:
        return None if self.thd is None else 100.0 * self.thd


@dataclass(frozen=True)
class AnalysisReport:
    """The four built-in configurations compared side by side."""

    rows: tuple[ConfigReport, ...]
    notes: tuple[str, ...]


def _device_area(device) -> float:
    """Layout footprint of one device (m^2); sources occupy no area."""
    if isinstance(device, (BoundResistor, BoundMemristor)):
        return device.params.footprint_w * device.params.footprint_l
    if isinstance(device, BoundMosfet):
        return device.params.width * device.params.length
    return 0.0


def power_and_area(config: MirrorConfig, settled_op: OperatingPoint, *,
                   temp: float = T_REF, thd: float | None = None) -> ConfigReport:
    """Supply power, leakage breakdown, and total footprint at an operating
    point.

    ``settled_op`` must come from the same configuration (typically via
    :func:`settled_transient`).  At a zero-current operating point the power
    reduces to the leakage-only contribution.
    """
    circuit = mirror_circuit(config)
    vdd = config.vdd_value
    volts = settled_op.node_voltages
    i_in = settled_op.device_currents["M1"]
    i_out = settled_op.device_currents["M2"]
    sub_total = 0.0
    gate_total = 0.0
    for device in circuit.devices:
        if not isinstance(device, BoundMosfet):
            continue
        vgs = float(volts[device.n_g] - volts[device.n_s])
        vds = float(volts[device.n_d] - volts[device.n_s])
        if mosfet_current(vgs, vds, device.params, temp) == 0.0:
            sub_total += subthreshold_leakage(vgs, vds, device.params, temp)
        gate_total += gate_leakage(vgs, device.params)
    area = sum(_device_area(d) for d in circuit.devices)
    power = vdd * (i_in + i_out) + vdd * (sub_total + gate_total)
    return ConfigReport(
        kind=config.kind.value,
        i_in=i_in,
        i_out=i_out,
        power_w=power,
        subthreshold_w=vdd * sub_total,
        gate_w=vdd * gate_total,
        area_m2=area,
        thd=thd,
    )


_STATE_SETTLE_TIME = 6.0     # s; long enough to pin memristive loads
_THD_DRIVE_PERIODS = 10
_THD_SAMPLES_PER_PERIOD = 200
# the standard sine supply drive: amplitude (V) and frequency (Hz), and the
# harmonics its distortion sums (the fundamental counts as the first)
_THD_AMPLITUDE = 2.5
_THD_FREQUENCY = 50.0
_THD_HARMONICS = 49

REPORT_NOTES = (
    "thd and power compare the four configurations under one shared device "
    "model; read them as orderings between rows, not foundry-exact values",
    "area is the plain sum of device footprints (resistor 2x10 um, "
    "memristor 45x90 nm, transistor W x L); report it alongside, not in "
    "place of, a layout estimate",
)
"""Caveats attached to every emitted report table."""


def _settled_load_states(circuit: Circuit) -> dict[str, float]:
    """Memristor states after the supply has pinned the loads (empty when the
    circuit has none)."""
    if not _has_memristors(circuit):
        return {}
    settle = run_transient(circuit, SimOptions(dt=1e-3, t_stop=_STATE_SETTLE_TIME),
                           ["i(M2)"])
    return dict(settle.final_states)


def _config_thd(circuit: Circuit, states: dict[str, float], amplitude: float,
                frequency: float) -> ThdResult:
    """Output-current distortion under the standard sine supply drive, over
    ``_THD_DRIVE_PERIODS`` periods of ``_THD_SAMPLES_PER_PERIOD`` samples.

    The sine replaces the supply ``V1``: it rides on V1's DC value plus
    ``amplitude``, so its floor stays at the circuit's own supply and the
    mirror never leaves normal operation over the cycle.  A memristive
    mirror steps the whole drive from ``states`` on the fixed grid; a
    resistive one carries no state, so its first period is solved and
    tiled (:func:`_sine_drive`).
    """
    driven = circuit.copy()
    supply = driven.device("V1").spec.dc_value
    driven.device("V1").spec = SourceSpec(kind="sine", dc_value=supply + amplitude,
                                          amplitude=amplitude, frequency=frequency)
    t, (current,) = _sine_drive(driven, frequency, _THD_DRIVE_PERIODS,
                                _THD_SAMPLES_PER_PERIOD, ["i(M2)"], states=states)
    return compute_thd(Waveform("i(M2)", "A", t, current), frequency, _THD_HARMONICS)


def distortion_trace(config: MirrorConfig, *, circuit: Circuit | None = None,
                     temp: float | None = None, amplitude: float = _THD_AMPLITUDE,
                     frequency: float = _THD_FREQUENCY) -> ThdResult:
    """Settle a mirror configuration, then measure the harmonic content of
    its output current under the standard sine supply drive, up to
    harmonic 49 (see :func:`_config_thd`: a resistive mirror solves one
    period of the drive and tiles it).

    ``circuit`` lets a caller pass an already-elaborated (possibly
    parameter-overridden) instance of the same configuration.  It runs at
    its own temperature (``T_REF`` for the one built here) unless ``temp``
    (kelvin) replaces it.  An ``amplitude`` that is not positive and
    finite raises :class:`AnalysisError` before any run: a zero drive has
    no distortion to measure, and a negative one dips below the supply.
    """
    if not 0.0 < amplitude < math.inf:  # NaN included
        raise AnalysisError(f"drive amplitude must be positive and finite, got {amplitude}")
    if circuit is None:
        circuit = mirror_circuit(config)
    if temp is not None:
        circuit = replace(circuit, temp=temp)
    return _config_thd(circuit, _settled_load_states(circuit), amplitude, frequency)


def config_report(config: MirrorConfig, *, temp: float = T_REF) -> ConfigReport:
    """One summary row for a configuration: settled currents, power, leakage,
    footprint, and output-current distortion.

    The configuration is settled first (memristive loads run a
    ``_STATE_SETTLE_TIME`` transient so their state is pinned, resistive ones
    solve directly), then measured.  A failure is captured in the row's
    ``error`` field rather than raised, so report tables always assemble.
    """
    try:
        circuit = replace(mirror_circuit(config), temp=temp)
        states = _settled_load_states(circuit)
        op = solve_dc(circuit, states=states)
        thd = _config_thd(circuit, states, _THD_AMPLITUDE, _THD_FREQUENCY).thd
        return power_and_area(config, op, temp=temp, thd=thd)
    except (SimulationError, ElaborationError, DeviceError, AnalysisError) as exc:
        return ConfigReport(kind=config.kind.value, i_in=math.nan,
                            i_out=math.nan, power_w=math.nan,
                            subthreshold_w=math.nan, gate_w=math.nan,
                            area_m2=math.nan, error=str(exc))


def table1_report() -> AnalysisReport:
    """Side-by-side distortion/power/area report over all four mirror kinds.

    One :func:`config_report` row per configuration, in declaration order,
    each at its default :class:`MirrorConfig` (per-topology supply) and
    ``T_REF``; rows that fail are flagged but the report is still emitted.
    """
    rows = tuple(config_report(MirrorConfig(kind=kind)) for kind in MirrorKind)
    return AnalysisReport(rows, REPORT_NOTES)


# --------------------------------------------------------------------------- #
# Mobility calibration
# --------------------------------------------------------------------------- #

# calibration bisects the mobility (m^2/(V*s)) on this bracket, at most
# _CALIBRATE_MAX_ITERS times, to a switching time within _CALIBRATE_REL_TOL
_MOBILITY_BRACKET = (2e-15, 2e-13)
_CALIBRATE_REL_TOL = 0.01
_CALIBRATE_MAX_ITERS = 40


def calibrate_mobility(target: float = 1.4, *, vdd: float = 2.5) -> float:
    """Dopant mobility that makes the memristive mirror switch in ``target``
    seconds at supply ``vdd``, to 1 %.

    Switching time falls with mobility, so a log-scale bisection on the
    bracket [2e-15, 2e-13] m^2/(V*s) converges; each probe is the
    ``settle_time`` of a :func:`settled_transient` of the two-memristor
    configuration.  Raises :class:`AnalysisError` before any run when the
    target is not positive and finite, and after when it lies
    outside what the bracket can reach (including targets shorter than the
    simulation can resolve), or when the settle time jumps across it
    (``target=3.0`` does).
    """
    if not 0.0 < target < math.inf:  # NaN included
        raise AnalysisError(
            f"switching-time target must be positive and finite, got {target}")
    lo, hi = _MOBILITY_BRACKET
    config = MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS, vdd=vdd)
    # Runs are capped well past the target; anything still unsettled there is
    # simply "slower than target" as far as the bisection is concerned.
    cap = max(6.0, 6.0 * target)

    def switching_for(mobility: float) -> float:
        params = replace(MIRROR_MEMRISTOR, mobility=mobility)
        circuit = mirror_circuit(config, params)
        try:
            return settled_transient(circuit, max_time=cap).settle_time
        except NotSettledError:
            return math.inf

    s_lo = switching_for(lo)
    s_hi = switching_for(hi)
    if not s_hi <= target <= s_lo:
        raise AnalysisError(
            f"switching-time target {target} s is outside the range "
            f"[{s_hi:.4g}, {s_lo:.4g}] s reachable on the mobility bracket "
            f"[{lo:.3g}, {hi:.3g}]")
    for endpoint, s_end in ((lo, s_lo), (hi, s_hi)):
        if math.isfinite(s_end) and abs(s_end - target) <= _CALIBRATE_REL_TOL * target:
            return float(endpoint)
    for _ in range(_CALIBRATE_MAX_ITERS):
        mid = math.sqrt(lo * hi)
        s_mid = switching_for(mid)
        if math.isfinite(s_mid) and abs(s_mid - target) <= _CALIBRATE_REL_TOL * target:
            return float(mid)
        if s_mid > target:
            lo = mid
        else:
            hi = mid
    raise AnalysisError(
        "mobility calibration did not converge; switching time is too "
        "insensitive to mobility near the target")
