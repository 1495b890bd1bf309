"""Numerical core: MNA assembly, Newton-Raphson DC solve, and fixed-step
backward-Euler transient simulation with the memristor states solved inside
Newton.

Unknown vector layout: index 0 is the ground node (pinned to 0 V by a trivial
row), indices 1..N-1 are node voltages, and the next entries are voltage
source branch currents (positive into the source's + terminal, the usual
SPICE sign convention, so a supply delivering power reads negative).  A
transient step appends one more unknown per memristor, its normalized state
s = w/L, with the backward-Euler update as its row (the way Ho, Ruehli &
Brennan's modified nodal analysis admits any extra unknown), so each step is
a single Newton solve of the coupled system.  A DC solve has no state rows:
the memristances stay frozen.

The dense linear solves go through :func:`numpy.linalg.solve` (LAPACK LU with
partial pivoting); circuits here have fewer than ten nodes, so no sparse
machinery is warranted.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .constants import T_REF
from .devices import (
    DeviceError,
    joglekar_window,
    mosfet_current,
    mosfet_linearized,
    resistor_value,
    source_value,
)
from .netlist import (
    BoundMemristor,
    BoundMosfet,
    BoundResistor,
    BoundSource,
    Circuit,
)

__all__ = [
    "SimulationError",
    "SingularMatrixError",
    "NonConvergenceError",
    "UnknownProbeError",
    "SimOptions",
    "OperatingPoint",
    "Waveform",
    "TransientResult",
    "assemble_system",
    "solve_dc",
    "run_transient",
]

# default number of fixed steps when SimOptions.dt is not given
_DEFAULT_STEPS = 10_000

# Newton voltage-step limit on nodes touching a MOSFET terminal
_DAMP_LIMIT = 0.5

# Newton step limit on a normalized memristor state s = w/L, the state
# counterpart of _DAMP_LIMIT: one linearization of the window is trusted to
# move a state by at most a quarter of the device
_STATE_LIMIT = 0.25


class SimulationError(Exception):
    """Base class for solver failures."""


class SingularMatrixError(SimulationError):
    pass


class NonConvergenceError(SimulationError):
    """Newton failed to converge, or produced a non-finite iterate.

    ``trace`` holds one (iteration, max |dV|, KCL residual) triple per Newton
    iteration (residual is NaN on iterations where it was not evaluated);
    ``time`` is the transient timestamp for failures inside run_transient.
    """

    def __init__(self, message: str, trace=None, time: float | None = None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
        self.time = time


class UnknownProbeError(SimulationError):
    pass


@dataclass(frozen=True)
class SimOptions:
    """Solver settings; defaults suit the second-scale circuits in this repo.

    ``temp=None`` defers to the circuit's own temperature (which the `.temp`
    directive sets); passing a value overrides it.  ``dt=None`` picks
    ``t_stop / 10000``.
    """

    abstol: float = 1e-9
    reltol: float = 1e-6
    vntol: float = 1e-6
    max_newton_iters: int = 100
    gmin: float = 1e-12
    dt: float | None = None
    t_stop: float | None = None
    temp: float | None = None
    source_steps: int = 10

    def __post_init__(self) -> None:
        if self.abstol <= 0.0 or self.reltol <= 0.0 or self.vntol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be >= 1")
        if self.gmin <= 0.0:
            raise ValueError("gmin must be positive")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_stop is not None and self.t_stop <= 0.0:
            raise ValueError("t_stop must be positive")
        if self.dt is not None and self.t_stop is not None and self.t_stop < self.dt:
            raise ValueError("t_stop must be >= dt")
        if self.temp is not None and self.temp <= 0.0:
            raise ValueError("temp must be positive kelvin")
        if self.source_steps < 1:
            raise ValueError("source_steps must be >= 1")


@dataclass
class OperatingPoint:
    """Converged DC solution.

    ``node_voltages[i]`` pairs with ``circuit.node_names[i]`` (ground at 0);
    ``device_currents`` maps every device name to its branch current — loads
    positive from n_pos to n_neg, MOSFETs positive into the drain, sources
    positive into the + terminal.
    """

    node_voltages: np.ndarray
    source_currents: dict[str, float]
    device_currents: dict[str, float]
    kcl_residual: float
    newton_iterations: int


@dataclass
class Waveform:
    name: str
    unit: str
    t: np.ndarray
    values: np.ndarray


@dataclass
class TransientResult:
    waveforms: list[Waveform]
    final_states: dict[str, float]
    dt: float

    def waveform(self, name: str) -> Waveform:
        wanted = name.replace(" ", "").lower()
        for w in self.waveforms:
            if w.name.replace(" ", "").lower() == wanted:
                return w
        raise UnknownProbeError(f"no recorded waveform {name!r}")


# --------------------------------------------------------------------------- #
# system assembly
# --------------------------------------------------------------------------- #

def _memristance(s: float, params) -> float:
    """M at the normalized state s = w/L, with the arithmetic of
    :func:`devices.memristance` (which takes w in metres, boxed)."""
    return s * params.r_on + (1.0 - s) * params.r_off


class _Plan:
    """One circuit at one temperature: index maps and resistor conductances.

    Memristor states travel as a list ``s`` of normalized positions
    ``w / L`` in the order of ``memristors``; the unknown vector ``x`` is a
    list of floats in the layout the module docstring gives.
    """

    def __init__(self, circuit: Circuit, temp: float):
        self.circuit = circuit
        self.temp = temp
        self.n_nodes = len(circuit.node_names)
        self.sources = [d for d in circuit.devices if isinstance(d, BoundSource)]
        self.resistors = [d for d in circuit.devices if isinstance(d, BoundResistor)]
        self.memristors = [d for d in circuit.devices if isinstance(d, BoundMemristor)]
        self.mosfets = [d for d in circuit.devices if isinstance(d, BoundMosfet)]
        self.branch_index = {
            s.name: self.n_nodes + k for k, s in enumerate(self.sources)
        }
        self.state_index = {m.name: k for k, m in enumerate(self.memristors)}
        self.dim = self.n_nodes + len(self.sources)
        damped = {n for m in self.mosfets for n in (m.n_d, m.n_g, m.n_s)}
        self.damped_nodes = sorted(n for n in damped if n != 0)
        if not any(0 in self._terminals(d) for d in circuit.devices):
            raise SingularMatrixError(
                "no device terminal touches ground; the nodal system is "
                "floating (gmin would mask the singularity)"
            )
        self.conductance = {
            r.name: 1.0 / resistor_value(r.params, temp) for r in self.resistors
        }

    @staticmethod
    def _terminals(device) -> tuple[int, ...]:
        if isinstance(device, BoundMosfet):
            return (device.n_d, device.n_g, device.n_s, device.n_b)
        return (device.n_pos, device.n_neg)

    def initial_states(self) -> dict[str, float]:
        return {m.name: m.w0 for m in self.memristors}

    def normalized(self, states: dict[str, float]) -> list[float]:
        """The plan's ``s`` list for states given in metres by device name."""
        out = []
        for m in self.memristors:
            s = states[m.name] / m.params.length
            if not 0.0 <= s <= 1.0:
                raise DeviceError(
                    f"state w={states[m.name]} outside [0, L={m.params.length}]"
                )
            out.append(s)
        return out

    def assemble(self, guess, states, gmin, source_scale, source_time, step=None):
        """Linearized system at ``guess``: the nodal rows with memristances
        at ``states``, plus the state rows of a backward-Euler step when
        ``step`` is ``(dt, s_prev)``."""
        size = self.dim if step is None else self.dim + len(self.memristors)
        g_mat = [[0.0] * size for _ in range(size)]
        rhs = [0.0] * size
        g_mat[0][0] = 1.0  # ground row pins v0 = 0 exactly
        for n in range(1, self.n_nodes):
            g_mat[n][n] += gmin

        def stamp_g(a: int, b: int, g: float) -> None:
            if a:
                g_mat[a][a] += g
            if b:
                g_mat[b][b] += g
            if a and b:
                g_mat[a][b] -= g
                g_mat[b][a] -= g

        for r in self.resistors:
            stamp_g(r.n_pos, r.n_neg, self.conductance[r.name])
        for m, sk in zip(self.memristors, states):
            stamp_g(m.n_pos, m.n_neg, 1.0 / _memristance(sk, m.params))

        temp = self.temp
        for f in self.mosfets:
            vgs = guess[f.n_g] - guess[f.n_s]
            vds = guess[f.n_d] - guess[f.n_s]
            i0, gm, gds = mosfet_linearized(vgs, vds, f.params, temp)
            ieq = i0 - gm * vgs - gds * vds
            d, g, s = f.n_d, f.n_g, f.n_s
            if d:
                g_mat[d][d] += gds
                if g:
                    g_mat[d][g] += gm
                if s:
                    g_mat[d][s] -= gm + gds
                rhs[d] -= ieq
            if s:
                g_mat[s][s] += gm + gds
                if g:
                    g_mat[s][g] -= gm
                if d:
                    g_mat[s][d] -= gds
                rhs[s] += ieq
            stamp_g(d, s, gmin)  # keeps a cutoff channel weakly anchored

        for src in self.sources:
            br = self.branch_index[src.name]
            p, n = src.n_pos, src.n_neg
            if p:
                g_mat[p][br] += 1.0
                g_mat[br][p] += 1.0
            if n:
                g_mat[n][br] -= 1.0
                g_mat[br][n] -= 1.0
            rhs[br] = source_scale * source_value(src.spec, source_time)

        if step is not None:
            self._stamp_states(g_mat, rhs, guess, states, step)
        return np.array(g_mat), np.array(rhs)

    def _stamp_states(self, g_mat, rhs, guess, states, step) -> None:
        """Backward-Euler rows ``s - s_prev - dt*(dw/dt)/L = 0`` linearized
        at (guess, s), and the state columns of the memristors' node rows.

        With M = s*Ron + (1-s)*Roff, i = v/M and dw/dt/L = c*i*f(s), the
        partials are di/ds = -v*(Ron - Roff)/M^2 and f'(s) of the Joglekar
        window.  A state at a bound whose residual points outward (the
        update would leave [0, 1]) is held there by the row ``s = bound``.
        """
        dt, s_prev = step
        for k, m in enumerate(self.memristors):
            p = m.params
            col = self.dim + k
            a, b = m.n_pos, m.n_neg
            sk = states[k]
            v = guess[a] - guess[b]
            g = 1.0 / _memristance(sk, p)
            i = v * g
            f = joglekar_window(sk, p.window_p)
            kc = dt * p.polarity * p.mobility * p.r_on / (p.length * p.length)
            resid = sk - s_prev[k] - kc * i * f
            if (sk == 1.0 and resid <= 0.0) or (sk == 0.0 and resid >= 0.0):
                g_mat[col][col] = 1.0
                rhs[col] = sk
                continue
            di_ds = -i * (p.r_on - p.r_off) * g
            if a:
                g_mat[a][col] += di_ds
                rhs[a] += di_ds * sk
            if b:
                g_mat[b][col] -= di_ds
                rhs[b] -= di_ds * sk
            q = p.window_p
            f_slope = -4.0 * q * (2.0 * sk - 1.0) ** (2 * q - 1) if q else 0.0
            d_ds = 1.0 - kc * (di_ds * f + i * f_slope)
            d_dv = -kc * f * g
            g_mat[col][col] = d_ds
            if a:
                g_mat[col][a] += d_dv
            if b:
                g_mat[col][b] -= d_dv
            rhs[col] = d_ds * sk + d_dv * v - resid

    def device_current(self, device, x, s) -> float:
        """Branch current of one device at solution ``x`` and states ``s``
        (see OperatingPoint)."""
        if isinstance(device, BoundResistor):
            g = self.conductance[device.name]
            return g * (x[device.n_pos] - x[device.n_neg])
        if isinstance(device, BoundMemristor):
            res = _memristance(s[self.state_index[device.name]], device.params)
            return (x[device.n_pos] - x[device.n_neg]) / res
        if isinstance(device, BoundMosfet):
            vgs = x[device.n_g] - x[device.n_s]
            vds = x[device.n_d] - x[device.n_s]
            return mosfet_current(vgs, vds, device.params, self.temp)
        if isinstance(device, BoundSource):
            return x[self.branch_index[device.name]]
        raise TypeError(f"unknown device {device!r}")

    def kcl_residual(self, x, s) -> float:
        """Largest net device current into any non-ground node (A)."""
        if self.n_nodes == 1:
            return 0.0
        sums = [0.0] * self.n_nodes
        for dev in self.circuit.devices:
            i = self.device_current(dev, x, s)
            if isinstance(dev, BoundMosfet):
                if dev.n_d:
                    sums[dev.n_d] -= i
                if dev.n_s:
                    sums[dev.n_s] += i
            else:
                if dev.n_pos:
                    sums[dev.n_pos] -= i
                if dev.n_neg:
                    sums[dev.n_neg] += i
        return float(max(map(abs, sums[1:])))

    # ---------------------------------------------------------------- Newton

    def newton(self, x0, s0, opts, source_scale=1.0, source_time=None,
               step=None, time_label: float | None = None):
        """Newton-Raphson to the dual tolerance: per-node voltage deltas below
        vntol + reltol*|V| and device-KCL residual below abstol.

        A DC solve (``step=None``) keeps the states ``s0`` frozen.  A
        backward-Euler step (``step=(dt, s_prev)``) solves the states too,
        from the guess ``s0``: each iteration moves a state by at most
        ``_STATE_LIMIT`` and clamps it to [0, 1], and convergence also needs
        every state delta below reltol.  Returns (x, s, iterations, trace).
        """
        x = [float(v) for v in x0]
        s = list(s0)
        trace: list[tuple[int, float, float]] = []
        n, dim = self.n_nodes, self.dim
        vntol, reltol = opts.vntol, opts.reltol
        suffix = "" if time_label is None else f" at t={time_label:.9g} s"
        for it in range(1, opts.max_newton_iters + 1):
            g_mat, rhs = self.assemble(
                x, s, opts.gmin, source_scale, source_time, step
            )
            try:
                solved = np.linalg.solve(g_mat, rhs).tolist()
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(
                    f"singular nodal matrix while solving {self.circuit.title!r}"
                ) from exc
            if not all(map(math.isfinite, solved)):
                trace.append((it, math.nan, math.nan))
                raise NonConvergenceError(
                    f"Newton produced a non-finite iterate{suffix}",
                    trace=trace,
                    time=time_label,
                )
            dv = [solved[j] - x[j] for j in range(n)]
            max_dv = max(map(abs, dv)) if n > 1 else 0.0
            converged = all(
                abs(d) < vntol + reltol * abs(v) for d, v in zip(dv, solved)
            )
            for k, target in enumerate(solved[dim:]):
                ds = target - s[k]
                if abs(ds) >= reltol:
                    converged = False
                ds = min(max(ds, -_STATE_LIMIT), _STATE_LIMIT)
                s[k] = min(max(s[k] + ds, 0.0), 1.0)
            for node in self.damped_nodes:
                dv[node] = min(max(dv[node], -_DAMP_LIMIT), _DAMP_LIMIT)
            x = [v + d for v, d in zip(x, dv)] + solved[n:dim]
            if converged:
                residual = self.kcl_residual(x, s)
                trace.append((it, max_dv, residual))
                if residual < opts.abstol:
                    return x, s, it, trace
            else:
                trace.append((it, max_dv, math.nan))
        raise NonConvergenceError(
            f"Newton did not converge within {opts.max_newton_iters} "
            f"iterations{suffix} (last max |dV|={trace[-1][1]:.3g} V)",
            trace=trace,
            time=time_label,
        )

    def operating_point(self, x, s, iterations) -> OperatingPoint:
        currents = {
            d.name: self.device_current(d, x, s) for d in self.circuit.devices
        }
        return OperatingPoint(
            node_voltages=np.array(x[: self.n_nodes]),
            source_currents={src.name: float(x[self.branch_index[src.name]])
                             for src in self.sources},
            device_currents=currents,
            kcl_residual=self.kcl_residual(x, s),
            newton_iterations=iterations,
        )


def _effective_temp(circuit: Circuit, opts: SimOptions) -> float:
    return circuit.temp if opts.temp is None else opts.temp


def assemble_system(circuit: Circuit, guess, states: dict[str, float] | None = None,
                    temp: float | None = None, *, gmin: float = 1e-12,
                    source_scale: float = 1.0, source_time: float | None = None):
    """Linearized MNA system (matrix, rhs) at ``guess``.

    ``guess`` must have one entry per node (ground included, index 0) plus one
    per voltage source.  Memristor resistances are frozen at ``states``
    (initial states when omitted); ``gmin`` lands on every non-ground node
    diagonal.  Row/column 0 is the trivial ground pin.
    """
    plan = _Plan(circuit, circuit.temp if temp is None else temp)
    if len(guess) != plan.dim:
        raise ValueError(f"guess must have {plan.dim} entries, got {len(guess)}")
    s = plan.normalized(plan.initial_states() if states is None else states)
    g_mat, rhs = plan.assemble(
        np.asarray(guess, dtype=float), s, gmin, source_scale, source_time
    )
    return g_mat, rhs


# --------------------------------------------------------------------------- #
# DC operating point
# --------------------------------------------------------------------------- #

def _solve_dc_raw(plan: _Plan, opts: SimOptions, s, source_time: float | None = None):
    """Newton from a cold start, falling back to source stepping on failure.
    Returns (x, total Newton iterations)."""
    try:
        x, _, its, _ = plan.newton(np.zeros(plan.dim), s, opts, 1.0, source_time)
        return x, its
    except NonConvergenceError:
        if opts.source_steps < 2:
            raise
    x = np.zeros(plan.dim)
    total = 0
    for k in range(1, opts.source_steps + 1):
        scale = k / opts.source_steps
        try:
            x, _, its, _ = plan.newton(x, s, opts, scale, source_time)
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"source stepping stalled at scale {scale:.2f}: {exc}",
                trace=exc.trace,
            ) from exc
        total += its
    return x, total


def solve_dc(circuit: Circuit, opts: SimOptions | None = None, *,
             states: dict[str, float] | None = None,
             source_time: float | None = None) -> OperatingPoint:
    """DC operating point with memristor states frozen (at their initial
    values unless ``states`` overrides them).

    Sine sources contribute their t=0 value unless ``source_time`` picks
    another instant.  Raises :class:`NonConvergenceError` (after a source
    stepping retry) or :class:`SingularMatrixError`.
    """
    opts = opts or SimOptions()
    plan = _Plan(circuit, _effective_temp(circuit, opts))
    if not plan.sources:
        raise SimulationError("circuit has no voltage source")
    s = plan.normalized(plan.initial_states() if states is None else states)
    x, iters = _solve_dc_raw(plan, opts, s, source_time)
    return plan.operating_point(x, s, iters)


# --------------------------------------------------------------------------- #
# probes
# --------------------------------------------------------------------------- #

_PROBE_RE = re.compile(r"^([viwm])\((.+)\)$", re.IGNORECASE)


def _build_probe(plan: _Plan, spec: str):
    """Returns (canonical name, unit, sampler(x, s) -> float)."""
    m = _PROBE_RE.match(spec.replace(" ", ""))
    if not m:
        raise UnknownProbeError(
            f"malformed probe {spec!r}; expected v(node), i(dev), w(dev) or m(dev)"
        )
    kind, target = m.group(1).lower(), m.group(2)
    circuit = plan.circuit
    if kind == "v":
        name = target.lower()
        if name not in circuit.node_names:
            raise UnknownProbeError(f"unknown node {target!r} in probe {spec!r}")
        idx = circuit.node_names.index(name)
        return f"v({name})", "V", lambda x, s: float(x[idx])
    dev_name = target.upper()
    dev = next((d for d in circuit.devices if d.name == dev_name), None)
    if dev is None:
        raise UnknownProbeError(f"unknown device {target!r} in probe {spec!r}")
    if kind == "i":
        return (
            f"i({dev_name})",
            "A",
            lambda x, s: float(plan.device_current(dev, x, s)),
        )
    if not isinstance(dev, BoundMemristor):
        raise UnknownProbeError(
            f"probe {spec!r} needs a memristor, {dev_name} is not one"
        )
    k = plan.state_index[dev_name]
    p = dev.params
    if kind == "w":
        return f"w({dev_name})", "m", lambda x, s: s[k] * p.length
    return f"m({dev_name})", "ohm", lambda x, s: _memristance(s[k], p)


# --------------------------------------------------------------------------- #
# transient
# --------------------------------------------------------------------------- #

def run_transient(circuit: Circuit, opts: SimOptions, probes: list[str], *,
                  initial_states: dict[str, float] | None = None) -> TransientResult:
    """Fixed-step backward-Euler transient.

    Each step is one Newton solve of the node voltages, source currents and
    memristor states together: every state s = w/L obeys its implicit
    update ``s_next = s_prev + dt * dwdt(s_next, i_next) / L``, clamped to
    [0, 1], so the recorded voltages, currents and memristances belong to one
    solution.  A step whose Newton fails raises :class:`NonConvergenceError`
    carrying its iteration trace and ``time``; there is no step-size retry.
    Sample k sits at t = k*dt, sources evaluated at the same instant; sample
    0 is the DC solution with sources at t = 0.  ``initial_states`` replaces
    the netlist's initial memristor states (metres), letting one run
    continue where another settled; ``final_states`` reports them in metres
    too.
    """
    if opts.t_stop is None:
        raise ValueError("run_transient needs opts.t_stop")
    dt = opts.dt if opts.dt is not None else opts.t_stop / _DEFAULT_STEPS
    n_steps = int(math.floor(opts.t_stop / dt + 1e-9))
    if n_steps < 1:
        raise ValueError("t_stop shorter than one step")

    plan = _Plan(circuit, _effective_temp(circuit, opts))
    if not plan.sources:
        raise SimulationError("circuit has no voltage source")
    probe_list = [_build_probe(plan, p) for p in probes]

    times = np.arange(n_steps + 1) * dt
    data = [np.empty(n_steps + 1) for _ in probe_list]

    states = plan.initial_states()
    if initial_states is not None:
        for name, w in initial_states.items():
            key = name.upper()
            if key not in states:
                raise SimulationError(f"no memristor named {name!r} to initialize")
            mem = plan.memristors[plan.state_index[key]]
            if not 0.0 <= w <= mem.params.length:
                raise SimulationError(
                    f"initial state {w} for {key} outside [0, {mem.params.length}]"
                )
            states[key] = float(w)
    s = plan.normalized(states)
    x, _ = _solve_dc_raw(plan, opts, s, source_time=0.0)
    for buf, (_, _, sample) in zip(data, probe_list):
        buf[0] = sample(x, s)

    for k in range(1, n_steps + 1):
        t = float(times[k])
        x, s, _, _ = plan.newton(x, s, opts, 1.0, t, step=(dt, s), time_label=t)
        for buf, (_, _, sample) in zip(data, probe_list):
            buf[k] = sample(x, s)

    waveforms = [
        Waveform(name=name, unit=unit, t=times.copy(), values=buf)
        for (name, unit, _), buf in zip(probe_list, data)
    ]
    final_states = {m.name: sk * m.params.length for m, sk in zip(plan.memristors, s)}
    return TransientResult(waveforms=waveforms, final_states=final_states, dt=dt)
