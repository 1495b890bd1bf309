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
the memristances stay frozen.  A circuit with no memristor carries nothing
from one step to the next, so its transient is a DC solve per sample.

DC solves have a leading batch axis.  Circuits that share a topology but
differ in parameters or temperature are compiled once into per-row arrays
and iterate together: each Newton iteration evaluates every MOSFET of every
row in one array call and solves the whole (rows, n, n) stack in one
:func:`numpy.linalg.solve`, with damping and the convergence tests applied
row by row.  A single DC solve is a batch of one, and the samples of a
memristor-free transient are rows of one source time each.  The steps of a
memristive transient stay on scalar Python lists, which is the fast form for
one small system.

The dense linear solves go through :func:`numpy.linalg.solve` (LAPACK LU with
partial pivoting); circuits here have fewer than ten nodes, so no sparse
machinery is warranted.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass

import numpy as np

from .constants import T_REF
from .devices import (
    DeviceError,
    joglekar_window,
    mosfet_coefficients,
    mosfet_current,
    mosfet_linearized,
    mosfet_linearized_array,
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
    "solve_dc_batch",
    "run_transient",
]

# default number of fixed steps when SimOptions.dt is not given
_DEFAULT_STEPS = 10_000

# Newton voltage-step limit on nodes touching a MOSFET terminal
_DAMP_LIMIT = 0.5

# samples of a memristor-free transient per batched Newton: over one cycle
# of the benchmark's drive workload (2-core Xeon VM, numpy 2.4.6), whole
# transients as one batch raised peak RSS 34.3 -> 36.9 MB, 512-row blocks
# 34.3 -> 34.7 MB and ran within about 15 % of their speed
_TRANSIENT_BLOCK = 512

# Newton step limit on a normalized memristor state s = w/L, the state
# counterpart of _DAMP_LIMIT: one linearization of the window is trusted to
# move a state by at most a quarter of the device
_STATE_LIMIT = 0.25


class SimulationError(Exception):
    """Base class for solver failures."""


class SingularMatrixError(SimulationError):
    """The linearized system has no unique solution; ``time`` is the
    transient timestamp when a memristor-free transient's sample fails."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


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
# topology and the transient's scalar system
# --------------------------------------------------------------------------- #

def _memristance(s: float, params) -> float:
    """M at the normalized state s = w/L, with the arithmetic of
    :func:`devices.memristance` (which takes w in metres, boxed)."""
    return s * params.r_on + (1.0 - s) * params.r_off


def _terminals(device) -> tuple[int, ...]:
    if isinstance(device, BoundMosfet):
        return (device.n_d, device.n_g, device.n_s, device.n_b)
    return (device.n_pos, device.n_neg)


def _signature(circuit: Circuit) -> tuple:
    """What circuits that share a compiled topology have in common: nodes,
    and the kind, name and terminals of every device in order."""
    return (tuple(circuit.node_names),
            tuple((type(d), d.name, _terminals(d)) for d in circuit.devices))


def _normalized(memristors, states: dict[str, float] | None = None) -> list[float]:
    """Normalized states s = w/L of ``memristors``, from ``states`` (metres
    by device name) or, when that is None, from each device's ``w0``."""
    out = []
    for m in memristors:
        w = m.w0 if states is None else states[m.name]
        s = w / m.params.length
        if not 0.0 <= s <= 1.0:
            raise DeviceError(f"state w={w} outside [0, L={m.params.length}]")
        out.append(s)
    return out


def _stamp_pair(g_mat, a: int, b: int, g) -> None:
    """Conductance ``g`` between nodes a and b (0 is ground) into a stack of
    matrices; ``g`` is a scalar or one value per matrix."""
    if a:
        g_mat[:, a, a] += g
    if b:
        g_mat[:, b, b] += g
    if a and b:
        g_mat[:, a, b] -= g
        g_mat[:, b, a] -= g


def _rounds(updates) -> list[tuple[np.ndarray, ...]]:
    """Index arrays that apply a sequence of updates ``(entry, value,
    sign)`` to arrays in rounds, each round touching an entry at most once
    and taking each entry's updates in sequence order, so every entry sums
    the same terms in the same order as the sequence applied one by one.
    A round is the entry's index arrays, then the values' and the signs'."""
    rounds: list[list] = []
    seen: dict = {}
    for entry, value, sign in updates:
        depth = seen[entry] = seen.get(entry, -1) + 1
        if depth == len(rounds):
            rounds.append([])
        rounds[depth].append((*entry, value, sign))
    return [tuple(np.array(column) for column in zip(*r)) for r in rounds]


def _mosfet_stamps(mosfets):
    """The MOSFET stamps of :meth:`_Plan.assemble` as :func:`_rounds`, for
    the matrix and for the right-hand side.

    Matrix values index the columns of [gm | gds | gm + gds | gmin] (one
    column per MOSFET in each of the first three blocks); right-hand-side
    values index the MOSFETs' equivalent currents ieq.
    """
    count = len(mosfets)
    matrix, rhs = [], []
    for k, f in enumerate(mosfets):
        gm, gds, both, gmin = k, count + k, 2 * count + k, 3 * count
        d, g, s = f.n_d, f.n_g, f.n_s
        if d:
            matrix.append(((d, d), gds, 1.0))
            if g:
                matrix.append(((d, g), gm, 1.0))
            if s:
                matrix.append(((d, s), both, -1.0))
            rhs.append(((d,), k, -1.0))
        if s:
            matrix.append(((s, s), both, 1.0))
            if g:
                matrix.append(((s, g), gm, -1.0))
            if d:
                matrix.append(((s, d), gds, -1.0))
            rhs.append(((s,), k, 1.0))
        # gmin across the channel keeps a cutoff device weakly anchored
        if d:
            matrix.append(((d, d), gmin, 1.0))
        if s:
            matrix.append(((s, s), gmin, 1.0))
        if d and s:
            matrix.append(((d, s), gmin, -1.0))
            matrix.append(((s, d), gmin, -1.0))
    return _rounds(matrix), _rounds(rhs)


class _Topology:
    """Index maps of one circuit: what every circuit with the same
    :func:`_signature` shares, whatever its parameters and temperature."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.signature = _signature(circuit)
        self.n_nodes = len(circuit.node_names)
        devices = circuit.devices
        self.sources = [d for d in devices if isinstance(d, BoundSource)]
        self.resistors = [d for d in devices if isinstance(d, BoundResistor)]
        self.memristors = [d for d in devices if isinstance(d, BoundMemristor)]
        self.mosfets = [d for d in devices if isinstance(d, BoundMosfet)]
        self.branch_index = {
            s.name: self.n_nodes + k for k, s in enumerate(self.sources)
        }
        self.state_index = {m.name: k for k, m in enumerate(self.memristors)}
        self.dim = self.n_nodes + len(self.sources)
        damped = {n for m in self.mosfets for n in (m.n_d, m.n_g, m.n_s)}
        self.damped_nodes = sorted(n for n in damped if n != 0)
        if not any(0 in _terminals(d) for d in devices):
            raise SingularMatrixError(
                "no device terminal touches ground; the nodal system is "
                "floating (gmin would mask the singularity)"
            )

        # (node the device current leaves, node it enters), in device order
        self.current_nodes = [(d.n_d, d.n_s) if isinstance(d, BoundMosfet)
                              else (d.n_pos, d.n_neg) for d in devices]

        # index arrays of the batched solve; devices of one kind are columns
        # of that kind's per-row arrays, kinds in the order below
        def index(values) -> np.ndarray:
            return np.array(values, dtype=np.intp)

        def positions(kind) -> list[int]:
            return [k for k, d in enumerate(devices) if isinstance(d, kind)]

        self.res_cols, self.mem_cols = positions(BoundResistor), positions(BoundMemristor)
        self.mos_cols, self.src_cols = positions(BoundMosfet), positions(BoundSource)
        by_kind = self.res_cols + self.mem_cols + self.mos_cols + self.src_cols
        self.kind_order = index(by_kind)
        self.res_nodes = (index([r.n_pos for r in self.resistors]),
                          index([r.n_neg for r in self.resistors]))
        self.mem_nodes = (index([m.n_pos for m in self.memristors]),
                          index([m.n_neg for m in self.memristors]))
        self.mos_nodes = (index([f.n_d for f in self.mosfets]),
                          index([f.n_g for f in self.mosfets]),
                          index([f.n_s for f in self.mosfets]))
        self.branch_cols = index([self.branch_index[s.name] for s in self.sources])
        self.matrix_stamps, self.rhs_stamps = _mosfet_stamps(self.mosfets)
        # KCL sums: each device current, by its kind-ordered column, leaves
        # one node and enters the other, in device order
        column = {position: k for k, position in enumerate(by_kind)}
        self.kcl_stamps = _rounds(
            ((node,), column[position], sign)
            for position, nodes in enumerate(self.current_nodes)
            for node, sign in zip(nodes, (-1.0, 1.0)) if node)


class _Plan(_Topology):
    """One circuit at one temperature, for the transient's backward-Euler
    steps: the topology plus resistor conductances.

    Memristor states travel as a list ``s`` of normalized positions
    ``w / L`` in the order of ``memristors``; the unknown vector ``x`` is a
    list of floats in the layout the module docstring gives.
    """

    def __init__(self, circuit: Circuit, temp: float):
        super().__init__(circuit)
        self.temp = temp
        self.conductance = {
            r.name: 1.0 / resistor_value(r.params, temp) for r in self.resistors
        }

    def initial_states(self) -> dict[str, float]:
        return {m.name: m.w0 for m in self.memristors}

    def assemble(self, guess, states, gmin, source_time, dt, s_prev):
        """Linearized system of a backward-Euler step at ``guess``: the nodal
        rows with memristances at ``states``, plus the state rows."""
        size = self.dim + len(self.memristors)
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
            rhs[br] = source_value(src.spec, source_time)

        self._stamp_states(g_mat, rhs, guess, states, dt, s_prev)
        return np.array(g_mat), np.array(rhs)

    def _stamp_states(self, g_mat, rhs, guess, states, dt, s_prev) -> None:
        """Backward-Euler rows ``s - s_prev - dt*(dw/dt)/L = 0`` linearized
        at (guess, s), and the state columns of the memristors' node rows.

        With M = s*Ron + (1-s)*Roff, i = v/M and dw/dt/L = c*i*f(s), the
        partials are di/ds = -v*(Ron - Roff)/M^2 and f'(s) of the Joglekar
        window.  A state at a bound whose residual points outward (the
        update would leave [0, 1]) is held there by the row ``s = bound``.
        """
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
        for dev, (a, b) in zip(self.circuit.devices, self.current_nodes):
            i = self.device_current(dev, x, s)
            if a:
                sums[a] -= i
            if b:
                sums[b] += i
        return float(max(map(abs, sums[1:])))

    def newton(self, x0, s_prev, opts, t: float, dt: float):
        """One backward-Euler step to time ``t``: Newton-Raphson on the node
        voltages, source currents and memristor states together, from the
        previous step's solution (x0, s_prev).

        Converged means per-node voltage deltas below vntol + reltol*|V|,
        every state delta below reltol, and the device-KCL residual below
        abstol.  Each iteration moves a state by at most ``_STATE_LIMIT``
        and clamps it to [0, 1].  Returns (x, s).
        """
        x = list(x0)
        s = list(s_prev)
        trace: list[tuple[int, float, float]] = []
        n, dim = self.n_nodes, self.dim
        vntol, reltol = opts.vntol, opts.reltol
        for it in range(1, opts.max_newton_iters + 1):
            g_mat, rhs = self.assemble(x, s, opts.gmin, t, dt, s_prev)
            try:
                solved = np.linalg.solve(g_mat, rhs).tolist()
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(
                    f"singular nodal matrix while solving {self.circuit.title!r}"
                ) from exc
            if not all(map(math.isfinite, solved)):
                trace.append((it, math.nan, math.nan))
                raise NonConvergenceError(
                    f"Newton produced a non-finite iterate at t={t:.9g} s",
                    trace=trace,
                    time=t,
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
                    return x, s
            else:
                trace.append((it, max_dv, math.nan))
        raise NonConvergenceError(
            f"Newton did not converge within {opts.max_newton_iters} "
            f"iterations at t={t:.9g} s (last max |dV|={trace[-1][1]:.3g} V)",
            trace=trace,
            time=t,
        )


def _effective_temp(circuit: Circuit, opts: SimOptions) -> float:
    return circuit.temp if opts.temp is None else opts.temp


# --------------------------------------------------------------------------- #
# DC operating points: one batched Newton over rows of one topology
# --------------------------------------------------------------------------- #

def _solve_stack(g_mat: np.ndarray, rhs: np.ndarray):
    """Solutions of a stack of linear systems, and a mask of the singular
    ones (None when there are none; their solution rows are NaN).

    LAPACK factors each matrix of the stack on its own, so a row's solution
    does not depend on the rest of the stack.  A singular matrix fails the
    whole call, so only then are the rows solved one at a time to find it.
    """
    try:
        return np.linalg.solve(g_mat, rhs[..., None])[..., 0], None
    except np.linalg.LinAlgError:
        pass
    solved = np.full(rhs.shape, np.nan)
    singular = np.zeros(len(rhs), dtype=bool)
    for k in range(len(rhs)):
        try:
            solved[k] = np.linalg.solve(g_mat[k:k + 1], rhs[k:k + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            singular[k] = True
    return solved, singular


class _DcRows:
    """DC rows of one topology compiled into per-row arrays.

    Row k is ``circuits[k]`` at ``temps[k]`` with its memristances frozen at
    the normalized states ``states[k]`` (its devices' initial states when
    that is None) and its sources at ``source_times[k]``.  All rows iterate
    together: each Newton iteration makes one array MOSFET evaluation, adds
    the MOSFET stamps to a precomputed linear part, and solves the stack of
    (n, n) systems in one call.
    Every matrix entry receives its terms in the order the transient's
    scalar assembly adds them, and the device law is evaluated with the
    scalar law's operations, so each row's iterates equal those of the same
    row solved alone, to the bit.
    """

    def __init__(self, topo: _Topology, circuits, temps, states, gmin: float,
                 source_times):
        self.topo = topo
        self.gmin = gmin
        self.titles = [c.title for c in circuits]
        self.specs = [[c.devices[j].spec for j in topo.src_cols] for c in circuits]
        self.errors: dict[int, Exception] = {}
        g_res, r_mem, coeffs = [], [], []
        for k, (circuit, temp, s) in enumerate(zip(circuits, temps, states)):
            if circuit is not topo.circuit and _signature(circuit) != topo.signature:
                raise ValueError(
                    f"circuit {k} ({circuit.title!r}) does not share the "
                    f"topology of circuit 0")
            devs = circuit.devices
            try:
                g_row = [1.0 / resistor_value(devs[j].params, temp)
                         for j in topo.res_cols]
                mems = [devs[j] for j in topo.mem_cols]
                s = _normalized(mems) if s is None else s
                r_row = [_memristance(sk, m.params) for m, sk in zip(mems, s)]
                c_row = [mosfet_coefficients(devs[j].params, temp)
                         for j in topo.mos_cols]
            except DeviceError as exc:
                self.errors[k] = exc
                g_row = [math.nan] * len(topo.res_cols)
                r_row = [math.nan] * len(topo.mem_cols)
                c_row = [(math.nan,) * 4] * len(topo.mos_cols)
            g_res.append(g_row)
            r_mem.append(r_row)
            coeffs.append(c_row)
        count, dim = len(circuits), topo.dim
        self.g_res = np.array(g_res).reshape(count, len(topo.res_cols))
        self.r_mem = np.array(r_mem).reshape(count, len(topo.mem_cols))
        # (sign, vth, beta, lam), each (rows, MOSFETs)
        self.coeffs = np.array(coeffs).reshape(count, len(topo.mos_cols), 4).transpose(2, 0, 1)
        self._set_source_times(source_times)

        g_lin = np.zeros((count, dim, dim))
        g_lin[:, 0, 0] = 1.0  # ground row pins v0 = 0 exactly
        for n in range(1, topo.n_nodes):
            g_lin[:, n, n] += gmin
        for j, r in enumerate(topo.resistors):
            _stamp_pair(g_lin, r.n_pos, r.n_neg, self.g_res[:, j])
        for j, m in enumerate(topo.memristors):
            _stamp_pair(g_lin, m.n_pos, m.n_neg, 1.0 / self.r_mem[:, j])
        for src, br in zip(topo.sources, topo.branch_cols):
            p, n = src.n_pos, src.n_neg
            if p:
                g_lin[:, p, br] += 1.0
                g_lin[:, br, p] += 1.0
            if n:
                g_lin[:, n, br] -= 1.0
                g_lin[:, br, n] -= 1.0
        self.g_lin = g_lin

    def _set_source_times(self, source_times) -> None:
        """Each row's source values at its entry of ``source_times``."""
        self.values = np.array([
            [source_value(spec, t) for spec in specs]
            for specs, t in zip(self.specs, source_times)
        ]).reshape(len(self.specs), len(self.topo.src_cols))

    def at_times(self, source_times) -> _DcRows:
        """Row 0 with its sources at each of ``source_times``, one row per
        time: row 0's compiled arrays repeated, only the source values
        evaluated anew.  Row 0 must have compiled without error."""
        rows = copy.copy(self)
        first = np.zeros(len(source_times), dtype=np.intp)
        rows.titles = self.titles[:1] * len(first)
        rows.specs = self.specs[:1] * len(first)
        rows.g_res, rows.r_mem, rows.g_lin = (
            self.g_res[first], self.r_mem[first], self.g_lin[first])
        rows.coeffs = self.coeffs[:, first]
        rows._set_source_times(source_times)
        return rows

    def _mosfets(self, rows, x):
        """(vgs, vds, id, gm, gds) of every MOSFET, (rows, MOSFETs) each."""
        d, g, s = (x.take(nodes, axis=1) for nodes in self.topo.mos_nodes)
        vgs, vds = g - s, d - s
        return (vgs, vds) + mosfet_linearized_array(vgs, vds, *self.coeffs[:, rows])

    def assemble(self, rows, x, source_scale: float):
        """Stacked linearized systems (matrices, right-hand sides) of ``rows``
        at the guesses ``x``, one per row."""
        topo = self.topo
        g_mat = self.g_lin[rows]
        rhs = np.zeros(x.shape)
        rhs[:, topo.branch_cols] = source_scale * self.values[rows]
        vgs, vds, i0, gm, gds = self._mosfets(rows, x)
        ieq = i0 - gm * vgs - gds * vds
        terms = np.concatenate(
            [gm, gds, gm + gds, np.full((len(rows), 1), self.gmin)], axis=1)
        for r, c, term, sign in topo.matrix_stamps:
            g_mat[:, r, c] += terms[:, term] * sign
        for r, term, sign in topo.rhs_stamps:
            rhs[:, r] += ieq[:, term] * sign
        return g_mat, rhs

    def kcl(self, rows, x):
        """Device currents (rows, devices in circuit order; see
        OperatingPoint) and the largest net current into any non-ground node
        of each row (A)."""
        topo = self.topo
        (rp, rn), (mp, mn) = topo.res_nodes, topo.mem_nodes
        by_kind = np.concatenate([
            self.g_res[rows] * (x.take(rp, axis=1) - x.take(rn, axis=1)),
            (x.take(mp, axis=1) - x.take(mn, axis=1)) / self.r_mem[rows],
            self._mosfets(rows, x)[2],
            x.take(topo.branch_cols, axis=1),
        ], axis=1)
        currents = np.empty_like(by_kind)
        currents[:, topo.kind_order] = by_kind
        if topo.n_nodes == 1:
            return currents, np.zeros(len(rows))
        sums = np.zeros((len(rows), topo.n_nodes))
        for node, column, sign in topo.kcl_stamps:
            sums[:, node] += by_kind[:, column] * sign
        return currents, np.abs(sums[:, 1:]).max(axis=1)

    def newton(self, rows, x, opts: SimOptions, source_scale: float):
        """Newton-Raphson on ``rows`` (ascending) from the guesses ``x``, to
        the dual tolerance: per-node voltage deltas below vntol +
        reltol*|V| and device-KCL residual below abstol, row by row.

        Returns (done, failed): ``done`` maps a converged row to (x,
        iterations, device currents, KCL residual); ``failed`` maps every
        other row to the error a lone solve of it raises, iteration trace
        included.
        """
        topo = self.topo
        n, damped = topo.n_nodes, topo.damped_nodes
        vntol, reltol = opts.vntol, opts.reltol
        done: dict[int, tuple] = {}
        failed: dict[int, Exception] = {}
        history: list[tuple] = []  # (iteration, rows, max |dV|, residual)

        def trace(row: int) -> list[tuple[int, float, float]]:
            out = []
            for it, its_rows, max_dv, residual in history:
                p = int(np.searchsorted(its_rows, row))
                if p < len(its_rows) and its_rows[p] == row:
                    out.append((it, float(max_dv[p]), float(residual[p])))
            return out

        for it in range(1, opts.max_newton_iters + 1):
            if not len(rows):
                break
            solved, singular = _solve_stack(*self.assemble(rows, x, source_scale))
            finite = np.isfinite(solved).all(axis=1)
            if not finite.all():
                for p in np.flatnonzero(~finite):
                    row = int(rows[p])
                    if singular is not None and singular[p]:
                        failed[row] = SingularMatrixError(
                            f"singular nodal matrix while solving "
                            f"{self.titles[row]!r}")
                    else:
                        failed[row] = NonConvergenceError(
                            "Newton produced a non-finite iterate",
                            trace=trace(row) + [(it, math.nan, math.nan)])
                rows, x, solved = rows[finite], x[finite], solved[finite]
            dv = solved[:, :n] - x[:, :n]
            abs_dv = np.abs(dv)
            max_dv = abs_dv.max(axis=1) if n > 1 else np.zeros(len(rows))
            converged = (abs_dv < vntol + reltol * np.abs(solved[:, :n])).all(axis=1)
            dv[:, damped] = np.minimum(np.maximum(dv[:, damped], -_DAMP_LIMIT),
                                       _DAMP_LIMIT)
            x = np.concatenate([x[:, :n] + dv, solved[:, n:]], axis=1)
            residual = np.full(len(rows), math.nan)
            currents = np.empty((len(rows), len(topo.current_nodes)))
            if converged.any():
                currents[converged], residual[converged] = self.kcl(
                    rows[converged], x[converged])
            history.append((it, rows, max_dv, residual))
            finished = residual < opts.abstol
            if finished.any():
                for p in np.flatnonzero(finished):
                    done[int(rows[p])] = (x[p], it, currents[p], residual[p])
                rows, x = rows[~finished], x[~finished]
        for row in rows.tolist():
            row_trace = trace(row)
            failed[row] = NonConvergenceError(
                f"Newton did not converge within {opts.max_newton_iters} "
                f"iterations (last max |dV|={row_trace[-1][1]:.3g} V)",
                trace=row_trace)
        return done, failed

    def solve(self, opts: SimOptions) -> list:
        """Newton from a cold start on every row, then source stepping, as
        one batch, for the rows that did not converge.  Returns one (x,
        iterations, device currents, KCL residual) or one error per row."""
        count, dim = len(self.titles), self.topo.dim
        results: dict[int, object] = dict(self.errors)
        rows = np.array([k for k in range(count) if k not in self.errors], dtype=int)
        done, failed = self.newton(rows, np.zeros((len(rows), dim)), opts, 1.0)
        results.update(done)
        stepping = []
        for row, exc in failed.items():
            if isinstance(exc, NonConvergenceError) and opts.source_steps >= 2:
                stepping.append(row)
            else:
                results[row] = exc
        rows = np.array(sorted(stepping), dtype=int)
        x = np.zeros((len(rows), dim))
        total = dict.fromkeys(stepping, 0)
        for k in range(1, opts.source_steps + 1):
            if not len(rows):
                break
            scale = k / opts.source_steps
            done, failed = self.newton(rows, x, opts, scale)
            for row, exc in failed.items():
                if isinstance(exc, NonConvergenceError):
                    stalled = NonConvergenceError(
                        f"source stepping stalled at scale {scale:.2f}: {exc}",
                        trace=exc.trace)
                    stalled.__cause__ = exc
                    exc = stalled
                results[row] = exc
            rows = np.array(sorted(done), dtype=int)
            x = np.array([done[row][0] for row in rows.tolist()]).reshape(len(rows), dim)
            for row in rows.tolist():
                total[row] += done[row][1]
                if k == opts.source_steps:
                    results[row] = (done[row][0], total[row]) + done[row][2:]
        return [results[k] for k in range(count)]

    def operating_point(self, result) -> OperatingPoint:
        x, iterations, currents, residual = result
        topo = self.topo
        return OperatingPoint(
            node_voltages=x[: topo.n_nodes].copy(),
            source_currents={src.name: float(x[br])
                             for src, br in zip(topo.sources, topo.branch_cols)},
            device_currents=dict(zip((d.name for d in topo.circuit.devices),
                                     currents.tolist())),
            kcl_residual=float(residual),
            newton_iterations=int(iterations),
        )


def assemble_system(circuit: Circuit, guess, states: dict[str, float] | None = None,
                    temp: float | None = None, *, gmin: float = 1e-12,
                    source_scale: float = 1.0, source_time: float | None = None):
    """Linearized MNA system (matrix, rhs) at ``guess``.

    ``guess`` must have one entry per node (ground included, index 0) plus one
    per voltage source.  Memristor resistances are frozen at ``states``
    (initial states when omitted); ``gmin`` lands on every non-ground node
    diagonal.  Row/column 0 is the trivial ground pin.
    """
    topo = _Topology(circuit)
    if len(guess) != topo.dim:
        raise ValueError(f"guess must have {topo.dim} entries, got {len(guess)}")
    s = None if states is None else _normalized(topo.memristors, states)
    rows = _DcRows(topo, [circuit], [circuit.temp if temp is None else temp], [s],
                   gmin, [source_time])
    if rows.errors:
        raise rows.errors[0]
    g_mat, rhs = rows.assemble(np.zeros(1, dtype=int),
                               np.asarray(guess, dtype=float)[None, :], source_scale)
    return g_mat[0], rhs[0]


def _solve_one(topo: _Topology, circuit: Circuit, temp: float, s, opts: SimOptions,
               source_time: float | None):
    """A batch of one row: its (x, iterations, currents, residual), or the
    row's error raised."""
    rows = _DcRows(topo, [circuit], [temp], [s], opts.gmin, [source_time])
    (result,) = rows.solve(opts)
    if isinstance(result, Exception):
        raise result
    return rows, result


def solve_dc(circuit: Circuit, opts: SimOptions | None = None, *,
             states: dict[str, float] | None = None,
             source_time: float | None = None) -> OperatingPoint:
    """DC operating point with memristor states frozen (at their initial
    values unless ``states`` overrides them).

    Sine sources contribute their t=0 value unless ``source_time`` picks
    another instant.  Raises :class:`NonConvergenceError` (after a source
    stepping retry) or :class:`SingularMatrixError`.  This is
    :func:`solve_dc_batch` with one row.
    """
    opts = opts or SimOptions()
    topo = _Topology(circuit)
    if not topo.sources:
        raise SimulationError("circuit has no voltage source")
    s = None if states is None else _normalized(topo.memristors, states)
    rows, result = _solve_one(topo, circuit, _effective_temp(circuit, opts), s,
                              opts, source_time)
    return rows.operating_point(result)


def solve_dc_batch(circuits, opts: SimOptions | None = None, *,
                   temps=None) -> list:
    """DC operating points of circuits that share one topology (nodes, and
    device kinds, names and terminals in order), solved as one batch.

    The circuits may differ in any device parameter and in temperature:
    ``temps[k]`` is row k's temperature (default: what :func:`solve_dc`
    would use).  Memristors are frozen at their initial states.  Each entry
    of the returned list is the :class:`OperatingPoint` that
    ``solve_dc(circuits[k], ...)`` returns, to the bit and with the same
    ``newton_iterations``, or the error it raises (a
    :class:`SimulationError` or :class:`~mirrorsim.devices.DeviceError`);
    one failing row never fails the others.  A circuit of another topology
    raises ValueError.
    """
    opts = opts or SimOptions()
    circuits = list(circuits)
    if not circuits:
        return []
    if temps is None:
        temps = [_effective_temp(c, opts) for c in circuits]
    elif len(temps) != len(circuits):
        raise ValueError(f"{len(temps)} temperatures for {len(circuits)} circuits")
    topo = _Topology(circuits[0])
    if not topo.sources:
        raise SimulationError("circuit has no voltage source")
    rows = _DcRows(topo, circuits, temps, [None] * len(circuits), opts.gmin,
                   [None] * len(circuits))
    return [r if isinstance(r, Exception) else rows.operating_point(r)
            for r in rows.solve(opts)]


# --------------------------------------------------------------------------- #
# probes
# --------------------------------------------------------------------------- #

_PROBE_RE = re.compile(r"^([viwm])\((.+)\)$", re.IGNORECASE)


def _build_probe(plan: _Plan, spec: str):
    """Returns (canonical name, unit, sample, read): ``sample(x, s)`` is the
    probe's float at one step's solution and states; ``read(x, currents)``
    is its column of a batch of DC samples, given their solutions and device
    currents as (samples, ...) arrays (None for the memristor probes)."""
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
        return (f"v({name})", "V", lambda x, s: float(x[idx]),
                lambda x, currents: x[:, idx])
    dev_name = target.upper()
    dev = next((d for d in circuit.devices if d.name == dev_name), None)
    if dev is None:
        raise UnknownProbeError(f"unknown device {target!r} in probe {spec!r}")
    if kind == "i":
        col = circuit.devices.index(dev)
        return (
            f"i({dev_name})",
            "A",
            lambda x, s: float(plan.device_current(dev, x, s)),
            lambda x, currents: currents[:, col],
        )
    if not isinstance(dev, BoundMemristor):
        raise UnknownProbeError(
            f"probe {spec!r} needs a memristor, {dev_name} is not one"
        )
    k = plan.state_index[dev_name]
    p = dev.params
    if kind == "w":
        return f"w({dev_name})", "m", lambda x, s: s[k] * p.length, None
    return f"m({dev_name})", "ohm", lambda x, s: _memristance(s[k], p), None


# --------------------------------------------------------------------------- #
# transient
# --------------------------------------------------------------------------- #

def _at_time(exc: SimulationError, t: float) -> SimulationError:
    """A memristor-free transient's failing DC sample as the scalar steps
    report theirs: the same error type and trace, naming the sample's time."""
    message = f"{exc} at t={t:.9g} s"
    if isinstance(exc, NonConvergenceError):
        return NonConvergenceError(message, trace=exc.trace, time=t)
    return SingularMatrixError(message, time=t)


def _dc_samples(plan: _Plan, opts: SimOptions, times: np.ndarray,
                probe_list) -> list[np.ndarray]:
    """Probe samples of a circuit with no memristor, whose steps share no
    state: sample k is the DC solution with the sources at ``times[k]``,
    ``solve_dc(circuit, opts, source_time=times[k])`` to the bit, solved as
    rows of the batched Newton ``_TRANSIENT_BLOCK`` samples at a time.  The
    earliest failing sample raises its error, carrying its time."""
    compiled = _DcRows(plan, [plan.circuit], [plan.temp], [None], opts.gmin, [0.0])
    if compiled.errors:
        raise compiled.errors[0]
    data = [np.empty(len(times)) for _ in probe_list]
    for start in range(0, len(times), _TRANSIENT_BLOCK):
        block = times[start:start + _TRANSIENT_BLOCK].tolist()
        results = compiled.at_times(block).solve(opts)
        for t, result in zip(block, results):
            if isinstance(result, SimulationError):
                raise _at_time(result, t) from result
        x = np.array([r[0] for r in results])
        currents = np.array([r[2] for r in results])
        for buf, (_, _, _, read) in zip(data, probe_list):
            buf[start:start + len(block)] = read(x, currents)
    return data


def run_transient(circuit: Circuit, opts: SimOptions, probes: list[str], *,
                  initial_states: dict[str, float] | None = None) -> TransientResult:
    """Fixed-step backward-Euler transient.

    Sample k sits at t = k*dt, sources evaluated at the same instant; sample
    0 is the DC solution with sources at t = 0.

    In a circuit with memristors, each step is one Newton solve of the node
    voltages, source currents and memristor states together: every state
    s = w/L obeys its implicit update ``s_next = s_prev + dt * dwdt(s_next,
    i_next) / L``, clamped to [0, 1], so the recorded voltages, currents and
    memristances belong to one solution.  A step whose Newton fails raises
    :class:`NonConvergenceError` carrying its iteration trace and ``time``;
    there is no step-size retry.

    A circuit with no memristor keeps no state between steps, so sample k
    is ``solve_dc(circuit, opts, source_time=k*dt)``, to the bit: the
    samples are solved from a cold start as rows of one batched Newton, and
    each gets the DC solve's source-stepping retry.  The earliest sample
    that still fails raises its :class:`NonConvergenceError` or
    :class:`SingularMatrixError`, with its trace and ``time``.

    ``initial_states`` replaces the netlist's initial memristor states
    (metres), letting one run continue where another settled;
    ``final_states`` reports them in metres too.
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
    s = _normalized(plan.memristors, states)
    if not plan.memristors:
        data = _dc_samples(plan, opts, times, probe_list)
    else:
        data = [np.empty(n_steps + 1) for _ in probe_list]
        _, (x0, *_) = _solve_one(plan, circuit, plan.temp, s, opts, 0.0)
        x = x0.tolist()
        for buf, (_, _, sample, _) in zip(data, probe_list):
            buf[0] = sample(x, s)
        for k in range(1, n_steps + 1):
            t = float(times[k])
            x, s = plan.newton(x, s, opts, t, dt)
            for buf, (_, _, sample, _) in zip(data, probe_list):
                buf[k] = sample(x, s)

    waveforms = [
        Waveform(name=name, unit=unit, t=times.copy(), values=buf)
        for (name, unit, _, _), buf in zip(probe_list, data)
    ]
    final_states = {m.name: sk * m.params.length for m, sk in zip(plan.memristors, s)}
    return TransientResult(waveforms=waveforms, final_states=final_states, dt=dt)
