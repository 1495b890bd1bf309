"""Numerical core: MNA assembly, Newton-Raphson DC solve, and transient
simulation with the memristor states solved inside Newton, on a fixed
backward-Euler grid or with error-controlled variable-step BDF2 steps.

Unknown vector layout: index 0 is the ground node (pinned to 0 V by a trivial
row), indices 1..N-1 are node voltages, and the next entries are voltage
source branch currents (positive into the source's + terminal, the usual
SPICE sign convention, so a supply delivering power reads negative).  A
transient step appends one more unknown per memristor, its normalized state
s = w/L, with the implicit update as its row (the way Ho, Ruehli &
Brennan's modified nodal analysis admits any extra unknown), so each step is
a single Newton solve of the coupled system.  A step whose Newton runs out
of iterations is halved and retried, as SPICE2 cuts its timestep (Nagel
1975).  Error-controlled steps estimate each state's local error from a
predictor (Milne's device) and size the next step from it; only the states
carry memory, so only they enter the estimate; a controlled run read on a
uniform grid takes each sample's states from the quadratic through the
accepted states around it, as BDF2's own interpolant does.  A DC solve has
no state rows: the memristances stay frozen.  A circuit with no memristor
carries nothing from one step to the next, so its transient is a DC solve
per sample.

DC solves have a leading batch axis.  One function compiles a circuit into
rows of one topology as per-row arrays, a device that every row shares
evaluated once (so a sweep evaluates only its swept device per row, a
memristor-free transient only its sources), and the rows iterate together:
each Newton iteration evaluates every MOSFET of every row in one array
call, adds each stamp family in one call over flat indices, and solves the
(rows, n, n) stack in one :func:`numpy.linalg.solve`, with damping and the
convergence tests applied row by row.  The solve fills one array per
quantity (solutions, iterations, device currents, KCL residuals; NaN in a
failed row) and one dict of row errors, in place.  A single DC solve is a
batch of one.  A memristive transient compiles its circuit as one such row
too, solves t = 0 as that row, and runs its steps on Python lists copied
from it, which is the fast form for one small system.  Both kinds of
transient read their probes a block of samples at a time, device currents
coming from the rows' batched KCL; a memristor-free transient and a
controlled one read on a grid compile each block as DC rows, one per
sample, at its source time and (frozen) states.

The dense linear solves go through :func:`numpy.linalg.solve` (LAPACK LU with
partial pivoting); circuits here have fewer than ten nodes, so no sparse
machinery is warranted.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .devices import (
    DeviceError,
    joglekar_window,
    memristance_at,
    mosfet_coefficients,
    mosfet_linearized_array,
    mosfet_square_law,
    resistor_value,
    source_value,
)
from .netlist import (
    BoundMemristor,
    BoundMosfet,
    BoundResistor,
    BoundSource,
    Circuit,
    terminals,
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

# conductance (S) from every non-ground node to ground and across every
# MOSFET channel, which anchors a node that only cutoff devices touch
_GMIN = 1e-12

# Newton iterations per solve (per step, in a transient) before it fails
_MAX_NEWTON_ITERS = 100

# A DC row that fails from a cold start is retried with its sources ramped
# up in this many equal steps, each step's Newton started from the last;
# below 2 there is no retry
_SOURCE_STEPS = 10

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

# A memristive step whose Newton hits its iteration limit is halved and
# retried, down to its first size over 2**_MAX_CUTS: a step that still fails
# at a thousandth of its size fails for the circuit, not for its size, and
# the cuts cost at most ten times one step's iteration limit
_MAX_CUTS = 10

# Step-size limits of the error-controlled steps.  Variable-step BDF2 is
# zero-stable for step ratios below 1 + sqrt(2) (Grigorieff 1983), so a step
# at most doubles; one rejected estimate shrinks it at most to a fifth, so a
# single outlier cannot collapse it; 0.9 is the usual safety factor on the
# step the estimate predicts.  The largest step bounds the steps of a
# settled tail, whose error estimate vanishes: 0.3 s is the smaller of the
# two fixed steps at which both built-in memristive mirrors converge uncut
# and end within 2 % of the default grid, and keeps ten steps in a 3 s
# settling chunk.
_GROWTH_LIMIT = 2.0
_SHRINK_LIMIT = 0.2
_SAFETY = 0.9
_MAX_STEP = 0.3

# Controlled steps per period of a circuit's fastest sine source, at least.
# The state error estimate vanishes where a Joglekar window pins a state at a
# bound (f(0) = f(1) = 0), so without a cap the steps grow past the drive's
# reversal and hold the state there; at period/200 a lone p = 2 memristor
# stays within 0.03 L of a 25 us grid, as close as fixed steps of
# period/2000 come, and a hysteresis loop takes about 600 steps for 3
# cycles, where its requested grid of 2000 samples a cycle holds 6000.
_SINE_STEPS = 200

# Milne's device: BDF2's error constant -2/9 against the quadratic
# predictor's 1 puts the corrector's local error at (2/9) / (1 + 2/9) of the
# predictor-corrector difference (Gear 1971, ch. 9)
_MILNE = 2.0 / 11.0


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


class _IterationLimit(NonConvergenceError):
    """A memristive step's Newton ran out of iterations: the step is cut
    and retried, and only a failure at the smallest step escapes, as a
    plain :class:`NonConvergenceError`."""


class UnknownProbeError(SimulationError):
    pass


@dataclass(frozen=True)
class SimOptions:
    """Solver settings; defaults suit the second-scale circuits in this repo.

    ``temp=None`` defers to the circuit's own temperature (which the `.temp`
    directive sets); passing a value overrides it.  ``dt=None`` picks
    ``t_stop / 10000``.

    ``adaptive=True`` lets a memristive transient choose its own steps,
    holding each step's estimated local error on every normalized memristor
    state to ``reltol`` (see :func:`run_transient`).  With ``dt`` unset the
    transient records the steps it accepts; with ``dt`` set it records the
    uniform ``dt`` grid, read from those steps.  Memristor-free transients
    keep the fixed grid either way.
    """

    abstol: float = 1e-9
    reltol: float = 1e-6
    vntol: float = 1e-6
    dt: float | None = None
    t_stop: float | None = None
    temp: float | None = None
    adaptive: bool = False

    def __post_init__(self) -> None:
        if self.abstol <= 0.0 or self.reltol <= 0.0 or self.vntol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_stop is not None and self.t_stop <= 0.0:
            raise ValueError("t_stop must be positive")
        if self.dt is not None and self.t_stop is not None and self.t_stop < self.dt:
            raise ValueError("t_stop must be >= dt")
        if self.temp is not None and self.temp <= 0.0:
            raise ValueError("temp must be positive kelvin")


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
    """Recorded probes and final memristor states (metres) of a transient;
    ``dt`` is the step of the recorded grid, or the first step of an
    adaptive run that records its own steps."""

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
# topology and stamp patterns
# --------------------------------------------------------------------------- #

def _signature(circuit: Circuit) -> tuple:
    """What circuits that share a compiled topology have in common: nodes,
    and the kind, name and terminals of every device in order."""
    return (tuple(circuit.node_names),
            tuple((type(d), d.name, terminals(d)) for d in circuit.devices))


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


def _pair_entries(a: int, b: int) -> list[tuple[tuple[int, int], float]]:
    """(entry, sign) of a conductance between nodes a and b (0 is ground)."""
    entries = []
    if a:
        entries.append(((a, a), 1.0))
    if b:
        entries.append(((b, b), 1.0))
    if a and b:
        entries += [((a, b), -1.0), ((b, a), -1.0)]
    return entries


def _stamp_pair(g_mat, a: int, b: int, g) -> None:
    """Conductance ``g`` between nodes a and b into a stack of matrices;
    ``g`` is a scalar or one value per matrix."""
    for (r, c), sign in _pair_entries(a, b):
        g_mat[:, r, c] += g * sign


def _mosfet_stamps(mosfets):
    """The MOSFET stamps of one linearized system as sequences of updates
    ``(entry, value, sign)``, in the order they are added: the matrix's and
    the right-hand side's.  The memristive steps apply them one by one;
    :class:`_DcRows` scatters them to stacks through :meth:`_Topology.flat`.

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
        matrix += [(entry, gmin, sign) for entry, sign in _pair_entries(d, s)]
    return matrix, rhs


class _Topology:
    """Index maps of one circuit: what every circuit with the same
    :func:`_signature` shares, whatever its parameters and temperature."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
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
        if not any(0 in terminals(d) for d in devices):
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
        # the MOSFET stamps of the memristive steps, in the order they add
        # them, and the KCL sums: each device current, by its kind-ordered
        # column, leaves one node and enters the other, in device order
        self.matrix_sequence, self.rhs_sequence = _mosfet_stamps(self.mosfets)
        column = {position: k for k, position in enumerate(by_kind)}
        self.kcl_sequence = [
            ((node,), column[position], sign)
            for position, nodes in enumerate(self.current_nodes)
            for node, sign in zip(nodes, (-1.0, 1.0)) if node]
        # the batched solve's stamp families as (size, entries, term rows,
        # signs): the matrix's, the right-hand side's and the KCL sums'
        dim = self.dim

        def family(size, sequence, flat):
            return (size, index([flat(*e) for e, _, _ in sequence]),
                    index([v for _, v, _ in sequence]),
                    np.array([sign for _, _, sign in sequence]).reshape(-1, 1))

        self.families = (
            family(dim * dim, self.matrix_sequence, lambda r, c: r * dim + c),
            family(dim, self.rhs_sequence, lambda r: r),
            family(self.n_nodes, self.kcl_sequence, lambda r: r),
        )
        self._flat: tuple = ()
        self._flat_rows = 0

    def flat(self, family: int, rows: int) -> np.ndarray:
        """Flat indices of stamp family ``family`` (see ``families``) into
        ``rows`` stacked arrays, row by row and each row's terms in sequence
        order; built for the most rows asked for, and sliced."""
        if rows > self._flat_rows:
            offsets = np.arange(rows, dtype=np.intp)[:, None]
            self._flat = tuple((offsets * size + entries).ravel()
                               for size, entries, _, _ in self.families)
            self._flat_rows = rows
        return self._flat[family][:rows * len(self.families[family][1])]


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


# a compiled row's cell of one device, from its record, the row's
# temperature (a source's: its time) and a memristor's state (None: w0)
_CELLS = {
    BoundResistor: lambda d, temp, s: 1.0 / resistor_value(d.params, temp),
    BoundMemristor: lambda d, temp, s: memristance_at(
        _normalized([d])[0] if s is None else s, d.params),
    BoundMosfet: lambda d, temp, s: mosfet_coefficients(d.params, temp),
    BoundSource: lambda d, time, s: source_value(d.spec, time),
}


class _DcRows:
    """DC rows of one topology compiled into per-row arrays, and solved in
    place to the tolerances of ``opts``.

    Row k is the topology's circuit at ``temps[k]``, its sources at
    ``source_times[k]``, its memristances frozen at the normalized states
    ``states`` (None: its devices' initial states; a memristor's entry is a
    number, or an array of one state per row when its record is shared),
    and the device at each position of ``records`` replaced by that list's
    entry k.  A device that all rows share is evaluated once.  A row fails
    alone: with its record when that is an error, else with the first
    :class:`~mirrorsim.devices.DeviceError` of its devices in kind order,
    which is what compiling that row alone raises.  ``errors`` maps every
    failed row, from the compile or :meth:`solve`, to its error; the solve
    fills ``x`` (rows, unknowns), ``iterations``, ``currents`` (rows,
    devices in circuit order; see OperatingPoint) and ``residual``, NaN in
    a failed row.

    Each Newton iteration makes one array MOSFET evaluation and adds each
    stamp family (matrix, right-hand side, KCL sums) in one unbuffered
    :func:`numpy.add.at`, so every entry takes its terms in the order of
    the stamp sequences that :class:`_Steps` applies one by one, after a
    row's linear part.  With the device law evaluated by
    :func:`~mirrorsim.devices.mosfet_square_law`'s operations, each row's
    iterates equal those of the same row solved alone, to the bit.
    """

    def __init__(self, topo: _Topology, titles, temps, records, states,
                 opts: SimOptions, source_times):
        self.topo, self.opts = topo, opts
        self.titles, self.temps, self.states = list(titles), list(temps), states
        count = len(self.titles)
        devices = topo.circuit.devices
        s_at = {} if states is None else dict(zip(topo.mem_cols, states))
        same_temp, same_time = len(set(self.temps)) == 1, len(set(source_times)) == 1
        self.errors: dict[int, Exception] = {}
        columns = []
        for j in topo.kind_order.tolist():
            source = isinstance(devices[j], BoundSource)
            inputs = source_times if source else self.temps
            given = records.get(j, devices[j:j + 1])
            once = len(given) == 1 and (same_time if source else same_temp)
            failed = (math.nan,) * 4 if isinstance(devices[j], BoundMosfet) else math.nan
            law, s = _CELLS[type(devices[j])], s_at.get(j)
            cells = []
            for k, (device, at) in enumerate(zip(given * count if len(given) == 1
                                                 else given, inputs)):
                cell = failed
                if isinstance(device, Exception):  # a failed record: its row carries it
                    self.errors[k] = device
                else:
                    try:
                        cell = law(device, at, s)
                    except DeviceError as exc:
                        for row in range(count) if once else (k,):
                            self.errors.setdefault(row, exc)
                cells.append(cell)
                if once:  # one cell serves every row
                    break
            columns.append(cells)
        res, mem, mos = len(topo.res_cols), len(topo.mem_cols), len(topo.mos_cols)

        def stack(first, width, *shape):
            out = np.empty((width, count, *shape))
            for k, cells in enumerate(columns[first:first + width]):
                out[k] = np.reshape(cells, (-1, *shape))  # one cell broadcasts
            return out

        # per-device arrays are (devices, rows); source values (rows, sources)
        self.g_res = stack(0, res)
        self.r_mem = stack(res, mem)
        # (sign, vth, beta, lam), each (MOSFETs, rows)
        self.coeffs = np.ascontiguousarray(stack(res + mem, mos, 4).transpose(2, 0, 1))
        self.values = np.ascontiguousarray(stack(res + mem + mos, len(topo.src_cols)).T)

        # the linear part: gmin, resistors and sources, then memristors
        g_lin = np.zeros((count, topo.dim, topo.dim))
        g_lin[:, 0, 0] = 1.0  # ground row pins v0 = 0 exactly
        for n in range(1, topo.n_nodes):
            g_lin[:, n, n] += _GMIN
        for j, r in enumerate(topo.resistors):
            _stamp_pair(g_lin, r.n_pos, r.n_neg, self.g_res[j])
        for src, br in zip(topo.sources, topo.branch_cols):
            p, n = src.n_pos, src.n_neg
            if p:
                g_lin[:, p, br] += 1.0
                g_lin[:, br, p] += 1.0
            if n:
                g_lin[:, n, br] -= 1.0
                g_lin[:, br, n] -= 1.0
        # the memristive steps start each system from row 0's part without
        # memristors; no entry holds both a source and a memristor, so every
        # entry still sums gmin, resistors, memristors and MOSFETs in order
        self.g_base, self.g_lin = g_lin[:1].copy(), g_lin
        for j, m in enumerate(topo.memristors):
            _stamp_pair(g_lin, m.n_pos, m.n_neg, 1.0 / self.r_mem[j])

    def _scatter(self, family: int, out, terms):
        """Stamp family ``family`` of :attr:`_Topology.families` added into
        ``out``, one array per row, in one unbuffered :func:`numpy.add.at`:
        each entry takes its terms, the rows of ``terms`` (columns, rows)
        the sequence picks, signed, in sequence order."""
        _, _, columns, signs = self.topo.families[family]
        np.add.at(out.reshape(-1), self.topo.flat(family, len(out)),
                  (terms[columns] * signs).T.ravel())
        return out

    def _mosfets(self, rows, x):
        """(vgs, vds, id, gm, gds) of every MOSFET, (MOSFETs, rows) each."""
        d, g, s = (x.T[nodes] for nodes in self.topo.mos_nodes)
        vgs, vds = g - s, d - s
        return (vgs, vds) + mosfet_linearized_array(vgs, vds,
                                                    *self.coeffs.take(rows, axis=2))

    def assemble(self, rows, x, source_scale: float):
        """Stacked linearized systems (matrices, right-hand sides) of ``rows``
        at the guesses ``x``, one per row."""
        count, dim = x.shape
        vgs, vds, i0, gm, gds = self._mosfets(rows, x)
        terms = np.concatenate([gm, gds, gm + gds, np.full((1, count), _GMIN)])
        rhs = np.zeros(x.shape)
        rhs[:, self.topo.branch_cols] = source_scale * self.values[rows]
        return (self._scatter(0, self.g_lin[rows], terms),
                self._scatter(1, rhs, i0 - gm * vgs - gds * vds))

    def kcl(self, rows, x, r_mem=None):
        """Device currents (rows, devices in circuit order; see
        OperatingPoint) and the largest net current into any non-ground node
        of each row (A), with memristances ``r_mem`` (memristors, rows)
        when given in place of the compiled ones."""
        topo = self.topo
        (rp, rn), (mp, mn) = topo.res_nodes, topo.mem_nodes
        if r_mem is None:
            r_mem = self.r_mem.take(rows, axis=1)
        v = x.T
        by_kind = np.concatenate([
            self.g_res.take(rows, axis=1) * (v[rp] - v[rn]),
            (v[mp] - v[mn]) / r_mem,
            self._mosfets(rows, x)[2],
            v[topo.branch_cols],
        ])
        currents = np.empty_like(by_kind)
        currents[topo.kind_order] = by_kind
        if topo.n_nodes == 1:
            return currents.T, np.zeros(len(rows))
        sums = self._scatter(2, np.zeros((len(rows), topo.n_nodes)), by_kind)
        return currents.T, np.abs(sums[:, 1:]).max(axis=1)

    def newton(self, rows, x, source_scale: float) -> None:
        """Newton-Raphson on ``rows`` (ascending) from the guesses ``x``, to
        the dual tolerance: per-node voltage deltas below vntol +
        reltol*|V| and device-KCL residual below abstol, row by row.

        A converged row's solution, device currents and KCL residual are
        written to its entries of ``x``, ``currents`` and ``residual``, and
        its iterations added to ``iterations``; every other row gets the
        error a lone solve of it raises, iteration trace included, in
        ``errors``.
        """
        topo, opts = self.topo, self.opts
        n, damped = topo.n_nodes, topo.damped_nodes
        vntol, reltol = opts.vntol, opts.reltol
        history: list[tuple] = []  # (iteration, rows, max |dV|, residual)

        def trace(row: int) -> list[tuple[int, float, float]]:
            out = []
            for it, its_rows, max_dv, residual in history:
                p = int(np.searchsorted(its_rows, row))
                if p < len(its_rows) and its_rows[p] == row:
                    out.append((it, float(max_dv[p]), float(residual[p])))
            return out

        for it in range(1, _MAX_NEWTON_ITERS + 1):
            if not len(rows):
                break
            solved, singular = _solve_stack(*self.assemble(rows, x, source_scale))
            finite = np.isfinite(solved).all(axis=1)
            if not finite.all():
                for p in np.flatnonzero(~finite):
                    row = int(rows[p])
                    if singular is not None and singular[p]:
                        self.errors[row] = SingularMatrixError(
                            f"singular nodal matrix while solving "
                            f"{self.titles[row]!r}")
                    else:
                        self.errors[row] = NonConvergenceError(
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
                done = rows[finished]
                self.x[done], self.currents[done] = x[finished], currents[finished]
                self.residual[done] = residual[finished]
                self.iterations[done] += it
                rows, x = rows[~finished], x[~finished]
        for row in rows.tolist():
            row_trace = trace(row)
            self.errors[row] = NonConvergenceError(
                f"Newton did not converge within {_MAX_NEWTON_ITERS} "
                f"iterations (last max |dV|={row_trace[-1][1]:.3g} V)",
                trace=row_trace)

    def solve(self) -> _DcRows:
        """Newton from a cold start on every row the compile did not fail,
        then source stepping, as one batch, for the rows that did not
        converge; a stepped row's ``iterations`` sums its steps'.  Fills
        the arrays and ``errors`` in place and returns the rows."""
        count, dim = len(self.titles), self.topo.dim
        self.x = np.full((count, dim), math.nan)
        self.iterations = np.zeros(count)
        self.currents = np.full((count, len(self.topo.current_nodes)), math.nan)
        self.residual = np.full(count, math.nan)
        rows = np.array([k for k in range(count) if k not in self.errors], dtype=int)
        self.newton(rows, np.zeros((len(rows), dim)), 1.0)
        rows = np.array(sorted(row for row, exc in self.errors.items()
                               if isinstance(exc, NonConvergenceError)
                               and _SOURCE_STEPS >= 2), dtype=int)
        for row in rows.tolist():
            del self.errors[row]
        x = np.zeros((len(rows), dim))
        for k in range(1, _SOURCE_STEPS + 1):
            if not len(rows):
                break
            scale = k / _SOURCE_STEPS
            self.newton(rows, x, scale)
            for row in rows.tolist():
                exc = self.errors.get(row)
                if isinstance(exc, NonConvergenceError):
                    self.errors[row] = NonConvergenceError(
                        f"source stepping stalled at scale {scale:.2f}: {exc}",
                        trace=exc.trace)
                    self.errors[row].__cause__ = exc
            rows = rows[~np.isin(rows, list(self.errors))]
            x = self.x[rows]
        failed = list(self.errors)
        self.x[failed] = self.iterations[failed] = math.nan
        self.currents[failed] = self.residual[failed] = math.nan
        return self

    def operating_point(self, k: int) -> OperatingPoint:
        """Row ``k`` of a solve that converged, as an :class:`OperatingPoint`."""
        topo, x = self.topo, self.x[k]
        return OperatingPoint(
            node_voltages=x[: topo.n_nodes].copy(),
            source_currents={src.name: float(x[br])
                             for src, br in zip(topo.sources, topo.branch_cols)},
            device_currents=dict(zip((d.name for d in topo.circuit.devices),
                                     self.currents[k].tolist())),
            kcl_residual=float(self.residual[k]),
            newton_iterations=int(self.iterations[k]),
        )


def _quadratic(t0, t1, t2, t):
    """Weights of the values at t0, t1 and t2 in the quadratic through them,
    evaluated at ``t`` (a float or an array): Lagrange's form.  At t = t0,
    t1 or t2 they are exactly one and zeros."""
    return ((t - t1) * (t - t2) / ((t0 - t1) * (t0 - t2)),
            (t - t0) * (t - t2) / ((t1 - t0) * (t1 - t2)),
            (t - t0) * (t - t1) / ((t2 - t0) * (t2 - t1)))


def _dense(ts, ss, times) -> np.ndarray:
    """States ``ss`` accepted at the increasing times ``ts``, read at
    ``times`` within [ts[0], ts[-1]]: a time in (ts[k-1], ts[k]] takes the
    quadratic through the accepted states k-2, k-1 and k, which is BDF2's
    own continuous extension (the first interval takes the quadratic through
    the first three), clamped to [0, 1] as the steps clamp their states.
    An accepted time reads its accepted state exactly.  Returns (times,
    memristors)."""
    ts, ss = np.asarray(ts), np.asarray(ss)
    if len(ts) < 3:  # a single step, recorded only at its ends
        return ss[np.searchsorted(ts, times)]
    k = np.clip(np.searchsorted(ts, times), 2, len(ts) - 1)
    w0, w1, w2 = (w[:, None] for w in _quadratic(ts[k - 2], ts[k - 1], ts[k], times))
    return np.clip(w0 * ss[k - 2] + w1 * ss[k - 1] + w2 * ss[k], 0.0, 1.0)


class _Steps:
    """Implicit steps of a memristive circuit compiled as row 0 of a
    :class:`_DcRows`, on Python lists copied from that row, which is the
    fast form for one small system.

    Memristor states travel as a list ``s`` of normalized positions
    ``w / L`` in the order of the topology's memristors; the unknown vector
    ``x`` is a list of floats in the layout the module docstring gives,
    and a step's system borders it with one state row and column per
    memristor.  Every step solves ``s = hist + dt_eff * (dw/dt)/L``: a
    backward-Euler step has ``hist = s_prev`` and ``dt_eff = dt``, and a
    variable-step BDF2 step (:meth:`march`) a blend of the last two
    accepted states and a shortened step.
    """

    def __init__(self, rows: _DcRows):
        topo = self.topo = rows.topo
        self.title = rows.titles[0]
        self.specs = [src.spec for src in topo.sources]
        self.branches = topo.branch_cols.tolist()
        self.g_res = rows.g_res[:, 0].tolist()
        self.coeffs = rows.coeffs[:, :, 0].T.tolist()  # (sign, vth, beta, lam)
        self.mem_entries = [_pair_entries(m.n_pos, m.n_neg) for m in topo.memristors]
        pad = [0.0] * len(topo.memristors)
        self.g_base = ([row + pad for row in rows.g_base[0].tolist()]
                       + [[0.0] * (topo.dim + len(pad)) for _ in pad])
        # the largest controlled step: _MAX_STEP, or less with a sine source
        self.max_step = min([_MAX_STEP] + [1.0 / (_SINE_STEPS * spec.frequency)
                                           for spec in self.specs
                                           if spec.kind == "sine"])

    def assemble(self, x, s, values, dt_eff, hist):
        """Linearized system of a step at (x, s), with the sources at
        ``values``: row 0's linear part, the memristances at ``s``, the
        MOSFETs linearized at ``x``, then the state rows."""
        topo = self.topo
        g_mat = [row[:] for row in self.g_base]
        rhs = [0.0] * len(g_mat)
        for br, value in zip(self.branches, values):
            rhs[br] = value
        for m, entries, sk in zip(topo.memristors, self.mem_entries, s):
            g = 1.0 / memristance_at(sk, m.params)
            for (r, c), sign in entries:
                g_mat[r][c] += g * sign
        gms, gdss, boths, ieqs = [], [], [], []
        for f, c in zip(topo.mosfets, self.coeffs):
            vgs = x[f.n_g] - x[f.n_s]
            vds = x[f.n_d] - x[f.n_s]
            i0, gm, gds = mosfet_square_law(vgs, vds, *c)
            gms.append(gm)
            gdss.append(gds)
            boths.append(gm + gds)
            ieqs.append(i0 - gm * vgs - gds * vds)
        terms = gms + gdss + boths + [_GMIN]
        for (r, c), term, sign in topo.matrix_sequence:
            g_mat[r][c] += terms[term] * sign
        for (r,), k, sign in topo.rhs_sequence:
            rhs[r] += ieqs[k] * sign
        self._stamp_states(g_mat, rhs, x, s, dt_eff, hist)
        return np.array(g_mat), np.array(rhs)

    def _stamp_states(self, g_mat, rhs, guess, states, dt_eff, hist) -> None:
        """State rows ``s - hist - dt_eff*(dw/dt)/L = 0`` linearized at
        (guess, s), and the state columns of the memristors' node rows.

        With M = s*Ron + (1-s)*Roff, i = v/M and dw/dt/L = c*i*f(s), the
        partials are di/ds = -v*(Ron - Roff)/M^2 and f'(s) of the Joglekar
        window.  A state at a bound whose residual points outward (the
        update would leave [0, 1]) is held there by the row ``s = bound``.
        """
        for k, m in enumerate(self.topo.memristors):
            p = m.params
            col = self.topo.dim + k
            a, b = m.n_pos, m.n_neg
            sk = states[k]
            v = guess[a] - guess[b]
            g = 1.0 / memristance_at(sk, p)
            i = v * g
            f = joglekar_window(sk, p.window_p)
            kc = dt_eff * p.polarity * p.mobility * p.r_on / (p.length * p.length)
            resid = sk - hist[k] - kc * i * f
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

    def kcl_residual(self, x, s) -> float:
        """Largest net device current into any non-ground node (A)."""
        topo = self.topo
        if topo.n_nodes == 1:
            return 0.0
        # device currents by kind, as _DcRows.kcl orders them
        by_kind = []
        for g, r in zip(self.g_res, topo.resistors):
            by_kind.append(g * (x[r.n_pos] - x[r.n_neg]))
        for m, sk in zip(topo.memristors, s):
            by_kind.append((x[m.n_pos] - x[m.n_neg]) / memristance_at(sk, m.params))
        for f, c in zip(topo.mosfets, self.coeffs):
            by_kind.append(mosfet_square_law(x[f.n_g] - x[f.n_s], x[f.n_d] - x[f.n_s], *c)[0])
        for br in self.branches:
            by_kind.append(x[br])
        sums = [0.0] * topo.n_nodes
        for (node,), column, sign in topo.kcl_sequence:
            sums[node] += by_kind[column] * sign
        return float(max(map(abs, sums[1:])))

    def newton(self, x0, guess, hist, opts, t: float, dt_eff: float):
        """One step to time ``t``: Newton-Raphson on the node voltages,
        source currents and memristor states together, from the previous
        step's solution ``x0`` and the state guess ``guess``, on the state
        rows ``s = hist + dt_eff*(dw/dt)/L``.

        Converged means per-node voltage deltas below vntol + reltol*|V|,
        every state delta below reltol, and the device-KCL residual below
        abstol.  Each iteration moves a state by at most ``_STATE_LIMIT``
        and clamps it to [0, 1].  Returns (x, s).  Running out of
        iterations raises :class:`_IterationLimit`; a non-finite iterate
        raises :class:`NonConvergenceError` at once.
        """
        x = list(x0)
        s = list(guess)
        values = [source_value(spec, t) for spec in self.specs]
        trace: list[tuple[int, float, float]] = []
        n, dim = self.topo.n_nodes, self.topo.dim
        vntol, reltol = opts.vntol, opts.reltol
        for it in range(1, _MAX_NEWTON_ITERS + 1):
            g_mat, rhs = self.assemble(x, s, values, dt_eff, hist)
            try:
                solved = np.linalg.solve(g_mat, rhs).tolist()
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(
                    f"singular nodal matrix while solving {self.title!r}"
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
            for node in self.topo.damped_nodes:
                dv[node] = min(max(dv[node], -_DAMP_LIMIT), _DAMP_LIMIT)
            x = [v + d for v, d in zip(x, dv)] + solved[n:dim]
            if converged:
                residual = self.kcl_residual(x, s)
                trace.append((it, max_dv, residual))
                if residual < opts.abstol:
                    return x, s
            else:
                trace.append((it, max_dv, math.nan))
        raise _IterationLimit(
            f"Newton did not converge within {_MAX_NEWTON_ITERS} "
            f"iterations at t={t:.9g} s (last max |dV|={trace[-1][1]:.3g} V)",
            trace=trace,
            time=t,
        )

    def march(self, x, s, t: float, t_end: float, h: float, floor: float,
              opts: SimOptions, controlled: bool):
        """Steps from the solution (x, s) at time ``t`` to ``t_end``, the
        first of size ``h``; returns the accepted times, solutions and
        states as lists, the start included.

        A step whose Newton runs out of iterations is halved and retried;
        one that fails at the ``floor`` raises its
        :class:`NonConvergenceError`, naming the step.  A step that
        converges lets the next one double, up to ``_MAX_STEP``, or when
        controlled up to :attr:`max_step`.  The accepted states are what
        :func:`_dense` reads a grid from.

        Uncontrolled, every step is backward Euler: this is how a fixed-grid
        step that failed is cut.  Controlled, the first step is backward
        Euler and every later one variable-step BDF2 (Gear 1971).  From the
        third step on, Newton starts from the quadratic through the last
        three accepted states, and the predictor-corrector difference times
        ``_MILNE`` estimates each state's local error: a step is accepted
        when no estimate exceeds ``opts.reltol`` (or when it is already at
        the floor), and the next step is the one the estimate predicts,
        within the growth and shrink limits.
        """
        ts, xs, ss = [t], [x], [s]
        tol = opts.reltol
        largest = self.max_step if controlled else _MAX_STEP
        while t < t_end:
            # the last step reaches t_end exactly, absorbing what a step
            # of size h would leave short of the floor
            t_next = t_end if t + h >= t_end - floor else t + h
            h = t_next - t
            hist, dt_eff, pred = s, h, None
            if controlled and len(ts) >= 2:
                w = h / (t - ts[-2])
                hist = [((1.0 + w) ** 2 * sn - w * w * sp) / (1.0 + 2.0 * w)
                        for sn, sp in zip(s, ss[-2])]
                dt_eff = (1.0 + w) / (1.0 + 2.0 * w) * h
            if controlled and len(ts) >= 3:
                l0, l1, l2 = _quadratic(ts[-3], ts[-2], t, t_next)
                pred = [l0 * s0 + l1 * s1 + l2 * s2
                        for s0, s1, s2 in zip(ss[-3], ss[-2], s)]
            guess = s if pred is None else [min(max(p, 0.0), 1.0) for p in pred]
            try:
                x_new, s_new = self.newton(x, guess, hist, opts, t_next, dt_eff)
            except _IterationLimit as exc:
                if h / 2.0 < floor:
                    raise NonConvergenceError(
                        f"{exc}; step cut to {h:.3g} s", trace=exc.trace,
                        time=exc.time) from exc
                h /= 2.0
                continue
            factor = _GROWTH_LIMIT
            if pred is not None:
                err = _MILNE * max(abs(c - p) for c, p in zip(s_new, pred))
                if err > 0.0:
                    factor = min(max(_SAFETY * (tol / err) ** (1.0 / 3.0),
                                     _SHRINK_LIMIT), _GROWTH_LIMIT)
                if err > tol and h > floor:
                    h = max(h * factor, floor)
                    continue
            t, x, s = t_next, x_new, s_new
            ts.append(t)
            xs.append(x)
            ss.append(s)
            h = min(max(h * factor, floor), largest)
        return ts, xs, ss


def _compile(circuit: Circuit | _Topology, opts: SimOptions, temps=(None,), *,
             records=None, titles=None, states=None, source_times=None) -> _DcRows:
    """``circuit`` compiled under ``opts`` as :class:`_DcRows`, one row per
    entry of ``temps`` (None: what :func:`solve_dc` would use); the other
    arguments default to the circuit's titles, t = 0 sources and initial
    states.  ``states`` are in metres by name (a dict), or already
    normalized: one entry per memristor in topology order, each a number or
    an array of one value per row.  This is the one path from a circuit to
    compiled rows; given a built :class:`_Topology` in place of the
    circuit, it reuses that topology's index maps and cached flat indices.
    A floating circuit, or one with no voltage source, raises; a row's own
    failure goes into ``errors``."""
    topo = circuit if isinstance(circuit, _Topology) else _Topology(circuit)
    circuit = topo.circuit
    if not topo.sources:
        raise SimulationError("circuit has no voltage source")
    s = _normalized(topo.memristors, states) if isinstance(states, dict) else states
    temp = circuit.temp if opts.temp is None else opts.temp
    return _DcRows(topo, titles or [circuit.title] * len(temps),
                   [temp if t is None else t for t in temps], records or {}, s,
                   opts, source_times or [None] * len(temps))


def assemble_system(circuit: Circuit, guess, states: dict[str, float] | None = None,
                    temp: float | None = None, *, source_scale: float = 1.0,
                    source_time: float | None = None):
    """Linearized MNA system (matrix, rhs) at ``guess``.

    ``guess`` must have one entry per node (ground included, index 0) plus one
    per voltage source.  Memristor resistances are frozen at ``states``
    (initial states when omitted); gmin (1e-12 S) lands on every non-ground
    node diagonal.  Row/column 0 is the trivial ground pin.
    """
    rows = _compile(circuit, SimOptions(temp=temp), states=states,
                    source_times=[source_time])
    if len(guess) != rows.topo.dim:
        raise ValueError(f"guess must have {rows.topo.dim} entries, got {len(guess)}")
    if rows.errors:
        raise rows.errors[0]
    g_mat, rhs = rows.assemble(np.zeros(1, dtype=int),
                               np.asarray(guess, dtype=float)[None, :], source_scale)
    return g_mat[0], rhs[0]


def solve_dc(circuit: Circuit, opts: SimOptions | None = None, *,
             states: dict[str, float] | None = None,
             source_time: float | None = None) -> OperatingPoint:
    """DC operating point with memristor states frozen (at their initial
    values unless ``states`` overrides them).

    Sine sources contribute their t=0 value unless ``source_time`` picks
    another instant.  Raises :class:`NonConvergenceError` (after a source
    stepping retry) or :class:`SingularMatrixError`.  This is
    :func:`solve_dc_batch` with one row, solved in place and read back.
    """
    opts = opts or SimOptions()
    rows = _compile(circuit, opts, states=states, source_times=[source_time]).solve()
    if rows.errors:
        raise rows.errors[0]
    return rows.operating_point(0)


def solve_dc_batch(circuits, opts: SimOptions | None = None, *,
                   temps=None) -> list:
    """DC operating points of circuits that share one topology (nodes, and
    device kinds, names and terminals in order), solved as one batch.

    The circuits may differ in any device parameter and in temperature:
    ``temps[k]`` is row k's temperature (default: what :func:`solve_dc`
    would use).  Memristors are frozen at their initial states.  The rows
    are compiled once and solved in place.  Each entry of the returned list
    is the :class:`OperatingPoint` that ``solve_dc(circuits[k], ...)``
    returns, to the bit and with the same ``newton_iterations``, or the
    error it raises (a :class:`SimulationError` or
    :class:`~mirrorsim.devices.DeviceError`); one failing row never fails
    the others.  A circuit of another topology raises ValueError.
    """
    opts = opts or SimOptions()
    circuits = list(circuits)
    if not circuits:
        return []
    if temps is None:
        temps = [c.temp if opts.temp is None else opts.temp for c in circuits]
    elif len(temps) != len(circuits):
        raise ValueError(f"{len(temps)} temperatures for {len(circuits)} circuits")
    signature = _signature(circuits[0])
    for k, circuit in enumerate(circuits):
        if circuit is not circuits[0] and _signature(circuit) != signature:
            raise ValueError(f"circuit {k} ({circuit.title!r}) does not share the "
                             f"topology of circuit 0")
    records = {j: list(column) for j, column in
               enumerate(zip(*(c.devices for c in circuits)))}
    rows = _compile(circuits[0], opts, temps, records=records,
                    titles=[c.title for c in circuits]).solve()
    return [rows.errors[k] if k in rows.errors else rows.operating_point(k)
            for k in range(len(circuits))]


# --------------------------------------------------------------------------- #
# probes
# --------------------------------------------------------------------------- #

_PROBE_RE = re.compile(r"^([viwm])\((.+)\)$", re.IGNORECASE)


def _build_probe(topo: _Topology, spec: str):
    """Returns (canonical name, unit, read): ``read(x, currents, s)`` is the
    probe's column of a block of transient samples, given their solutions,
    device currents (see OperatingPoint) and normalized memristor states as
    (samples, ...) arrays."""
    m = _PROBE_RE.match(spec.replace(" ", ""))
    if not m:
        raise UnknownProbeError(
            f"malformed probe {spec!r}; expected v(node), i(dev), w(dev) or m(dev)"
        )
    kind, target = m.group(1).lower(), m.group(2)
    circuit = topo.circuit
    if kind == "v":
        name = target.lower()
        if name not in circuit.node_names:
            raise UnknownProbeError(f"unknown node {target!r} in probe {spec!r}")
        idx = circuit.node_names.index(name)
        return f"v({name})", "V", lambda x, currents, s: x[:, idx]
    dev_name = target.upper()
    dev = next((d for d in circuit.devices if d.name == dev_name), None)
    if dev is None:
        raise UnknownProbeError(f"unknown device {target!r} in probe {spec!r}")
    if kind == "i":
        col = circuit.devices.index(dev)
        return f"i({dev_name})", "A", lambda x, currents, s: currents[:, col]
    if not isinstance(dev, BoundMemristor):
        raise UnknownProbeError(
            f"probe {spec!r} needs a memristor, {dev_name} is not one"
        )
    k = topo.state_index[dev_name]
    p = dev.params
    if kind == "w":
        return f"w({dev_name})", "m", lambda x, currents, s: s[:, k] * p.length
    return f"m({dev_name})", "ohm", lambda x, currents, s: memristance_at(s[:, k], p)


# --------------------------------------------------------------------------- #
# transient
# --------------------------------------------------------------------------- #

def _dc_samples(topo: _Topology, opts: SimOptions, times: np.ndarray,
                states: np.ndarray):
    """Solutions and device currents, as (samples, ...) arrays, of the
    circuit of ``topo`` at ``times``: sample k is the DC solution with the
    sources at ``times[k]`` and the memristances frozen at the normalized
    states ``states[k]`` (states has a column per memristor, none in a
    circuit without them; that circuit's sample k is ``solve_dc(circuit,
    opts, source_time=times[k])`` to the bit).  The samples are compiled
    on ``topo`` as the rows of one batch and solved in place.  The earliest
    failing sample raises its error; a :class:`SimulationError` is raised as
    the memristive steps raise theirs, with the same type and trace, naming
    the sample's time."""
    block = times.tolist()
    rows = _compile(topo, opts, [None] * len(block), states=list(states.T),
                    source_times=block).solve()
    if rows.errors:
        k = min(rows.errors)
        exc, t = rows.errors[k], block[k]
        if isinstance(exc, NonConvergenceError):
            raise NonConvergenceError(f"{exc} at t={t:.9g} s", trace=exc.trace,
                                      time=t) from exc
        if isinstance(exc, SimulationError):
            raise SingularMatrixError(f"{exc} at t={t:.9g} s", time=t) from exc
        raise exc
    return rows.x, rows.currents


def run_transient(circuit: Circuit, opts: SimOptions, probes: list[str], *,
                  initial_states: dict[str, float] | None = None) -> TransientResult:
    """Transient on a fixed backward-Euler grid, or with error-controlled
    steps when ``opts.adaptive`` is set and the circuit has memristors.

    On the fixed grid, sample k sits at t = k*dt, sources evaluated at the
    same instant; sample 0 is the DC solution with sources at t = 0.

    In a circuit with memristors, each step is one Newton solve of the node
    voltages, source currents and memristor states together: every state
    s = w/L obeys its implicit update ``s_next = s_prev + dt * dwdt(s_next,
    i_next) / L``, clamped to [0, 1], so the recorded voltages, currents and
    memristances belong to one solution.  The circuit is compiled once, as
    one :class:`_DcRows` row solved at t = 0, and the steps run on Python
    lists copied from that row (:class:`_Steps`).  A step whose Newton
    runs out of iterations is cut: halved and retried, and grown back after
    each success, until it reaches its grid time, which alone is recorded.
    A step that still fails at ``dt / 2**_MAX_CUTS``, or whose Newton
    produces a non-finite iterate, raises :class:`NonConvergenceError`
    carrying its iteration trace and ``time``.

    With ``opts.adaptive``, a memristive transient takes error-controlled
    steps: the first is ``dt`` (``t_stop / 10000`` when unset) and backward
    Euler, later steps are variable-step BDF2 whose size holds each state's
    estimated local error to ``opts.reltol`` (:meth:`_Steps.march`), and
    a sine source caps every step, the first included, at ``1 /
    _SINE_STEPS`` of the fastest one's period.  Failing steps are cut as on
    the fixed grid, down to the first step over ``2**_MAX_CUTS``.  With
    ``opts.dt`` unset the run records the steps it accepts, so the
    waveforms' ``t`` is not uniform, and the last step ends at ``t_stop``.
    With ``opts.dt`` set the steps end at the grid's last time and the run
    records the fixed grid's samples: each sample's states are read from
    the quadratic through the accepted states around it (:func:`_dense`),
    and the sample is the DC solution at its source time with the
    memristances frozen at those states, solved with the other samples of
    its block as in a memristor-free transient.  Each recorded voltage and
    current is then one exact solution, so a sample where the drive is 0 V
    carries 0 A.

    A circuit with no memristor keeps no state between steps, so sample k
    is ``solve_dc(circuit, opts, source_time=k*dt)``, to the bit: each
    block of samples is compiled as the rows of one batch and solved from a
    cold start in place, and each sample gets the DC solve's
    source-stepping retry.  The earliest sample
    that still fails raises its :class:`NonConvergenceError` or
    :class:`SingularMatrixError`, with its trace and ``time``.

    Either way the probes are read ``_TRANSIENT_BLOCK`` samples at a time,
    device currents coming from the compiled rows' batched KCL; the blocks
    are compiled on the run's one :class:`_Topology`.

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

    topo = _Topology(circuit)
    probe_list = [_build_probe(topo, p) for p in probes]

    times = np.arange(n_steps + 1) * dt

    memristors = topo.memristors
    states = {m.name: m.w0 for m in memristors}
    if initial_states is not None:
        for name, w in initial_states.items():
            key = name.upper()
            if key not in states:
                raise SimulationError(f"no memristor named {name!r} to initialize")
            mem = memristors[topo.state_index[key]]
            if not 0.0 <= w <= mem.params.length:
                raise SimulationError(
                    f"initial state {w} for {key} outside [0, {mem.params.length}]"
                )
            states[key] = float(w)
    s: list[float] = []
    # the recorded states, and the steps' solutions when they are recorded
    # too (None: each sample is a DC solve at its state)
    xs, ss = None, np.empty((len(times), 0))
    if memristors:
        compiled = _compile(topo, opts, states=states, source_times=[0.0]).solve()
        if compiled.errors:
            raise compiled.errors[0]
        s, x = compiled.states, compiled.x[0].tolist()
        steps = _Steps(compiled)
        if opts.adaptive:
            # the first step is dt, or the step cap when that is smaller;
            # on a requested grid the steps end at its last sample
            h = min(dt, steps.max_step)
            t_end = opts.t_stop if opts.dt is None else float(times[-1])
            ts, xs, accepted = steps.march(x, s, 0.0, t_end, h, h / 2 ** _MAX_CUTS,
                                           opts, True)
            s = accepted[-1]
            if opts.dt is None:
                times, xs, ss, dt = np.array(ts), np.array(xs), np.array(accepted), h
            else:
                xs, ss = None, _dense(ts, accepted, times)
        else:
            floor = dt / 2 ** _MAX_CUTS
            xs, ss = np.empty((len(times), len(x))), np.empty((len(times), len(s)))
            xs[0], ss[0] = x, s
            for k in range(1, n_steps + 1):
                try:
                    x, s = steps.newton(x, s, s, opts, float(times[k]), dt)
                except _IterationLimit:
                    _, cut_x, cut_s = steps.march(x, s, float(times[k - 1]),
                                                  float(times[k]), dt / 2.0,
                                                  floor, opts, False)
                    x, s = cut_x[-1], cut_s[-1]
                xs[k], ss[k] = x, s

    data = [np.empty(len(times)) for _ in probe_list]
    for start in range(0, len(times), _TRANSIENT_BLOCK):
        block = slice(start, start + _TRANSIENT_BLOCK)
        s_block = ss[block]
        if xs is None:
            x, currents = _dc_samples(topo, opts, times[block], s_block)
        else:
            x = xs[block]
            r_mem = np.array([memristance_at(s_block[:, k], m.params)
                              for k, m in enumerate(memristors)])
            currents, _ = compiled.kcl(np.zeros(len(x), dtype=np.intp), x, r_mem)
        for buf, (_, _, read) in zip(data, probe_list):
            buf[block] = read(x, currents, s_block)

    waveforms = [
        Waveform(name=name, unit=unit, t=times.copy(), values=buf)
        for (name, unit, _), buf in zip(probe_list, data)
    ]
    final_states = {m.name: sk * m.params.length for m, sk in zip(memristors, s)}
    return TransientResult(waveforms=waveforms, final_states=final_states, dt=dt)
