"""Numerical core: MNA assembly, Newton-Raphson DC solve, and transient
simulation with the memristor states solved inside Newton, on a fixed
backward-Euler grid or with error-controlled, variable-step, variable-order
BDF steps (orders 1 to ``_MAX_ORDER``).

Unknown vector layout: index 0 is the ground node (pinned to 0 V by a trivial
row), indices 1..N-1 are node voltages, and the next entries are voltage
source branch currents (positive into the source's + terminal, the usual
SPICE sign convention, so a supply delivering power reads negative).  A
transient step appends one more unknown per memristor, its normalized state
s = w/L, with the implicit update of the drift law as its equation (the way
Ho, Ruehli & Brennan's modified nodal analysis admits any extra unknown), so
each step is a single Newton solve of the coupled system, and its solution
is one list: the nodes, the branches, then the states.  Each state's
equation holds that one state, so each Newton iteration solves it for the
state and substitutes it into the node rows (block elimination): the
system solved is the nodal one, each memristor adding a conductance and a
right-hand-side share, and the states follow from the node voltages.  At a
zero step from its own states, each memristor stamps its frozen
memristance: that is a DC solve.  Every device
rule, that drift law and the state and kelvin checks included, is called
from :mod:`mirrorsim.devices`; none is repeated here.  A step whose Newton
runs out of iterations is halved and retried, as SPICE2 cuts its timestep
(Nagel 1975).  Error-controlled steps estimate each state's local error from a
predictor (Milne's device) and size the next step and choose the next
order from it, as DASSL does (Brenan, Campbell & Petzold 1989); only the
states carry memory, so only they enter the estimate.  The same
predictor, the polynomial of the step's order k through the last k + 1
accepted solutions, starts each step's Newton at every unknown, and such a
step stops at its first iterate when Newton's own measured contraction
puts the next update well within the tolerance (DASSL's test).  A
controlled run read on a uniform grid takes each sample's states from the
quadratic through the accepted states around it.
A DC solve keeps the memristances frozen.  A circuit with no memristor
carries nothing from one step to the next, so its transient is a DC solve
per sample.

One list-form row, :class:`_Steps`, built on one compiled row and on
Python lists copied from it (the fast form for one small system), solves
every lone DC row, every memristive step and the t = 0 point of a
memristive transient, in the one layout above: nodes, branches, states.
Its system, the DC row's with each memristor's condensed stamp, is one
flat list, and each Newton iteration makes one bare LAPACK call.  Its DC
solve (:meth:`_Steps.solve`) is a step of zero length from its own states,
with the source-stepping retry; that list Newton alone makes a DC row's
error and trace.  Every recorded sample is a row of that layout too: a
step's solution, or a DC solution with the states it was frozen at
appended.

DC solves have a leading batch axis.  One function compiles a circuit into
rows of one topology as per-row arrays, each at the circuit's temperature or
its own, a device that every row shares evaluated once (so a sweep evaluates
only its swept device per row, a memristor-free transient only its sources),
and the rows iterate together: each Newton iteration evaluates every MOSFET
of every row in one array call, adds each stamp family in one call over flat
indices, and solves the (rows, n, n) stack in one bare LAPACK call, with
damping and the convergence tests applied row by row.  That stacked Newton
only converges rows: a row whose solve is not finite, or that reaches the
iteration limit, leaves the stack and is solved alone by the DC solve of a
:class:`_Steps` built on it, to the same bits; so is the row of a batch of
one, which a single DC solve compiles.  The solve fills one array per
quantity (solutions, iterations, device currents, KCL residuals; NaN in a
failed row) and one dict of row errors, in place.  A memristive transient
compiles its circuit as one such row and builds one :class:`_Steps` on
it, which solves t = 0 and then steps.  One stamp table per topology, its
entries as flat indices, orders every entry's terms for the rows and the
steps alike.  A recorded step carries the device currents whose KCL
residual its own Newton accepted.  A memristor-free transient and a
controlled one read on a grid record DC solutions: each source's values
are evaluated once for the whole run, the samples are keyed by the bits of
their source values and (frozen) states, as integer columns sorted once,
and only the distinct keys are compiled as DC rows and solved, in the
order of their first samples, a stack of them at a time, each stack
bounded by its matrix entries (``_STACK_ENTRIES``; a stack of one
distinct key is a lone row).

The dense linear solves are LAPACK LU with partial pivoting, each through
the kernel that :func:`numpy.linalg.solve` calls, to the same bits, without
that function's checks: a singular system reads NaN in its own row of the
stack, as does one whose solution overflows, and for such a row, solved
alone, :func:`numpy.linalg.solve` tells the two apart (:func:`_solve_error`).
Circuits here have fewer than ten nodes, so no sparse machinery is
warranted.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .devices import (
    DeviceError,
    kelvin,
    memristance_at,
    memristor_drift,
    memristor_state,
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
    unsolvable,
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
    "solve_dc",
    "run_transient",
]

# default number of fixed steps when SimOptions.dt is not given
_DEFAULT_STEPS = 10_000

# the most steps of a transient's grid, refused up front beyond: a run keeps
# each sample in a few arrays, about 130 MB per million samples of a
# resistive mirror (2-core VM, numpy 2.4.6), which numpy fails to allocate
_MAX_STEPS = 10**7

# conductance (S) from every non-ground node to ground and across every
# MOSFET channel, which anchors a node that only cutoff devices touch
_GMIN = 1e-12

# Newton iterations per solve (per step, in a transient) before it fails
_MAX_NEWTON_ITERS = 100

# A DC row whose first Newton (started at its own source values, see
# _DcRows.start) fails is retried alone (_Steps.solve) with its sources
# ramped up in this many equal steps from 0 V, each step's Newton started
# from the last; below 2 there is no retry
_SOURCE_STEPS = 10

# Newton voltage-step limit on nodes touching a MOSFET terminal
_DAMP_LIMIT = 0.5

# matrix entries (rows x unknowns**2) of the distinct samples of a transient
# recorded as DC solutions per batched Newton (_stack_rows): a 7-unknown
# mirror stacks 512 rows, as the 512-row blocks before it did, and a
# 3-unknown loop 2,787, so a 2,001-sample hysteresis grid is one stack.
# Over the benchmark's drive workload (2-core Xeon VM, numpy 2.4.6), whole
# transients as one batch had raised peak RSS 34.3 -> 36.9 MB and 512-row
# blocks 34.3 -> 34.7 MB; against those blocks this bound cut the compiles
# of the seed-1 and seed-7 cycles from 88 to 40 and took seed 1 from 260 to
# 289 ref tasks/s (medians of ten 30 s runs each) for 0.3 MB more peak RSS
# (36.2 -> 36.4 MB).  A 20,001-sample pmos-r sine run peaks at 37.8 MB
# under this bound (38.6 MB under those blocks), and at 45.5 MB under flat
# 4,096-row blocks, so the bound counts entries, not rows
_STACK_ENTRIES = 512 * 7 ** 2

# Newton step limit on a normalized memristor state s = w/L, the state
# counterpart of _DAMP_LIMIT: one linearization of the window is trusted to
# move a state by at most a quarter of the device
_STATE_LIMIT = 0.25

# A memristive step whose Newton hits its iteration limit is halved and
# retried, down to its first size over 2**_MAX_CUTS: a step that still fails
# at a thousandth of its size fails for the circuit, not for its size, and
# the cuts cost at most ten times one step's iteration limit
_MAX_CUTS = 10

# The highest order of the error-controlled steps, variable-step BDF-k for k
# = 1 (backward Euler) to this: DASSL's top order (Brenan, Campbell &
# Petzold 1989), as in the MATLAB and scipy BDF codes (Shampine & Reichelt
# 1997)
_MAX_ORDER = 5

# Step-size limits of the error-controlled steps.  Variable-step BDF-k is
# zero-stable only while consecutive steps grow by less than a bound that
# falls with k: on a constant ratio r the recurrence BDF-k runs on y' = 0
# keeps its roots in the unit disk for r below 1 + sqrt(2) at k = 2
# (Grigorieff 1983; backward Euler's one root is 1 at any r), and,
# computed from the same roots with the corrector's own weights,
# below (1 + sqrt(5))/2, 1.2807 and 1.1271 at k = 3, 4 and 5.  So a step at
# order k grows at most by _GROWTH_LIMIT[k]: 2 up to order 2, as a doubling
# step always has, and a little under each bound above it (index 0 unused).
# One rejected estimate shrinks a step at most to a fifth, so a single
# outlier cannot collapse it.  The next step is 0.8 of the one the estimate
# predicts: the higher orders' estimates grow faster with the step than
# h**(k+1) where the solution bends, and on the benchmark's settle tasks
# (seeds 1 and 7) the usual 0.9 rejected 100 of 1,451 steps tried, 0.8 16
# of 1,487, for 1,571 and 1,590 Newton iterations.  The largest step bounds
# the steps of a settled tail, whose error estimate vanishes: 0.3 s is the
# smaller of the two fixed steps at which both built-in memristive mirrors
# converge uncut and end within 2 % of the default grid, and keeps ten steps
# in a 3 s settling chunk.
_GROWTH_LIMIT = (0.0, 2.0, 2.0, 1.6, 1.25, 1.12)
_SHRINK_LIMIT = 0.2
_SAFETY = 0.8
_MAX_STEP = 0.3

# The first-iterate stop of a predicted controlled step (_Steps.iterate):
# after an update of w tolerances Newton's next update is about C * w**2
# tolerances, C its quadratic contraction, and the first iterate is taken
# when that is below this fraction.  Hairer & Wanner (Solving ODEs II, sec.
# IV.8) take 0.01-0.1, DASSL 1/3 (Brenan, Campbell & Petzold 1989); on the
# benchmark's seed-1 settle cycle 0.01 ran 1.056 iterations a step and 1/3
# 1.047 (2.377 without the stop), and on the fixed grid 1/3 failed
# criterion 05, so the stricter end is taken.
_KAPPA = 0.01

# Controlled steps per period of a circuit's fastest sine source, at least.
# The state error estimate vanishes where a Joglekar window pins a state at a
# bound (f(0) = f(1) = 0), so without a cap the steps grow past the drive's
# reversal and hold the state there; at period/200 a lone p = 2 memristor
# stays within 0.03 L of a 25 us grid, as close as fixed steps of
# period/2000 come, and a hysteresis loop takes about 200 steps a cycle,
# where its requested grid holds 2000 samples a cycle.
_SINE_STEPS = 200

# The most steps a controlled run may need at its largest step (t_end /
# _Steps.max_step), refused up front beyond.  Each accepted step keeps its
# time, solution, states and currents as Python floats in lists: 515 B a
# step against 88 B a fixed-grid sample for a lone memristor, 755 B against
# 160 B for the 2m mirror (tracemalloc peaks, numpy 2.4.6), 5.9 and 4.7
# times as much.  A tenth of _MAX_STEPS leaves a margin for the extra steps
# the error control takes, so the largest controlled run needs no more
# memory than the largest fixed grid.
_MAX_CONTROLLED_STEPS = _MAX_STEPS // 10

# Milne's device per order k (index 0 unused): BDF-k's error constant C =
# 1 / ((k + 1) * (1 + 1/2 + ... + 1/k)) against the degree-k predictor's 1
# puts the corrector's local error at C / (1 + C) of the
# predictor-corrector difference (Gear 1971, ch. 9)
_MILNE = (0.0, 1.0 / 3.0, 2.0 / 11.0, 3.0 / 25.0, 12.0 / 137.0, 10.0 / 147.0)


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
    """A transient's settings; defaults suit the second-scale circuits in
    this repo.  ``dt=None`` picks ``t_stop / 10000``; a grid of more than
    ``_MAX_STEPS`` steps is refused.  The temperature is the circuit's own
    (:attr:`Circuit.temp`, which the `.temp` directive sets).

    ``adaptive=True`` lets a memristive transient choose its own steps and
    their BDF order, holding each step's estimated local error on every
    normalized memristor state to ``reltol`` (see :func:`run_transient`).
    With ``dt`` unset the transient records the steps it accepts; with
    ``dt`` set it records the uniform ``dt`` grid, read from those steps.  Memristor-free transients
    keep the fixed grid either way.
    """

    # Newton's tolerances, the same for every solve: the KCL residual (A),
    # and the relative and absolute (V) node voltage steps; ``reltol`` also
    # bounds a memristor state's step and its local error
    abstol = 1e-9
    reltol = 1e-6
    vntol = 1e-6

    dt: float | None = None
    t_stop: float | None = None
    adaptive: bool = False

    def __post_init__(self) -> None:
        for name in ("dt", "t_stop"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.t_stop is not None:
            dt = self.t_stop / _DEFAULT_STEPS if self.dt is None else self.dt
            if self.t_stop < dt:
                raise ValueError("t_stop must be >= dt")
            steps = self.t_stop / dt if dt else math.inf  # dt may underflow to 0
            if steps > _MAX_STEPS:
                raise ValueError(f"t_stop / dt = {steps:.3g} steps; at most "
                                 f"{_MAX_STEPS:.0e} are taken")


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

def _pair_entries(a: int, b: int) -> list[tuple[tuple[int, int], float]]:
    """(entry, sign) of a conductance between nodes a and b (0 is ground)."""
    entries = [((n, n), 1.0) for n in (a, b) if n]
    return entries + ([((a, b), -1.0), ((b, a), -1.0)] if a and b else [])


def _mosfet_stamps(mosfets):
    """The MOSFET stamps of one linearized system as sequences of updates
    ``(entry, term, sign)``, in the order each entry takes them: the
    matrix's and the right-hand side's, MOSFET after MOSFET.

    Matrix terms index the columns of [gm | gds | gm + gds | gmin] (one
    column per MOSFET in each block); right-hand-side terms index the
    MOSFETs' equivalent currents ieq.
    """
    count = len(mosfets)
    matrix, rhs = [], []
    for k, f in enumerate(mosfets):
        gm, gds, both, gmin = k, count + k, 2 * count + k, 3 * count + k
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
    """Index maps and the one stamp table of a circuit: what every circuit
    with the same nodes, and the same kind, name and terminals of every
    device in order, shares, whatever its parameters and temperature.  A
    circuit that a nodal solve cannot take
    (:func:`~mirrorsim.netlist.unsolvable`) raises
    :class:`SingularMatrixError`.

    ``fixed`` is the matrix no device value enters (the ground pin, gmin,
    the source incidences); ``stamps`` holds every other stamp as ``(index,
    term, sign)`` sequences, each entry as its flat index into one row's
    row-major matrix or its vector: resistor and memristor conductances,
    MOSFET matrix and right-hand side (:func:`_mosfet_stamps`), and KCL
    sums.  :class:`_DcRows` (through ``families``) and :class:`_Steps`
    both add ``fixed`` and then these in order, so every entry takes its
    terms in one order in both."""

    def __init__(self, circuit: Circuit):
        reason = unsolvable(circuit.node_names, circuit.devices)
        if reason:
            raise SingularMatrixError(reason)
        self.circuit = circuit
        self.n_nodes = len(circuit.node_names)
        devices = circuit.devices
        self.sources = [d for d in devices if isinstance(d, BoundSource)]
        self.resistors = [d for d in devices if isinstance(d, BoundResistor)]
        self.memristors = [d for d in devices if isinstance(d, BoundMemristor)]
        self.mosfets = [d for d in devices if isinstance(d, BoundMosfet)]
        dim = self.dim = self.n_nodes + len(self.sources)
        damped = {n for m in self.mosfets for n in (m.n_d, m.n_g, m.n_s)}
        self.damped_nodes = sorted(n for n in damped if n != 0)

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
        self.branch_cols = np.arange(self.n_nodes, dim, dtype=np.intp)

        # the ground row pins v0 = 0 exactly; gmin from every other node
        self.fixed = np.diag([1.0] + [_GMIN] * (self.n_nodes - 1) + [0.0] * len(self.sources))
        for src, br in zip(self.sources, self.branch_cols.tolist()):
            for node, sign in ((src.n_pos, 1.0), (src.n_neg, -1.0)):
                if node:
                    self.fixed[node, br] += sign
                    self.fixed[br, node] += sign
        # (node, source column, sign) of each source that ties a node to
        # ground: the node sits at sign * the source's value
        tied = [(src.n_pos or src.n_neg, col, 1.0 if src.n_pos else -1.0)
                for col, src in enumerate(self.sources)
                if (src.n_pos == 0) != (src.n_neg == 0)]
        self.grounded = (index([t[0] for t in tied]), index([t[1] for t in tied]),
                         np.array([t[2] for t in tied]))

        def conductances(pairs):
            return [(entry, k, sign) for k, d in enumerate(pairs)
                    for entry, sign in _pair_entries(d.n_pos, d.n_neg)]

        # each device current, by its kind-ordered column, leaves one node
        # and enters the other, in device order; every entry as its flat
        # index into one row's row-major matrix or its vector
        column = {position: k for k, position in enumerate(by_kind)}
        self.stamps = {
            name: [(e[0] * dim + e[1] if len(e) == 2 else e[0], term, sign)
                   for e, term, sign in sequence]
            for name, sequence in zip(("res", "mem", "mos", "ieq", "kcl"), (
                conductances(self.resistors), conductances(self.memristors),
                *_mosfet_stamps(self.mosfets),
                [((node,), column[position], sign)
                 for position, nodes in enumerate(self.current_nodes)
                 for node, sign in zip(nodes, (-1.0, 1.0)) if node]))}
        # the batched solve's stamp families as (size, entries, term rows,
        # signs)
        sizes = {"ieq": dim, "kcl": self.n_nodes}
        self.families = {
            name: (sizes.get(name, dim * dim), index([i for i, _, _ in sequence]),
                   index([term for _, term, _ in sequence]),
                   np.array([sign for _, _, sign in sequence]).reshape(-1, 1))
            for name, sequence in self.stamps.items()}
        self._flat: dict = {}
        self._flat_rows = 0

    def flat(self, family: str, rows: int) -> np.ndarray:
        """Flat indices of stamp family ``family`` into ``rows`` stacked
        arrays, row by row and each row's terms in sequence order; built
        for the most rows asked for, and sliced."""
        if rows > self._flat_rows:
            offsets = np.arange(rows, dtype=np.intp)[:, None]
            self._flat = {name: (offsets * size + entries).ravel()
                          for name, (size, entries, _, _) in self.families.items()}
            self._flat_rows = rows
        return self._flat[family][:rows * len(self.families[family][1])]


# --------------------------------------------------------------------------- #
# DC operating points: one batched Newton over rows of one topology
# --------------------------------------------------------------------------- #

# LAPACK's gesv through the gufunc that numpy.linalg.solve calls for
# systems with one right-hand side each, one system or a stack, without
# that function's checks and wrapping (about 3 of its 10 us on one 7x7
# system); LAPACK factors each system of a stack on its own, and where
# numpy.linalg.solve raises LinAlgError for a singular matrix, this returns
# NaN in that system's solution alone and sets numpy's invalid flag
_solve1 = _umath_linalg.solve1


def _solve_error(g_mat, rhs, title: str, trace, time: float | None = None):
    """The error of a Newton iteration whose :func:`_solve1` of the system
    (``g_mat``, ``rhs``) is not finite: :class:`SingularMatrixError` where
    :func:`numpy.linalg.solve` refuses the matrix as singular, else a
    :class:`NonConvergenceError` with ``trace``, the failed iteration
    included, and ``time``."""
    try:
        np.linalg.solve(g_mat, rhs)
    except np.linalg.LinAlgError:
        return SingularMatrixError(f"singular nodal matrix while solving {title!r}")
    at = "" if time is None else f" at t={time:.9g} s"
    return NonConvergenceError(f"Newton produced a non-finite iterate{at}",
                               trace=trace, time=time)


# a compiled row's cell of one device, from its record, the row's
# temperature and a memristor's state (None: w0): a conductance (S), a
# memristance (ohm) or the square-law coefficients (sign, vth, beta, lam),
# finite, with a finite conductance, or the law raises; sources come
# evaluated
_CELLS = {
    BoundResistor: lambda d, temp, s: 1.0 / resistor_value(d.params, temp),
    BoundMemristor: lambda d, temp, s: memristance_at(
        memristor_state(d.w0, d.params) if s is None else s, d.params),
    BoundMosfet: lambda d, temp, s: mosfet_coefficients(d.params, temp),
}


def _source_values(topo: _Topology, records, times: np.ndarray) -> np.ndarray:
    """Values (rows, sources) of the sources of ``topo`` at ``times``, one
    time per row, by :func:`~mirrorsim.devices.source_value`: a source that
    every row shares in one array call, and one whose position in
    ``records`` gives each row its own record, record by record."""
    devices = topo.circuit.devices
    values = np.empty((len(times), len(topo.sources)))
    for col, j in enumerate(topo.src_cols):
        given = records.get(j, devices[j:j + 1])
        values[:, col] = ([source_value(d.spec, t) for d, t in zip(given, times.tolist())]
                          if len(given) > 1 else source_value(given[0].spec, times))
    return values


class _DcRows:
    """DC rows of one topology compiled into per-row arrays, and solved in
    place to Newton's tolerances (:class:`SimOptions`).

    Row k is the topology's circuit at ``temps[k]``, its sources at the
    values ``values[k]`` (one per source, evaluated by the caller), its
    memristances frozen at the normalized states ``states`` (None: its
    devices' initial states; a memristor's entry is a number, or an array
    of one state per row when its record is shared), and the device at
    each position of ``records`` replaced by that list's entry k.  A device
    that all rows share is evaluated once.  Each row depends on its own
    inputs alone, so which rows share a batch moves no bit of any row.  A
    row fails alone: with the first :class:`~mirrorsim.devices.DeviceError`
    of its devices in kind order, prefixed with its device's name, which
    is what compiling that row alone raises (a law that returns has
    returned cells the solve can use), or in :meth:`solve`.  ``errors``
    maps every failed row to its error; a row that a caller adds to it
    before :meth:`solve` (an override's invalid value, see
    :func:`~mirrorsim.netlist.overrides`) is not solved.  The solve fills
    ``x`` (rows, nodes and branches), ``iterations``, ``currents`` (rows,
    devices in circuit order; see OperatingPoint) and ``residual``, NaN in
    a failed row.

    The linear part is the topology's fixed matrix plus its resistor and
    memristor families; each Newton iteration assembles and solves every
    row still running, with one array MOSFET evaluation (none without
    MOSFETs) and each further family added in one unbuffered
    :func:`numpy.add.at`, in the order of :attr:`_Topology.stamps`, which
    :class:`_Steps` applies one by one.
    With the device law evaluated by
    :func:`~mirrorsim.devices.mosfet_square_law`'s operations, each row's
    iterates equal those of the same row solved alone, to the bit.  The
    stacked :meth:`newton` only converges rows; a row it leaves, and the
    row of a batch of one, is solved alone by :meth:`_Steps.solve`, a step
    of zero length of a :class:`_Steps` built on the row, its own records
    and states, which alone makes a DC row's error, trace and
    source-stepping retry.
    """

    def __init__(self, topo: _Topology, temps, records, states, values: np.ndarray):
        self.topo, self.temps, self.records, self.states = topo, temps, records, states
        count = len(self.temps)
        devices = topo.circuit.devices
        s_at = {} if states is None else dict(zip(topo.mem_cols, states))
        same_temp = len(set(self.temps)) == 1
        self.errors: dict[int, Exception] = {}
        columns = []
        for j in topo.kind_order.tolist():
            if isinstance(devices[j], BoundSource):  # its values are given
                continue
            given = records.get(j, devices[j:j + 1])
            once = len(given) == 1 and same_temp
            failed = (math.nan,) * 4 if isinstance(devices[j], BoundMosfet) else math.nan
            law, s = _CELLS[type(devices[j])], s_at.get(j)
            cells = []
            for k, (device, at) in enumerate(zip(given * count if len(given) == 1
                                                 else given, self.temps)):
                try:
                    cell = law(device, at, s)
                except DeviceError as exc:
                    cell, exc = failed, DeviceError(f"{device.name}: {exc}")
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
        self.values = values

        # the linear part: the fixed matrix, the resistors, the memristors
        g_lin = self._scatter("res", np.repeat(topo.fixed[None], count, axis=0),
                              self.g_res)
        self.g_lin = self._scatter("mem", g_lin, 1.0 / self.r_mem)

    def _scatter(self, family: str, out, terms):
        """Stamp family ``family`` of :attr:`_Topology.families` added into
        ``out``, one array per row, in one unbuffered :func:`numpy.add.at`:
        each entry takes its terms, the rows of ``terms`` (columns, rows)
        the sequence picks, signed, in sequence order."""
        _, _, columns, signs = self.topo.families[family]
        np.add.at(out.reshape(-1), self.topo.flat(family, len(out)),
                  (terms[columns] * signs).T.ravel())
        return out

    def _mosfets(self, rows, x):
        """(vgs, vds, id, gm, gds) of every MOSFET, (MOSFETs, rows) each;
        without MOSFETs, five empty arrays and no device-law call."""
        d, g, s = (x.T[nodes] for nodes in self.topo.mos_nodes)
        vgs, vds = g - s, d - s
        if not self.topo.mosfets:
            return vgs, vds, vgs, vgs, vgs
        return (vgs, vds) + mosfet_linearized_array(vgs, vds,
                                                    *self.coeffs.take(rows, axis=2))

    def assemble(self, rows, x):
        """Stacked linearized systems (matrices, right-hand sides) of ``rows``
        at the guesses ``x``, one per row."""
        vgs, vds, i0, gm, gds = self._mosfets(rows, x)
        terms = np.concatenate([gm, gds, gm + gds, np.full(gm.shape, _GMIN)])
        rhs = np.zeros(x.shape)
        rhs[:, self.topo.branch_cols] = self.values[rows]
        return (self._scatter("mos", self.g_lin[rows], terms),
                self._scatter("ieq", rhs, i0 - gm * vgs - gds * vds))

    def kcl(self, rows, x):
        """Device currents (rows, devices in circuit order; see
        OperatingPoint) and the largest net current into any non-ground node
        of each row (A)."""
        topo = self.topo
        (rp, rn), (mp, mn) = topo.res_nodes, topo.mem_nodes
        v = x.T
        by_kind = np.concatenate([
            self.g_res.take(rows, axis=1) * (v[rp] - v[rn]),
            (v[mp] - v[mn]) / self.r_mem.take(rows, axis=1),
            self._mosfets(rows, x)[2],
            v[topo.branch_cols],
        ])
        currents = np.empty_like(by_kind)
        currents[topo.kind_order] = by_kind
        sums = self._scatter("kcl", np.zeros((len(rows), topo.n_nodes)), by_kind)
        return currents.T, np.abs(sums[:, 1:]).max(axis=1)

    def start(self, rows) -> np.ndarray:
        """Newton's first guesses (rows, unknowns) for ``rows``: every node
        that a source ties to ground at that source's value in the row,
        every other unknown at 0; a function of the row's own inputs."""
        nodes, cols, signs = self.topo.grounded
        x = np.zeros((len(rows), self.topo.dim))
        x[:, nodes] = signs * self.values[rows][:, cols]
        return x

    @np.errstate(all="ignore")  # a row whose solution is not finite is left
    def newton(self, rows, x) -> tuple[list[int], list[int]]:
        """Newton-Raphson on ``rows`` (ascending) from the guesses ``x``, as
        one stack, to the dual tolerance: per-node voltage deltas below
        vntol + reltol*|V| and device-KCL residual below abstol, row by row.

        The fast path for a stack: it only converges rows.  Each iteration
        solves the stack in one :func:`_solve1` call.  A converged row's
        solution, device currents, KCL residual and iterations are written
        to its entries.  Returns the rows it leaves, as two lists: those
        whose solution is not finite, and those still running at
        ``_MAX_NEWTON_ITERS``.  :meth:`solve` solves each alone, which
        makes its error, trace and retry.
        """
        n, damped = self.topo.n_nodes, self.topo.damped_nodes
        vntol, reltol = SimOptions.vntol, SimOptions.reltol
        left: list[int] = []
        for it in range(1, _MAX_NEWTON_ITERS + 1):
            if not len(rows):
                break
            solved = _solve1(*self.assemble(rows, x))  # a singular row reads NaN
            finite = np.isfinite(solved).all(axis=1)
            if not finite.all():
                left += rows[~finite].tolist()
                rows, x, solved = rows[finite], x[finite], solved[finite]
            dv = solved[:, :n] - x[:, :n]
            converged = (np.abs(dv) < vntol + reltol * np.abs(solved[:, :n])).all(axis=1)
            dv[:, damped] = np.minimum(np.maximum(dv[:, damped], -_DAMP_LIMIT),
                                       _DAMP_LIMIT)
            x = np.concatenate([x[:, :n] + dv, solved[:, n:]], axis=1)
            residual = np.full(len(rows), math.nan)
            currents = np.empty((len(rows), len(self.topo.current_nodes)))
            if converged.any():
                currents[converged], residual[converged] = self.kcl(
                    rows[converged], x[converged])
            finished = residual < SimOptions.abstol
            if finished.any():
                done = rows[finished]
                self.x[done], self.currents[done] = x[finished], currents[finished]
                self.residual[done], self.iterations[done] = residual[finished], it
                rows, x = rows[~finished], x[~finished]
        return left, rows.tolist()

    def solve(self) -> _DcRows:
        """Every row the compile did not fail, solved: a stack of two or
        more rows runs :meth:`newton` once, from :meth:`start`, and each
        row it leaves, like the row of a batch of one, is solved alone by
        the DC solve of a :class:`_Steps` built on it (:meth:`_Steps.solve`),
        which makes every DC error and the source-stepping retry.  A row
        the stack left still running at ``_MAX_NEWTON_ITERS`` goes straight
        to that retry: its own first Newton, from :meth:`start`, would run
        the stack's iterates again, to the same limit.  A row's iterates
        depend on its own inputs alone, not on its batch.  Fills ``x``,
        ``iterations``, ``currents``, ``residual`` (NaN in a failed row) and
        ``errors`` in place and returns the rows."""
        count = len(self.temps)
        self.x = np.full((count, self.topo.dim), math.nan)
        self.iterations = np.full(count, math.nan)
        self.currents = np.full((count, len(self.topo.current_nodes)), math.nan)
        self.residual = np.full(count, math.nan)
        rows = np.array([k for k in range(count) if k not in self.errors], dtype=int)
        failed, running = (self.newton(rows, self.start(rows)) if count > 1
                           else (rows.tolist(), []))
        for k in sorted(failed + running):
            cold = k in failed or _SOURCE_STEPS < 2
            try:
                x, currents, residual, its = _Steps(self, k).solve(
                    self.start([k])[0].tolist() if cold else None,
                    self.values[k].tolist())
            except SimulationError as exc:
                self.errors[k] = exc
                continue
            self.x[k], self.currents[k, self.topo.kind_order] = x[:self.topo.dim], currents
            self.residual[k], self.iterations[k] = residual, its
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


def _lagrange(nodes, t):
    """Weights at ``t`` of the polynomials through the latest of the
    distinct ``nodes``: entry q holds the weights, in node order, of the
    values at the last q + 1 nodes in the polynomial of degree q through
    them.  Each weight is Lagrange's product of ratios of differences,
    built by adding the nodes from the latest back: an added node a
    multiplies each weight j by (t - a) / (t_j - a) and takes the product
    of (t - t_j) / (a - t_j) itself.  ``t`` and the nodes may be floats, or
    arrays of one node (or time) per point read.  At a node the weights are
    exactly one and zeros."""
    out = [[1.0]]
    for back in range(2, len(nodes) + 1):
        a = nodes[-back]
        level, first, ta = [0.0], 1.0, t - a
        for w, m in zip(out[-1], nodes[1 - back:]):
            gap = m - a
            first = first * ((t - m) / -gap)
            level.append(w * (ta / gap))
        level[0] = first
        out.append(level)
    return out


def _bdf(nodes, t, extrapolant):
    """``(dt_eff, weights)`` of the BDF step from the accepted times
    ``nodes`` (k of them, the last the latest) to ``t``, given the
    ``extrapolant``'s weights at ``t`` through those nodes
    (:func:`_lagrange`): the step ``s = sum(w_j * s_j) + dt_eff * ds/dt``
    that makes the derivative at ``t`` of the polynomial through (t, s) and
    the accepted (t_j, s_j) the drift.  The basis polynomial of node j has
    slope -e_j / (t - t_j) there, e_j the node's extrapolant weight, and the
    new point's slope is the sum of 1 / (t - t_j); the step h = t -
    nodes[-1] scales both, so that at k = 1 the step is backward Euler to
    the bit: ``(h, [1.0])``."""
    h = t - nodes[-1]
    ratios = [h / (t - n) for n in nodes]
    total = sum(ratios)
    return h / total, [e * r / total for e, r in zip(extrapolant, ratios)]


def _quadratic_read(ts, values, times) -> np.ndarray:
    """``values`` (samples, columns) accepted at the increasing times
    ``ts``, read at ``times`` within [ts[0], ts[-1]]: a time in (ts[k-1],
    ts[k]] takes the quadratic through the accepted samples k-2, k-1 and k
    (the first interval the quadratic through the first three).  An
    accepted time reads its accepted sample exactly.  Returns (times,
    columns)."""
    ts, values = np.asarray(ts), np.asarray(values)
    if len(ts) < 3:  # a single step, recorded only at its ends
        return values[np.searchsorted(ts, times)]
    k = np.clip(np.searchsorted(ts, times), 2, len(ts) - 1)
    w0, w1, w2 = (w[:, None] for w in _lagrange([ts[k - 2], ts[k - 1], ts[k]], times)[2])
    return w0 * values[k - 2] + w1 * values[k - 1] + w2 * values[k]


class _Steps:
    """The list-form row: the DC solve (:meth:`solve`) and the implicit
    steps of a circuit compiled as row ``row`` of a :class:`_DcRows`, on
    Python lists copied from that row, which is the fast form for one
    small system.

    Its unknowns are one list of floats ``x``: the layout the module
    docstring gives, the nodes and branches, then the normalized states
    ``w / L`` of the topology's memristors at ``x[dim:]`` (each
    memristor's column ``col`` in :attr:`memristors`); :attr:`states` are
    the row's own.  Every step
    solves ``s = hist + dt_eff * (dw/dt)/L``: a backward-Euler step has
    ``hist`` the previous states and ``dt_eff = dt``, and a variable-step
    BDF step of order k (:meth:`march`, :func:`_bdf`) a blend of the last k
    accepted states and a shortened step.  :attr:`orders` counts the steps
    :meth:`march` accepts at each order.

    The step's system is the DC row's, ``dim`` square, one flat row-major
    list: the row's fixed matrix and resistors, added by the same
    :meth:`_DcRows._scatter` that compiles the DC rows, then the
    topology's stamp sequences (:attr:`_Topology.stamps`) one by one,
    memristors and then MOSFETs, as :class:`_DcRows` adds them, each
    memristor's state solved out of its own equation into a conductance and
    a right-hand-side share (:meth:`_condense`).  So a step at ``dt_eff =
    0`` whose ``hist`` is its states is the DC row, its matrix, right-hand
    side and :meth:`kcl` to the bit, which is how :meth:`solve` solves the
    row.  Each Newton iteration makes one LAPACK call through the
    kernel that :func:`numpy.linalg.solve` dispatches to, so its solution
    is that function's, to the bit.
    """

    def __init__(self, rows: _DcRows, row: int = 0):
        topo = self.topo = rows.topo
        self.specs = [src.spec for src in topo.sources]
        self.branches = topo.branch_cols.tolist()
        self.damped = [j in topo.damped_nodes for j in range(topo.n_nodes)]
        self.g_base = rows._scatter("res", topo.fixed[None].copy(),
                                    rows.g_res[:, row:row + 1]).ravel().tolist()
        # per MOSFET k (term column block * MOSFETs + k): its nodes,
        # coefficients and stamps
        count = len(topo.mosfets)
        self.mosfets = [((f.n_d, f.n_g, f.n_s), c, [], []) for f, c in
                        zip(topo.mosfets, rows.coeffs[:, :, row].T.tolist())]
        for i, term, sign in topo.stamps["mos"]:
            self.mosfets[term % count][2].append((i, term // count, sign))
        for r, k, sign in topo.stamps["ieq"]:
            self.mosfets[k][3].append((r, sign))
        # per memristor: its nodes, the row's parameters, its state column
        # and its non-ground terminals as (node, sign); and the row's state
        devices = topo.circuit.devices
        self.memristors, self.states = [], []
        for k, (j, m) in enumerate(zip(topo.mem_cols, topo.memristors)):
            given = rows.records.get(j, devices[j:j + 1])
            record = given[row if len(given) > 1 else 0]
            s = (memristor_state(record.w0, record.params) if rows.states is None
                 else rows.states[k])
            self.states.append(float(s[row] if np.ndim(s) else s))
            self.memristors.append((m.n_pos, m.n_neg, record.params, topo.dim + k,
                                    [(node, sign) for node, sign in
                                     ((m.n_pos, 1.0), (m.n_neg, -1.0)) if node]))
        self.res_ends = [(g, r.n_pos, r.n_neg)
                         for g, r in zip(rows.g_res[:, row].tolist(), topo.resistors)]
        # the largest controlled step: _MAX_STEP, or less with a sine source
        self.max_step = min([_MAX_STEP] + [1.0 / (_SINE_STEPS * spec.frequency)
                                           for spec in self.specs
                                           if spec.kind == "sine"])
        # Newton's contraction w2 / w1**2 from the last predicted step that
        # measured one (see iterate)
        self.contraction: float | None = None
        # accepted steps of march by order (index 0 unused)
        self.orders = [0] * (_MAX_ORDER + 1)

    def assemble(self, x, values, dt_eff, hist):
        """Linearized system of a step at ``x``, with the sources at
        ``values``: (matrix, right-hand side) arrays, ``dim`` square, of
        the row's linear part, each memristor's condensed stamp
        (:meth:`_condense`) and the MOSFETs linearized at ``x``, and per
        memristor the (rs, d_dv, d_ds) of its state after the solve."""
        g_mat = self.g_base[:]
        rhs = [0.0] * self.topo.dim
        for br, value in zip(self.branches, values):
            rhs[br] = value
        g_mem, states = self._condense(rhs, x, dt_eff, hist)
        for i, k, sign in self.topo.stamps["mem"]:
            g_mat[i] += g_mem[k] * sign
        for (d, g, src), c, matrix, sources in self.mosfets:
            vgs = x[g] - x[src]
            vds = x[d] - x[src]
            i0, gm, gds = mosfet_square_law(vgs, vds, *c)
            terms = (gm, gds, gm + gds, _GMIN)
            for i, term, sign in matrix:
                g_mat[i] += terms[term] * sign
            ieq = i0 - gm * vgs - gds * vds
            for r, sign in sources:
                rhs[r] += ieq * sign
        dim = self.topo.dim
        return np.array(g_mat).reshape(dim, dim), np.array(rhs), states

    def _condense(self, rhs, x, dt_eff, hist):
        """Each memristor's state equation ``s - hist - dt_eff*(dw/dt)/L =
        0``, linearized at ``x``, each state s at its column ``x[col]``,
        and solved for s: returns the memristors' conductances and per
        memristor the (rs, d_dv, d_ds) of its state after the node solve,
        ``s = (rs - d_dv*(v_a - v_b))/d_ds``, and adds their
        right-hand-side shares into ``rhs``.

        With M = s*Ron + (1-s)*Roff, g = 1/M and i = v*g, the step's drift
        is ``k*i*f(s)``, its ``k``, window ``f`` and window slope ``f'``
        taken from :func:`~mirrorsim.devices.memristor_drift`.  The
        equation, linearized, reads d_ds*s + d_dv*v = rs, with di/ds =
        -i*(Ron - Roff)*g, d_ds = 1 - k*(di/ds*f + i*f'), d_dv = -k*f*g and
        rs = d_ds*s + d_dv*v less its residual, all at ``x``.  Substituted into
        the linearized current g*v + di/ds*(s - s_x), it leaves the
        conductance g - di/ds*d_dv/d_ds and the share di/ds*(s_x - rs/d_ds),
        added at n_pos and taken at n_neg: block elimination of one
        system.  A state at a bound whose residual points outward (the
        update would leave [0, 1]) is held there: it keeps g, adds no share
        and stays put.  At ``dt_eff = 0`` with ``hist`` the states, both
        terms reduce to the frozen memristance, to the bit.
        """
        g_mem, states = [], []
        for (a, b, p, col, ends), h in zip(self.memristors, hist):
            sk = x[col]
            v = x[a] - x[b]
            g = 1.0 / memristance_at(sk, p)
            i = v * g
            kc, f, f_slope = memristor_drift(sk, p, dt_eff)
            resid = sk - h - kc * i * f
            if (sk == 1.0 and resid <= 0.0) or (sk == 0.0 and resid >= 0.0):
                g_mem.append(g)
                states.append((sk, 0.0, 1.0))
                continue
            di_ds = -i * (p.r_on - p.r_off) * g
            d_ds = 1.0 - kc * (di_ds * f + i * f_slope)
            d_dv = -kc * f * g
            rs = d_ds * sk + d_dv * v - resid
            g_mem.append(g - di_ds * d_dv / d_ds)
            share = di_ds * (sk - rs / d_ds)
            for node, sign in ends:
                rhs[node] += share * sign
            states.append((rs, d_dv, d_ds))
        return g_mem, states

    def kcl(self, x):
        """Device currents by kind, as :meth:`_DcRows.kcl` orders them
        (see OperatingPoint), and the largest net current into any
        non-ground node (A), with the memristances at the states
        ``x[dim:]``."""
        by_kind = []
        for g, a, b in self.res_ends:
            by_kind.append(g * (x[a] - x[b]))
        for a, b, p, col, _ in self.memristors:
            by_kind.append((x[a] - x[b]) / memristance_at(x[col], p))
        for (d, g, src), c, _, _ in self.mosfets:
            by_kind.append(mosfet_square_law(x[g] - x[src], x[d] - x[src], *c)[0])
        for br in self.branches:
            by_kind.append(x[br])
        sums = [0.0] * self.topo.n_nodes
        for node, column, sign in self.topo.stamps["kcl"]:
            sums[node] += by_kind[column] * sign
        return by_kind, max(map(abs, sums[1:]))

    @np.errstate(all="ignore")  # for iterate's kernel
    def solve(self, x, values):
        """The row's DC solve with the sources at ``values``: a step at
        ``dt_eff = 0`` whose history is the row's :attr:`states`, so that
        each memristor stamps its frozen memristance and its state stays
        put, and which iterates as :meth:`_DcRows.newton` iterates the row,
        to the bit.  Returns :meth:`iterate`'s (x, currents, residual,
        iterations), ``x`` in the step layout, its states at ``x[dim:]``.

        Newton starts at ``x``, the nodes and branches (the row's
        :meth:`_DcRows.start`).  Where it fails to converge (a
        :class:`NonConvergenceError`), or where ``x`` is None, the sources
        are ramped up from 0 V in ``_SOURCE_STEPS`` equal steps, each
        step's Newton started from the last's solution; a stepped row's
        iterations sum its steps'.  A failure raises: ``iterate``'s error,
        with its trace, or the stepping's "source stepping stalled"; below
        two steps there is no ramp, and ``x`` must be given."""
        states = self.states
        if x is not None:
            try:
                return self.iterate(x + states, values, 0.0, states)
            except NonConvergenceError:
                if _SOURCE_STEPS < 2:
                    raise
        x, its = [0.0] * self.topo.dim + states, 0
        for step in range(1, _SOURCE_STEPS + 1):
            scale = step / _SOURCE_STEPS
            try:
                x, currents, residual, it = self.iterate(
                    x, [scale * v for v in values], 0.0, states)
            except NonConvergenceError as exc:
                raise NonConvergenceError(
                    f"source stepping stalled at scale {scale:.2f}: {exc}",
                    trace=exc.trace) from exc
            its += it
        return x, currents, residual, its

    def iterate(self, x, values, dt_eff, hist, t: float | None = None,
                predicted: bool = False):
        """Newton-Raphson from ``x``, updated in place, with the sources
        at ``values``, each state on its equation ``s = hist +
        dt_eff*(dw/dt)/L``: a step to time ``t`` (:meth:`march`), or, at
        ``dt_eff = 0`` with ``hist`` the states and no time, the row's DC
        solve as :meth:`_DcRows.newton` iterates it, to the bit
        (:meth:`solve`).  Call it inside
        ``np.errstate(all="ignore")``: the bare kernel reports a singular
        matrix as NaN.

        Converged means per-node voltage deltas below vntol + reltol*|V|,
        every state delta below reltol, and the device-KCL residual below
        abstol.  Each iteration takes the states that the solved node
        voltages give (:meth:`_condense`), moves each by at most
        ``_STATE_LIMIT`` and clamps it to [0, 1].  Returns (x, currents,
        residual, iterations), with :meth:`kcl` at the accepted ``x``.  Running out
        of iterations raises :class:`_IterationLimit` at a time, the DC
        rows' :class:`NonConvergenceError` without one; a non-finite
        iterate raises :func:`_solve_error`'s error at once:
        :class:`SingularMatrixError` for a singular system, else
        :class:`NonConvergenceError`.

        A ``predicted`` step (:meth:`march`) may also stop at its first
        iterate.  With w_k the k-th update's largest ratio to its tolerance
        (|dV| / (vntol + reltol*|V|) per node, |ds| / reltol per state),
        Newton's next update is about C * w1**2 tolerances, C = w2 / w1**2
        as measured on the last predicted step with a first update that
        ``_DAMP_LIMIT`` and ``_STATE_LIMIT`` did not clip and a nonzero
        second.  The first iterate is taken when that is below ``_KAPPA``,
        its update unclipped and its KCL residual below abstol.
        """
        trace: list[tuple[int, float, float]] = []
        n, dim = self.topo.n_nodes, self.topo.dim
        vntol, reltol = SimOptions.vntol, SimOptions.reltol
        damped = self.damped
        w1, free = 0.0, False  # the first update's ratio, and not clipped
        for it in range(1, _MAX_NEWTON_ITERS + 1):
            g_mat, rhs, states = self.assemble(x, values, dt_eff, hist)
            solved = _solve1(g_mat, rhs).tolist()
            if not all(map(math.isfinite, solved)):
                trace.append((it, math.nan, math.nan))
                raise _solve_error(g_mat, rhs, self.topo.circuit.title, trace, t)
            # one pass over the nodes: largest |dV|, the convergence test,
            # the largest ratio to the tolerance, the damping and the
            # update; then the branch currents, and the states, each moved
            # at most _STATE_LIMIT and clamped to [0, 1]
            max_dv, converged, ratio, clipped = 0.0, True, 0.0, False
            for j in range(n):
                v = solved[j]
                d = v - x[j]
                dv = abs(d)
                if dv > max_dv:
                    max_dv = dv
                tol = vntol + reltol * abs(v)
                if dv >= tol:
                    converged = False
                r = dv / tol
                if r > ratio:
                    ratio = r
                if damped[j] and dv > _DAMP_LIMIT:
                    d = _DAMP_LIMIT if d > 0.0 else -_DAMP_LIMIT
                    clipped = True
                x[j] += d
            x[n:dim] = solved[n:dim]
            for (a, b, _, col, _), (rs, d_dv, d_ds) in zip(self.memristors, states):
                ds = (rs - d_dv * (solved[a] - solved[b])) / d_ds - x[col]
                dsa = abs(ds)
                if dsa >= reltol:
                    converged = False
                r = dsa / reltol
                if r > ratio:
                    ratio = r
                if dsa > _STATE_LIMIT:
                    ds = _STATE_LIMIT if ds > 0.0 else -_STATE_LIMIT
                    clipped = True
                x[col] = min(max(x[col] + ds, 0.0), 1.0)
            if predicted and it == 1:
                w1, free = ratio, not clipped
                if free and self.contraction is not None:
                    converged = converged or self.contraction * w1 * w1 < _KAPPA
            elif predicted and it == 2 and free and w1 > 0.0 and ratio > 0.0:
                self.contraction = ratio / (w1 * w1)
            if converged:
                currents, residual = self.kcl(x)
                trace.append((it, max_dv, residual))
                if residual < SimOptions.abstol:
                    return x, currents, residual, it
            else:
                trace.append((it, max_dv, math.nan))
        at = "" if t is None else f" at t={t:.9g} s"
        raise (NonConvergenceError if t is None else _IterationLimit)(
            f"Newton did not converge within {_MAX_NEWTON_ITERS} iterations{at} "
            f"(last max |dV|={trace[-1][1]:.3g} V)", trace=trace, time=t)

    @np.errstate(all="ignore")  # for iterate's kernel, once per march
    def march(self, x, currents, t: float, t_end: float, h: float,
              floor: float, controlled: bool):
        """Steps from the solution ``x`` (states included) and its device
        ``currents`` at time ``t`` to ``t_end``, the first of size ``h``;
        returns the accepted times, solutions and device currents as lists,
        the start included.  Each step is :meth:`iterate` on a copy of its
        start, with the sources at its end time, and adds one to
        ``orders[k]``, k its order.

        A step whose Newton runs out of iterations is halved and retried;
        one that fails at the ``floor`` raises its
        :class:`NonConvergenceError`, naming the step.  A step that
        converges lets the next one double, up to ``_MAX_STEP``, or when
        controlled up to :attr:`max_step`.  The accepted states
        (``x[dim:]`` of each solution) are what a controlled run read on a
        grid reads its samples' states from (:func:`_quadratic_read`).

        Uncontrolled, every step is backward Euler: this is how a fixed-grid
        step that failed is cut; its Newton starts at the previous solution.
        Controlled, the steps are variable-step, variable-order BDF (Gear
        1971; Brenan, Campbell & Petzold 1989, ch. 5): a step at order k
        blends the last k accepted states (:func:`_bdf`).  The first step
        is backward Euler from the previous solution.  From the second on,
        the degree-k extrapolant through the last k + 1 accepted solutions
        predicts every unknown (node voltages, branch currents and states,
        clamped to [0, 1]); Newton starts there and may stop at its first
        iterate (:meth:`iterate`'s ``predicted``), and the
        predictor-corrector difference of the states times ``_MILNE[k]``
        estimates each state's local error: a step is accepted when no
        estimate exceeds ``SimOptions.reltol`` (or when it is at the
        floor), and the next step is the one the estimate predicts
        (:func:`_growth`).

        The order starts at 1 and, in DASSL's initial phase, rises by one
        after every predicted step whose estimate lets the next step grow by
        its order's whole ``_GROWTH_LIMIT``, up to ``_MAX_ORDER``; the first
        step the estimate limits, or rejects, ends the phase.  After it,
        once k + 1 steps have been accepted at order k, the next accepted
        step also estimates the errors of orders k - 1 and k + 1:
        ``_MILNE[q]`` times the distance of the accepted states from the
        degree-q extrapolant through the last q + 1 before them.  Of the
        three, the order whose estimate allows the largest next step is
        taken, and among those the order at the cap allows alike, the one
        with the smallest estimate (DASSL's rule; a step held at
        ``largest`` gains accuracy, not length, from its order); then k + 1
        more steps are taken before the next choice.  A step that leaves a
        state at 0 or 1, where the clamp breaks the smooth history the
        higher orders extrapolate, drops the order to 1 (Brenan, Campbell &
        Petzold 1989, ch. 5).

        The weights depend on the accepted times only through their offsets
        from the step's end, so a step of the order and sizes of the last
        reuses its weights: a step held at its cap computes them once per
        binade of ``t``, in which ``t + h - t`` rounds alike.
        """
        dim = self.topo.dim
        ts, xs, cs = [t], [x], [currents]
        ss = [x[dim:]]  # the accepted states
        largest = self.max_step if controlled else _MAX_STEP
        order, run = 1, 0  # the order, and the steps accepted since it was set
        rising = controlled  # DASSL's initial phase
        cached = (None,)  # the last (order, offsets), and their weights and _bdf
        while t < t_end:
            # the last step reaches t_end exactly, absorbing what a step
            # of size h would leave short of the floor; t_next - t may round
            # above the size asked for, so a step asked at the floor is
            # known as one by ``asked``
            asked = h
            t_next = t_end if t + h >= t_end - floor else t + h
            h = t_next - t
            # the extrapolants through the last 1 to order + 1 solutions, and
            # order + 2 when the order is chosen after this step: the
            # corrector's, the predictor and the neighbouring orders'
            check = controlled and run >= order
            back = min(order + 1 + check, _MAX_ORDER + 1) if controlled else 1
            offsets = tuple([m - t_next for m in ts[-back:]])
            if (order, offsets) != cached[0]:
                weights = _lagrange(offsets, 0.0)
                cached = ((order, offsets), weights,
                          _bdf(offsets[-order:], 0.0, weights[order - 1]))
            _, weights, (dt_eff, blend) = cached
            hist = _combine(blend, ss[-order:])
            if controlled and len(ts) > order:
                start = _combine(weights[order], xs[-order - 1:])
                pred = start[dim:]
                start[dim:] = [min(max(p, 0.0), 1.0) for p in pred]
            else:
                pred, start = None, x[:]
            values = [source_value(spec, t_next) for spec in self.specs]
            try:
                x_new, c_new, _, _ = self.iterate(start, values, dt_eff, hist, t_next,
                                                  pred is not None)
            except _IterationLimit as exc:
                if h / 2.0 < floor:
                    raise NonConvergenceError(
                        f"{exc}; step cut to {h:.3g} s", trace=exc.trace,
                        time=exc.time) from exc
                h /= 2.0
                continue
            states = x_new[dim:]
            err = 0.0 if pred is None else _error(order, states, pred)
            if err > SimOptions.reltol and h > floor and asked > floor:
                h = max(h * _growth(err, order), floor)
                rising = False
                continue
            self.orders[order] += 1
            run += 1
            growth = _growth(err, order)
            step = min(max(h * growth, floor), largest)
            if 0.0 in states or 1.0 in states:
                order, run, rising = 1, 0, False
            elif rising and pred is not None:
                rising = growth == _GROWTH_LIMIT[order] and order < _MAX_ORDER
                if rising:
                    order, run = order + 1, 0
            elif check and pred is not None:
                chosen = order
                for q in (order - 1, order + 1):
                    if 0 < q <= _MAX_ORDER and len(ts) > q:
                        err_q = _error(q, states, _combine(weights[q], ss[-q - 1:]))
                        step_q = min(max(h * _growth(err_q, q), floor), largest)
                        if (step_q, -err_q) > (step, -err):
                            step, err, chosen = step_q, err_q, q
                order, run = chosen, 0
            t, x, h = t_next, x_new, step
            ts.append(t)
            xs.append(x)
            ss.append(states)
            cs.append(c_new)
        return ts, xs, cs


def _combine(weights, rows) -> list:
    """``sum(weights[j] * rows[j])`` entry by entry, over lists of floats,
    each entry summed in row order."""
    return [sum(map(operator.mul, weights, column)) for column in zip(*rows)]


def _error(order, states, predicted) -> float:
    """The largest estimated local error of the ``states`` a BDF step of
    ``order`` accepted, from the ``predicted`` ones: Milne's device."""
    return _MILNE[order] * max(abs(s - p) for s, p in zip(states, predicted))


def _growth(err, order) -> float:
    """The factor on a step of ``order`` whose estimated local error is
    ``err`` that the next step takes: ``_SAFETY * (reltol / err) **
    (1 / (order + 1))``, within ``_SHRINK_LIMIT`` and
    ``_GROWTH_LIMIT[order]``."""
    if err == 0.0:
        return _GROWTH_LIMIT[order]
    return min(max(_SAFETY * (SimOptions.reltol / err) ** (1.0 / (order + 1)),
                   _SHRINK_LIMIT), _GROWTH_LIMIT[order])


def _compile(circuit: Circuit | _Topology, temps=(None,), *, records=None,
             states=None, source_time: float | None = None, values=None) -> _DcRows:
    """``circuit`` compiled as :class:`_DcRows`, one row at each of
    ``temps`` (None: the circuit's temperature; one that is not positive
    kelvin raises :class:`DeviceError`); the other arguments default to
    t = 0 sources and initial states.  ``records`` maps a position in
    ``circuit.devices`` to one record per row (see
    :func:`~mirrorsim.netlist.overrides`, whose errors a caller adds to the
    rows' ``errors``).  The sources' ``values`` (rows, sources), when not
    given, are evaluated at ``source_time`` (None meaning t = 0) for every
    row by :func:`_source_values`.  ``states`` are in metres by name, the
    name in any case, each memristor not named at its netlist state (a
    name no memristor has raises :class:`SimulationError`), or already
    normalized: one entry per memristor in topology order, each a number
    or an array of one value per row.  This is the one path from a
    circuit to compiled rows; given a built :class:`_Topology` in place of
    the circuit, it reuses that topology's stamps and cached flat indices.
    A circuit a nodal solve cannot take raises (in :class:`_Topology`); a
    row's own failure goes into ``errors``."""
    topo = circuit if isinstance(circuit, _Topology) else _Topology(circuit)
    circuit = topo.circuit
    if isinstance(states, dict):
        metres = {m.name: m.w0 for m in topo.memristors}
        for name, w in states.items():
            if name.upper() not in metres:
                raise SimulationError(f"no memristor named {name!r} to initialize")
            metres[name.upper()] = float(w)
        states = [memristor_state(metres[m.name], m.params) for m in topo.memristors]
    checked = {t: kelvin(circuit.temp if t is None else t)
               for t in dict.fromkeys(temps)}  # each distinct one once
    temps = [checked[t] for t in temps]
    records = records or {}
    if values is None:
        times = np.full(len(temps), 0.0 if source_time is None else source_time)
        values = _source_values(topo, records, times)
    return _DcRows(topo, temps, records, states, values)


def solve_dc(circuit: Circuit, *, states: dict[str, float] | None = None,
             source_time: float | None = None) -> OperatingPoint:
    """DC operating point with memristor states frozen: at their netlist
    values, or at the state (metres) that ``states`` gives a memristor by
    name, in any case, as ``run_transient``'s ``initial_states`` does.

    Sine sources contribute their t=0 value unless ``source_time`` picks
    another instant.  Raises :class:`NonConvergenceError` (after a source
    stepping retry), :class:`SingularMatrixError`, :class:`SimulationError`
    for a state name no memristor has, or :class:`DeviceError` for a state
    outside [0, L] or a ``circuit.temp`` that is not positive kelvin.  The
    circuit is compiled as one :class:`_DcRows` row, solved in place by
    the DC solve of the list-form row (:meth:`_Steps.solve`) and read
    back: the row a stack of rows would give it, to the bit.
    """
    rows = _compile(circuit, states=states, source_time=source_time).solve()
    if rows.errors:
        raise rows.errors[0]
    return rows.operating_point(0)


# --------------------------------------------------------------------------- #
# probes
# --------------------------------------------------------------------------- #

_PROBE_RE = re.compile(r"^([viwm])\((.+)\)$", re.IGNORECASE)


def _build_probe(topo: _Topology, spec: str):
    """Returns (canonical name, unit, read): ``read(x, currents)`` is the
    probe's column of a transient's samples, given their solutions in the
    layout of :class:`_Steps` (nodes, branches, then the normalized
    memristor states at ``x[:, dim:]``) and device currents (see
    OperatingPoint), as (samples, ...) arrays."""
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
        return f"v({name})", "V", lambda x, currents: x[:, idx]
    dev_name = target.upper()
    dev = next((d for d in circuit.devices if d.name == dev_name), None)
    if dev is None:
        raise UnknownProbeError(f"unknown device {target!r} in probe {spec!r}")
    if kind == "i":
        col = circuit.devices.index(dev)
        return f"i({dev_name})", "A", lambda x, currents: currents[:, col]
    if not isinstance(dev, BoundMemristor):
        raise UnknownProbeError(
            f"probe {spec!r} needs a memristor, {dev_name} is not one"
        )
    col = topo.dim + topo.memristors.index(dev)
    p = dev.params
    if kind == "w":
        return f"w({dev_name})", "m", lambda x, currents: x[:, col] * p.length
    return f"m({dev_name})", "ohm", lambda x, currents: memristance_at(x[:, col], p)


# --------------------------------------------------------------------------- #
# transient
# --------------------------------------------------------------------------- #

def _stack_rows(dim: int) -> int:
    """The distinct samples of ``dim`` unknowns that :func:`_dc_samples`
    compiles and solves as one stack: as many as ``_STACK_ENTRIES``
    matrix entries hold, at least one."""
    return max(1, _STACK_ENTRIES // dim ** 2)


def _dc_samples(topo: _Topology, times: np.ndarray, states: np.ndarray):
    """Solutions and device currents, as (samples, ...) arrays, of the
    circuit of ``topo`` at ``times``: sample k is the DC solution with the
    sources at ``times[k]`` and the memristances frozen at the normalized
    states ``states[k]`` (states has a column per memristor, none in a
    circuit without them; that circuit's sample k is ``solve_dc(circuit,
    source_time=times[k])`` to the bit), with those states appended, so
    that each solution is in the layout of a step (:class:`_Steps`).

    Each source's values are evaluated once for all samples, and a sample
    is keyed by the bits of its source values and states, read as int64
    columns and sorted once by a stable :func:`numpy.lexsort`, which puts
    each key's first sample first among its own: only the distinct keys
    are compiled on ``topo`` and solved, in the order of their first
    samples, ``_stack_rows(topo.dim)`` rows to a stack, and every sample
    reads its key's solution.  A row depends on its inputs alone, so this
    is each sample's own solve, to the bit.  The earliest failing sample,
    the first of the earliest failing key, raises its error; a
    :class:`SimulationError` is raised as the memristive steps raise
    theirs, with the same type and trace, naming the sample's time."""
    sources = len(topo.sources)
    table = np.concatenate([_source_values(topo, {}, times), states], axis=1)
    bits = table.view(np.int64)
    order = np.lexsort(bits.T)  # stable: each key's samples in sample order
    ordered = bits[order]
    starts = np.concatenate([[True], (ordered[1:] != ordered[:-1]).any(axis=1)])
    owner = np.empty_like(order)  # each sample's key's first sample
    owner[order] = order[starts][np.cumsum(starts) - 1]
    first = np.flatnonzero(owner == np.arange(len(owner)))
    inverse, distinct = np.searchsorted(first, owner), table[first]
    x = np.empty((len(distinct), topo.dim))
    currents = np.empty((len(distinct), len(topo.current_nodes)))
    size = _stack_rows(topo.dim)
    for start in range(0, len(distinct), size):
        block = distinct[start:start + size]
        rows = _compile(topo, [None] * len(block),
                        states=list(block[:, sources:].T),
                        values=block[:, :sources]).solve()
        if rows.errors:
            k = min(rows.errors)
            exc, t = rows.errors[k], float(times[first[start + k]])
            if isinstance(exc, NonConvergenceError):
                raise NonConvergenceError(f"{exc} at t={t:.9g} s", trace=exc.trace,
                                          time=t) from exc
            if isinstance(exc, SimulationError):
                raise SingularMatrixError(f"{exc} at t={t:.9g} s", time=t) from exc
            raise exc
        x[start:start + len(block)] = rows.x
        currents[start:start + len(block)] = rows.currents
    return np.concatenate([x[inverse], states], axis=1), currents[inverse]


def run_transient(circuit: Circuit, opts: SimOptions, probes: list[str], *,
                  initial_states: dict[str, float] | None = None) -> TransientResult:
    """Transient on a fixed backward-Euler grid, or with error-controlled
    steps when ``opts.adaptive`` is set and the circuit has memristors, at
    the circuit's temperature.

    On the fixed grid, sample k sits at t = k*dt, sources evaluated at the
    same instant; sample 0 is the DC solution with sources at t = 0.

    In a circuit with memristors, each step is one Newton solve of the node
    voltages, source currents and memristor states together: every state
    s = w/L obeys its implicit update ``s_next = s_prev + dt * dwdt(s_next,
    i_next) / L``, clamped to [0, 1], so the recorded voltages, currents and
    memristances belong to one solution.  The circuit is compiled once, as
    one :class:`_DcRows` row, and one :class:`_Steps` built on it, on
    Python lists copied from that row with its states as the last
    unknowns, solves t = 0 (its DC solve, :meth:`_Steps.solve`) and takes
    every step from there.  A step whose Newton
    runs out of iterations is cut: halved and retried, and grown back after
    each success, until it reaches its grid time, which alone is recorded.
    A step that still fails at ``dt / 2**_MAX_CUTS``, or whose Newton
    produces a non-finite iterate, raises :class:`NonConvergenceError`
    carrying its iteration trace and ``time``.

    With ``opts.adaptive``, a memristive transient takes error-controlled
    steps: the first is ``dt`` (``t_stop / 10000`` when unset) and backward
    Euler, later steps are variable-step BDF of orders 1 to ``_MAX_ORDER``
    whose size and order hold each state's estimated local error to
    ``SimOptions.reltol`` with the fewest steps (:meth:`_Steps.march`), and
    a sine source caps every step, the first included, at ``1 /
    _SINE_STEPS`` of the fastest one's period.  Failing steps are cut as on
    the fixed grid, down to the first step over ``2**_MAX_CUTS``.  A run
    that needs more than ``_MAX_CONTROLLED_STEPS`` steps at its largest
    step raises :class:`ValueError` before its first step, as
    :class:`SimOptions` refuses too fine a grid.  With ``opts.dt`` unset
    the run records the steps it accepts, so the waveforms' ``t`` is not
    uniform, and the last step ends at ``t_stop``.
    With ``opts.dt`` set the steps end at the grid's last time and the run
    records the fixed grid's samples: each sample's states are read from
    the quadratic through the accepted states around it
    (:func:`_quadratic_read`), clamped to [0, 1] as the steps clamp them,
    and the sample is the DC solution at its source time with the
    memristances frozen at those states, solved as in a memristor-free
    transient, those states appended to it.  The read stays quadratic
    whatever the steps' order: a drive's steps are at most 1/_SINE_STEPS
    of its period apart.  Each recorded voltage and current is then one exact
    solution, so a sample where the drive is 0 V carries 0 A.

    A circuit with no memristor keeps no state between steps, so sample k
    is ``solve_dc(circuit, source_time=k*dt)``, to the bit, with the
    DC solve's source-stepping retry.  The run's samples are solved
    together (:func:`_dc_samples`): each source is evaluated once at every
    sample time, the samples whose source values (and frozen states) agree
    bit for bit share one solve, and the distinct ones are compiled as the
    rows of batches on the run's one :class:`_Topology` and solved in
    place, each row started at its own source values.  The earliest sample
    that fails raises its :class:`NonConvergenceError` or
    :class:`SingularMatrixError`, with its trace and ``time``.  So every
    recorded sample is a DC row or a step, in the one layout of
    :class:`_Steps` (nodes, branches, states), whose device currents are
    those its Newton accepted, and every probe reads that layout.

    A sine source whose phase 2*pi*frequency*t overflows by ``t_stop``
    raises :class:`DeviceError`, naming it, before any solve.

    ``initial_states`` replaces the netlist's initial state (metres) of
    each memristor it names, in any case, letting one run continue where
    another settled; it is merged as ``solve_dc``'s ``states`` is
    (:func:`_compile`): an unknown name raises :class:`SimulationError`, a
    state outside [0, L] :class:`DeviceError`.  ``final_states`` reports
    the states in metres too.
    """
    if opts.t_stop is None:
        raise ValueError("run_transient needs opts.t_stop")
    dt = opts.dt if opts.dt is not None else opts.t_stop / _DEFAULT_STEPS
    n_steps = int(math.floor(opts.t_stop / dt + 1e-9))

    topo = _Topology(circuit)
    for source in topo.sources:  # a phase that overflows reads NaN
        spec = source.spec
        if (spec.kind == "sine"
                and math.isinf(2.0 * math.pi * spec.frequency * opts.t_stop + spec.phase)):
            raise DeviceError(f"source {source.name}: sine phase 2*pi*frequency*t "
                              f"overflows by t={opts.t_stop:.9g} s")
    probe_list = [_build_probe(topo, p) for p in probes]

    times = np.arange(n_steps + 1) * dt

    memristors, dim = topo.memristors, topo.dim
    x: list[float] = []  # the last solution, its states at x[dim:]
    # the recorded solutions and the steps' currents by kind when the steps
    # are recorded (None: sample k is a DC solve frozen at states[k])
    xs, states = None, np.empty((len(times), 0))
    if memristors:
        rows = _compile(topo, states=initial_states or {})
        if rows.errors:
            raise rows.errors[0]
        steps = _Steps(rows)
        x, c, _, _ = steps.solve(rows.start([0])[0].tolist(), rows.values[0].tolist())
        if opts.adaptive:
            # the first step is dt, or the step cap when that is smaller;
            # on a requested grid the steps end at its last sample
            h = min(dt, steps.max_step)
            t_end = opts.t_stop if opts.dt is None else float(times[-1])
            floor, count = h / 2 ** _MAX_CUTS, t_end / steps.max_step
            if count > _MAX_CONTROLLED_STEPS:
                raise ValueError(f"{t_end:.3g} s at most {steps.max_step:.3g} s a step "
                                 f"= {count:.3g} controlled steps; at most "
                                 f"{_MAX_CONTROLLED_STEPS:.0e} are taken")
            ts, accepted, cs = steps.march(x, c, 0.0, t_end, h, floor, True)
            x = accepted[-1]
            if opts.dt is None:
                times, dt = np.array(ts), h
                xs, cs = np.array(accepted), np.array(cs)
            else:
                states = np.clip(_quadratic_read(ts, np.array(accepted)[:, dim:], times),
                                 0.0, 1.0)
        else:
            floor = dt / 2 ** _MAX_CUTS
            xs, cs = (np.empty((len(times), len(v))) for v in (x, c))
            xs[0], cs[0] = x, c
            with np.errstate(all="ignore"):  # for the steps' kernel
                for k in range(1, n_steps + 1):
                    t = float(times[k])
                    values = [source_value(spec, t) for spec in steps.specs]
                    try:
                        x, c, _, _ = steps.iterate(x[:], values, dt, x[dim:], t)
                    except _IterationLimit:
                        _, cut_x, cut_c = steps.march(x, c, float(times[k - 1]), t,
                                                      dt / 2.0, floor, False)
                        x, c = cut_x[-1], cut_c[-1]
                    xs[k], cs[k] = x, c
    elif initial_states:  # without memristors every name is unknown
        _compile(topo, states=initial_states)

    if xs is None:
        xs, currents = _dc_samples(topo, times, states)
    else:  # the steps' own device currents, into circuit order
        currents = np.empty_like(cs)
        currents[:, topo.kind_order] = cs

    waveforms = [
        Waveform(name=name, unit=unit, t=times.copy(),
                 values=np.array(read(xs, currents), dtype=float))
        for name, unit, read in probe_list
    ]
    final_states = {m.name: sk * m.params.length
                    for m, sk in zip(memristors, x[dim:])}
    return TransientResult(waveforms=waveforms, final_states=final_states, dt=dt)
