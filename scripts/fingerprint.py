#!/usr/bin/env python3
"""Print a bit-level fingerprint of mirrorsim's outputs, one line per run.

    python scripts/fingerprint.py > after.txt
    python scripts/fingerprint.py --root ../parent > before.txt
    diff before.txt after.txt

Each line names a run and lists every leaf of its result: the SHA-256 of
every array (with its dtype and shape) and the repr of every scalar, so a
change that moves any output bit shows up as a differing line.  The runs
are every task of one cycle of the ``settle``, ``sweep`` and ``drive``
benchmark workloads for each seed (``perfbench/workloads.py``);
``run_transient`` on the fixed grid, with error-controlled steps, and with
those steps read on the fixed grid, on all four built-in mirrors and on a
lone window-2 memristor whose state reaches its bound (its fixed steps are
cut there); ``solve_dc`` on all four mirrors; ``run_transient`` on the
fixed grid of ``pmos-r`` with its supply and gate bias sines of different
frequencies; and ``solve_dc`` and fixed and error-controlled
``run_transient`` on ``2r`` and ``2m`` with ``circuit.temp`` set to 0 C and
100 C; one stack of ``2r`` DC rows over four ``R2`` loads, solved with
6 Newton iterations and 3 source steps, whose rows converge cold, converge
by source stepping and stall while stepping (its line ends with
``newton=`` the list-Newton iterations its rows solved alone ran, counted
by wrapping ``_Steps.iterate``, a Newton that raises by its trace);
``2m`` DC rows with ``Y2.m0``
records, one solved alone and three as one stack; and ``run_transient`` on
the fixed grid of a sine-driven resistive ladder, whose stacked DC rows
each converge in Newton's second iteration; and ``run_transient`` on the
fixed grid of a lone resistor under a slow sine, whose distinct samples
fill more than one stack of DC rows.  ``--root`` picks the checkout
whose ``src`` and ``perfbench`` are imported (default: the one holding this
script).  A run that raises prints its error in place of its result.

A run that takes error-controlled memristive steps (every ``settle`` task,
the memristor ``hysteresis_trace`` and the memristive ``adaptive`` and
``adaptive-grid`` runs) ends its line with ``steps=`` its accepted steps,
``newton=`` the list-Newton iterations those steps ran, rejected and cut
ones included, and, where ``_Steps`` counts its accepted steps per order
(``_Steps.orders``), ``orders=`` those counts from order 1 up, joined by
``/``; the script counts them by wrapping ``_Steps.march`` and
``_Steps.iterate``, so a diff against ``--root`` shows where a change in
work comes from.  No other line carries counts but the stepped stack's
``newton=``.
"""

import argparse
import dataclasses
import enum
import hashlib
import sys
from pathlib import Path

import numpy as np

SEEDS = (1, 7)
WORKLOADS = ("settle", "sweep", "drive")
MIRRORS = ("2m", "pmos-m", "2r", "pmos-r")
T_STOP = 3.0
# mirrors run at temperatures (K) other than their default, set on the circuit
HOT_MIRRORS = ("2r", "2m")
TEMPS = (273.15, 373.15)

# a sine-driven lone memristor that reaches s = 1, where 10 ms steps are cut
BOUND_DECK = """V1 in 0 SIN(0 2.5 5)
R1 in mid 1k
Y1 mid 0 MEM m0=5k
.model MEM MEMRISTOR (ron=100 roff=38k l=10n uv=2e-14 p=2 pol=1)
"""

# a MOSFET-free ladder whose inner nodes start at 0 V, so each of its 56
# distinct DC rows takes a second Newton iteration
LADDER_DECK = """V1 in 0 SIN(1 0.5 50)
R1 in a 200
R2 a b 300
R3 b 0 500
"""

# a lone resistor under a slow sine: each of its 6,001 samples is a distinct
# 3-unknown DC row, more than one stack of them holds, so they are solved
# as more than one stack
LOOP_DECK = """V1 in 0 SIN(0 2 3)
R1 in 0 10k
"""

# R2 loads (ohm) of a 2r stack at these Newton and source-stepping limits:
# 20k and 38k converge cold, 60k by source stepping, 100k stalls stepping
STEPPED_LOADS = (20e3, 38e3, 60e3, 100e3)
STEPPED_LIMITS = (6, 3)

# initial memristances (ohm) of 2m's Y2 as Y2.m0 records: the first solved
# alone, and all three as one stack
RECORD_M0 = (10e3, 20e3, 30e3)


def leaves(obj, path: str = ""):
    """(path, text) of every array and scalar inside ``obj``."""
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
        yield path, f"{obj.dtype.str}{list(obj.shape)}:{digest}"
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from leaves(getattr(obj, field.name), f"{path}.{field.name}")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, f"{path}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for k, value in enumerate(obj):
            yield from leaves(value, f"{path}[{k}]")
    elif isinstance(obj, enum.Enum):
        yield path, repr(obj.value)
    else:
        yield path, repr(obj)


def count_controlled_steps(engine) -> list:
    """Wrap ``engine._Steps.march`` and ``engine._Steps.iterate`` so that
    the returned list [accepted steps, list-Newton iterations, accepted
    steps per order] sums every controlled ``march`` until the caller
    clears it.  A Newton that raises counts the iterations of its trace.
    Only ``march``'s last argument (``controlled``), ``iterate``'s last
    result (its iterations) and ``_Steps.orders``, where it exists (None
    otherwise), are read, so the counts hold across changes to the other
    arguments."""
    counts = [0, 0, None]
    march, iterate = engine._Steps.march, engine._Steps.iterate
    marching = [False]  # inside a controlled march

    def counted_march(self, *args):
        controlled = marching[0] = args[-1]
        before = list(getattr(self, "orders", ()))
        try:
            result = march(self, *args)
        finally:
            marching[0] = False
        if controlled:
            counts[0] += len(result[0]) - 1
            if before:
                taken = [n - b for n, b in zip(self.orders, before)]
                counts[2] = [a + b for a, b in zip(counts[2] or [0] * len(taken), taken)]
        return result

    def counted_iterate(self, *args):
        if not marching[0]:
            return iterate(self, *args)
        try:
            result = iterate(self, *args)
        except engine.NonConvergenceError as exc:
            counts[1] += len(exc.trace)
            raise
        counts[1] += result[-1]
        return result

    engine._Steps.march, engine._Steps.iterate = counted_march, counted_iterate
    return counts


def line(label: str, run, counts: list) -> str:
    counts[:] = [0, 0, None]
    try:
        result = run()
    except Exception as exc:  # a failing run is part of the fingerprint
        return f"{label} raised {type(exc).__name__}: {exc}"
    fields = [f"{path or '.'}={text}" for path, text in leaves(result)]
    if counts[0]:
        fields.append(f"steps={counts[0]}")
    if counts[1]:
        fields.append(f"newton={counts[1]}")
    if counts[2]:
        fields.append("orders=" + "/".join(map(str, counts[2][1:])))
    return " ".join([label] + fields)


def probes_of(circuit) -> list[str]:
    """Every node voltage, device current, and memristor state and
    memristance of ``circuit``."""
    from mirrorsim.netlist import BoundMemristor

    return ([f"v({node})" for node in circuit.node_names[1:]]
            + [f"i({d.name})" for d in circuit.devices]
            + [f"{p}({d.name})" for d in circuit.devices
               if isinstance(d, BoundMemristor) for p in "wm"])


def stepped_stack(counts: list):
    """The ``STEPPED_LOADS`` stack solved at ``STEPPED_LIMITS``: its
    arrays, and each row's operating point, or its error and trace; adds
    the list-Newton iterations its rows ran alone to ``counts[1]``."""
    import mirrorsim as ms
    from mirrorsim import engine
    from mirrorsim.netlist import overrides

    def counted(self, *args):
        try:
            result = iterate(self, *args)
        except engine.NonConvergenceError as exc:
            counts[1] += len(exc.trace)
            raise
        counts[1] += result[-1]
        return result

    base = ms.mirror_circuit(ms.MirrorConfig(kind=ms.MirrorKind("2r")))
    position, records, _ = overrides(base, "R2.r_nominal", list(STEPPED_LOADS))
    limits = engine._MAX_NEWTON_ITERS, engine._SOURCE_STEPS
    iterate = engine._Steps.iterate
    engine._MAX_NEWTON_ITERS, engine._SOURCE_STEPS = STEPPED_LIMITS
    engine._Steps.iterate = counted
    try:
        rows = engine._compile(base, [None] * len(STEPPED_LOADS),
                               records={position: records}).solve()
    finally:
        engine._MAX_NEWTON_ITERS, engine._SOURCE_STEPS = limits
        engine._Steps.iterate = iterate
    outcomes = [(f"{type(rows.errors[k]).__name__}: {rows.errors[k]}",
                 rows.errors[k].trace) if k in rows.errors else rows.operating_point(k)
                for k in range(len(STEPPED_LOADS))]
    return [rows.x, rows.iterations, rows.currents, rows.residual, outcomes]


def record_rows():
    """``2m`` with ``Y2.m0`` records at ``RECORD_M0``: the operating point
    of the first solved as a batch of one, then each row's of the three
    solved as one stack."""
    import mirrorsim as ms
    from mirrorsim import engine
    from mirrorsim.netlist import overrides

    base = ms.mirror_circuit(ms.MirrorConfig(kind=ms.MirrorKind("2m")))
    position, records, _ = overrides(base, "Y2.m0", list(RECORD_M0))
    lone = engine._compile(base, [None], records={position: records[:1]}).solve()
    stack = engine._compile(base, [None] * len(records), records={position: records}).solve()
    return [lone.operating_point(0)] + [stack.operating_point(k) for k in range(len(records))]


def runs(counts: list):
    """(label, zero-argument call) of every fingerprinted run; the stepped
    stack adds its counts to ``counts``."""
    import mirrorsim as ms
    import workloads

    for workload in WORKLOADS:
        for seed in SEEDS:
            for k, task in enumerate(workloads.build_tasks(workload, seed)):
                yield (f"{workload}:{seed}:{k} {task['call']}",
                       lambda task=task: workloads.run_task(task))
    circuits = {kind: ms.mirror_circuit(ms.MirrorConfig(kind=ms.MirrorKind(kind)))
                for kind in MIRRORS}
    circuits["bound"] = ms.elaborate(ms.parse(BOUND_DECK))
    for kind, circuit in circuits.items():
        step = 0.01 if kind == "bound" else None
        probes = probes_of(circuit)
        for mode, opts in (
            ("fixed", ms.SimOptions(dt=step, t_stop=T_STOP)),
            ("adaptive", ms.SimOptions(t_stop=T_STOP, adaptive=True)),
            ("adaptive-grid", ms.SimOptions(dt=1e-3, t_stop=T_STOP, adaptive=True)),
        ):
            yield (f"run_transient {kind} {mode}",
                   lambda c=circuit, o=opts, p=probes: ms.run_transient(c, o, p))
        if kind in MIRRORS:
            yield f"solve_dc {kind}", lambda c=circuit: ms.solve_dc(c)
    # pmos-r with its supply and gate bias sines of different frequencies,
    # so its samples differ in more than one source value
    two_sines = ms.mirror_circuit(ms.MirrorConfig(kind=ms.MirrorKind("pmos-r")))
    two_sines.device("V1").spec = ms.SourceSpec(kind="sine", dc_value=2.4,
                                                amplitude=0.3, frequency=50.0)
    two_sines.device("VB").spec = ms.SourceSpec(kind="sine", dc_value=0.7,
                                                amplitude=0.1, frequency=30.0,
                                                phase=0.5)
    yield ("run_transient pmos-r two-sines fixed",
           lambda: ms.run_transient(two_sines, ms.SimOptions(dt=1e-4, t_stop=0.2),
                                    probes_of(two_sines)))
    for kind in HOT_MIRRORS:
        for temp in TEMPS:
            circuit = ms.mirror_circuit(ms.MirrorConfig(kind=ms.MirrorKind(kind)))
            circuit.temp = temp
            yield f"solve_dc {kind} {temp} K", lambda c=circuit: ms.solve_dc(c)
            for mode, opts in (
                ("fixed", ms.SimOptions(t_stop=T_STOP)),
                ("adaptive", ms.SimOptions(t_stop=T_STOP, adaptive=True)),
            ):
                yield (f"run_transient {kind} {mode} {temp} K",
                       lambda c=circuit, o=opts: ms.run_transient(c, o, probes_of(c)))
    yield "solve 2r stack stepped", lambda: stepped_stack(counts)
    yield "solve 2m Y2.m0 records alone and stacked", record_rows
    ladder = ms.elaborate(ms.parse(LADDER_DECK))
    yield ("run_transient ladder fixed",
           lambda: ms.run_transient(ladder, ms.SimOptions(dt=5e-4, t_stop=0.04),
                                    probes_of(ladder)))
    loop = ms.elaborate(ms.parse(LOOP_DECK))
    yield ("run_transient loop fixed",
           lambda: ms.run_transient(loop, ms.SimOptions(dt=1e-5, t_stop=0.06),
                                    probes_of(loop)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout to fingerprint (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from mirrorsim import engine

    counts = count_controlled_steps(engine)
    for label, run in runs(counts):
        print(line(label, run, counts), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
