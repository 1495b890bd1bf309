"""Command-line front-end: run netlists, generate built-in mirrors, execute
sweeps and reports, emit CSV.

Exit codes are part of the interface and stable:

* 0 — success
* 1 — parse, usage, or input-validation error (bad netlist, unknown flag,
  unknown ``--set`` key or one the command does not read, malformed value)
* 2 — simulation failure (Newton non-convergence, singular matrix, a
  waveform that never settles, an unreachable calibration target)
* 3 — I/O error (unreadable input, missing output directory)

Every value printed to stdout or an output file is a pure function of the
invocation, so identical invocations produce byte-identical output.  A
harmonic amplitude and a loop area print only the digits at or above
``_RESOLUTION`` times their scale (the fundamental, or the loop's peak
voltage times its peak current), so two solves that agree to the solver's
precision print the same table.
Diagnostics go to stderr; set ``MIRRORSIM_NO_COLOR`` to strip the ANSI
coloring they carry on terminals.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .analysis import (
    AnalysisError,
    NotSettledError,
    REPORT_NOTES,
    calibrate_mobility,
    config_report,
    distortion_trace,
    hysteresis_trace,
    mismatch_sweep,
    parameter_sweep,
    temperature_sweep,
)
from .constants import ZERO_CELSIUS
from .csvio import check_output, format_number, format_resolved, open_output, write_csv
from .devices import (
    DeviceError,
    ResistorParams,
    SourceSpec,
)
from .engine import (
    NonConvergenceError,
    SimOptions,
    SimulationError,
    run_transient,
    solve_dc,
)
from .netlist import (
    BoundMemristor,
    Circuit,
    MIRROR_MEMRISTOR,
    MirrorConfig,
    MirrorKind,
    NetlistError,
    ParseError,
    apply_override,
    builtin_mirror,
    elaborate,
    format_value,
    mirror_circuit,
    model_card,
    parse,
    parse_value,
    print_netlist,
    resolve_param_path,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SIMULATION = 2
EXIT_IO = 3

_DEFAULT_TRAN_STOP = 3.0
_MISMATCH_DELTAS = tuple(round(-0.20 + 0.05 * k, 2) for k in range(9))
_TEMP_SWEEP_CELSIUS = tuple(range(0, 101, 10))
_HYSTERESIS_DRIVE = SourceSpec(kind="sine", dc_value=0.0, amplitude=2.5,
                               frequency=5.0)

# the resolution of a printed harmonic amplitude or loop area, relative to
# its scale: above the solver's noise (harmonics 18-49 of `thd_2m` reach
# 6.0e-12 of the fundamental, those of `thd_2r` 6.9e-13; the lone
# resistor's loop, 0 in exact arithmetic, reads 1.4e-20 A*V against a scale
# of 1.6e-4) and far above what periods solved apart rather than tiled move
# (7.3e-16 of the fundamental)
_RESOLUTION = 1e-11

# device paths `--analysis thd` refuses: its standard sine drive replaces
# these fields of the supply V1 (it reads only V1's DC value)
_THD_DRIVE_PATHS = ("v1.amplitude", "v1.frequency", "v1.phase")


def _color_enabled() -> bool:
    if os.environ.get("MIRRORSIM_NO_COLOR"):
        return False
    return hasattr(sys.stderr, "isatty") and sys.stderr.isatty()


def _diag(message: str) -> None:
    if _color_enabled():
        message = f"\x1b[31m{message}\x1b[0m"
    print(message, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the documented code."""

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        _diag(f"error: {message}")
        raise SystemExit(EXIT_PARSE)


class _UsageError(Exception):
    """Invalid flag/value combination detected after argparse."""


_CONFIG_KEYS = ("vdd", "vbias", "r_load", "m0")
_SIM_KEYS = ("temp", "dt", "t_stop")
_PATHS = "device paths"  # any dotted ELEMENT.field key

# where each key applies, named in the error that refuses it elsewhere
_KEY_SCOPE = {
    "vdd": "mirror circuits and netlist decks (source V1)",
    "vbias": "pmos-* mirrors and netlist decks (source VB)",
    "r_load": "`mirror` configurations with a resistor load",
    "m0": "`mirror` configurations with memristive loads",
    "temp": "simulations at one temperature",
    "dt": "transient analyses", "t_stop": "transient analyses",
    _PATHS: "--analysis dc, tran and thd and `run`",
}


def _value(flag: str, raw: str) -> float:
    """``raw`` in the netlist grammar; a bad one is a usage error naming ``flag``."""
    try:
        return parse_value(raw)
    except ParseError as exc:
        raise _UsageError(f"{flag}: {str(exc).removeprefix(f'line {exc.line}: ')}")


def _read_sets(pairs: list[str], reads, where: str, dt: float | None = None,
               t_stop: float | None = None):
    """(configuration keys, circuit keys, SimOptions) from ``--set
    key=value`` pairs, each checked against the keys that ``where`` reads.
    Values use the netlist grammar (SI suffixes included); the circuit keys
    are device paths and ``temp``, given in celsius and returned in kelvin;
    ``dt``/``t_stop`` default to the deck's ``.tran``."""
    config: dict[str, float] = {}
    paths: dict[str, float] = {}
    sim: dict[str, float] = {}
    for pair in pairs:
        key, sep, raw = (part.strip() for part in pair.partition("="))
        if not sep or not key or not raw:
            raise _UsageError(f"--set expects key=value, got {pair!r}")
        value = _value(f"--set {key}", raw)
        name = key.lower()
        if name not in _CONFIG_KEYS + _SIM_KEYS:
            if "." not in key:
                raise _UsageError(f"unknown --set key {key!r}; expected one of "
                                  f"{', '.join(_CONFIG_KEYS + _SIM_KEYS)} or "
                                  f"a dotted ELEMENT.field path")
            name = _PATHS
        if name not in reads:
            raise _UsageError(f"{where} does not read --set {name}; it "
                              f"applies to {_KEY_SCOPE[name]}")
        if name == _PATHS:
            paths[key] = value
        else:
            (config if name in _CONFIG_KEYS else sim)[name] = value
    temp = sim.pop("temp", None)
    if temp is not None:
        if temp + ZERO_CELSIUS <= 0.0:
            raise _UsageError(f"--set temp={temp} is below absolute zero")
        paths["temp"] = temp + ZERO_CELSIUS
    try:
        opts = SimOptions(dt=sim.get("dt", dt), t_stop=sim.get("t_stop", t_stop))
    except ValueError as exc:
        raise _UsageError(str(exc))
    return config, paths, opts


def _write(output: str, table) -> int:
    """Write text, or a ``(columns, rows, footers)`` table as CSV, to
    ``output``; the whole text is built before the output is opened, so a
    failed run leaves an existing file alone."""
    if not isinstance(table, str):
        buffer = io.StringIO()
        write_csv(buffer, *table)
        table = buffer.getvalue()
    with open_output(output) as stream:
        stream.write(table)
    return EXIT_OK


# --------------------------------------------------------------------------- #
# Analyses: each maps (circuit, config, options, args) to a CSV table
# --------------------------------------------------------------------------- #

def _dc(circuit: Circuit, config, opts: SimOptions, args):
    op = solve_dc(circuit)
    columns = [f"v({name}) (V)" for name in circuit.node_names[1:]]
    columns += [f"i({dev.name}) (A)" for dev in circuit.devices]
    row = [float(op.node_voltages[k]) for k in range(1, len(circuit.node_names))]
    row += [op.device_currents[dev.name] for dev in circuit.devices]
    return columns, [row], ()


def _tran(circuit: Circuit, config, opts: SimOptions, args):
    probes = [f"v({name})" for name in circuit.node_names[1:]]
    probes += [f"i({dev.name})" for dev in circuit.devices]
    probes += [f"m({dev.name})" for dev in circuit.devices
               if isinstance(dev, BoundMemristor)]
    result = run_transient(circuit, opts, probes)
    columns = ["t (s)"] + [f"{w.name} ({w.unit})" for w in result.waveforms]
    rows = zip(result.waveforms[0].t, *(w.values for w in result.waveforms))
    return columns, rows, ()


def _thd(circuit: Circuit, config: MirrorConfig, opts: SimOptions, args):
    result = distortion_trace(config, circuit=circuit)
    footers = [f"f0 (Hz) = {format_number(result.f0)}",
               f"thd (fraction) = {format_number(result.thd)}",
               f"thd (percent) = {format_number(result.thd_percent)}"]
    resolution = _RESOLUTION * result.fundamental
    amplitudes = [format_resolved(a, resolution)
                  for a in [result.fundamental, *result.harmonics]]
    return ["harmonic (n)", "amplitude (A)"], enumerate(amplitudes, 1), footers


def _temp_sweep(circuit, config: MirrorConfig, opts, args):
    rows = temperature_sweep(config, [ZERO_CELSIUS + c for c in _TEMP_SWEEP_CELSIUS])
    return (["temperature (K)", "temperature (C)", "i_in (A)", "i_out (A)"],
            ([r.temp, r.temp - ZERO_CELSIUS, r.i_in, r.i_out] for r in rows), ())


def _mismatch(circuit, config: MirrorConfig, opts: SimOptions, args):
    base = config.m0 if config.kind.has_memristors else config.r_load
    table = mismatch_sweep(config, [base * (1.0 + d) for d in _MISMATCH_DELTAS],
                           temp=circuit.temp)
    columns = ["load2 (ohm)", "delta_r (fraction)",
               "simulated_delta_i (fraction)", "predicted_delta_i (fraction)",
               "predicted_ro_delta_i (fraction)", "error (text)"]
    rows = ([r.load2, r.rel_delta_r, r.simulated, r.predicted, r.predicted_ro,
             r.error or ""] for r in table.rows)
    footers = [f"k_factor = {format_number(table.k_factor)}",
               f"k_factor_ro = {format_number(table.k_factor_ro)}",
               f"baseline_current (A) = {format_number(table.baseline_current)}"]
    return columns, rows, footers


def _param_sweep(circuit, config: MirrorConfig, opts: SimOptions, args):
    if not (args.param and args.values):
        raise _UsageError("--analysis param-sweep requires --param and --values")
    values = [_value("--values", tok.strip()) for tok in args.values.split(",")
              if tok.strip()]
    if not values:
        raise _UsageError("--values must list at least one number")
    rows = parameter_sweep(config, args.param, values, temp=circuit.temp)
    return (["value (SI)", "i_out (A)", "v_out (V)"],
            ([r.value, r.i_out, r.v_out] for r in rows), ())


def _hysteresis(circuit, config: MirrorConfig, opts: SimOptions, args):
    if config.kind.has_memristors:
        params = MIRROR_MEMRISTOR
    else:
        params = ResistorParams(r_nominal=config.r_load)
    trace = hysteresis_trace(params, _HYSTERESIS_DRIVE, temp=circuit.temp)
    scale = np.abs(trace.voltage).max() * np.abs(trace.current).max()
    footers = [f"loop_area (A*V) = {format_resolved(trace.area, _RESOLUTION * scale)}",
               f"cycle_start_index = {trace.cycle_start}"]
    return (["t (s)", "v (V)", "i (A)"],
            zip(trace.t, trace.voltage, trace.current), footers)


def _table1(circuit, config: MirrorConfig, opts: SimOptions, args):
    row = config_report(config, temp=circuit.temp)
    columns = ["config (name)", "thd (percent)", "power (mW)", "area (um^2)",
               "subthreshold (W)", "gate_leakage (W)", "i_in (A)", "i_out (A)",
               "error (text)"]
    return columns, [[row.kind, row.thd_percent, row.power_mw, row.area_um2,
                      row.subthreshold_w, row.gate_w, row.i_in, row.i_out,
                      row.error or ""]], REPORT_NOTES


_CIRCUIT_KEYS = frozenset(_CONFIG_KEYS + ("temp",))

# each analysis and the --set keys it reads on a mirror whose kind has them
_ANALYSIS_TABLE = {
    "dc": (_dc, _CIRCUIT_KEYS | {_PATHS}),
    "tran": (_tran, _CIRCUIT_KEYS | {_PATHS, "dt", "t_stop"}),
    "thd": (_thd, _CIRCUIT_KEYS | {_PATHS}),
    "temp-sweep": (_temp_sweep, frozenset(_CONFIG_KEYS)),
    "mismatch": (_mismatch, _CIRCUIT_KEYS),
    "param-sweep": (_param_sweep, _CIRCUIT_KEYS),
    "hysteresis": (_hysteresis, frozenset({"temp", "r_load"})),
    "table1": (_table1, _CIRCUIT_KEYS),
}
ANALYSES = tuple(_ANALYSIS_TABLE)


def _reads(analysis: str | None, kind: MirrorKind | None) -> frozenset:
    """The --set keys ``analysis`` (None: ``--emit-netlist``) reads on a
    ``kind`` mirror (None: a netlist deck, where vdd/vbias alias V1/VB)."""
    keys = frozenset(_CONFIG_KEYS) if analysis is None else _ANALYSIS_TABLE[analysis][1]
    if kind is None:
        return keys - {"r_load", "m0"}
    absent = {"r_load" if kind.has_memristors else "m0"}
    if not kind.has_pmos:
        absent.add("vbias")
    return keys - absent


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #

def cmd_run(args) -> int:
    with open(args.netlist, "r", encoding="utf-8") as handle:
        circuit = elaborate(parse(handle.read()))
    analysis, *tran = circuit.analysis or ("dc",)  # .tran's step and stop
    config, paths, opts = _read_sets(args.set, _reads(analysis, None),
                                     f"`run` of a {'.tran' if tran else 'DC'} deck", *tran)
    circuit.temp = paths.pop("temp", circuit.temp)
    for path, value in {**config, **paths}.items():
        apply_override(circuit, path, value)
    return _write(args.output, _ANALYSIS_TABLE[analysis][0](circuit, None, opts, args))


def cmd_mirror(args) -> int:
    kind = MirrorKind(args.config)
    if args.emit_netlist and args.analysis:
        raise _UsageError("--emit-netlist prints the netlist and runs no --analysis")
    analysis = None if args.emit_netlist else args.analysis or "dc"
    flag = "--emit-netlist" if analysis is None else f"--analysis {analysis}"
    where = f"`mirror {args.config} {flag}`"
    sets, paths, opts = _read_sets(
        args.set, _reads(analysis, kind), where,
        t_stop=_DEFAULT_TRAN_STOP if analysis == "tran" else None)
    for path in paths:
        if analysis == "thd" and resolve_param_path(path).lower() in _THD_DRIVE_PATHS:
            raise _UsageError(f"{where} does not read --set {path}; its standard "
                              f"sine drive replaces V1's amplitude, frequency and phase")
    config = MirrorConfig(kind, **sets)
    if analysis != "param-sweep" and (args.param or args.values):
        raise _UsageError("--param/--values only apply to --analysis param-sweep")
    if analysis is None:
        return _write(args.output, print_netlist(builtin_mirror(config)))
    circuit = mirror_circuit(config)
    circuit.temp = paths.pop("temp", circuit.temp)
    for path, value in paths.items():
        apply_override(circuit, path, value)
    return _write(args.output, _ANALYSIS_TABLE[analysis][0](circuit, config, opts, args))


def cmd_calibrate(args) -> int:
    if not (math.isfinite(args.target) and args.target > 0.0):
        raise _UsageError(f"--target must be positive and finite, got {args.target}")
    if not (math.isfinite(args.vdd) and args.vdd > 0.0):
        raise _UsageError(f"--vdd must be positive and finite, got {args.vdd}")
    try:
        mobility = calibrate_mobility(target=args.target, vdd=args.vdd)
    except AnalysisError as exc:
        _diag(f"error: {exc}")
        return EXIT_SIMULATION
    card = model_card("MEM", "memristor", replace(MIRROR_MEMRISTOR, mobility=mobility))
    keys = " ".join(f"{k}={v if isinstance(v, int) else format_value(v)}"
                    for k, v in card.params.items())
    return _write(args.output, f".model MEM memristor ({keys})\n")


# --------------------------------------------------------------------------- #
# Parser and entry point
# --------------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    io_flags = _Parser(add_help=False)
    io_flags.add_argument("-o", "--output", default="-", metavar="PATH",
                          help="output file (default: stdout; '-' for stdout)")
    io_flags.add_argument("-v", "--verbose", action="count", default=0,
                          help="progress notes on stderr")
    set_flags = _Parser(add_help=False)
    set_flags.add_argument("--set", action="append", default=[],
                           metavar="KEY=VALUE",
                           help="override a value before simulating: vdd, "
                                "vbias, r_load, m0, temp (celsius), dt, "
                                "t_stop, or a dotted device path like "
                                "T2.width (netlist SI suffixes allowed)")

    parser = _Parser(prog="mirrorsim",
                     description="Current-mirror simulation toolkit: run "
                                 "netlists, generate built-in mirror "
                                 "configurations, sweep and report.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[io_flags, set_flags],
                           help="simulate a netlist file",
                           description="Parse and simulate a netlist: a .tran "
                                       "directive produces a waveform CSV, "
                                       "otherwise a DC operating-point table.")
    p_run.add_argument("netlist", help="netlist file (.cir)")
    p_run.set_defaults(func=cmd_run)

    p_mirror = sub.add_parser("mirror", parents=[io_flags, set_flags],
                              help="simulate a built-in mirror configuration",
                              description="Generate one of the built-in "
                                          "current-mirror configurations and "
                                          "run an analysis against it.")
    p_mirror.add_argument("config", choices=[k.value for k in MirrorKind],
                          help="mirror configuration")
    p_mirror.add_argument("--analysis", choices=ANALYSES,
                          help="analysis to run (default: dc)")
    p_mirror.add_argument("--emit-netlist", action="store_true",
                          help="print the generated netlist instead of "
                               "simulating")
    p_mirror.add_argument("--param", metavar="PATH",
                          help="parameter path for --analysis param-sweep")
    p_mirror.add_argument("--values", metavar="V1,V2,...",
                          help="comma-separated values for param-sweep")
    p_mirror.set_defaults(func=cmd_mirror)

    p_cal = sub.add_parser("calibrate", parents=[io_flags],
                           help="calibrate memristor mobility to a switching "
                                "time",
                           description="Bisect the dopant mobility until the "
                                       "memristive mirror's switching time "
                                       "matches the target, then print the "
                                       "calibrated .model block.")
    p_cal.add_argument("--target", type=float, default=1.4, metavar="SECONDS",
                       help="switching-time target (default 1.4)")
    p_cal.add_argument("--vdd", type=float, default=2.5, metavar="VOLTS",
                       help="supply voltage during calibration (default 2.5)")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


# error type -> exit code, first match wins (a NotSettledError is an
# AnalysisError, a NonConvergenceError a SimulationError)
_EXIT_CODES = (
    ((_UsageError, NetlistError, DeviceError), EXIT_PARSE),
    ((NotSettledError,), EXIT_SIMULATION),
    ((AnalysisError,), EXIT_PARSE),
    ((SimulationError,), EXIT_SIMULATION),
    ((OSError,), EXIT_IO),
)
_REPORTED = sum((types for types, _ in _EXIT_CODES), ())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        check_output(args.output)
        code = args.func(args)
    except _REPORTED as exc:
        code = next(code for types, code in _EXIT_CODES if isinstance(exc, types))
        _diag(f"error: {exc}")
        if isinstance(exc, NonConvergenceError):
            for iteration, dv, residual in exc.trace or []:
                _diag(f"  iter {iteration}: max|dV|={dv:.3e} residual={residual:.3e}")
        return code
    if args.verbose:
        elapsed = time.monotonic() - started
        print(f"[mirrorsim] {args.command} finished in {elapsed:.2f} s",
              file=sys.stderr)
    return code
