"""Command-line front-end: run netlists, generate built-in mirrors, execute
sweeps and reports, emit CSV.

Exit codes are part of the interface and stable:

* 0 — success
* 1 — parse, usage, or input-validation error (bad netlist, unknown flag,
  unknown ``--set`` key, malformed value)
* 2 — simulation failure (Newton non-convergence, singular matrix, a
  waveform that never settles, an unreachable calibration target)
* 3 — I/O error (unreadable input, missing output directory)

Every value printed to stdout or an output file is a pure function of the
invocation, so identical invocations produce byte-identical output.
Diagnostics go to stderr; set ``MIRRORSIM_NO_COLOR`` to strip the ANSI
coloring they carry on terminals.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

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
from .constants import T_REF, ZERO_CELSIUS
from .csvio import format_number, open_output, write_csv
from .devices import (
    DeviceError,
    MEMRISTOR_DEFAULTS,
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
    ElaborationError,
    MirrorConfig,
    MirrorKind,
    ParseError,
    apply_override,
    builtin_mirror,
    elaborate,
    format_value,
    mirror_circuit,
    parse,
    parse_value,
    print_netlist,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SIMULATION = 2
EXIT_IO = 3

ANALYSES = ("dc", "tran", "thd", "temp-sweep", "mismatch", "param-sweep",
            "hysteresis", "table1")

# --set keys handled at the configuration/simulation level; anything else
# must be a dotted ELEMENT.field device path
_CONFIG_KEYS = ("vdd", "vbias", "r_load", "m0")
_SIM_KEYS = ("temp", "dt", "t_stop")

_DEFAULT_TRAN_STOP = 3.0
_MISMATCH_DELTAS = tuple(round(-0.20 + 0.05 * k, 2) for k in range(9))
_TEMP_SWEEP_CELSIUS = tuple(range(0, 101, 10))
_HYSTERESIS_DRIVE = SourceSpec(kind="sine", dc_value=0.0, amplitude=2.5,
                               frequency=5.0)


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


def _parse_set_flags(pairs: list[str]) -> dict[str, float]:
    """``--set key=value`` flags as an ordered mapping; values use the
    netlist value grammar (SI suffixes included)."""
    out: dict[str, float] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        key = key.strip()
        if not sep or not key or not raw.strip():
            raise _UsageError(f"--set expects key=value, got {pair!r}")
        try:
            out[key] = parse_value(raw.strip())
        except ParseError:
            raise _UsageError(f"--set {key}: malformed value {raw.strip()!r}")
    return out


def _split_sets(sets: dict[str, float]):
    """Partition --set keys into (config, sim, device-path) groups."""
    config: dict[str, float] = {}
    sim: dict[str, float] = {}
    paths: dict[str, float] = {}
    for key, value in sets.items():
        low = key.lower()
        if low in _CONFIG_KEYS:
            config[low] = value
        elif low in _SIM_KEYS:
            sim[low] = value
        elif "." in key:
            paths[key] = value
        else:
            raise _UsageError(
                f"unknown --set key {key!r}; expected one of "
                f"{', '.join(_CONFIG_KEYS + _SIM_KEYS)} or a dotted "
                f"ELEMENT.field path")
    return config, sim, paths


def _sim_options(sim: dict[str, float], *, allow_timestep: bool,
                 t_stop_default: float | None = None) -> SimOptions:
    """SimOptions from --set sim keys; ``temp`` is given in celsius."""
    temp = None
    if "temp" in sim:
        temp = sim["temp"] + ZERO_CELSIUS
        if temp <= 0.0:
            raise _UsageError(f"--set temp={sim['temp']} is below absolute zero")
    if not allow_timestep and ("dt" in sim or "t_stop" in sim):
        raise _UsageError("--set dt/t_stop only apply to transient analyses")
    dt = sim.get("dt")
    t_stop = sim.get("t_stop", t_stop_default)
    try:
        return SimOptions(temp=temp, dt=dt, t_stop=t_stop)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _apply_paths(circuit: Circuit, paths: dict[str, float]) -> None:
    for path, value in paths.items():
        apply_override(circuit, path, value)


# --------------------------------------------------------------------------- #
# CSV table builders
# --------------------------------------------------------------------------- #

def _write_operating_point(stream, circuit: Circuit, op) -> None:
    columns = [f"v({name}) (V)" for name in circuit.node_names[1:]]
    columns += [f"i({dev.name}) (A)" for dev in circuit.devices]
    row = [float(op.node_voltages[k]) for k in range(1, len(circuit.node_names))]
    row += [op.device_currents[dev.name] for dev in circuit.devices]
    write_csv(stream, columns, [row])


def _all_probes(circuit: Circuit) -> list[str]:
    probes = [f"v({name})" for name in circuit.node_names[1:]]
    probes += [f"i({dev.name})" for dev in circuit.devices]
    probes += [f"m({dev.name})" for dev in circuit.devices
               if isinstance(dev, BoundMemristor)]
    return probes


def _write_waveforms(stream, result) -> None:
    columns = ["t (s)"] + [f"{w.name} ({w.unit})" for w in result.waveforms]
    t = result.waveforms[0].t
    series = [w.values for w in result.waveforms]
    rows = ([t[k]] + [v[k] for v in series] for k in range(len(t)))
    write_csv(stream, columns, rows)


def _run_dc(circuit: Circuit, opts: SimOptions, stream) -> None:
    op = solve_dc(circuit, opts)
    _write_operating_point(stream, circuit, op)


def _run_tran(circuit: Circuit, opts: SimOptions, stream) -> None:
    result = run_transient(circuit, opts, _all_probes(circuit))
    _write_waveforms(stream, result)


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #

def cmd_run(args) -> int:
    config, sim, paths = _split_sets(_parse_set_flags(args.set))
    if config:
        # vdd/vbias translate to device paths on any netlist that names the
        # sources V1/VB; r_load and m0 only exist for built-in mirrors
        for key in ("r_load", "m0"):
            if key in config:
                raise _UsageError(
                    f"--set {key} only applies to `mirrorsim mirror` configs")
        paths = {**{k: v for k, v in config.items()}, **paths}
    with open(args.netlist, "r", encoding="utf-8") as handle:
        text = handle.read()
    circuit = elaborate(parse(text))
    _apply_paths(circuit, paths)
    directive = circuit.analysis
    if directive is not None and directive[0] == "tran":
        step, stop = directive[1], directive[2]
        opts = _sim_options(sim, allow_timestep=True, t_stop_default=stop)
        if opts.dt is None:
            opts = replace(opts, dt=step)
        with open_output(args.output) as stream:
            _run_tran(circuit, opts, stream)
    else:
        opts = _sim_options(sim, allow_timestep=False)
        with open_output(args.output) as stream:
            _run_dc(circuit, opts, stream)
    return EXIT_OK


def _mirror_config(args, config_sets: dict[str, float]) -> MirrorConfig:
    return MirrorConfig(
        kind=MirrorKind(args.config),
        vdd=config_sets.get("vdd"),
        vbias=config_sets.get("vbias"),
        r_load=config_sets.get("r_load", 38e3),
        m0=config_sets.get("m0", 5e3),
    )


def cmd_mirror(args) -> int:
    config_sets, sim, paths = _split_sets(_parse_set_flags(args.set))
    config = _mirror_config(args, config_sets)
    if args.emit_netlist:
        with open_output(args.output) as stream:
            stream.write(print_netlist(builtin_mirror(config)))
        return EXIT_OK
    analysis = args.analysis
    if paths and analysis not in ("dc", "tran", "thd"):
        raise _UsageError(
            f"--set device paths do not apply to --analysis {analysis}; "
            f"that analysis owns its circuit variants")
    if analysis in ("param-sweep",) and not (args.param and args.values):
        raise _UsageError("--analysis param-sweep requires --param and --values")
    if analysis != "param-sweep" and (args.param or args.values):
        raise _UsageError("--param/--values only apply to --analysis param-sweep")

    if analysis == "dc":
        opts = _sim_options(sim, allow_timestep=False)
        circuit = mirror_circuit(config)
        _apply_paths(circuit, paths)
        with open_output(args.output) as stream:
            _run_dc(circuit, opts, stream)
        return EXIT_OK

    if analysis == "tran":
        opts = _sim_options(sim, allow_timestep=True,
                            t_stop_default=_DEFAULT_TRAN_STOP)
        circuit = mirror_circuit(config)
        _apply_paths(circuit, paths)
        with open_output(args.output) as stream:
            _run_tran(circuit, opts, stream)
        return EXIT_OK

    if analysis == "thd":
        opts = _sim_options(sim, allow_timestep=False)
        circuit = mirror_circuit(config)
        _apply_paths(circuit, paths)
        result = distortion_trace(config, circuit=circuit,
                                  temp=opts.temp if opts.temp is not None
                                  else circuit.temp)
        amplitudes = [result.fundamental] + list(result.harmonics)
        rows = ([k + 1, amplitudes[k]] for k in range(len(amplitudes)))
        footers = [
            f"f0 (Hz) = {format_number(result.f0)}",
            f"thd (fraction) = {format_number(result.thd)}",
            f"thd (percent) = {format_number(result.thd_percent)}",
        ]
        with open_output(args.output) as stream:
            write_csv(stream, ["harmonic (n)", "amplitude (A)"], rows, footers)
        return EXIT_OK

    if analysis == "temp-sweep":
        if "temp" in sim:
            raise _UsageError("temp-sweep owns the temperature grid; "
                              "--set temp does not apply")
        _sim_options(sim, allow_timestep=False)
        temps = [ZERO_CELSIUS + c for c in _TEMP_SWEEP_CELSIUS]
        rows_data = temperature_sweep(config, temps)
        rows = ([row.temp, row.temp - ZERO_CELSIUS, row.i_in, row.i_out]
                for row in rows_data)
        columns = ["temperature (K)", "temperature (C)", "i_in (A)", "i_out (A)"]
        with open_output(args.output) as stream:
            write_csv(stream, columns, rows)
        return EXIT_OK

    if analysis == "mismatch":
        opts = _sim_options(sim, allow_timestep=False)
        base = config.m0 if config.kind.has_memristors else config.r_load
        grid = [base * (1.0 + d) for d in _MISMATCH_DELTAS]
        table = mismatch_sweep(config, grid,
                               temp=opts.temp if opts.temp is not None
                               else T_REF)
        columns = ["load2 (ohm)", "delta_r (fraction)",
                   "simulated_delta_i (fraction)", "predicted_delta_i (fraction)",
                   "error (text)"]
        rows = ([r.load2, r.rel_delta_r, r.simulated, r.predicted, r.error or ""]
                for r in table.rows)
        footers = [
            f"k_factor = {format_number(table.k_factor)}",
            f"baseline_current (A) = {format_number(table.baseline_current)}",
        ]
        with open_output(args.output) as stream:
            write_csv(stream, columns, rows, footers)
        return EXIT_OK

    if analysis == "param-sweep":
        opts = _sim_options(sim, allow_timestep=False)
        values = [parse_value(tok.strip()) for tok in args.values.split(",")
                  if tok.strip()]
        if not values:
            raise _UsageError("--values must list at least one number")
        rows_data = parameter_sweep(config, args.param, values,
                                    temp=opts.temp)
        columns = ["value (SI)", "i_out (A)", "v_out (V)"]
        rows = ([r.value, r.i_out, r.v_out] for r in rows_data)
        with open_output(args.output) as stream:
            write_csv(stream, columns, rows)
        return EXIT_OK

    if analysis == "hysteresis":
        _sim_options(sim, allow_timestep=False)
        if config.kind.has_memristors:
            params = replace(MEMRISTOR_DEFAULTS, polarity=-1)
        else:
            params = ResistorParams(r_nominal=config.r_load)
        trace = hysteresis_trace(params, _HYSTERESIS_DRIVE)
        columns = ["t (s)", "v (V)", "i (A)"]
        rows = ([trace.t[k], trace.voltage[k], trace.current[k]]
                for k in range(len(trace.t)))
        footers = [
            f"loop_area (A*V) = {format_number(trace.area)}",
            f"cycle_start_index = {trace.cycle_start}",
        ]
        with open_output(args.output) as stream:
            write_csv(stream, columns, rows, footers)
        return EXIT_OK

    # table1: one summary row for the named configuration
    opts = _sim_options(sim, allow_timestep=False)
    row = config_report(config, temp=opts.temp if opts.temp is not None
                        else T_REF)
    columns = ["config (name)", "thd (percent)", "power (mW)", "area (um^2)",
               "subthreshold (W)", "gate_leakage (W)", "i_in (A)", "i_out (A)",
               "error (text)"]
    table_row = [row.kind, row.thd_percent, row.power_mw, row.area_um2,
                 row.subthreshold_w, row.gate_w, row.i_in, row.i_out,
                 row.error or ""]
    with open_output(args.output) as stream:
        write_csv(stream, columns, [table_row], REPORT_NOTES)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    if args.target <= 0.0:
        raise _UsageError(f"--target must be positive, got {args.target}")
    if args.vdd <= 0.0:
        raise _UsageError(f"--vdd must be positive, got {args.vdd}")
    try:
        mobility = calibrate_mobility(target=args.target, vdd=args.vdd)
    except AnalysisError as exc:
        _diag(f"error: {exc}")
        return EXIT_SIMULATION
    mem = replace(MEMRISTOR_DEFAULTS, mobility=mobility, polarity=-1)
    block = (
        f".model MEM memristor (ron={format_value(mem.r_on)} "
        f"roff={format_value(mem.r_off)} l={format_value(mem.length)} "
        f"uv={format_value(mem.mobility)} p={mem.window_p} pol={mem.polarity})"
    )
    with open_output(args.output) as stream:
        stream.write(block + "\n")
    return EXIT_OK


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
    p_mirror.add_argument("--analysis", choices=ANALYSES, default="dc",
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        code = args.func(args)
    except _UsageError as exc:
        _diag(f"error: {exc}")
        return EXIT_PARSE
    except ParseError as exc:
        _diag(f"error: {exc}")
        return EXIT_PARSE
    except (ElaborationError, DeviceError) as exc:
        _diag(f"error: {exc}")
        return EXIT_PARSE
    except NotSettledError as exc:
        _diag(f"error: {exc}")
        return EXIT_SIMULATION
    except AnalysisError as exc:
        _diag(f"error: {exc}")
        return EXIT_PARSE
    except NonConvergenceError as exc:
        _diag(f"error: {exc}")
        for iteration, dv, residual in exc.trace or []:
            _diag(f"  iter {iteration}: max|dV|={dv:.3e} residual={residual:.3e}")
        return EXIT_SIMULATION
    except SimulationError as exc:
        _diag(f"error: {exc}")
        return EXIT_SIMULATION
    except OSError as exc:
        _diag(f"error: {exc}")
        return EXIT_IO
    if args.verbose:
        elapsed = time.monotonic() - started
        print(f"[mirrorsim] {args.command} finished in {elapsed:.2f} s",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
