#!/usr/bin/env python3
"""Regenerate the headline experiments as CSV files ready for plotting.

Each experiment writes one or more CSVs into --out (default ./out) using the
same formatting rules as the CLI, and prints a one-line summary. Plot them
with the companion gnuplot script:

    python scripts/reproduce_figures.py --out out
    gnuplot -e "outdir='out'" scripts/plots.gp

Experiments:

* hysteresis   — memristor i–v loops at 5/10/50/500 Hz (loop pinching and
                 the collapse to a straight line as frequency rises)
* switching    — memristance vs time for the memristive mirror at
                 2.0/2.5/3.0 V supplies (switching time falls with supply)
* mismatch     — output-current deviation vs load mismatch, resistive and
                 memristive loads on a 19 kOhm baseline grid
* temperature  — mirror currents over 0–100 C for both load classes
* summary      — the four-configuration report (THD, power, leakage, area)
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mirrorsim.analysis import (
    hysteresis_trace,
    mismatch_sweep,
    switching_time,
    table1_report,
    temperature_sweep,
)
from mirrorsim.constants import ZERO_CELSIUS
from mirrorsim.csvio import format_number, write_csv
from mirrorsim.devices import SourceSpec
from mirrorsim.engine import SimOptions, run_transient
from mirrorsim.netlist import MIRROR_MEMRISTOR, MirrorConfig, MirrorKind, mirror_circuit

MISMATCH_BASE = 19e3
MISMATCH_DELTAS = tuple(round(-0.20 + 0.05 * k, 2) for k in range(9))


def write_table(path: Path, columns, rows, footers=()):
    with path.open("w", encoding="utf-8", newline="\n") as stream:
        write_csv(stream, columns, rows, footers)
    print(f"  wrote {path}")


def run_hysteresis(out: Path):
    params = MIRROR_MEMRISTOR
    areas = []
    for freq in (5.0, 10.0, 50.0, 500.0):
        drive = SourceSpec(kind="sine", dc_value=0.0, amplitude=2.5,
                           frequency=freq)
        trace = hysteresis_trace(params, drive)
        rows = ([trace.t[k], trace.voltage[k], trace.current[k]]
                for k in range(len(trace.t)))
        write_table(out / f"hysteresis_{freq:g}hz.csv",
                    ["t (s)", "v (V)", "i (A)"], rows,
                    [f"loop_area (A*V) = {format_number(trace.area)}"])
        areas.append((freq, trace.area))
    summary = ", ".join(f"{a:.2e} A*V at {f:g} Hz" for f, a in areas)
    print(f"hysteresis: loop areas {summary}")


def run_switching(out: Path):
    times = []
    for vdd in (2.0, 2.5, 3.0):
        circuit = mirror_circuit(
            MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS, vdd=vdd))
        result = run_transient(circuit, SimOptions(dt=1e-3, t_stop=3.0),
                               ["m(Y2)", "i(M2)"])
        m_wave, i_wave = result.waveforms
        rows = ([m_wave.t[k], m_wave.values[k], i_wave.values[k]]
                for k in range(len(m_wave.t)))
        t_sw = switching_time(i_wave)
        write_table(out / f"switching_{vdd:g}v.csv",
                    ["t (s)", "memristance (ohm)", "i_out (A)"], rows,
                    [f"switching_time (s) = {format_number(t_sw)}"])
        times.append((vdd, t_sw))
    summary = ", ".join(f"{t:.3f} s at {v:g} V" for v, t in times)
    print(f"switching: {summary}")


def run_mismatch(out: Path):
    grid = [MISMATCH_BASE * (1.0 + d) for d in MISMATCH_DELTAS]
    columns = ["load2 (ohm)", "delta_r (fraction)",
               "simulated_delta_i (fraction)", "predicted_delta_i (fraction)",
               "predicted_ro_delta_i (fraction)"]
    for label, config in (
        ("resistive", MirrorConfig(kind=MirrorKind.TWO_RESISTORS,
                                   r_load=MISMATCH_BASE)),
        ("memristive", MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS,
                                    m0=MISMATCH_BASE)),
    ):
        table = mismatch_sweep(config, grid)
        rows = ([r.load2, r.rel_delta_r, r.simulated, r.predicted,
                 r.predicted_ro] for r in table.rows)
        write_table(out / f"mismatch_{label}.csv", columns, rows,
                    [f"k_factor = {format_number(table.k_factor)}",
                     f"k_factor_ro = {format_number(table.k_factor_ro)}",
                     f"baseline_current (A) = "
                     f"{format_number(table.baseline_current)}"])
    print(f"mismatch: +/-20% around {MISMATCH_BASE:g} ohm, both load classes")


def run_temperature(out: Path):
    temps = [ZERO_CELSIUS + c for c in range(0, 101, 10)]
    columns = ["temperature (C)", "i_in (A)", "i_out (A)"]
    for label, kind in (("resistive", MirrorKind.TWO_RESISTORS),
                        ("memristive", MirrorKind.TWO_MEMRISTORS)):
        rows_data = temperature_sweep(MirrorConfig(kind=kind), temps)
        rows = ([r.temp - ZERO_CELSIUS, r.i_in, r.i_out] for r in rows_data)
        write_table(out / f"temperature_{label}.csv", columns, rows)
    print("temperature: 0-100 C sweeps for both load classes")


def run_summary(out: Path):
    report = table1_report()
    columns = ["config (name)", "thd (percent)", "power (mW)", "area (um^2)",
               "subthreshold (W)", "gate_leakage (W)"]
    rows = ([r.kind, r.thd_percent, r.power_mw, r.area_um2,
             r.subthreshold_w, r.gate_w] for r in report.rows)
    write_table(out / "summary.csv", columns, rows,
                list(report.notes))
    print("summary: four-configuration report")


EXPERIMENTS = {
    "hysteresis": run_hysteresis,
    "switching": run_switching,
    "mismatch": run_mismatch,
    "temperature": run_temperature,
    "summary": run_summary,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (created if missing)")
    parser.add_argument("--experiments", nargs="*", metavar="NAME",
                        choices=sorted(EXPERIMENTS), default=None,
                        help="subset to run (default: all)")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = args.experiments or sorted(EXPERIMENTS)
    for name in names:
        started = time.monotonic()
        EXPERIMENTS[name](out)
        print(f"  [{name} took {time.monotonic() - started:.1f} s]")
    print(f"done; plot with: gnuplot -e \"outdir='{out}'\" scripts/plots.gp")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
