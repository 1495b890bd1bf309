"""Command-line interface tests: exit codes, CSV shapes, --set plumbing,
and the byte-identical-output invariant.

``main`` is exercised in-process (it returns the exit code instead of
calling ``sys.exit``), with stdout/stderr captured through pytest.
"""

import csv
import io
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mirrorsim import cli
from mirrorsim.analysis import AnalysisError, NotSettledError
from mirrorsim.cli import EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_SIMULATION, main
from mirrorsim.constants import ZERO_CELSIUS
from mirrorsim.csvio import format_number, format_resolved, write_csv
from mirrorsim.devices import DeviceError
from mirrorsim.engine import SingularMatrixError, solve_dc
from mirrorsim.netlist import MirrorConfig, MirrorKind, elaborate, mirror_circuit, parse

DIVIDER = """* divider
V1 in 0 DC 2.5
R1 in mid 1k
R2 mid 0 1k
.end
"""

RAMP_TRAN = """* ramp
V1 in 0 SIN(0 1 100)
R1 in 0 1k
.tran 1m 10m
.end
"""

PARALLEL_SOURCES = """* shorted pair
V1 a 0 DC 1
V2 a 0 DC 2
R1 a 0 1k
.end
"""

# An NMOS diode hung from a megavolt supply: Newton has to walk the gate
# up in damped steps and runs out of iterations at every source-stepping
# scale, so this fails with a non-convergence trace rather than an error
# in the input.
WALKUP = """* walkup
V1 vdd 0 DC 1e6
R1 vdd d 1
M1 d d 0 0 NCH
.model NCH NMOS (vth0=0.45 kp=170u lambda=0.05)
.end
"""

BAD_CARD = """* bad
R1 a
.end
"""


def run_cli(argv, capsys):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    """Split CLI output into (header, data_rows, footer_lines)."""
    lines = text.splitlines()
    footers = [line for line in lines if line.startswith("# ")]
    table = [line for line in lines if not line.startswith("# ")]
    rows = list(csv.reader(io.StringIO("\n".join(table))))
    return rows[0], rows[1:], footers


def netlist_file(tmp_path, text, name="circuit.cir"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# --------------------------------------------------------------------------- #
# Exit codes
# --------------------------------------------------------------------------- #

class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, err = run_cli(["mirror", "2r", "--analysis", "dc"], capsys)
        assert code == EXIT_OK
        assert out
        assert err == ""

    def test_parse_error_reports_line_number(self, tmp_path, capsys):
        path = netlist_file(tmp_path, BAD_CARD)
        code, out, err = run_cli(["run", path], capsys)
        assert code == EXIT_PARSE
        assert out == ""
        assert "line 2" in err

    def test_missing_netlist_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(["run", str(tmp_path / "absent.cir")], capsys)
        assert code == EXIT_IO
        assert "absent.cir" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(["mirror", "2r", "--frobnicate"], capsys)
        assert code == EXIT_PARSE
        assert "usage" in err

    def test_unknown_config_is_usage_error(self, capsys):
        code, _, _ = run_cli(["mirror", "9x"], capsys)
        assert code == EXIT_PARSE

    def test_unknown_set_key_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["mirror", "2r", "--set", "bogus=1"], capsys)
        assert code == EXIT_PARSE
        assert "unknown --set key" in err

    def test_malformed_set_value_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["mirror", "2r", "--set", "vdd=duck"], capsys)
        assert code == EXIT_PARSE
        assert "malformed value" in err

    def test_set_without_equals_is_usage_error(self, capsys):
        code, _, err = run_cli(["mirror", "2r", "--set", "vdd"], capsys)
        assert code == EXIT_PARSE
        assert "key=value" in err

    def test_singular_netlist_is_simulation_error(self, tmp_path, capsys):
        path = netlist_file(tmp_path, PARALLEL_SOURCES)
        code, _, err = run_cli(["run", path], capsys)
        assert code == EXIT_SIMULATION
        assert "singular" in err

    def test_nonconvergent_netlist_prints_iteration_trace(self, tmp_path, capsys):
        path = netlist_file(tmp_path, WALKUP)
        code, _, err = run_cli(["run", path], capsys)
        assert code == EXIT_SIMULATION
        assert "did not converge" in err
        assert "iter 1:" in err and "max|dV|=" in err

    def test_transient_failure_prints_iteration_trace(self, nan_sources, capsys):
        # sources read NaN after t = 0, so the first backward-Euler step fails
        nan_sources(lambda t: t != 0.0)
        code, out, err = run_cli(["mirror", "2m", "--analysis", "tran"], capsys)
        assert code == EXIT_SIMULATION
        assert out == ""
        assert "non-finite iterate at t=0.0003 s" in err
        assert "iter 1:" in err and "max|dV|=" in err

    def test_a_step_newton_cannot_take_whole_is_cut(self, capsys):
        # Newton runs out of iterations on the first 1.5 s step at full size
        code, out, _ = run_cli(
            ["mirror", "2m", "--analysis", "tran", "--set", "dt=1.5"], capsys)
        assert code == EXIT_OK
        _, rows, _ = parse_csv(out)
        assert [float(row[0]) for row in rows] == [0.0, 1.5, 3.0]

    def test_resistive_transient_failure_names_the_sample_time(self, nan_sources,
                                                                capsys):
        # the same NaN sources on a memristor-free mirror, whose samples are
        # DC solves: the earliest failing one is reported with its time
        nan_sources(lambda t: t != 0.0)
        code, out, err = run_cli(["mirror", "2r", "--analysis", "tran"], capsys)
        assert code == EXIT_SIMULATION
        assert out == ""
        assert "non-finite iterate at t=0.0003 s" in err
        assert "iter 1:" in err and "max|dV|=" in err

    def test_missing_output_directory_is_io_error(self, tmp_path, capsys):
        target = str(tmp_path / "no" / "such" / "dir" / "out.csv")
        code, _, err = run_cli(
            ["mirror", "2r", "--analysis", "dc", "-o", target], capsys)
        assert code == EXIT_IO
        assert "output directory does not exist" in err

    @pytest.mark.parametrize("argv, analysis", [
        (["mirror", "2r", "--analysis", "temp-sweep"], "temperature_sweep"),
        (["mirror", "2r", "--analysis", "table1"], "config_report"),
        (["calibrate"], "calibrate_mobility"),
    ])
    def test_missing_output_directory_fails_before_simulating(
            self, tmp_path, monkeypatch, capsys, argv, analysis):
        calls = []
        monkeypatch.setattr(cli, analysis, lambda *args, **kwargs: calls.append(args))
        for target, message in ((tmp_path / "missing" / "out.csv", "does not exist"),
                                (tmp_path, "is a directory")):
            code, _, err = run_cli(argv + ["-o", str(target)], capsys)
            assert code == EXIT_IO
            assert message in err
        assert calls == []

    @pytest.mark.parametrize("analysis", ["dc", "tran"])
    def test_failed_simulation_leaves_the_output_file_alone(
            self, tmp_path, nan_sources, capsys, analysis):
        # every source reads NaN, so the t = 0 solve fails
        nan_sources(lambda t: True)
        target = tmp_path / "out.csv"
        target.write_text("previous run\n", encoding="utf-8")
        code, _, _ = run_cli(["mirror", "2r", "--analysis", analysis,
                              "-o", str(target)], capsys)
        assert code == EXIT_SIMULATION
        assert target.read_text(encoding="utf-8") == "previous run\n"

    @pytest.mark.parametrize("error, expected", [
        (NotSettledError("never settled"), EXIT_SIMULATION),
        (AnalysisError("bad sweep"), EXIT_PARSE),
        (DeviceError("bad device"), EXIT_PARSE),
        (SingularMatrixError("singular"), EXIT_SIMULATION),
        (PermissionError("denied"), EXIT_IO),
    ])
    def test_each_error_type_maps_to_its_exit_code(self, monkeypatch, capsys,
                                                    error, expected):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "temperature_sweep", fail)
        code, out, err = run_cli(["mirror", "2r", "--analysis", "temp-sweep"],
                                 capsys)
        assert code == expected
        assert out == ""
        assert err == f"error: {error}\n"

    def test_calibrate_rejects_nonpositive_target(self, capsys):
        code, _, err = run_cli(["calibrate", "--target", "0"], capsys)
        assert code == EXIT_PARSE
        assert "--target" in err

    def test_calibrate_rejects_nonpositive_vdd(self, capsys):
        code, _, err = run_cli(["calibrate", "--vdd", "-1"], capsys)
        assert code == EXIT_PARSE
        assert "--vdd" in err

    @pytest.mark.parametrize("flag, value", [("--target", "nan"), ("--target", "inf"),
                                             ("--vdd", "nan"), ("--vdd", "inf")])
    def test_calibrate_rejects_non_finite_values(self, flag, value, capsys):
        code, _, err = run_cli(["calibrate", flag, value], capsys)
        assert code == EXIT_PARSE
        assert err == f"error: {flag} must be positive and finite, got {value}\n"

    @pytest.mark.parametrize("argv", [
        ["mirror", "2r", "--set", "R2.r_nominal=1e999"],
        ["mirror", "2r", "--set", "vdd=1e999"],
        ["mirror", "2r", "--analysis", "param-sweep", "--param", "R2.r_nominal",
         "--values", "38k,1e999"],
    ], ids=["set-path", "set-vdd", "param-sweep"])
    def test_a_value_that_overflows_a_float_is_a_parse_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_PARSE and out == ""
        assert "'1e999'" in err

    @pytest.mark.parametrize("argv, message", [
        (["mirror", "2r", "--set", "vdd=1e999"],
         "--set vdd: value '1e999' overflows a float"),
        (["mirror", "2r", "--set", "vdd=2kohm"],
         "--set vdd: unknown value suffix 'kohm' in '2kohm'"),
        (["mirror", "2r", "--analysis", "param-sweep", "--param", "R2.r_nominal",
          "--values", "38k,duck"], "--values: malformed value 'duck'"),
        (["mirror", "2r", "--analysis", "param-sweep", "--param", "R2.r_nominal",
          "--values", "38k,1e999"], "--values: value '1e999' overflows a float"),
        (["mirror", "2r", "--analysis", "param-sweep", "--param", "R2.r_nominal",
          "--values", ","], "--values must list at least one number"),
    ], ids=["set-overflow", "set-suffix", "values-malformed", "values-overflow",
            "values-empty"])
    def test_a_bad_value_names_its_flag_and_the_reason(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_PARSE and out == ""
        assert err == f"error: {message}\n"

    def test_a_deck_value_that_overflows_a_float_is_a_parse_error(self, tmp_path,
                                                                 capsys):
        path = netlist_file(tmp_path, "V1 1 0 DC 1e999\nR1 1 0 1k\n.end\n")
        code, out, err = run_cli(["run", path], capsys)
        assert code == EXIT_PARSE and out == ""
        assert err == "error: line 1: value '1e999' overflows a float\n"

    @pytest.mark.parametrize("drive, message", [
        # the peak 2e308 overflowed in source_value's add
        ("SIN(1e308 1e308 5)", "sine source peak |dc| + |amplitude| overflows"),
        # 2*pi*f overflowed, and 2*pi*f times t = 0 was NaN
        ("SIN(0 1 1e308)", "sine source 2*pi*frequency overflows"),
    ], ids=["peak", "frequency"])
    def test_a_sine_whose_values_overflow_is_a_parse_error(self, tmp_path, drive,
                                                           message, capsys):
        path = netlist_file(tmp_path, f"V1 a 0 {drive}\nR1 a 0 1\n.tran 1m 100m\n")
        code, out, err = run_cli(["run", path], capsys)
        assert code == EXIT_PARSE and out == ""
        assert err == f"error: line 1: source V1: {message}\n"

    def test_mismatch_without_baseline_current_is_an_analysis_error(self, capsys):
        # at 0.3 V the input transistor is off: I_D1 = 0 A
        code, out, err = run_cli(["mirror", "2r", "--analysis", "mismatch",
                                  "--set", "vdd=0.3"], capsys)
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error: mismatch baseline (R2.r_nominal=38000)")

    def test_unreachable_calibration_target_is_simulation_error(self, capsys):
        # Far below what even the fastest-mobility endpoint can switch in.
        code, _, err = run_cli(["calibrate", "--target", "3e-4"], capsys)
        assert code == EXIT_SIMULATION
        assert "outside the range" in err

    def test_timestep_keys_rejected_for_dc(self, capsys):
        code, _, err = run_cli(
            ["mirror", "2r", "--set", "dt=1m"], capsys)
        assert code == EXIT_PARSE
        assert "transient" in err

    def test_temp_sweep_owns_temperature_grid(self, capsys):
        code, _, err = run_cli(
            ["mirror", "2r", "--analysis", "temp-sweep", "--set", "temp=40"],
            capsys)
        assert code == EXIT_PARSE
        assert "--set temp" in err

    def test_subzero_temperature_rejected(self, capsys):
        code, _, err = run_cli(
            ["mirror", "2r", "--set", "temp=-300"], capsys)
        assert code == EXIT_PARSE
        assert "absolute zero" in err

    def test_param_sweep_requires_param_and_values(self, capsys):
        code, _, err = run_cli(
            ["mirror", "2r", "--analysis", "param-sweep",
             "--param", "T2.width"], capsys)
        assert code == EXIT_PARSE
        assert "--values" in err

    def test_param_flags_only_for_param_sweep(self, capsys):
        code, _, err = run_cli(
            ["mirror", "2r", "--analysis", "dc",
             "--param", "T2.width", "--values", "1u"], capsys)
        assert code == EXIT_PARSE
        assert "param-sweep" in err

    def test_dotted_set_rejected_for_sweep_analyses(self, capsys):
        code, _, err = run_cli(
            ["mirror", "2r", "--analysis", "mismatch",
             "--set", "T2.width=1u"], capsys)
        assert code == EXIT_PARSE
        assert "device paths" in err

    def test_run_rejects_mirror_only_keys(self, tmp_path, capsys):
        path = netlist_file(tmp_path, DIVIDER)
        code, _, err = run_cli(
            ["run", path, "--set", "r_load=1k"], capsys)
        assert code == EXIT_PARSE
        assert "mirror" in err

    def test_unknown_device_path_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["mirror", "2r", "--set", "T9.width=1u"], capsys)
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("argv, key", [
        (["mirror", "2m", "--set", "r_load=9k"], "r_load"),
        (["mirror", "pmos-r", "--set", "m0=9k"], "m0"),
        (["mirror", "2r", "--set", "vbias=0.3"], "vbias"),
        (["mirror", "2m", "--analysis", "hysteresis", "--set", "vdd=3"], "vdd"),
        (["mirror", "2r", "--emit-netlist", "--set", "T2.width=1u"],
         "device paths"),
        (["mirror", "2r", "--emit-netlist", "--set", "temp=80"], "temp"),
        # the standard THD drive replaces the supply's sine fields
        (["mirror", "2r", "--analysis", "thd", "--set", "V1.amplitude=1"],
         "V1.amplitude"),
        (["mirror", "pmos-r", "--analysis", "thd", "--set", "v1.frequency=10"],
         "v1.frequency"),
        (["mirror", "2m", "--analysis", "thd", "--set", "V1.phase=1"], "V1.phase"),
    ])
    def test_a_key_the_command_does_not_read_is_refused(self, argv, key, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_PARSE
        assert out == ""
        assert f"does not read --set {key}" in err

    def test_run_reports_a_bad_transient_span_without_a_traceback(
            self, tmp_path, capsys):
        path = netlist_file(tmp_path, RAMP_TRAN.replace(".tran 1m 10m",
                                                        ".tran 5m 10m"))
        code, out, err = run_cli(["run", path, "--set", "t_stop=1m"], capsys)
        assert code == EXIT_PARSE
        assert out == ""
        assert "t_stop must be >= dt" in err
        assert "Traceback" not in err

    def test_a_stop_time_whose_default_step_underflows_is_refused(self, capsys):
        # t_stop / 10000 rounds to 0, which the transient divided by
        code, out, err = run_cli(["mirror", "2r", "--analysis", "tran",
                                  "--set", "t_stop=1e-320"], capsys)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: t_stop / dt = inf steps; at most 1e+07 are taken\n"


# --------------------------------------------------------------------------- #
# run subcommand
# --------------------------------------------------------------------------- #

class TestRunCommand:
    def test_dc_netlist_writes_operating_point(self, tmp_path, capsys):
        path = netlist_file(tmp_path, DIVIDER)
        code, out, _ = run_cli(["run", path], capsys)
        assert code == EXIT_OK
        header, rows, footers = parse_csv(out)
        assert header == ["v(in) (V)", "v(mid) (V)",
                          "i(V1) (A)", "i(R1) (A)", "i(R2) (A)"]
        assert footers == []
        assert len(rows) == 1
        record = dict(zip(header, map(float, rows[0])))
        assert record["v(in) (V)"] == pytest.approx(2.5, rel=1e-9)
        assert record["v(mid) (V)"] == pytest.approx(1.25, rel=1e-6)
        assert record["i(R1) (A)"] == pytest.approx(1.25e-3, rel=1e-6)

    def test_tran_directive_writes_waveform_table(self, tmp_path, capsys):
        path = netlist_file(tmp_path, RAMP_TRAN)
        code, out, _ = run_cli(["run", path], capsys)
        assert code == EXIT_OK
        header, rows, _ = parse_csv(out)
        assert header[0] == "t (s)"
        assert "v(in) (V)" in header and "i(R1) (A)" in header
        assert len(rows) == 11  # 0..10 ms inclusive at 1 ms steps
        assert float(rows[-1][0]) == pytest.approx(10e-3, rel=1e-9)

    def test_dotted_set_overrides_device_value(self, tmp_path, capsys):
        path = netlist_file(tmp_path, DIVIDER)
        code, out, _ = run_cli(
            ["run", path, "--set", "R2.r_nominal=3k"], capsys)
        assert code == EXIT_OK
        header, rows, _ = parse_csv(out)
        record = dict(zip(header, map(float, rows[0])))
        assert record["v(mid) (V)"] == pytest.approx(2.5 * 3 / 4, rel=1e-6)

    def test_vdd_alias_reaches_the_supply_source(self, tmp_path, capsys):
        path = netlist_file(tmp_path, DIVIDER)
        code, out, _ = run_cli(["run", path, "--set", "vdd=1.0"], capsys)
        assert code == EXIT_OK
        header, rows, _ = parse_csv(out)
        record = dict(zip(header, map(float, rows[0])))
        assert record["v(mid) (V)"] == pytest.approx(0.5, rel=1e-6)

    def test_set_temp_replaces_the_deck_temperature(self, tmp_path, capsys):
        def deck(celsius):
            return netlist_file(tmp_path, DIVIDER.replace(".end", f".temp {celsius}\n.end"),
                                f"divider_{celsius}.cir")

        _, hot, _ = run_cli(["run", deck(100)], capsys)
        code, out, _ = run_cli(["run", deck(100), "--set", "temp=27"], capsys)
        assert code == EXIT_OK
        assert out == run_cli(["run", deck(27)], capsys)[1] != hot

    def test_set_t_stop_shortens_transient(self, tmp_path, capsys):
        path = netlist_file(tmp_path, RAMP_TRAN)
        code, out, _ = run_cli(
            ["run", path, "--set", "t_stop=5m"], capsys)
        assert code == EXIT_OK
        _, rows, _ = parse_csv(out)
        assert len(rows) == 6
        assert float(rows[-1][0]) == pytest.approx(5e-3, rel=1e-9)


# --------------------------------------------------------------------------- #
# mirror subcommand
# --------------------------------------------------------------------------- #

class TestMirrorCommand:
    def test_dc_row_covers_nodes_and_devices(self, capsys):
        code, out, _ = run_cli(["mirror", "2m", "--analysis", "dc"], capsys)
        assert code == EXIT_OK
        header, rows, _ = parse_csv(out)
        assert len(rows) == 1
        assert any(cell.startswith("v(") for cell in header)
        assert "i(Y2) (A)" in header
        for cell in rows[0]:
            float(cell)  # every cell is numeric

    def test_set_vdd_changes_operating_point(self, capsys):
        _, base, _ = run_cli(["mirror", "2r", "--analysis", "dc"], capsys)
        code, bumped, _ = run_cli(
            ["mirror", "2r", "--analysis", "dc", "--set", "vdd=3.0"], capsys)
        assert code == EXIT_OK
        assert bumped != base

    def test_emit_netlist_round_trips(self, capsys):
        code, out, _ = run_cli(["mirror", "pmos-m", "--emit-netlist"], capsys)
        assert code == EXIT_OK
        assert ".model" in out
        circuit = elaborate(parse(out))
        assert {d.name for d in circuit.devices} >= {"M1", "M2", "Y2"}

    def test_emit_netlist_refuses_an_analysis(self, capsys):
        code, out, err = run_cli(
            ["mirror", "2r", "--emit-netlist", "--analysis", "tran"], capsys)
        assert code == EXIT_PARSE
        assert out == ""
        assert "--emit-netlist" in err and "--analysis" in err

    def test_analysis_defaults_to_dc(self, capsys):
        code, out, _ = run_cli(["mirror", "2r"], capsys)
        assert code == EXIT_OK
        assert out.encode("utf-8") == (GOLDEN / "dc_2r.csv").read_bytes()

    def test_emit_netlist_reflects_overrides(self, capsys):
        code, out, _ = run_cli(
            ["mirror", "2r", "--emit-netlist", "--set", "r_load=19k"], capsys)
        assert code == EXIT_OK
        assert "19000" in out

    def test_mismatch_grid_and_footers(self, capsys):
        code, out, _ = run_cli(
            ["mirror", "2r", "--analysis", "mismatch"], capsys)
        assert code == EXIT_OK
        header, rows, footers = parse_csv(out)
        assert header[0] == "load2 (ohm)"
        assert len(rows) == 9  # -20% .. +20% in 5% steps
        deltas = [float(r[1]) for r in rows]
        assert deltas[0] == pytest.approx(-0.20)
        assert deltas[-1] == pytest.approx(0.20)
        assert any(f.startswith("# k_factor = ") for f in footers)
        assert any(f.startswith("# baseline_current (A) = ") for f in footers)

    def test_mismatch_shows_the_output_resistance_prediction(self, capsys):
        code, out, _ = run_cli(
            ["mirror", "2r", "--analysis", "mismatch"], capsys)
        assert code == EXIT_OK
        header, rows, footers = parse_csv(out)
        assert header[3:5] == ["predicted_delta_i (fraction)",
                               "predicted_ro_delta_i (fraction)"]
        assert any(f.startswith("# k_factor_ro = ") for f in footers)
        for row in rows:
            simulated, predicted_ro = float(row[2]), float(row[4])
            assert abs(simulated - predicted_ro) <= 0.05 * abs(predicted_ro)

    def test_param_sweep_rows_follow_values(self, capsys):
        code, out, _ = run_cli(
            ["mirror", "2r", "--analysis", "param-sweep",
             "--param", "T2.width", "--values", "270n,540n"], capsys)
        assert code == EXIT_OK
        header, rows, _ = parse_csv(out)
        assert header == ["value (SI)", "i_out (A)", "v_out (V)"]
        assert len(rows) == 2
        assert float(rows[1][1]) > float(rows[0][1])  # wider mirror, more current

    def test_temp_sweep_covers_celsius_grid(self, capsys):
        code, out, _ = run_cli(
            ["mirror", "2r", "--analysis", "temp-sweep"], capsys)
        assert code == EXIT_OK
        header, rows, _ = parse_csv(out)
        assert header[:2] == ["temperature (K)", "temperature (C)"]
        assert [float(r[1]) for r in rows] == [float(c) for c in range(0, 101, 10)]
        currents = [float(r[3]) for r in rows]
        assert currents == sorted(currents, reverse=True)

    def test_hysteresis_footers_name_the_loop_area(self, capsys):
        code, out, _ = run_cli(
            ["mirror", "2r", "--analysis", "hysteresis"], capsys)
        assert code == EXIT_OK
        header, rows, footers = parse_csv(out)
        assert header == ["t (s)", "v (V)", "i (A)"]
        assert "# loop_area (A*V) = 0" in footers
        assert "# cycle_start_index = 4000" in footers

    def test_memristor_loop_is_read_on_the_requested_grid(self, capsys):
        code, out, _ = run_cli(
            ["mirror", "2m", "--analysis", "hysteresis"], capsys)
        assert code == EXIT_OK
        header, rows, footers = parse_csv(out)
        assert header == ["t (s)", "v (V)", "i (A)"]
        t, v, i = (np.array([float(r[j]) for r in rows]) for j in range(3))
        # three 5 Hz cycles at 2000 samples each, whatever steps were taken
        assert t == pytest.approx(np.arange(6001) / 10_000, rel=1e-8, abs=1e-15)
        assert "# cycle_start_index = 4000" in footers
        area = [f for f in footers if f.startswith("# loop_area (A*V) = ")]
        assert len(area) == 1 and float(area[0].rpartition("= ")[2]) > 0.0
        # the loop is pinched exactly: every sample is a DC solution
        assert (v == 0.0).any()
        assert np.all(i[v == 0.0] == 0.0)

    @pytest.mark.parametrize("argv", [
        ["mirror", "pmos-r", "--set", "vbias=0.6"],
        ["mirror", "pmos-m", "--emit-netlist", "--set", "vbias=0.6"],
        ["mirror", "2m", "--set", "m0=9k"],
        ["mirror", "2r", "--analysis", "hysteresis", "--set", "r_load=19k"],
        # --set temp on every analysis that reads it
        *(["mirror", "2r", "--analysis", *analysis, "--set", "temp=100"]
          for analysis in (["dc"], ["tran", "--set", "t_stop=10m"], ["thd"],
                           ["mismatch"], ["table1"],
                           ["param-sweep", "--param", "T2.width", "--values", "0.3u"])),
    ])
    def test_a_key_the_command_reads_changes_the_output(self, argv, capsys):
        _, base, _ = run_cli(argv[:-2], capsys)
        code, changed, _ = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert changed != base

    def test_resistor_loop_is_read_at_the_requested_temperature(self, capsys):
        code, out, _ = run_cli(
            ["mirror", "2r", "--analysis", "hysteresis", "--set", "temp=80"],
            capsys)
        assert code == EXIT_OK
        _, rows, _ = parse_csv(out)
        v, i = (np.array([float(r[j]) for r in rows]) for j in (1, 2))
        r_hot = 38e3 * (1.0 + 1e-3 * (353.15 - 300.15))  # tempco 1e-3/K
        assert i == pytest.approx(v / r_hot, rel=1e-7, abs=1e-15)

    def test_thd_table_lists_harmonic_amplitudes(self, capsys):
        code, out, _ = run_cli(["mirror", "2r", "--analysis", "thd"], capsys)
        assert code == EXIT_OK
        header, rows, footers = parse_csv(out)
        assert header == ["harmonic (n)", "amplitude (A)"]
        assert [int(r[0]) for r in rows] == list(range(1, 50))
        fundamental = float(rows[0][1])
        assert all(float(r[1]) < fundamental for r in rows[1:])
        percent = [f for f in footers if f.startswith("# thd (percent) = ")]
        assert len(percent) == 1
        assert 0.5 < float(percent[0].rpartition("= ")[2]) < 5.0

    def test_thd_drive_rides_on_the_circuit_supply_however_it_is_set(self, capsys):
        # the sine replaces V1 and rides on V1's own DC value, so a supply
        # set by device path drives the same table as the config's vdd
        outs = []
        for setting in ("vdd=3.0", "V1.dc_value=3.0", "source.vdd=3.0"):
            code, out, _ = run_cli(["mirror", "2r", "--analysis", "thd",
                                    "--set", setting], capsys)
            assert code == EXIT_OK
            outs.append(out)
        assert outs[1] == outs[0] and outs[2] == outs[0]
        _, default, _ = run_cli(["mirror", "2r", "--analysis", "thd"], capsys)
        assert default != outs[0]

    def test_table1_emits_one_row_for_the_config(self, capsys):
        code, out, _ = run_cli(
            ["mirror", "2r", "--analysis", "table1"], capsys)
        assert code == EXIT_OK
        header, rows, footers = parse_csv(out)
        assert header[0] == "config (name)"
        assert len(rows) == 1
        record = dict(zip(header, rows[0]))
        assert record["config (name)"] == "2r"
        assert record["error (text)"] == ""
        assert 0.5 < float(record["thd (percent)"]) < 5.0
        assert float(record["area (um^2)"]) == pytest.approx(40.0972, rel=1e-3)
        assert len(footers) == 2  # measurement-caveat notes


# --------------------------------------------------------------------------- #
# Output plumbing
# --------------------------------------------------------------------------- #

class TestOutputPlumbing:
    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        argv = ["mirror", "2r", "--analysis", "mismatch"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["-o", str(first)]) == EXIT_OK
        assert main(argv + ["-o", str(second)]) == EXIT_OK
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_file_output_matches_stdout(self, tmp_path, capsys):
        target = tmp_path / "op.csv"
        assert main(["mirror", "2r", "--analysis", "dc",
                     "-o", str(target)]) == EXIT_OK
        _, out, _ = run_cli(["mirror", "2r", "--analysis", "dc"], capsys)
        assert target.read_text(encoding="utf-8") == out

    def test_line_endings_are_lf_only(self, tmp_path, capsys):
        target = tmp_path / "op.csv"
        assert main(["mirror", "2m", "--analysis", "dc",
                     "-o", str(target)]) == EXIT_OK
        capsys.readouterr()
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_numeric_cells_are_canonical(self, capsys):
        """Every numeric cell is already in shortest-%.9g form."""
        _, out, _ = run_cli(["mirror", "2m", "--analysis", "dc"], capsys)
        _, rows, _ = parse_csv(out)
        for cell in rows[0]:
            assert cell == format_number(float(cell))

    @pytest.mark.parametrize("value, resolution, cell", [
        (5.89379778e-05, 5.9e-16, "5.89379778e-05"),  # at most 9 digits
        (5.21037632e-07, 5.9e-16, "5.21037632e-07"),
        (7.66764661e-08, 5.9e-16, "7.6676466e-08"),
        (3.80713871e-14, 5.9e-16, "3.8e-14"),
        (1.00689993e-14, 5.9e-16, "1e-14"),
        (-2.62937457e-15, 5.9e-16, "-3e-15"),
        (6.85158887e-16, 5.9e-16, "7e-16"),  # one digit at least
        (2.12916649e-16, 5.9e-16, "0"),
        (1.36e-20, 1.6e-15, "0"),
        (0.0, 1e-15, "0"),
    ])
    def test_resolved_cells_print_the_digits_at_or_above_the_resolution(
            self, value, resolution, cell):
        assert format_resolved(value, resolution) == cell

    def test_a_missing_value_prints_an_empty_cell(self):
        # as table1 prints the THD of a configuration that failed (None)
        out = io.StringIO()
        write_csv(out, ["config (name)", "thd (percent)", "error (text)"],
                  [["2r", None, "R1: r_nominal must be positive"]])
        assert out.getvalue() == ("config (name),thd (percent),error (text)\n"
                                  "2r,,R1: r_nominal must be positive\n")

    @pytest.mark.parametrize("config", ["2r", "pmos-r"])
    def test_sweep_output_equals_single_solves(self, config, capsys):
        # the temp-sweep rows are one batched solve; the table must be the
        # one a solve per temperature prints
        _, out, _ = run_cli(["mirror", config, "--analysis", "temp-sweep"], capsys)
        circuit = mirror_circuit(MirrorConfig(kind=MirrorKind(config)))
        rows = []
        for celsius in range(0, 101, 10):
            temp = ZERO_CELSIUS + celsius
            op = solve_dc(replace(circuit, temp=temp))
            rows.append([temp, temp - ZERO_CELSIUS, op.device_currents["M1"],
                         op.device_currents["M2"]])
        expected = io.StringIO()
        write_csv(expected, ["temperature (K)", "temperature (C)", "i_in (A)",
                             "i_out (A)"], rows)
        assert out == expected.getvalue()

    def test_verbose_reports_to_stderr_only(self, capsys):
        code, out, err = run_cli(
            ["mirror", "2r", "--analysis", "dc", "-v"], capsys)
        assert code == EXIT_OK
        assert "finished in" in err
        assert "finished in" not in out

    def test_diagnostics_carry_no_ansi_without_tty(self, capsys, monkeypatch):
        monkeypatch.setenv("MIRRORSIM_NO_COLOR", "1")
        _, _, err = run_cli(["mirror", "2r", "--set", "bogus=1"], capsys)
        assert err.startswith("error:")
        assert "\x1b[" not in err


# --------------------------------------------------------------------------- #
# Recorded output
# --------------------------------------------------------------------------- #

DATA = Path(__file__).with_name("data")
GOLDEN = DATA / "golden"

# stdout of each command, recorded before DC solves were batched (the thd
# files and hysteresis_2r again when harmonic amplitudes and loop areas
# began to print only their resolved digits and memoryless drives to solve
# one period, tran_2m and tran_pmos-m before the memristive steps read the compiled DC
# row, the calibrate files while calibration settled on a fixed 1 ms grid;
# table1, hysteresis_2m, temp-sweep_2m, param-sweep_2m, emit-netlist and run
# before the CLI dispatched through one analysis table, the mismatch files
# again when they gained the r_o-aware prediction, hysteresis_2m,
# temp-sweep_2m and param-sweep_2m again when the error-controlled steps
# became variable-order BDF); a file is named after its command's analysis
# and configuration, or its subcommand and flags
GOLDEN_COMMANDS = {
    "dc_2r": ["mirror", "2r", "--analysis", "dc"],
    "dc_2m": ["mirror", "2m", "--analysis", "dc"],
    "dc_pmos-r": ["mirror", "pmos-r", "--analysis", "dc"],
    "dc_pmos-m": ["mirror", "pmos-m", "--analysis", "dc"],
    "temp-sweep_2r": ["mirror", "2r", "--analysis", "temp-sweep"],
    "temp-sweep_pmos-r": ["mirror", "pmos-r", "--analysis", "temp-sweep"],
    "mismatch_2r": ["mirror", "2r", "--analysis", "mismatch"],
    "mismatch_2m": ["mirror", "2m", "--analysis", "mismatch"],
    "mismatch_pmos-r": ["mirror", "pmos-r", "--analysis", "mismatch"],
    "param-sweep_2r": ["mirror", "2r", "--analysis", "param-sweep",
                       "--param", "T2.width",
                       "--values", "0.2u,0.25u,0.27u,0.3u,0.35u,0.4u"],
    "param-sweep_pmos-r": ["mirror", "pmos-r", "--analysis", "param-sweep",
                           "--param", "vbias", "--values", "0.5,0.6,0.7,0.8,0.9"],
    "thd_2r": ["mirror", "2r", "--analysis", "thd"],
    "thd_pmos-r": ["mirror", "pmos-r", "--analysis", "thd"],
    "thd_2m": ["mirror", "2m", "--analysis", "thd"],
    "tran_2m": ["mirror", "2m", "--analysis", "tran", "--set", "dt=5m"],
    "tran_pmos-m": ["mirror", "pmos-m", "--analysis", "tran", "--set", "dt=5m"],
    "table1_2r": ["mirror", "2r", "--analysis", "table1"],
    "table1_2m": ["mirror", "2m", "--analysis", "table1"],
    "hysteresis_2r": ["mirror", "2r", "--analysis", "hysteresis"],
    "hysteresis_2m": ["mirror", "2m", "--analysis", "hysteresis"],
    "temp-sweep_2m": ["mirror", "2m", "--analysis", "temp-sweep"],
    "param-sweep_2m": ["mirror", "2m", "--analysis", "param-sweep",
                       "--param", "Y2.m0", "--values", "4k,6k"],
    "emit-netlist_2m": ["mirror", "2m", "--emit-netlist"],
    "emit-netlist_pmos-r": ["mirror", "pmos-r", "--emit-netlist"],
    "run_dc": ["run", str(DATA / "mirror_2r_dc.cir")],
    "run_tran": ["run", str(DATA / "mirror_2r_sine.cir")],
    "calibrate": ["calibrate"],
    "calibrate_target-1.0": ["calibrate", "--target", "1.0"],
    "calibrate_vdd-3.0": ["calibrate", "--vdd", "3.0"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_stdout_matches_the_recording(name, capsys):
    code, out, _ = run_cli(GOLDEN_COMMANDS[name], capsys)
    assert code == EXIT_OK
    assert out.encode("utf-8") == (GOLDEN / f"{name}.csv").read_bytes()


def test_every_cli_branch_is_recorded():
    commands = GOLDEN_COMMANDS.values()
    recorded = {argv[argv.index("--analysis") + 1] for argv in commands
                if "--analysis" in argv}
    assert recorded == set(cli.ANALYSES)
    assert any("--emit-netlist" in argv for argv in commands)
    decks = [parse(Path(argv[1]).read_text(encoding="utf-8"))
             for argv in commands if argv[0] == "run"]
    assert {elaborate(deck).analysis[0] for deck in decks} == {"dc", "tran"}


def test_readme_lists_the_keys_each_command_reads():
    """The README's --set table is the dispatch table's, kind by kind."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    kinds = {"": set(MirrorKind),
             "¹": {MirrorKind.PMOS_RESISTOR, MirrorKind.PMOS_MEMRISTOR},
             "²": {MirrorKind.TWO_RESISTORS, MirrorKind.PMOS_RESISTOR},
             "³": {MirrorKind.TWO_MEMRISTORS, MirrorKind.PMOS_MEMRISTOR}}
    targets = {f"`{name}`": (name, list(MirrorKind)) for name in cli.ANALYSES}
    targets["`--emit-netlist`"] = (None, list(MirrorKind))
    targets["`run` of a DC deck"] = ("dc", [None])
    targets["`run` of a `.tran` deck"] = ("tran", [None])
    rows = dict(re.findall(r"^\| (.+?) \| (`vdd`.*|`r_load`.*) \|$", readme,
                           re.MULTILINE))
    assert set(rows) == set(targets)
    for target, (analysis, kind_list) in targets.items():
        cells = [re.fullmatch(r"`?([^`]+)`?([¹²³]?)", cell).groups()
                 for cell in rows[target].split(", ")]
        for kind in kind_list:
            listed = {key for key, mark in cells if kind is None or kind in kinds[mark]}
            assert listed == cli._reads(analysis, kind), (target, kind)


def run_module(*argv, flags=()):
    """``python *flags -m mirrorsim *argv`` in a fresh interpreter that
    finds the package in this checkout's ``src``."""
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-m", "mirrorsim", *argv],
                          capture_output=True, env={**os.environ, "PYTHONPATH": path})


def test_python_m_runs_the_cli():
    done = run_module("mirror", "2m", "--emit-netlist")
    assert done.returncode == EXIT_OK
    assert done.stdout == (GOLDEN / "emit-netlist_2m.csv").read_bytes()


def test_a_sine_that_overflows_within_the_run_is_refused_under_w_error(tmp_path):
    # 2*pi*f*t overflowed at t = 1e9 s: numpy warned and the run exited 2
    # with "source stepping stalled", and under -W error in a traceback
    path = netlist_file(tmp_path, "V1 a 0 SIN(0 1 1e300)\nR1 a 0 1\n.tran 1e9 1e10\n")
    done = run_module("run", path, flags=("-W", "error"))
    assert done.returncode == EXIT_PARSE and done.stdout == b""
    assert done.stderr == (b"error: source V1: sine phase 2*pi*frequency*t overflows "
                           b"by t=1e+10 s\n")


def test_python_m_exits_with_the_cli_code():
    done = run_module("mirror", "2r", "--frobnicate")
    assert done.returncode == EXIT_PARSE
    assert b"unrecognized arguments: --frobnicate" in done.stderr
