"""Analysis-layer tests: distortion measurement against analytic signals,
settling/switching semantics, sweep invariants, hysteresis loop geometry,
and the cross-configuration report."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorsim import analysis, engine
from mirrorsim.analysis import (
    AnalysisError,
    AnalysisReport,
    ConfigReport,
    HysteresisTrace,
    MismatchTable,
    NotSettledError,
    SettledResult,
    calibrate_mobility,
    compute_thd,
    config_report,
    distortion_trace,
    hysteresis_trace,
    mismatch_sweep,
    parameter_sweep,
    power_and_area,
    settled_transient,
    switching_time,
    table1_report,
    temperature_sweep,
)
from mirrorsim.constants import T_REF, ZERO_CELSIUS
from mirrorsim.devices import (
    MEMRISTOR_DEFAULTS,
    DeviceError,
    MemristorParams,
    ResistorParams,
    SourceSpec,
    mosfet_linearized,
)
from mirrorsim.engine import (
    SimOptions,
    SimulationError,
    Waveform,
    run_transient,
    solve_dc,
    solve_dc_batch,
)
from mirrorsim.netlist import (
    Circuit,
    ElaborationError,
    MirrorConfig,
    MirrorKind,
    mirror_circuit,
    overrides,
    with_override,
)

import oracles


def sine_wave(f0=1.0, samples_per_period=200, periods=10, amplitudes=(1.0,),
              phases=None, offset=0.0):
    """Uniformly sampled sum of harmonics of ``f0`` (amplitudes[k] at (k+1)*f0)."""
    dt = 1.0 / (f0 * samples_per_period)
    t = np.arange(0, periods * samples_per_period + 1) * dt
    phases = phases or [0.0] * len(amplitudes)
    x = np.full_like(t, offset)
    for order, (a, ph) in enumerate(zip(amplitudes, phases), start=1):
        x = x + a * np.sin(2 * math.pi * order * f0 * t + ph)
    return Waveform("x", "V", t, x)


def assert_same_op(batched, single):
    """Two operating points equal field by field, node voltages to the bit."""
    assert batched.node_voltages.tobytes() == single.node_voltages.tobytes()
    assert batched.source_currents == single.source_currents
    assert batched.device_currents == single.device_currents
    assert batched.kcl_residual == single.kcl_residual
    assert batched.newton_iterations == single.newton_iterations


def square_wave(f0=1.0, samples_per_period=2000, periods=10, phase=0.0):
    dt = 1.0 / (f0 * samples_per_period)
    t = np.arange(0, periods * samples_per_period + 1) * dt
    return Waveform("x", "V", t, np.sign(np.sin(2 * math.pi * f0 * t + phase)))


# --------------------------------------------------------------------------- #
# Harmonic distortion
# --------------------------------------------------------------------------- #

class TestComputeThd:
    def test_pure_sine_has_negligible_distortion(self):
        result = compute_thd(sine_wave(amplitudes=(2.0,), offset=5.0), 1.0, 49)
        assert result.thd < 1e-6
        assert result.fundamental == pytest.approx(2.0, rel=1e-9)

    def test_single_harmonic_ratio_recovered_exactly(self):
        wave = sine_wave(amplitudes=(1.0, 0.1), phases=(0.0, 0.7))
        result = compute_thd(wave, 1.0, 49)
        assert abs(result.thd - 0.1) <= 1e-12

    def test_stored_thd_matches_recomputation(self):
        wave = sine_wave(amplitudes=(1.0, 0.1, 0.02), phases=(0.2, 0.7, 1.3))
        result = compute_thd(wave, 1.0, 20)
        recomputed = math.sqrt(float(np.dot(result.harmonics, result.harmonics)))
        assert abs(result.thd - recomputed / result.fundamental) <= 1e-12
        assert result.n_harmonics == 20
        assert result.thd_percent == pytest.approx(100.0 * result.thd)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3,
                           allow_nan=False, allow_infinity=False))
    @settings(max_examples=20, deadline=None)
    def test_distortion_is_amplitude_scale_invariant(self, scale):
        wave = sine_wave(amplitudes=(1.0, 0.08, 0.03), phases=(0.1, 0.9, 2.0))
        scaled = Waveform(wave.name, wave.unit, wave.t, scale * wave.values)
        base = compute_thd(wave, 1.0, 16).thd
        assert compute_thd(scaled, 1.0, 16).thd == pytest.approx(base, rel=1e-9)

    def test_square_wave_matches_truncated_series(self):
        # amplitudes 4/(n*pi) at odd n; truncation at the same order as the
        # measurement makes the analytic sum directly comparable
        measured = compute_thd(square_wave(), 1.0, 49).thd
        assert measured == pytest.approx(oracles.o_square_wave_thd(49), rel=1e-4)

    def test_square_wave_thd_is_phase_agnostic(self):
        # windows need not start on a period boundary or a zero crossing
        measured = compute_thd(square_wave(phase=0.37), 1.0, 49).thd
        assert measured == pytest.approx(oracles.o_square_wave_thd(49), rel=1e-3)

    def test_square_wave_thd_grows_toward_series_limit(self):
        wave = square_wave()
        thd_49 = compute_thd(wave, 1.0, 49).thd
        thd_199 = compute_thd(wave, 1.0, 199).thd
        limit = math.sqrt(math.pi ** 2 / 8.0 - 1.0)  # all odd harmonics summed
        assert thd_49 < thd_199 < limit

    def test_settle_discard_can_be_overridden(self):
        wave = sine_wave(periods=4)
        # default discard (20% or two periods) leaves only two periods here;
        # an explicit zero-length settle keeps all four
        assert compute_thd(wave, 1.0, 9, settle=0.0).thd < 1e-6

    def test_rejects_waveform_with_too_few_periods(self):
        with pytest.raises(AnalysisError, match="too short"):
            compute_thd(sine_wave(periods=3), 1.0, 9)  # discard eats 2 periods

    def test_rejects_unresolvable_fundamental(self):
        with pytest.raises(AnalysisError, match="not resolvable"):
            compute_thd(sine_wave(samples_per_period=10, periods=40), 1.0, 3)

    def test_rejects_harmonics_beyond_nyquist(self):
        with pytest.raises(AnalysisError, match="Nyquist"):
            compute_thd(sine_wave(samples_per_period=200), 1.0, 150)

    def test_rejects_bad_fundamental_and_order(self):
        wave = sine_wave()
        with pytest.raises(AnalysisError, match="positive"):
            compute_thd(wave, 0.0, 9)
        with pytest.raises(AnalysisError, match="n_harmonics"):
            compute_thd(wave, 1.0, 1)


# --------------------------------------------------------------------------- #
# Switching time
# --------------------------------------------------------------------------- #

class TestSwitchingTime:
    def test_constant_waveform_switches_immediately(self):
        t = np.linspace(0.0, 10.0, 1001)
        wave = Waveform("x", "A", t, np.full_like(t, 2.0))
        assert switching_time(wave) == 0.0

    def test_exponential_decay_matches_analytic_crossing(self):
        t = np.linspace(0.0, 10.0, 1001)
        wave = Waveform("x", "A", t, 5.0 + 3.0 * np.exp(-t))
        # 3*exp(-t) falls below 1% of the final value 5 at t = ln(3/0.05)
        analytic = math.log(3.0 / 0.05)
        assert switching_time(wave) == pytest.approx(analytic, abs=0.011)

    def test_ramp_never_settles(self):
        t = np.linspace(0.0, 10.0, 1001)
        with pytest.raises(NotSettledError, match="10%"):
            switching_time(Waveform("x", "A", t, t.copy()))

    @given(extra=st.integers(min_value=1, max_value=400))
    @settings(max_examples=25, deadline=None)
    def test_appending_settled_samples_preserves_switching_time(self, extra):
        dt = 0.01
        ramp = np.linspace(0.0, 1.0, 101)
        tail = np.full(900, 1.0)
        base = np.concatenate([ramp, tail])
        t = np.arange(base.size + extra) * dt
        grown = np.concatenate([base, np.full(extra, 1.0)])
        before = switching_time(Waveform("x", "A", t[:base.size], base))
        after = switching_time(Waveform("x", "A", t, grown))
        assert after == before


# --------------------------------------------------------------------------- #
# Settled transients
# --------------------------------------------------------------------------- #

def fixed_grid_settle(circuit, dt, *, temp=None, chunk=3.0, max_time=24.0):
    """Reference settled transient on fixed backward-Euler steps of ``dt``:
    ``chunk``-second runs, each continuing from the last one's final states,
    until :func:`switching_time` accepts the output current accumulated so
    far; then a DC solve at those states."""
    t_parts, x_parts, states, offset = [], [], None, 0.0
    while offset < max_time:
        res = run_transient(circuit, SimOptions(dt=dt, t_stop=chunk, temp=temp),
                            ["i(M2)"], initial_states=states)
        wave = res.waveform("i(M2)")
        # sample 0 of a continuation repeats the previous final sample
        t_parts.append(wave.t[1:] + offset if t_parts else wave.t)
        x_parts.append(wave.values[1:] if x_parts else wave.values)
        states, offset = dict(res.final_states), offset + chunk
        try:
            settle = switching_time(Waveform(
                "i(M2)", "A", np.concatenate(t_parts), np.concatenate(x_parts)))
        except NotSettledError:
            continue
        op = solve_dc(circuit, SimOptions(temp=temp), states=states)
        return SettledResult(op, states, settle)
    raise NotSettledError(f"i(M2) did not settle within {max_time} s")


class TestSettledTransient:
    def test_resistive_mirror_is_settled_at_dc(self):
        circuit = mirror_circuit(MirrorConfig(MirrorKind.TWO_RESISTORS))
        settled = settled_transient(circuit)
        reference = solve_dc(circuit, SimOptions())
        assert settled.settle_time == 0.0
        assert settled.states == {}
        assert settled.op.device_currents["M2"] == reference.device_currents["M2"]

    def test_memristive_mirror_settles_to_the_resistive_current(self):
        circuit = mirror_circuit(MirrorConfig(MirrorKind.TWO_MEMRISTORS))
        settled = settled_transient(circuit)
        # the calibrated device completes its swing in about 1.4 s
        assert settled.settle_time == pytest.approx(1.4, abs=0.05)
        assert settled.op.device_currents["M2"] == pytest.approx(39.63e-6, rel=1e-3)
        # both loads end pinned near the high-resistance boundary (w -> 0)
        for w in settled.states.values():
            assert 0.0 <= w < 1e-3 * 10e-9

    @pytest.mark.parametrize("kind, vdd, chunk", [
        (MirrorKind.TWO_MEMRISTORS, 2.0, 3.0),
        (MirrorKind.TWO_MEMRISTORS, 2.5, 3.0),
        (MirrorKind.TWO_MEMRISTORS, 3.0, 3.0),
        (MirrorKind.PMOS_MEMRISTOR, None, 3.0),
        # shorter than the settle time: the steps restart at each chunk
        (MirrorKind.TWO_MEMRISTORS, 2.5, 1.0),
    ], ids=["2m-2.0V", "2m-2.5V", "2m-3.0V", "pmos-m", "2m-1s-chunks"])
    def test_controlled_steps_match_a_quarter_millisecond_grid(self, kind, vdd,
                                                               chunk):
        circuit = mirror_circuit(MirrorConfig(kind, vdd=vdd))
        fine = fixed_grid_settle(circuit, 2.5e-4, chunk=chunk)
        controlled = settled_transient(circuit, chunk=chunk)
        assert abs(controlled.settle_time - fine.settle_time) <= 1e-3 + 1e-12
        # read on the 1 ms lattice, as the fixed-step default was
        lattice_point = round(controlled.settle_time / 1e-3) * 1e-3
        assert controlled.settle_time == pytest.approx(lattice_point, abs=1e-12)
        assert controlled.op.device_currents["M2"] == pytest.approx(
            fine.op.device_currents["M2"], rel=1e-4)
        # the settled point is the DC solve at the final states
        assert_same_op(controlled.op, solve_dc(circuit, SimOptions(),
                                               states=controlled.states))

    @given(two_m=st.booleans(), u=st.floats(0.0, 1.0),
           m0=st.floats(3e3, 10e3), temp_c=st.floats(0.0, 100.0))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_controlled_steps_match_the_millisecond_grid(self, two_m, u, m0,
                                                         temp_c):
        # the benchmark's settle workload ranges and reference tolerances
        lo, hi = (2.0, 3.0) if two_m else (1.8, 2.4)
        kind = MirrorKind.TWO_MEMRISTORS if two_m else MirrorKind.PMOS_MEMRISTOR
        circuit = mirror_circuit(MirrorConfig(kind, vdd=lo + (hi - lo) * u, m0=m0))
        temp = temp_c + ZERO_CELSIUS
        fixed = fixed_grid_settle(circuit, 1e-3, temp=temp)
        controlled = settled_transient(circuit, temp=temp)
        assert controlled.settle_time == pytest.approx(fixed.settle_time, rel=1e-2)
        for name in ("M1", "M2"):
            assert controlled.op.device_currents[name] == pytest.approx(
                fixed.op.device_currents[name], rel=1e-3)


# --------------------------------------------------------------------------- #
# Mismatch sweep
# --------------------------------------------------------------------------- #

GRID = [19e3 * (1 + d) for d in (-0.2, -0.1, 0.0, 0.1, 0.2)]


class TestMismatchSweep:
    def test_matched_loads_give_zero_error(self):
        table = mismatch_sweep(MirrorConfig(MirrorKind.TWO_RESISTORS, r_load=19e3),
                               [19e3])
        assert abs(table.rows[0].simulated) < 1e-12
        assert table.rows[0].predicted == 0.0
        assert table.rows[0].error is None

    def test_k_factor_matches_its_definition(self):
        config = MirrorConfig(MirrorKind.TWO_RESISTORS, r_load=19e3)
        table = mismatch_sweep(config, [19e3])
        circuit = mirror_circuit(config)
        op = solve_dc(circuit, SimOptions())
        v_ds1 = float(op.node_voltages[circuit.node_index("d1")])
        assert table.k_factor == pytest.approx(
            1.0 / (1.0 - v_ds1 / config.vdd_value), rel=1e-12)
        assert table.k_factor > 1.0
        assert table.baseline_current == pytest.approx(op.device_currents["M1"],
                                                       rel=1e-12)

    def test_prediction_column_follows_the_closed_form(self):
        table = mismatch_sweep(MirrorConfig(MirrorKind.TWO_RESISTORS, r_load=19e3),
                               GRID)
        for row in table.rows:
            expected = table.k_factor * (19e3 / row.load2 - 1.0)
            assert row.predicted == pytest.approx(expected, rel=1e-12)

    def test_simulation_matches_the_exact_saturation_result(self):
        # solve 2r at 19 kOhm without the engine: the input branch fixes
        # V_DS1 = V_GS through (VDD - V)/R1 = I_D(V, V); a saturated M2 with
        # the same V_GS then gives I2/I1 = (1 + lam*V2)/(1 + lam*V_DS1), i.e.
        # delta = lam*I1*(R1 - R2) / (1 + lam*V_DS1 + lam*I1*R2)
        base = 19e3
        config = MirrorConfig(MirrorKind.TWO_RESISTORS, r_load=base)
        fet = mirror_circuit(config).device("M1").params
        vdd = config.vdd_value

        def i_d(vgs, vds):
            return oracles.o_mosfet_current(
                vgs, vds, vth0=fet.vth0, vth_tc=fet.vth_tc, k_prime=fet.k_prime,
                mobility_exp=fet.mobility_exp, lam=fet.lam, width=fet.width,
                length=fet.length)

        lo, hi = 0.0, vdd
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (vdd - mid) / base > i_d(mid, mid):
                lo = mid
            else:
                hi = mid
        v_ds1 = 0.5 * (lo + hi)
        i1 = (vdd - v_ds1) / base
        lam = fet.lam

        table = mismatch_sweep(config, GRID)
        for row in table.rows:
            exact = lam * i1 * (base - row.load2) / (
                1.0 + lam * v_ds1 + lam * i1 * row.load2)
            v_ds2 = vdd - i1 * (1.0 + exact) * row.load2
            assert v_ds2 > v_ds1 - fet.vth0  # M2 saturated
            assert row.simulated == pytest.approx(exact, rel=1e-6, abs=1e-15)

    def test_r_o_prediction_matches_its_definition(self):
        base = 19e3
        config = MirrorConfig(MirrorKind.TWO_RESISTORS, r_load=base)
        table = mismatch_sweep(config, GRID)
        circuit = mirror_circuit(config)
        op = solve_dc(circuit, SimOptions())
        v_d1 = float(op.node_voltages[circuit.node_index("d1")])
        v_d2 = float(op.node_voltages[circuit.node_index("d2")])
        _, _, g_ds2 = mosfet_linearized(v_d1, v_d2, circuit.device("M2").params,
                                        T_REF)
        assert table.k_factor_ro == pytest.approx(base / (base + 1.0 / g_ds2),
                                                  rel=1e-12)
        assert 0.0 < table.k_factor_ro < 0.1  # r_o well above the load
        for row in table.rows:
            expected = -table.k_factor_ro * (row.load2 - base) / base
            assert row.predicted_ro == pytest.approx(expected, rel=1e-12,
                                                     abs=1e-15)

        table_m = mismatch_sweep(MirrorConfig(MirrorKind.TWO_MEMRISTORS, m0=base),
                                 GRID)
        assert table_m.k_factor_ro == pytest.approx(table.k_factor_ro, rel=1e-9)
        for row_r, row_m in zip(table.rows, table_m.rows):
            assert row_m.predicted_ro == pytest.approx(row_r.predicted_ro,
                                                       rel=1e-9, abs=1e-15)

    def test_r_o_prediction_starts_from_an_unmatched_baseline(self):
        # a PMOS-loaded input branch does not match the output load, so the
        # prediction starts from the simulated baseline deviation d0
        base = 19e3
        table = mismatch_sweep(MirrorConfig(MirrorKind.PMOS_RESISTOR, r_load=base),
                               GRID)
        delta0 = next(r.simulated for r in table.rows if r.load2 == base)
        assert delta0 != 0.0
        for row in table.rows:
            expected = delta0 - (1.0 + delta0) * table.k_factor_ro * (
                row.load2 - base) / base
            assert row.predicted_ro == pytest.approx(expected, rel=1e-12)

    def test_pinned_memristive_loads_reproduce_the_resistive_table(self):
        # a memristor held at memristance R stamps exactly like a resistor R,
        # so the two load classes must agree row by row
        table_r = mismatch_sweep(MirrorConfig(MirrorKind.TWO_RESISTORS,
                                              r_load=19e3), GRID)
        table_m = mismatch_sweep(MirrorConfig(MirrorKind.TWO_MEMRISTORS,
                                              m0=19e3), GRID)
        assert table_m.k_factor == pytest.approx(table_r.k_factor, rel=1e-9)
        for row_r, row_m in zip(table_r.rows, table_m.rows):
            assert row_m.simulated == pytest.approx(row_r.simulated,
                                                    rel=1e-9, abs=1e-15)

    def test_out_of_range_memristance_flags_the_row_and_continues(self):
        table = mismatch_sweep(MirrorConfig(MirrorKind.TWO_MEMRISTORS, m0=19e3),
                               [19e3, 50e3, 20e3])  # 50 kOhm exceeds r_off
        assert table.rows[1].error is not None
        assert math.isnan(table.rows[1].simulated)
        assert table.rows[0].error is None and table.rows[2].error is None
        assert [row.load2 for row in table.rows] == [19e3, 50e3, 20e3]

    @pytest.mark.parametrize("config, path", [
        (MirrorConfig(MirrorKind.TWO_RESISTORS, r_load=19e3), "R2.r_nominal"),
        (MirrorConfig(MirrorKind.PMOS_RESISTOR, r_load=19e3), "R2.r_nominal"),
        (MirrorConfig(MirrorKind.TWO_MEMRISTORS, m0=19e3), "Y2.m0"),
    ], ids=["2r", "pmos-r", "2m"])
    def test_batched_rows_equal_single_solves(self, config, path):
        # the baseline and the rows are one batched solve; each row must be
        # the solve of its own circuit alone, Newton iteration count included
        circuit = mirror_circuit(config)
        opts = SimOptions(temp=T_REF)
        table = mismatch_sweep(config, GRID)
        variants = [with_override(circuit, path, value) for value in GRID]
        singles = [solve_dc(variant, opts) for variant in variants]
        for batched, single in zip(solve_dc_batch(variants, opts), singles):
            assert_same_op(batched, single)
        for row, single in zip(table.rows, singles):
            i1, i2 = single.device_currents["M1"], single.device_currents["M2"]
            assert row.simulated == (i2 - i1) / i1
        assert table.baseline_current == singles[2].device_currents["M1"]

    def test_rejects_empty_and_nonpositive_loads(self):
        config = MirrorConfig(MirrorKind.TWO_RESISTORS)
        with pytest.raises(AnalysisError, match="at least one"):
            mismatch_sweep(config, [])
        with pytest.raises(AnalysisError, match="positive"):
            mismatch_sweep(config, [38e3, -1.0])


# --------------------------------------------------------------------------- #
# Temperature sweep
# --------------------------------------------------------------------------- #

class TestTemperatureSweep:
    def test_resistive_mirror_current_falls_with_temperature(self):
        temps = [ZERO_CELSIUS, ZERO_CELSIUS + 50.0, ZERO_CELSIUS + 100.0]
        rows = temperature_sweep(MirrorConfig(MirrorKind.TWO_RESISTORS), temps)
        outs = [row.i_out for row in rows]
        assert all(b < a for a, b in zip(outs, outs[1:]))
        for row in rows:
            assert row.i_out == pytest.approx(row.i_in, rel=1e-3)

    def test_memristive_loads_flatten_the_temperature_dependence(self):
        temps = [ZERO_CELSIUS, ZERO_CELSIUS + 100.0]
        rows_r = temperature_sweep(MirrorConfig(MirrorKind.TWO_RESISTORS), temps)
        rows_m = temperature_sweep(MirrorConfig(MirrorKind.TWO_MEMRISTORS), temps)

        def spread(rows):
            outs = [row.i_out for row in rows]
            return (max(outs) - min(outs)) / outs[0]

        # the settled memristance has no temperature coefficient, so only the
        # transistor laws move; the resistive loads add their tempco on top
        assert spread(rows_m) < spread(rows_r)
        assert all(row.i_out == pytest.approx(row.i_in, rel=1e-3)
                   for row in rows_m)

    @pytest.mark.parametrize("kind", [MirrorKind.TWO_RESISTORS,
                                      MirrorKind.PMOS_RESISTOR], ids=["2r", "pmos-r"])
    def test_batched_rows_equal_single_solves(self, kind):
        temps = [ZERO_CELSIUS + c for c in range(0, 101, 10)]
        circuit = mirror_circuit(MirrorConfig(kind))
        singles = [solve_dc(circuit, SimOptions(temp=T)) for T in temps]
        batched = solve_dc_batch([circuit] * len(temps), temps=temps)
        for op, single in zip(batched, singles):
            assert_same_op(op, single)
        rows = temperature_sweep(MirrorConfig(kind), temps)
        for row, T, single in zip(rows, temps, singles):
            assert (row.temp, row.i_in, row.i_out) == (
                T, single.device_currents["M1"], single.device_currents["M2"])

    def test_memristive_rows_equal_lone_settled_transients(self):
        temps = [ZERO_CELSIUS + 10.0, ZERO_CELSIUS + 80.0]
        circuit = mirror_circuit(MirrorConfig(MirrorKind.TWO_MEMRISTORS))
        rows = temperature_sweep(MirrorConfig(MirrorKind.TWO_MEMRISTORS), temps)
        for row, T in zip(rows, temps):
            alone = settled_transient(circuit, temp=T).op
            assert (row.temp, row.i_in, row.i_out) == (
                T, alone.device_currents["M1"], alone.device_currents["M2"])

    def test_rejects_empty_and_nonpositive_temperatures(self):
        config = MirrorConfig(MirrorKind.TWO_RESISTORS)
        with pytest.raises(AnalysisError, match="at least one"):
            temperature_sweep(config, [])
        with pytest.raises(AnalysisError, match="kelvin"):
            temperature_sweep(config, [300.0, -10.0])


# --------------------------------------------------------------------------- #
# Parameter sweep
# --------------------------------------------------------------------------- #

class TestParameterSweep:
    def test_output_current_rises_with_output_device_width(self):
        rows = parameter_sweep(MirrorConfig(MirrorKind.TWO_RESISTORS), "T2.width",
                               [0.27e-6, 0.4e-6, 0.6e-6, 1.0e-6, 2.0e-6])
        outs = [row.i_out for row in rows]
        assert all(b > a for a, b in zip(outs, outs[1:]))

    def test_output_current_falls_with_output_threshold(self):
        rows = parameter_sweep(MirrorConfig(MirrorKind.TWO_RESISTORS), "T2.vth0",
                               [0.30, 0.38, 0.45, 0.52, 0.60])
        outs = [row.i_out for row in rows]
        assert all(b < a for a, b in zip(outs, outs[1:]))
        # at the nominal threshold the mirror is symmetric: V_out = V_D1
        nominal = rows[2]
        assert nominal.v_out == pytest.approx(0.994141, abs=5e-6)

    @pytest.mark.parametrize("kind, path, values", [
        (MirrorKind.TWO_RESISTORS, "T2.width", [0.2e-6, 0.27e-6, 0.4e-6]),
        (MirrorKind.TWO_RESISTORS, "vdd", [2.0, 2.5, 3.0]),
        (MirrorKind.PMOS_RESISTOR, "vbias", [0.5, 0.7, 0.9]),
        (MirrorKind.PMOS_RESISTOR, "R2.r_nominal", [20e3, 38e3, 60e3]),
    ], ids=["2r-width", "2r-vdd", "pmos-r-vbias", "pmos-r-load"])
    def test_batched_rows_equal_single_solves(self, kind, path, values):
        circuit = mirror_circuit(MirrorConfig(kind))
        out_node = circuit.node_index("d2")
        variants = [with_override(circuit, path, value) for value in values]
        singles = [solve_dc(variant) for variant in variants]
        for op, single in zip(solve_dc_batch(variants), singles):
            assert_same_op(op, single)
        rows = parameter_sweep(MirrorConfig(kind), path, values)
        for row, value, single in zip(rows, values, singles):
            assert (row.value, row.i_out, row.v_out) == (
                value, single.device_currents["M2"],
                float(single.node_voltages[out_node]))

    def test_memristive_rows_equal_lone_settled_transients(self):
        config, values, temp = MirrorConfig(MirrorKind.TWO_MEMRISTORS), [4e3, 6e3], 320.0
        circuit = mirror_circuit(config)
        out_node = circuit.node_index("d2")
        rows = parameter_sweep(config, "Y2.m0", values, temp=temp)
        for row, value in zip(rows, values):
            alone = settled_transient(with_override(circuit, "Y2.m0", value),
                                      temp=temp).op
            assert (row.value, row.i_out, row.v_out) == (
                value, alone.device_currents["M2"],
                float(alone.node_voltages[out_node]))

    def test_unknown_path_fails_before_simulating(self):
        with pytest.raises(ElaborationError, match="no parameter"):
            parameter_sweep(MirrorConfig(MirrorKind.TWO_RESISTORS), "T2.bogus",
                            [1.0, 2.0])

    def test_rejects_empty_values(self):
        with pytest.raises(AnalysisError, match="at least one"):
            parameter_sweep(MirrorConfig(MirrorKind.TWO_RESISTORS), "T2.width", [])



# Sweepable paths of a resistor, a MOSFET and a source, each with a range
# that holds invalid values: a nonpositive resistance, width, length or k', a
# negative lam, and tempcos that drive a resistance nonpositive away from
# T_REF (a row error raised while compiling, not by the override).
SWEEP_PATHS = [
    ("R2.r_nominal", -10e3, 100e3), ("R2.temp_coeff", -0.05, 0.05),
    ("T2.width", -0.1e-6, 2e-6), ("T2.length", -0.1e-6, 1e-6),
    ("T2.vth0", -0.5, 2.5), ("T2.k_prime", -50e-6, 500e-6),
    ("T2.lam", -0.1, 0.3), ("T2.vth_tc", -5e-3, 5e-3),
    ("T2.mobility_exp", -3.0, 1.0), ("vdd", -1.0, 5.0),
]


@st.composite
def sweep_cases(draw):
    """A memristor-free mirror with values for every path it has, values of
    Y2.m0 on 2m (positive, as mismatch_sweep needs), and a temperature."""
    kind = draw(st.sampled_from([MirrorKind.TWO_RESISTORS, MirrorKind.PMOS_RESISTOR]))
    paths = SWEEP_PATHS + ([("vbias", -0.5, 2.5)]
                           if kind is MirrorKind.PMOS_RESISTOR else [])
    sweeps = [(path, draw(st.lists(st.floats(lo, hi), min_size=1, max_size=4)))
              for path, lo, hi in paths]
    m0 = draw(st.lists(st.floats(1.0, 60e3), min_size=1, max_size=4))
    return kind, sweeps, m0, draw(st.floats(250.0, 420.0))


def lone_outcome(circuit, path, value, opts):
    """What overriding one value and solving it alone gives: the operating
    point, or the error the override or the solve raises."""
    try:
        return solve_dc(with_override(circuit, path, value), opts)
    except (ElaborationError, SimulationError, DeviceError) as exc:
        return exc


def assert_rows_equal_lone_solves(kind, path, values, temp):
    """Each row of a compiled-once sweep is the lone solve of its own
    overridden circuit, field for field, or carries the same error."""
    circuit = mirror_circuit(MirrorConfig(kind))
    opts = SimOptions(temp=temp)
    position, records = overrides(circuit, path, values)
    compiled = engine._compile(circuit, opts, [None] * len(values),
                               records={position: records}).solve()
    alone = [lone_outcome(circuit, path, value, opts) for value in values]
    for k, single in enumerate(alone):
        if isinstance(single, Exception):
            assert type(compiled.errors[k]) is type(single)
            assert str(compiled.errors[k]) == str(single)
        else:
            assert k not in compiled.errors
            assert_same_op(compiled.operating_point(k), single)
    return alone


class TestSweepColumns:
    """Sweeps compile their circuit once and write each value into the one
    column it changes; every row must still be the lone solve of its own
    overridden circuit."""

    @given(case=sweep_cases())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_rows_equal_lone_overridden_solves(self, case):
        kind, sweeps, m0_values, temp = case
        out_node = mirror_circuit(MirrorConfig(kind)).node_index("d2")
        for path, values in sweeps:
            alone = assert_rows_equal_lone_solves(kind, path, values, temp)
            # parameter_sweep raises the first invalid value's error before
            # solving, else the first failing row's
            invalid = [e for e in alone if isinstance(e, ElaborationError)]
            failed = invalid or [e for e in alone if isinstance(e, Exception)]
            if failed:
                with pytest.raises(type(failed[0])) as info:
                    parameter_sweep(MirrorConfig(kind), path, values, temp=temp)
                assert str(info.value) == str(failed[0])
                continue
            rows = parameter_sweep(MirrorConfig(kind), path, values, temp=temp)
            for row, value, single in zip(rows, values, alone):
                assert (row.value, row.i_out, row.v_out) == (
                    value, single.device_currents["M2"],
                    float(single.node_voltages[out_node]))
        alone = assert_rows_equal_lone_solves(MirrorKind.TWO_MEMRISTORS, "Y2.m0",
                                              m0_values, temp)
        table = mismatch_sweep(MirrorConfig(MirrorKind.TWO_MEMRISTORS), m0_values,
                               temp=temp)
        for row, single in zip(table.rows, alone):
            if isinstance(single, Exception):
                assert row.error == str(single) and math.isnan(row.simulated)
            else:
                i1, i2 = single.device_currents["M1"], single.device_currents["M2"]
                assert row.error is None and row.simulated == (i2 - i1) / i1

    @pytest.mark.parametrize("sweep", [
        lambda: parameter_sweep(MirrorConfig(MirrorKind.TWO_RESISTORS), "T2.width",
                                [0.2e-6, 0.3e-6, 0.4e-6]),
        lambda: parameter_sweep(MirrorConfig(MirrorKind.PMOS_RESISTOR), "vbias",
                                [0.5, 0.7, 0.9]),
        lambda: mismatch_sweep(MirrorConfig(MirrorKind.TWO_RESISTORS), GRID),
        lambda: mismatch_sweep(MirrorConfig(MirrorKind.TWO_MEMRISTORS, m0=19e3),
                               GRID),
    ], ids=["param-2r", "param-pmos-r", "mismatch-2r", "mismatch-2m"])
    def test_compiles_once_without_copies(self, monkeypatch, sweep):
        counts = {"copy": 0, "topology": 0}
        copy, topology = Circuit.copy, engine._Topology.__init__

        def counting_copy(self):
            counts["copy"] += 1
            return copy(self)

        def counting_topology(self, circuit):
            counts["topology"] += 1
            topology(self, circuit)

        monkeypatch.setattr(Circuit, "copy", counting_copy)
        monkeypatch.setattr(engine._Topology, "__init__", counting_topology)
        sweep()
        assert counts == {"copy": 0, "topology": 1}


    def test_sweeps_read_the_solved_arrays(self, monkeypatch):
        # a sweep reads its rows from the solved arrays; only the mismatch
        # baseline is read back as an OperatingPoint
        built = []
        operating_point = engine.OperatingPoint

        def counting(*args, **kwargs):
            built.append(1)
            return operating_point(*args, **kwargs)

        monkeypatch.setattr(engine, "OperatingPoint", counting)
        config = MirrorConfig(MirrorKind.TWO_RESISTORS)
        rows = parameter_sweep(config, "T2.width", np.linspace(0.2e-6, 4e-6, 100))
        rows += temperature_sweep(config, np.linspace(250.0, 400.0, 100))
        assert len(rows) == 200 and not built
        table = mismatch_sweep(config, np.linspace(30e3, 46e3, 100))
        assert len(table.rows) == 100 and len(built) == 1


# --------------------------------------------------------------------------- #
# Hysteresis
# --------------------------------------------------------------------------- #

MEM = MemristorParams(polarity=-1)
DRIVE = SourceSpec(kind="sine", dc_value=0.0, amplitude=2.5, frequency=5.0)


def fixed_grid_hysteresis(params, drive, *, refine=10, samples_per_cycle=2000):
    """Reference trace, as :func:`fixed_grid_settle` is for settling:
    :func:`hysteresis_trace` rerun with every step a fixed backward-Euler
    step, on a grid ``refine`` times finer than ``samples_per_cycle``.  Its
    samples at the coarse grid's times are ``current[::refine]``; its loop
    area is the fine grid's."""
    fixed = lambda circuit, opts, probes, **kw: run_transient(
        circuit, replace(opts, adaptive=False), probes, **kw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "run_transient", fixed)
        return hysteresis_trace(params, drive,
                                samples_per_cycle=samples_per_cycle * refine)


class TestHysteresis:
    def test_loop_is_pinched_at_the_origin(self):
        trace = hysteresis_trace(MEM, DRIVE)
        near_zero = np.abs(trace.voltage) < 1e-6
        assert near_zero.any()
        assert np.max(np.abs(trace.current[near_zero])) < 1e-9

    def test_loop_area_shrinks_with_frequency(self):
        areas = {}
        for mult in (1, 2, 10):
            drive = SourceSpec(kind="sine", dc_value=0.0, amplitude=2.5,
                               frequency=5.0 * mult)
            areas[mult] = hysteresis_trace(MEM, drive).area
        assert areas[1] > areas[2] > areas[10] > 0.0
        assert 3e-5 < areas[1] < 7e-5  # A*V, for the calibrated device

    def test_loop_collapses_to_a_line_well_above_the_drift_band(self):
        drive = SourceSpec(kind="sine", dc_value=0.0, amplitude=2.5,
                           frequency=500.0)
        trace = hysteresis_trace(MEM, drive)
        v = trace.voltage[trace.cycle_start:]
        i = trace.current[trace.cycle_start:]
        design = np.vstack([v, np.ones_like(v)]).T
        coef, *_ = np.linalg.lstsq(design, i, rcond=None)
        residual = np.max(np.abs(i - design @ coef))
        assert residual < 0.01 * np.max(np.abs(i))

    def test_memristor_loop_takes_period_over_200_steps(self, monkeypatch):
        # three cycles at most 1/200 of a period each, against the 6000
        # samples it records
        steps = []
        real = engine._Steps.newton
        monkeypatch.setattr(engine._Steps, "newton",
                            lambda self, *args: steps.append(args) or real(self, *args))
        trace = hysteresis_trace(MEM, DRIVE)
        assert len(trace.t) == 6001
        assert 600 <= len(steps) <= 610

    def test_memoryless_device_encloses_no_area(self):
        trace = hysteresis_trace(ResistorParams(r_nominal=19050.0), DRIVE)
        assert trace.area <= 1e-18

    def test_trace_shape_and_cycle_slice(self):
        trace = hysteresis_trace(MEM, DRIVE, samples_per_cycle=500)
        assert len(trace.t) == 3 * 500 + 1
        assert trace.cycle_start == len(trace.t) - 501
        assert trace.area > 0.0

    # The six drives against fixed_grid_hysteresis, with the budgets that
    # fixed steps on the 2000-per-cycle grid reached (worst |current error| /
    # peak, loop-area error): the controlled steps may not be less accurate
    # pointwise at any drive, and every loop area stays within 1e-3.  That
    # area bound is tighter than the fixed grid's worst (2.2e-3 at 3 V,
    # 5 Hz) and looser than it at 50 Hz and above (under 5e-6), where the
    # period/200 steps' BDF2 truncation leaves about -3.3e-4: a T/400 cap
    # takes 1,202 steps for -8.6e-5.
    @pytest.mark.parametrize("params, amplitude, frequency, budget", [
        (MEM, 2.5, 5.0, 4.78e-4),              # area +8.27e-4
        (MEM, 2.5, 50.0, 2.71e-5),             # area +4.83e-6
        (MEM, 2.5, 500.0, 2.47e-6),            # area -4.78e-6
        (MEMRISTOR_DEFAULTS, 3.0, 5.0, 1.51e-3),    # area +2.21e-3
        (MEMRISTOR_DEFAULTS, 1.0, 5.0, 1.71e-4),    # area +1.70e-4
        (MEMRISTOR_DEFAULTS, 2.0, 500.0, 1.98e-6),  # area -4.83e-6
    ], ids=["pol-1-2.5V-5Hz", "pol-1-2.5V-50Hz", "pol-1-2.5V-500Hz",
            "3V-5Hz", "1V-5Hz", "2V-500Hz"])
    def test_loop_is_no_less_accurate_than_the_fixed_grid(self, params, amplitude,
                                                          frequency, budget):
        drive = SourceSpec(kind="sine", amplitude=amplitude, frequency=frequency)
        trace = hysteresis_trace(params, drive)
        fine = fixed_grid_hysteresis(params, drive)
        assert trace.t == pytest.approx(fine.t[::10], rel=1e-12, abs=1e-15)
        reference = fine.current[::10]
        peak = np.max(np.abs(reference))
        assert np.max(np.abs(trace.current - reference)) / peak <= budget
        assert abs(trace.area - fine.area) / fine.area <= 1e-3

    def test_rejects_bad_harness_inputs(self):
        with pytest.raises(AnalysisError, match="sine"):
            hysteresis_trace(MEM, SourceSpec(kind="dc", dc_value=1.0))
        with pytest.raises(AnalysisError, match="samples"):
            hysteresis_trace(MEM, DRIVE, samples_per_cycle=8)
        with pytest.raises(AnalysisError, match="parameters"):
            hysteresis_trace(object(), DRIVE)


# --------------------------------------------------------------------------- #
# Power, area, report
# --------------------------------------------------------------------------- #

class TestPowerAndArea:
    def test_power_decomposes_into_core_and_leakage(self):
        config = MirrorConfig(MirrorKind.TWO_RESISTORS)
        op = solve_dc(mirror_circuit(config), SimOptions())
        report = power_and_area(config, op)
        core = config.vdd_value * (report.i_in + report.i_out)
        assert report.power_w == pytest.approx(
            core + report.subthreshold_w + report.gate_w, rel=1e-12)
        assert report.power_mw == pytest.approx(1e3 * report.power_w)

    def test_cutoff_mirror_draws_only_leakage(self):
        config = MirrorConfig(MirrorKind.TWO_RESISTORS, vdd=0.2)  # below vth
        op = solve_dc(mirror_circuit(config), SimOptions())
        report = power_and_area(config, op)
        assert report.i_in == 0.0 and report.i_out == 0.0
        assert report.power_w == report.subthreshold_w + report.gate_w
        assert report.subthreshold_w > 0.0

    def test_areas_are_footprint_sums(self):
        fet = 0.27e-6 * 0.18e-6
        resistor = 2e-6 * 10e-6
        memristor = 45e-9 * 90e-9
        cases = {
            MirrorKind.TWO_RESISTORS: 2 * resistor + 2 * fet,
            MirrorKind.TWO_MEMRISTORS: 2 * memristor + 2 * fet,
            MirrorKind.PMOS_RESISTOR: resistor + 3 * fet,
            MirrorKind.PMOS_MEMRISTOR: memristor + 3 * fet,
        }
        for kind, expected in cases.items():
            config = MirrorConfig(kind)
            op = solve_dc(mirror_circuit(config), SimOptions())
            report = power_and_area(config, op)
            assert report.area_m2 == pytest.approx(expected, rel=1e-12)
            assert report.area_um2 == pytest.approx(expected * 1e12, rel=1e-12)


@pytest.fixture(scope="module")
def report():
    return table1_report()


class TestTable1Report:
    def test_all_configurations_reported_in_order(self, report):
        assert [row.kind for row in report.rows] == ["2r", "2m", "pmos-r", "pmos-m"]
        assert all(row.error is None for row in report.rows)
        assert len(report.notes) >= 1

    def test_distortion_is_moderate_for_every_configuration(self, report):
        for row in report.rows:
            assert 0.005 < row.thd < 0.05
            assert row.thd_percent == pytest.approx(100 * row.thd)

    def test_memristive_loads_never_add_distortion(self, report):
        by_kind = {row.kind: row for row in report.rows}
        assert by_kind["2m"].thd <= by_kind["2r"].thd * (1 + 1e-6)
        assert by_kind["pmos-m"].thd <= by_kind["pmos-r"].thd * (1 + 1e-6)

    def test_settled_memristive_power_matches_resistive_power(self, report):
        by_kind = {row.kind: row for row in report.rows}
        for mem, res in (("2m", "2r"), ("pmos-m", "pmos-r")):
            delta = abs(by_kind[mem].power_w - by_kind[res].power_w)
            assert delta < 0.01 * by_kind[res].power_w

    def test_memristive_loads_shrink_the_footprint(self, report):
        by_kind = {row.kind: row for row in report.rows}
        assert by_kind["2m"].area_m2 < 0.5 * by_kind["2r"].area_m2
        assert by_kind["pmos-m"].area_m2 < 0.5 * by_kind["pmos-r"].area_m2

    def test_single_config_row_matches_the_table(self, report):
        row = config_report(MirrorConfig(MirrorKind.TWO_RESISTORS))
        assert row == report.rows[0]
        trace = distortion_trace(MirrorConfig(MirrorKind.TWO_RESISTORS))
        assert trace.thd == row.thd
        assert trace.fundamental > 0.0

    def test_failed_configuration_is_flagged_not_raised(self):
        row = config_report(MirrorConfig(MirrorKind.TWO_RESISTORS, r_load=-5.0))
        assert row.error is not None
        assert math.isnan(row.power_w)
        assert row.thd is None


class TestCalibration:
    def test_rejects_bad_arguments(self):
        with pytest.raises(AnalysisError, match="target"):
            calibrate_mobility(target=0.0)

    def test_unreachable_target_is_reported(self):
        with pytest.raises(AnalysisError, match="outside the range"):
            calibrate_mobility(target=3e-4)
