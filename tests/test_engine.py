"""Engine tests: MNA stamps, DC solve against analytic and scalar oracles,
error paths, and backward-Euler transient behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorsim.devices import (
    MemristorState,
    joglekar_window,
    memristance,
    mosfet_current,
    mosfet_kprime,
    mosfet_vth,
    resistor_value,
    state_for_memristance,
)
from mirrorsim import engine
from mirrorsim.engine import (
    NonConvergenceError,
    SimOptions,
    SimulationError,
    SingularMatrixError,
    UnknownProbeError,
    assemble_system,
    run_transient,
    solve_dc,
    solve_dc_batch,
)
from mirrorsim.netlist import (
    BoundMemristor,
    BoundMosfet,
    BoundResistor,
    BoundSource,
    Circuit,
    ElaborationError,
    MirrorConfig,
    MirrorKind,
    ResistorParams,
    SourceSpec,
    elaborate,
    mirror_circuit,
    overrides,
    parse,
    with_override,
)

import oracles

GMIN = 1e-12


def _circuit(text: str) -> Circuit:
    return elaborate(parse(text))


# --------------------------------------------------------------------------- #
# assembly stamps
# --------------------------------------------------------------------------- #

def test_single_resistor_diagonal_includes_gmin():
    cir = _circuit("V1 1 0 DC 2.5\nR1 1 0 1k\n")
    g_mat, _ = assemble_system(cir, np.zeros(3))
    assert g_mat[1][1] == 1e-3 + GMIN


def test_memristor_stamps_identically_to_equal_resistor():
    res = _circuit("V1 a 0 DC 1\nR1 a 0 5k\n")
    mem = _circuit(
        "V1 a 0 DC 1\n"
        "Y1 a 0 MEM m0=5k\n"
        ".model MEM MEMRISTOR (ron=100 roff=38k l=10n uv=2e-14 p=1 pol=-1)\n"
    )
    g_res, rhs_res = assemble_system(res, np.zeros(3))
    g_mem, rhs_mem = assemble_system(mem, np.zeros(3))
    assert g_mem == pytest.approx(g_res, rel=1e-12)
    assert rhs_mem == pytest.approx(rhs_res)


def test_cutoff_mosfet_stamps_only_gmin_scale_terms():
    # all nodes at 0 V: vgs = 0 < vth, the device contributes nothing but gmin
    cir = _circuit(
        "V1 d 0 DC 1\nV2 g 0 DC 0\nM1 d g 0 0 NCH\n.model NCH NMOS (vth0=0.45)\n"
    )
    g_mat, rhs = assemble_system(cir, np.zeros(5))
    d = cir.node_index("d")
    g = cir.node_index("g")
    # drain node: node gmin + channel gmin only
    assert g_mat[d][d] == pytest.approx(2 * GMIN, rel=1e-12)
    assert g_mat[d][g] == 0.0
    assert rhs[d] == 0.0
    assert rhs[g] == 0.0


def test_assemble_checks_guess_dimension():
    cir = _circuit("V1 1 0 DC 2.5\nR1 1 0 1k\n")
    with pytest.raises(ValueError):
        assemble_system(cir, np.zeros(2))


def test_source_scale_ramps_the_rhs():
    cir = _circuit("V1 1 0 DC 2.5\nR1 1 0 1k\n")
    _, rhs_full = assemble_system(cir, np.zeros(3))
    _, rhs_half = assemble_system(cir, np.zeros(3), source_scale=0.5)
    assert rhs_half == pytest.approx(0.5 * rhs_full)


# --------------------------------------------------------------------------- #
# DC: linear circuits
# --------------------------------------------------------------------------- #

def test_divider_matches_analytic():
    cir = _circuit("V1 top 0 DC 2.5\nR1 top mid 1k\nR2 mid 0 1k\n")
    op = solve_dc(cir)
    v_mid = op.node_voltages[cir.node_index("mid")]
    assert abs(v_mid - 1.25) / 1.25 < 1e-9
    # SPICE sign: a delivering source reads negative branch current (the
    # tolerance leaves room for the ~2.5e-12 A the gmin diagonals draw)
    assert op.source_currents["V1"] == pytest.approx(-1.25e-3, rel=1e-8)
    assert op.kcl_residual < 1e-9


@settings(deadline=None, max_examples=60)
@given(
    rs=st.lists(st.floats(min_value=100.0, max_value=500.0), min_size=2, max_size=4),
    vdd=st.floats(min_value=0.5, max_value=5.0),
)
def test_series_ladder_matches_voltage_divider_formula(rs, vdd):
    lines = [f"V1 n0 0 DC {vdd!r}"]
    for k, r in enumerate(rs):
        bottom = "0" if k == len(rs) - 1 else f"n{k + 1}"
        lines.append(f"R{k + 1} n{k} {bottom} {r!r}")
    op = solve_dc(_circuit("\n".join(lines) + "\n"))
    cir = _circuit("\n".join(lines) + "\n")
    total = sum(rs)
    # the ideal divider is displaced only by the gmin node shunts: each of
    # the len(rs) non-ground nodes leaks at most gmin*vdd, seen at a tap
    # through a transfer resistance of at most the total ladder resistance
    tol = len(rs) * engine._GMIN * total * vdd
    below = total
    for k in range(len(rs)):
        expected = vdd * below / total  # analytic tap voltage, no linear algebra
        got = op.node_voltages[cir.node_index(f"n{k}")]
        assert abs(got - expected) < tol
        below -= rs[k]


def test_temp_directive_scales_resistance():
    cir = _circuit("V1 a 0 DC 2.5\nR1 a 0 1k\n.temp 100\n")
    op = solve_dc(cir)
    r_hot = resistor_value(ResistorParams(r_nominal=1e3), temp=373.15)
    assert op.device_currents["R1"] == pytest.approx(2.5 / r_hot, rel=1e-9)


def test_options_temp_overrides_circuit_temp():
    cir = _circuit("V1 a 0 DC 2.5\nR1 a 0 1k\n.temp 100\n")
    op = solve_dc(cir, SimOptions(temp=300.15))
    assert op.device_currents["R1"] == pytest.approx(2.5e-3, rel=1e-9)


# --------------------------------------------------------------------------- #
# DC: the mirror against an independent scalar oracle
# --------------------------------------------------------------------------- #

def _diode_vgs_by_bisection(vdd, r, params, temp=300.15):
    """Input-branch fixed point (vdd - v)/r = id(v, v) solved by bisection."""
    vth = mosfet_vth(params, temp)
    beta = mosfet_kprime(params, temp) * params.width / params.length

    def gap(v):
        veff = v - vth
        drain = 0.5 * beta * veff * veff * (1.0 + params.lam * v) if veff > 0 else 0.0
        return (vdd - v) / r - drain

    lo, hi = vth, vdd
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_mirror_dc_matches_scalar_fixed_point():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    op = solve_dc(cir)
    v_star = _diode_vgs_by_bisection(2.5, 38e3, cir.device("M1").params)
    v_d1 = op.node_voltages[cir.node_index("d1")]
    # the oracle has no gmin; its ~2e-12 A draw displaces d1 by ~1e-8 relative
    assert v_d1 == pytest.approx(v_star, rel=1e-7)
    assert v_d1 == pytest.approx(0.994141, abs=5e-7)  # frozen
    i_in = op.device_currents["R1"]
    assert i_in == pytest.approx((2.5 - v_star) / 38e3, rel=1e-7)
    assert i_in == pytest.approx(39.6279e-6, rel=1e-5)  # frozen


def test_mirror_duplicates_input_current():
    for kind in (MirrorKind.TWO_RESISTORS, MirrorKind.TWO_MEMRISTORS):
        op = solve_dc(mirror_circuit(MirrorConfig(kind=kind)))
        i1, i2 = op.device_currents["M1"], op.device_currents["M2"]
        assert abs(i2 - i1) / i1 < 1e-3
        # equal loads and matched devices make the two KCL rows identical,
        # so the duplication is in fact exact here
        assert abs(i2 - i1) / i1 < 1e-12


def test_kcl_residual_below_abstol_for_all_builtin_mirrors():
    for kind in MirrorKind:
        op = solve_dc(mirror_circuit(MirrorConfig(kind=kind)))
        assert op.kcl_residual < 1e-9


def test_pmos_mirror_operating_point():
    op = solve_dc(mirror_circuit(MirrorConfig(kind=MirrorKind.PMOS_RESISTOR)))
    # frozen: PMOS input branch delivers ~34.2 uA, output mirrors ~33.8 uA
    assert op.device_currents["MP1"] == pytest.approx(-34.210e-6, rel=1e-3)
    assert op.device_currents["R2"] == pytest.approx(33.816e-6, rel=1e-3)


def test_dc_freezes_memristor_state_at_initial_value():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    op = solve_dc(cir)
    y2 = cir.device("Y2")
    m0 = memristance(MemristorState(y2.w0), y2.params)
    v_drop = op.node_voltages[cir.node_index("vdd")] - op.node_voltages[
        cir.node_index("d2")
    ]
    assert op.device_currents["Y2"] == pytest.approx(v_drop / m0, rel=1e-12)


def test_solve_dc_accepts_frozen_state_overrides():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    y2 = cir.device("Y2")
    w_target = state_for_memristance(19e3, y2.params).w
    op = solve_dc(cir, states={"Y1": y2.w0, "Y2": w_target})
    v_drop = op.node_voltages[cir.node_index("vdd")] - op.node_voltages[
        cir.node_index("d2")
    ]
    assert op.device_currents["Y2"] == pytest.approx(v_drop / 19e3, rel=1e-9)


# --------------------------------------------------------------------------- #
# DC: failure modes
# --------------------------------------------------------------------------- #

def test_no_ground_path_is_singular_up_front():
    params = ResistorParams(r_nominal=1e3)
    floating = Circuit(
        "floating",
        ["0", "a", "b"],
        [
            BoundSource("V1", 1, 2, SourceSpec(kind="dc", dc_value=1.0)),
            BoundResistor("R1", 1, 2, params),
        ],
    )
    with pytest.raises(SingularMatrixError):
        solve_dc(floating)


def test_parallel_voltage_sources_are_singular():
    cir = _circuit("V1 a 0 DC 2.5\nV2 a 0 DC 1.0\nR1 a 0 1k\n")
    with pytest.raises(SingularMatrixError):
        solve_dc(cir)


def test_circuit_without_source_is_rejected():
    params = ResistorParams(r_nominal=1e3)
    cir = Circuit("r only", ["0", "a"], [BoundResistor("R1", 1, 0, params)])
    with pytest.raises(SimulationError):
        solve_dc(cir)


def test_nonconvergence_carries_iteration_trace(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 1)
    monkeypatch.setattr(engine, "_SOURCE_STEPS", 1)
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    with pytest.raises(NonConvergenceError) as exc:
        solve_dc(cir)
    err = exc.value
    assert len(err.trace) == 1
    iteration, max_dv, _ = err.trace[0]
    assert iteration == 1 and max_dv > 0.0


def test_source_stepping_failure_reports_the_stalled_scale(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 3)
    monkeypatch.setattr(engine, "_SOURCE_STEPS", 10)
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    with pytest.raises(NonConvergenceError) as exc:
        solve_dc(cir)
    assert "source stepping" in str(exc.value)


def test_sim_options_validation():
    with pytest.raises(ValueError):
        SimOptions(abstol=0.0)
    with pytest.raises(ValueError):
        SimOptions(reltol=-1e-6)
    with pytest.raises(ValueError):
        SimOptions(dt=0.0)
    with pytest.raises(ValueError):
        SimOptions(dt=2.0, t_stop=1.0)
    with pytest.raises(ValueError):
        SimOptions(temp=0.0)
    # controlled steps, recorded on the dt grid
    res = run_transient(_circuit(P2_DECK),
                        SimOptions(dt=1e-3, t_stop=1.0, adaptive=True), ["w(Y1)"])
    assert res.waveform("w(Y1)").t.tobytes() == (np.arange(1001) * 1e-3).tobytes()
    assert res.dt == 1e-3


# --------------------------------------------------------------------------- #
# transient
# --------------------------------------------------------------------------- #

def test_dc_source_transient_is_constant_and_equals_dc():
    cir = _circuit("V1 a 0 DC 2.0\nR1 a 0 1k\n")
    op = solve_dc(cir)
    res = run_transient(cir, SimOptions(dt=1e-3, t_stop=0.02), ["v(a)", "i(R1)"])
    v = res.waveform("v(a)").values
    i = res.waveform("i(R1)").values
    assert v == pytest.approx(np.full_like(v, op.node_voltages[1]), rel=1e-12)
    assert i == pytest.approx(np.full_like(i, op.device_currents["R1"]), rel=1e-12)


def test_waveform_grid_is_uniform_and_starts_at_zero():
    cir = _circuit("V1 a 0 DC 2.0\nR1 a 0 1k\n")
    res = run_transient(cir, SimOptions(dt=1e-3, t_stop=0.01), ["v(a)"])
    t = res.waveform("v(a)").t
    assert t[0] == 0.0
    assert len(t) == 11
    assert np.diff(t) == pytest.approx(np.full(10, 1e-3), rel=1e-12)
    assert res.waveform("v(a)").unit == "V"


def test_default_dt_is_ten_thousandth_of_t_stop():
    cir = _circuit("V1 a 0 DC 2.0\nR1 a 0 1k\n")
    res = run_transient(cir, SimOptions(t_stop=1.0), ["v(a)"])
    assert res.dt == pytest.approx(1e-4)
    assert len(res.waveform("v(a)").t) == 10_001


def test_first_sample_is_the_dc_solution_with_sources_at_t0():
    cir = _circuit("V1 a 0 SIN(2.0 1.0 50)\nR1 a 0 1k\n")
    res = run_transient(cir, SimOptions(dt=1e-4, t_stop=0.01), ["v(a)"])
    assert res.waveform("v(a)").values[0] == pytest.approx(2.0, rel=1e-12)


def test_sine_source_is_sampled_at_step_times():
    cir = _circuit("V1 a 0 SIN(2.0 1.0 50)\nR1 a 0 1k\n")
    res = run_transient(cir, SimOptions(dt=1e-4, t_stop=0.02), ["v(a)"])
    wave = res.waveform("v(a)")
    expected = 2.0 + 1.0 * np.sin(2 * np.pi * 50 * wave.t)
    assert wave.values == pytest.approx(expected, abs=1e-9)


def test_slow_memristor_stays_near_frozen_state_current():
    cir = _circuit(
        "V1 in 0 DC 0.001\n"
        "R1 in mid 1k\n"
        "Y1 mid 0 MEM m0=19k\n"
        ".model MEM MEMRISTOR (ron=100 roff=38k l=10n uv=2e-14 p=1 pol=1)\n"
    )
    res = run_transient(cir, SimOptions(dt=1e-4, t_stop=0.05), ["i(Y1)"])
    i = res.waveform("i(Y1)").values
    expected = 0.001 / (1e3 + 19e3)
    assert np.max(np.abs(i - expected)) / expected < 1e-3


def test_memristor_mirror_settles_toward_roff():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    res = run_transient(cir, SimOptions(dt=1e-3, t_stop=3.0), ["i(Y2)", "m(Y2)"])
    m = res.waveform("m(Y2)").values
    i = res.waveform("i(Y2)").values
    assert m[0] == pytest.approx(5e3, rel=1e-9)
    assert m[-1] == pytest.approx(38e3, rel=1e-2)
    # output current starts high and settles to the resistor-mirror value
    assert i[0] > 4 * i[-1]
    assert i[-1] == pytest.approx(39.63e-6, rel=1e-3)
    assert np.all(np.diff(m) >= 0.0)


def test_states_clamp_to_the_device_length():
    # strong drive walks w to the upper boundary; the clamp must hold
    cir = _circuit(
        "V1 in 0 DC 5\n"
        "R1 in mid 1k\n"
        "Y1 mid 0 MEM m0=19k\n"
        ".model MEM MEMRISTOR (ron=100 roff=38k l=10n uv=1e-12 p=0 pol=1)\n"
    )
    res = run_transient(cir, SimOptions(dt=1e-4, t_stop=0.2), ["w(Y1)"])
    w = res.waveform("w(Y1)").values
    assert np.all(w <= 10e-9 + 1e-24)
    assert np.all(w >= 0.0)
    assert w[-1] == pytest.approx(10e-9, rel=1e-12)


def test_step_halving_changes_final_memristance_by_under_point1_percent():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    coarse = run_transient(cir, SimOptions(dt=5e-4, t_stop=2.0), ["m(Y2)"])
    fine = run_transient(cir, SimOptions(dt=2.5e-4, t_stop=2.0), ["m(Y2)"])
    m_coarse = coarse.waveform("m(Y2)").values[-1]
    m_fine = fine.waveform("m(Y2)").values[-1]
    assert abs(m_coarse - m_fine) / m_fine < 1e-3


def test_charge_consistency_on_a_half_sine_pulse():
    cir = _circuit(
        "V1 in 0 SIN(0 1 0.5)\n"
        "R1 in mid 1k\n"
        "Y1 mid 0 MEM m0=19k\n"
        ".model MEM MEMRISTOR (ron=100 roff=38k l=10n uv=1e-13 p=1 pol=1)\n"
    )
    res = run_transient(cir, SimOptions(dt=1e-3, t_stop=1.0), ["i(Y1)", "w(Y1)"])
    i = res.waveform("i(Y1)").values
    w = res.waveform("w(Y1)").values
    t = res.waveform("i(Y1)").t
    params = cir.device("Y1").params
    window = np.array(
        [joglekar_window(min(max(x, 0.0), 1.0), params.window_p)
         for x in w / params.length]
    )
    drive = i * window
    integral = float(np.sum(0.5 * (drive[1:] + drive[:-1]) * np.diff(t)))
    predicted = params.polarity * params.mobility * (params.r_on / params.length) * integral
    assert w[-1] - w[0] == pytest.approx(predicted, rel=1e-2)


def test_transient_continuation_matches_a_single_run():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    opts_half = SimOptions(dt=1e-3, t_stop=0.5)
    first = run_transient(cir, opts_half, ["m(Y2)"])
    second = run_transient(
        cir, opts_half, ["m(Y2)"], initial_states=first.final_states
    )
    whole = run_transient(cir, SimOptions(dt=1e-3, t_stop=1.0), ["m(Y2)"])
    assert second.final_states["Y2"] == pytest.approx(
        whole.final_states["Y2"], rel=1e-9
    )


def test_each_step_solves_the_backward_euler_state_equation():
    # engine-free oracle: a lone memristor behind 1 kOhm from a DC source
    # carries i(w) = V / (R + M(w)), so step k's w must be the root of
    # w - w_prev - dt*dwdt(w, i(w)), found here by bisection on [0, L]
    vdd, r, dt = 1.0, 1e3, 2e-3
    cir = _circuit(
        f"V1 in 0 DC {vdd}\n"
        f"R1 in mid {r}\n"
        "Y1 mid 0 MEM m0=19k\n"
        ".model MEM MEMRISTOR (ron=100 roff=38k l=10n uv=1e-13 p=1 pol=1)\n"
    )
    p = cir.device("Y1").params
    opts = SimOptions(dt=dt, t_stop=50 * dt)
    w = run_transient(cir, opts, ["w(Y1)"]).waveform("w(Y1)").values

    def gap(w_next, w_prev):
        m = oracles.o_memristance(w_next, p.length, p.r_on, p.r_off)
        rate = oracles.o_dwdt(w_next, p.length, p.r_on, p.mobility, p.polarity,
                              p.window_p, vdd / (r + m))
        return w_next - w_prev - dt * rate

    assert len(w) == 51
    for k in range(1, 51):
        lo, hi = 0.0, p.length
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if gap(mid, w[k - 1]) < 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(w[k] - 0.5 * (lo + hi)) <= opts.reltol * p.length
    # the drive moves the state well away from its start
    assert w[-1] - w[0] > 0.2 * p.length


def test_large_steps_follow_the_default_grid():
    for kind in (MirrorKind.TWO_MEMRISTORS, MirrorKind.PMOS_MEMRISTOR):
        cir = mirror_circuit(MirrorConfig(kind=kind))
        fine = run_transient(cir, SimOptions(t_stop=3.0), ["m(Y2)"])
        m_fine = fine.waveform("m(Y2)").values[-1]
        for dt in (0.3, 0.75):
            coarse = run_transient(cir, SimOptions(dt=dt, t_stop=3.0), ["m(Y2)"])
            m = coarse.waveform("m(Y2)").values[-1]
            assert abs(m - m_fine) / m_fine < 0.02
        if kind is MirrorKind.TWO_MEMRISTORS:
            m_fine_2m = m_fine
    # Newton cannot solve the first 1.5 s step (its first iterate lands on
    # the s = 1 bound), so the step is cut and retried; only the requested
    # grid is recorded
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    coarse = run_transient(cir, SimOptions(dt=1.5, t_stop=3.0), ["m(Y2)"])
    wave = coarse.waveform("m(Y2)")
    assert wave.t.tolist() == [0.0, 1.5, 3.0]
    assert abs(wave.values[-1] - m_fine_2m) / m_fine_2m < 0.02


def test_transient_newton_failure_carries_trace_and_time(monkeypatch):
    # sources read NaN after t = 0, so the first backward-Euler step fails
    real = engine.source_value
    monkeypatch.setattr(
        engine, "source_value",
        lambda spec, time=None: math.nan if time else real(spec, time),
    )
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    with pytest.raises(NonConvergenceError) as exc:
        run_transient(cir, SimOptions(dt=1e-3, t_stop=0.01), ["m(Y2)"])
    err = exc.value
    assert err.time == 1e-3
    assert "t=0.001" in str(err)
    assert len(err.trace) == 1 and err.trace[0][0] == 1


# a lone window-2 memristor whose state, at 10 ms steps, cycles between
# s = 1 and 0.999981 until Newton's iteration limit at t = 0.11 s
P2_DECK = (
    "V1 in 0 SIN(0 2.5 5)\n"
    "R1 in mid 1k\n"
    "Y1 mid 0 MEM m0=5k\n"
    ".model MEM MEMRISTOR (ron=100 roff=38k l=10n uv=2e-14 p=2 pol=1)\n"
)


def test_step_cut_completes_a_lone_window_2_memristor(monkeypatch):
    cir = _circuit(P2_DECK)
    coarse = run_transient(cir, SimOptions(dt=0.01, t_stop=1.0), ["w(Y1)"])
    fine = run_transient(cir, SimOptions(dt=0.0025, t_stop=1.0), ["w(Y1)"])
    wave = coarse.waveform("w(Y1)")
    # only the requested grid is recorded, and it tracks the finer grid
    # to the first-order error of backward Euler at the bound
    assert wave.t.tobytes() == (np.arange(101) * 0.01).tobytes()
    w_fine = fine.waveform("w(Y1)").values[::4]
    assert np.max(np.abs(wave.values - w_fine)) < 0.1 * cir.device("Y1").params.length
    # without cuts, the step to t = 0.11 s fails as it did before
    monkeypatch.setattr(engine, "_MAX_CUTS", 0)
    with pytest.raises(NonConvergenceError) as exc:
        run_transient(cir, SimOptions(dt=0.01, t_stop=1.0), ["w(Y1)"])
    assert exc.value.time == pytest.approx(0.11)


def test_controlled_steps_free_a_sine_driven_memristor_from_its_bound():
    # the error estimate vanishes at the window bound; uncapped, controlled
    # steps held this state at s = 1 from t = 0.07 s, 0.14 L away from a
    # 25 us grid that leaves the bound as the drive reverses.  Capped at
    # period/200, every accepted step stays within 0.03 L of that grid (fixed
    # steps of period/2000 come within 0.026 L)
    cir = _circuit(P2_DECK)
    res = run_transient(cir, SimOptions(t_stop=1.0, adaptive=True), ["w(Y1)"])
    fine = run_transient(cir, SimOptions(dt=25e-6, t_stop=1.0), ["w(Y1)"])
    wave, reference = res.waveform("w(Y1)"), fine.waveform("w(Y1)")
    period = 0.2
    assert np.diff(wave.t).max() <= period / engine._SINE_STEPS * (1.0 + 1e-9)
    assert wave.t[-1] == 1.0
    want = np.interp(wave.t, reference.t, reference.values)
    length = cir.device("Y1").params.length
    assert np.max(np.abs(wave.values - want)) < 0.03 * length


def _newton_limited(monkeypatch, largest: float) -> list:
    """Memristive steps whose Newton runs out of iterations on every
    effective step longer than ``largest`` seconds; returns the list of
    (time, effective step) of every Newton call."""
    real = engine._Steps.newton
    calls = []

    def newton(self, x0, guess, hist, opts, t, dt_eff):
        calls.append((t, dt_eff))
        if dt_eff > largest:
            raise engine._IterationLimit(
                f"limit at t={t:.9g} s", trace=[(1, 0.5, math.nan)], time=t)
        return real(self, x0, guess, hist, opts, t, dt_eff)

    monkeypatch.setattr(engine._Steps, "newton", newton)
    return calls


ADAPTIVE = SimOptions(t_stop=3.0, adaptive=True)


@pytest.mark.parametrize("kind", [MirrorKind.TWO_MEMRISTORS, MirrorKind.PMOS_MEMRISTOR])
def test_controlled_steps_are_few_and_follow_the_fine_grid(kind):
    cir = mirror_circuit(MirrorConfig(kind=kind))
    res = run_transient(cir, ADAPTIVE, ["m(Y2)", "i(M2)"])
    fine = run_transient(cir, SimOptions(dt=2.5e-4, t_stop=3.0), ["m(Y2)", "i(M2)"])
    t = res.waveform("m(Y2)").t
    steps = np.diff(t)
    assert len(steps) < 400
    assert t[0] == 0.0 and t[-1] == 3.0 and np.all(steps > 0.0)
    assert steps[0] == 3.0 / engine._DEFAULT_STEPS
    assert steps.max() <= engine._MAX_STEP
    assert res.dt == steps[0]
    # probes at the accepted steps agree with the 0.25 ms grid interpolated
    for name in ("m(Y2)", "i(M2)"):
        want = np.interp(t, fine.waveform(name).t, fine.waveform(name).values)
        got = res.waveform(name).values
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 2e-3
    assert res.final_states["Y2"] == pytest.approx(
        fine.final_states["Y2"], rel=1e-3, abs=1e-3 * cir.device("Y2").params.length)


def test_adaptive_runs_leave_memoryless_transients_on_the_grid():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    opts = SimOptions(t_stop=0.01)
    fixed = run_transient(cir, opts, ["i(M2)"]).waveform("i(M2)")
    adaptive = run_transient(cir, SimOptions(t_stop=0.01, adaptive=True),
                             ["i(M2)"]).waveform("i(M2)")
    assert adaptive.t.tobytes() == fixed.t.tobytes()
    assert adaptive.values.tobytes() == fixed.values.tobytes()


@pytest.mark.parametrize("opts", [ADAPTIVE, SimOptions(dt=0.05, t_stop=3.0)],
                         ids=["adaptive", "fixed"])
def test_steps_over_the_iteration_limit_are_cut_and_complete(monkeypatch, opts):
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    whole = run_transient(cir, opts, ["m(Y2)"]).waveform("m(Y2)")
    calls = _newton_limited(monkeypatch, 0.01)
    cut = run_transient(cir, opts, ["m(Y2)"]).waveform("m(Y2)")
    assert any(dt_eff > 0.01 for _, dt_eff in calls)
    if not opts.adaptive:
        assert cut.t.tobytes() == whole.t.tobytes()
    assert abs(cut.values[-1] - whole.values[-1]) / whole.values[-1] < 0.02


@pytest.mark.parametrize("opts", [ADAPTIVE, SimOptions(dt=1e-3, t_stop=3.0)],
                         ids=["adaptive", "fixed"])
def test_a_step_failing_at_every_size_raises_at_the_floor(monkeypatch, opts):
    calls = _newton_limited(monkeypatch, 0.0)
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    with pytest.raises(NonConvergenceError) as exc:
        run_transient(cir, opts, ["m(Y2)"])
    err = exc.value
    first = opts.dt or opts.t_stop / engine._DEFAULT_STEPS
    floor = first / 2 ** engine._MAX_CUTS
    assert type(err) is NonConvergenceError
    assert err.time == pytest.approx(floor)
    assert len(err.trace) == 1 and err.trace[0][:2] == (1, 0.5)
    assert "step cut to" in str(err)
    # the full step, then each of its halvings down to the floor
    assert len(calls) == engine._MAX_CUTS + 1
    assert calls[-1][1] == pytest.approx(floor)


def test_a_non_finite_controlled_step_raises_without_a_cut(monkeypatch):
    real = engine.source_value
    monkeypatch.setattr(
        engine, "source_value",
        lambda spec, time=None: math.nan if time else real(spec, time),
    )
    calls = _newton_limited(monkeypatch, math.inf)
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    with pytest.raises(NonConvergenceError) as exc:
        run_transient(cir, ADAPTIVE, ["m(Y2)"])
    err = exc.value
    assert "non-finite" in str(err)
    assert err.time == 3.0 / engine._DEFAULT_STEPS
    assert len(err.trace) == 1 and len(calls) == 1


def _sine_supplied(kind: MirrorKind) -> Circuit:
    """A resistive mirror under the supply that the THD analysis drives it
    with: a 2.5 V, 50 Hz sine riding on vdd + 2.5 V."""
    config = MirrorConfig(kind=kind)
    circuit = mirror_circuit(config)
    circuit.device("V1").spec = SourceSpec(
        kind="sine", dc_value=config.vdd_value + 2.5, amplitude=2.5, frequency=50.0)
    return circuit


# memristor-free circuits and their sample spacing: the THD analysis's 200
# samples a period, and the hysteresis harness's lone resistor at 2000
MEMORYLESS = {
    "2r": (lambda: _sine_supplied(MirrorKind.TWO_RESISTORS), 1e-4),
    "pmos-r": (lambda: _sine_supplied(MirrorKind.PMOS_RESISTOR), 1e-4),
    "resistor-loop": (lambda: _circuit("V1 in 0 SIN(0 2 50)\nR1 in 0 10k\n"), 1e-5),
}


# sample counts that are not multiples of the block size: a full block and
# part of one, and two full blocks and part of a third
PARTIAL_BLOCK = engine._TRANSIENT_BLOCK + 9
THREE_BLOCKS = 2 * engine._TRANSIENT_BLOCK + 7


@pytest.mark.parametrize("name, samples", [
    ("2r", THREE_BLOCKS),
    ("pmos-r", PARTIAL_BLOCK),
    ("resistor-loop", PARTIAL_BLOCK),
    ("resistor-loop", THREE_BLOCKS),
])
def test_memoryless_samples_equal_lone_dc_solves(name, samples):
    build, dt = MEMORYLESS[name]
    cir = build()
    opts = SimOptions(dt=dt, t_stop=(samples - 1) * dt)
    nodes = range(1, len(cir.node_names))
    names = [d.name for d in cir.devices]
    res = run_transient(cir, opts, [f"v({cir.node_names[n]})" for n in nodes]
                        + [f"i({name})" for name in names])
    voltages = [res.waveforms[j].values for j in range(len(nodes))]
    currents = [w.values for w in res.waveforms[len(nodes):]]
    t = res.waveforms[0].t
    assert len(t) == samples
    for k, time in enumerate(t.tolist()):
        op = solve_dc(cir, opts, source_time=time)
        for n, v in zip(nodes, voltages):
            assert v[k] == op.node_voltages[n]
        for name, i in zip(names, currents):
            assert i[k] == op.device_currents[name]


@pytest.mark.parametrize("kind", [MirrorKind.TWO_MEMRISTORS, MirrorKind.PMOS_MEMRISTOR])
@pytest.mark.parametrize("samples", [PARTIAL_BLOCK, THREE_BLOCKS])
def test_memristive_probes_follow_the_device_laws(kind, samples):
    # the steps span the switching transient; the currents are read a block
    # at a time after the steps, the voltages and memristances per step
    cir = mirror_circuit(MirrorConfig(kind=kind))
    dt = 3e-3
    res = run_transient(cir, SimOptions(dt=dt, t_stop=(samples - 1) * dt),
                        [f"v({name})" for name in cir.node_names]
                        + [f"i({d.name})" for d in cir.devices]
                        + [f"m({d.name})" for d in cir.devices
                           if isinstance(d, BoundMemristor)])
    assert len(res.waveforms[0].t) == samples

    def v(node: int) -> np.ndarray:
        return res.waveform(f"v({cir.node_names[node]})").values

    checked = set()
    for d in cir.devices:
        current = res.waveform(f"i({d.name})").values
        if isinstance(d, BoundMemristor):
            want = (v(d.n_pos) - v(d.n_neg)) / res.waveform(f"m({d.name})").values
        elif isinstance(d, BoundMosfet):
            want = np.array([
                mosfet_current(g - s, dr - s, d.params, cir.temp)
                for g, s, dr in zip(v(d.n_g).tolist(), v(d.n_s).tolist(),
                                    v(d.n_d).tolist())])
        else:
            continue
        assert current.tobytes() == want.tobytes(), d.name
        checked.add(type(d))
    assert checked == {BoundMemristor, BoundMosfet}


def test_dense_output_reads_the_quadratic_through_three_accepted_states():
    ts = [0.0, 0.1, 0.25, 0.3, 0.7, 1.0]
    ss = [[0.1 + 0.8 * t ** 3] for t in ts]
    # accepted times read their accepted states exactly
    assert engine._dense(ts, ss, np.array(ts)).tolist() == ss
    # a time in (ts[k-1], ts[k]] reads the quadratic through k-2, k-1 and k;
    # the first interval the quadratic through the first three
    for t, k in [(0.05, 2), (0.2, 2), (0.28, 3), (0.5, 4), (0.9, 5)]:
        fit = np.polyfit(ts[k - 2:k + 1], [s for s, in ss[k - 2:k + 1]], 2)
        got = engine._dense(ts, ss, np.array([t]))
        assert got[0, 0] == pytest.approx(np.polyval(fit, t), rel=1e-12)
    # a quadratic's states are read back as they are, clamped to [0, 1]
    times = np.linspace(0.0, 1.0, 41)
    got = engine._dense(ts, [[4.4 * t * (1.0 - t)] for t in ts], times)[:, 0]
    assert got.max() == 1.0
    assert got == pytest.approx(np.minimum(4.4 * times * (1.0 - times), 1.0), abs=1e-14)


@pytest.mark.parametrize("samples", [PARTIAL_BLOCK, THREE_BLOCKS])
def test_controlled_steps_on_a_grid_record_dc_solutions_at_their_states(samples):
    cir = _circuit(P2_DECK)
    dt = 2e-4
    opts = SimOptions(dt=dt, t_stop=(samples - 1) * dt, adaptive=True)
    res = run_transient(cir, opts, ["v(mid)", "i(Y1)", "w(Y1)"])
    t = res.waveform("i(Y1)").t
    assert t.tobytes() == (np.arange(samples) * dt).tobytes()
    v, i, w = (wave.values for wave in res.waveforms)
    # each sample is the DC solution at its source time and its state
    for k in list(range(0, samples, 37)) + [samples - 1]:
        op = solve_dc(cir, opts, states={"Y1": w[k]}, source_time=t[k])
        assert i[k] == pytest.approx(op.device_currents["Y1"], rel=1e-12, abs=1e-18)
        assert v[k] == pytest.approx(op.node_voltages[cir.node_names.index("mid")],
                                     rel=1e-12, abs=1e-18)
    assert v[0] == 0.0 and i[0] == 0.0  # the pinch at t = 0 is exact
    assert res.final_states["Y1"] == w[-1]


@pytest.mark.parametrize("build, opts, probe", [
    (lambda: _sine_supplied(MirrorKind.TWO_RESISTORS),
     SimOptions(dt=1e-4, t_stop=(THREE_BLOCKS - 1) * 1e-4), "i(M2)"),
    (lambda: _circuit(P2_DECK),
     SimOptions(dt=2e-4, t_stop=(THREE_BLOCKS - 1) * 2e-4, adaptive=True), "i(Y1)"),
], ids=["memoryless", "memristive-grid"])
def test_block_reads_share_the_run_topology(monkeypatch, build, opts, probe):
    cir = build()
    built = []
    real = engine._Topology.__init__

    def init(self, circuit):
        built.append(circuit)
        real(self, circuit)

    monkeypatch.setattr(engine._Topology, "__init__", init)
    run_transient(cir, opts, [probe])
    assert built == [cir]


@pytest.mark.parametrize("first_bad", [1, engine._TRANSIENT_BLOCK + 3])
def test_memoryless_transient_raises_at_the_earliest_failing_sample(
        monkeypatch, first_bad):
    # sources read NaN from sample ``first_bad`` on; every such sample fails
    # its cold Newton and its source-stepping retry
    dt = 1e-3
    real = engine.source_value
    monkeypatch.setattr(
        engine, "source_value",
        lambda spec, time=None: (math.nan if time and time >= first_bad * dt
                                 else real(spec, time)),
    )
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    with pytest.raises(NonConvergenceError) as exc:
        run_transient(cir, SimOptions(dt=dt, t_stop=1.0), ["i(M2)"])
    err = exc.value
    assert err.time == first_bad * dt
    assert f"at t={first_bad * dt:.9g} s" in str(err)
    assert "source stepping stalled" in str(err)
    assert len(err.trace) == 1 and err.trace[0][0] == 1


def test_non_finite_iterate_fails_after_one_iteration(monkeypatch):
    # DC solves evaluate their MOSFETs through the array law
    monkeypatch.setattr(
        engine, "mosfet_linearized_array",
        lambda vgs, *args: (np.full_like(vgs, math.nan),) * 3,
    )
    monkeypatch.setattr(engine, "_SOURCE_STEPS", 1)
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    with pytest.raises(NonConvergenceError) as exc:
        solve_dc(cir)
    assert "non-finite" in str(exc.value)
    assert len(exc.value.trace) == 1


def assert_same_op(a, b):
    """Two operating points equal field by field, node voltages to the bit."""
    assert a.node_voltages.tobytes() == b.node_voltages.tobytes()
    assert a.device_currents == b.device_currents
    assert a.source_currents == b.source_currents
    assert a.kcl_residual == b.kcl_residual
    assert a.newton_iterations == b.newton_iterations


def assert_same_outcome(batched, circuit, opts):
    """A batch row is what solving ``circuit`` alone gives: the same
    operating point or the same error."""
    try:
        single = solve_dc(circuit, opts)
    except SimulationError as exc:
        assert type(batched) is type(exc)
        assert str(batched) == str(exc)
        # traces hold NaN residuals, which compare unequal to themselves
        assert repr(getattr(batched, "trace", None)) == repr(
            getattr(exc, "trace", None))
        return
    assert_same_op(batched, single)


def test_batch_steps_sources_row_by_row(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 6)
    monkeypatch.setattr(engine, "_SOURCE_STEPS", 3)
    base = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    # converges cold, converges by source stepping, stalls while stepping
    circuits = [with_override(base, "R2.r_nominal", r)
                for r in (20e3, 38e3, 60e3, 100e3)]
    opts = SimOptions()
    batched = solve_dc_batch(circuits, opts)
    for circuit, result in zip(circuits, batched):
        assert_same_outcome(result, circuit, opts)
    assert batched[1].newton_iterations <= engine._MAX_NEWTON_ITERS
    assert batched[2].newton_iterations > engine._MAX_NEWTON_ITERS
    assert "source stepping stalled" in str(batched[3])


def test_rows_are_solved_in_place(monkeypatch):
    # one compiled batch with a row of each kind: converged cold, an
    # invalid record, singular, converged by source stepping, and stalled
    # while stepping after converging at a lower scale
    base = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    values = [20e3, -1.0, 30e3, 60e3, 100e3]
    titles = [base.title, base.title, "rank-deficient", base.title, base.title]
    monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 6)
    monkeypatch.setattr(engine, "_SOURCE_STEPS", 3)
    opts = SimOptions()
    compile_rows = engine._DcRows.__init__

    def compile_with_a_singular_row(self, *args):
        compile_rows(self, *args)
        for k, title in enumerate(self.titles):
            if title == "rank-deficient":
                self.g_lin[k] = 0.0

    monkeypatch.setattr(engine._DcRows, "__init__", compile_with_a_singular_row)
    position, records = overrides(base, "R2.r_nominal", values)
    rows = engine._compile(base, opts, [None] * len(values),
                           records={position: records}, titles=titles).solve()

    alone = []
    for value, title in zip(values, titles):
        try:
            circuit = with_override(base, "R2.r_nominal", value)
            circuit.title = title
            alone.append(solve_dc(circuit, opts))
        except (ElaborationError, SimulationError) as exc:
            alone.append(exc)
    failed = [k for k, single in enumerate(alone) if isinstance(single, Exception)]
    assert failed == [1, 2, 4] and sorted(rows.errors) == failed
    for k in failed:
        assert type(rows.errors[k]) is type(alone[k])
        assert str(rows.errors[k]) == str(alone[k])
        for array in (rows.x, rows.iterations, rows.currents, rows.residual):
            assert np.isnan(array[k]).all()
    assert "stalled at scale 0.67" in str(rows.errors[4])
    for k in (0, 3):
        assert_same_op(rows.operating_point(k), alone[k])
    assert rows.iterations[3] == alone[3].newton_iterations > engine._MAX_NEWTON_ITERS


def test_batch_rows_must_share_one_topology():
    resistive = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    memristive = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    with pytest.raises(ValueError, match="topology"):
        solve_dc_batch([resistive, memristive])
    with pytest.raises(ValueError):
        solve_dc_batch([resistive, resistive], temps=[300.0])
    assert solve_dc_batch([]) == []


@pytest.mark.parametrize("kind", [MirrorKind.TWO_RESISTORS, MirrorKind.PMOS_RESISTOR,
                                  MirrorKind.TWO_MEMRISTORS])
def test_batch_rows_do_not_depend_on_their_neighbours(kind):
    # rows that converge after 4 to 10 iterations leave the batch at
    # different times, so each row sits at a different place in the
    # shrinking stack in each order; its stamps must add the same way
    base = mirror_circuit(MirrorConfig(kind=kind))
    circuits = [with_override(base, path, value) for path, values in (
        ("vdd", [1.2, 2.0, 3.5, 5.0]), ("T2.width", [0.1e-6, 1e-6, 4e-6]),
        ("T1.vth0", [0.2, 0.6, 1.0])) for value in values]
    temps = [250.0 + 15.0 * k for k in range(len(circuits))]
    batch = solve_dc_batch(circuits, temps=temps)
    backwards = solve_dc_batch(circuits[::-1], temps=temps[::-1])[::-1]
    assert len({op.newton_iterations for op in batch}) >= 3
    for k, (circuit, temp) in enumerate(zip(circuits, temps)):
        (alone,) = solve_dc_batch([circuit], temps=[temp])
        assert_same_op(batch[k], alone)
        assert_same_op(backwards[k], alone)


def test_batch_isolates_singular_and_nonconvergent_rows(monkeypatch):
    base = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    good = [with_override(base, "R2.r_nominal", 20e3),
            with_override(base, "R2.r_nominal", 38e3),
            with_override(base, "vdd", 2.0)]
    # 8 Newton iterations where the good rows need 5-6
    slow = with_override(base, "R2.r_nominal", 60e3)
    singular = with_override(base, "R2.r_nominal", 30e3)
    singular.title = "rank-deficient"
    monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 7)
    monkeypatch.setattr(engine, "_SOURCE_STEPS", 1)
    opts = SimOptions()
    clean = solve_dc_batch(good, opts)

    # a compiled row with no linear part leaves the ground row empty
    compile_rows = engine._DcRows.__init__

    def compile_with_a_singular_row(self, *args):
        compile_rows(self, *args)
        for k, title in enumerate(self.titles):
            if title == singular.title:
                self.g_lin[k] = 0.0

    monkeypatch.setattr(engine._DcRows, "__init__", compile_with_a_singular_row)
    mixed = solve_dc_batch([good[0], singular, good[1], slow, good[2]], opts)
    for batched, alone in zip([mixed[0], mixed[2], mixed[4]], clean):
        assert_same_op(batched, alone)
    # each bad row carries what its own solve raises
    assert_same_outcome(mixed[1], singular, opts)
    assert_same_outcome(mixed[3], slow, opts)
    assert isinstance(mixed[1], SingularMatrixError)
    assert isinstance(mixed[3], NonConvergenceError)
    assert len(mixed[3].trace) == engine._MAX_NEWTON_ITERS


def test_initial_state_overrides_are_validated():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    opts = SimOptions(dt=1e-3, t_stop=0.01)
    with pytest.raises(SimulationError):
        run_transient(cir, opts, ["m(Y2)"], initial_states={"Y9": 1e-9})
    with pytest.raises(SimulationError):
        run_transient(cir, opts, ["m(Y2)"], initial_states={"Y2": 2e-8})


def test_transient_requires_t_stop():
    cir = _circuit("V1 a 0 DC 1\nR1 a 0 1k\n")
    with pytest.raises(ValueError):
        run_transient(cir, SimOptions(dt=1e-3), ["v(a)"])


# --------------------------------------------------------------------------- #
# probes
# --------------------------------------------------------------------------- #

def test_unknown_probe_names_fail_before_simulating():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    opts = SimOptions(dt=1e-3, t_stop=0.01)
    for bad in ("v(nope)", "i(NOPE)", "w(M1)", "m(R9)", "z(a)", "v a"):
        with pytest.raises(UnknownProbeError):
            run_transient(cir, opts, [bad])


def test_probe_names_are_case_insensitive_and_canonical():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    res = run_transient(cir, SimOptions(dt=1e-3, t_stop=0.01), ["V(D2)", "I(y2)"])
    assert res.waveform("v(d2)").name == "v(d2)"
    assert res.waveform("i(Y2)").unit == "A"
    with pytest.raises(UnknownProbeError):
        res.waveform("v(d1)")


def test_memristance_probe_reports_ohms():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    res = run_transient(cir, SimOptions(dt=1e-3, t_stop=0.01), ["m(Y2)", "w(Y2)"])
    m = res.waveform("m(Y2)")
    w = res.waveform("w(Y2)")
    assert m.unit == "ohm" and w.unit == "m"
    params = cir.device("Y2").params
    reconstructed = memristance(MemristorState(w.values[-1]), params)
    assert m.values[-1] == pytest.approx(reconstructed, rel=1e-12)
