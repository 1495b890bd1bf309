"""Engine tests: MNA stamps, DC solve against analytic and scalar oracles,
error paths, and backward-Euler transient behavior."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorsim.devices import (
    CALIBRATED_MOBILITY,
    MEMRISTOR_DEFAULTS,
    DeviceError,
    MemristorParams,
    MemristorState,
    joglekar_window,
    memristance,
    mosfet_current,
    mosfet_kprime,
    mosfet_vth,
    resistor_value,
    source_value,
    state_for_memristance,
)
from mirrorsim import engine
from mirrorsim.analysis import hysteresis_trace, settled_transient
from mirrorsim.engine import (
    NonConvergenceError,
    SimOptions,
    SimulationError,
    SingularMatrixError,
    UnknownProbeError,
    run_transient,
    solve_dc,
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


def assemble(circuit: Circuit, guess):
    """The linearized system (matrix, right-hand side) of ``circuit``,
    compiled as one DC row, at ``guess``."""
    g_mat, rhs = engine._compile(circuit).assemble(
        np.zeros(1, dtype=int), np.array([guess], dtype=float))
    return g_mat[0], rhs[0]


# --------------------------------------------------------------------------- #
# assembly stamps
# --------------------------------------------------------------------------- #

def test_single_resistor_diagonal_includes_gmin():
    cir = _circuit("V1 1 0 DC 2.5\nR1 1 0 1k\n")
    g_mat, _ = assemble(cir, np.zeros(3))
    assert g_mat[1][1] == 1e-3 + GMIN


def test_memristor_stamps_identically_to_equal_resistor():
    res = _circuit("V1 a 0 DC 1\nR1 a 0 5k\n")
    mem = _circuit(
        "V1 a 0 DC 1\n"
        "Y1 a 0 MEM m0=5k\n"
        ".model MEM MEMRISTOR (ron=100 roff=38k l=10n uv=2e-14 p=1 pol=-1)\n"
    )
    g_res, rhs_res = assemble(res, np.zeros(3))
    g_mem, rhs_mem = assemble(mem, np.zeros(3))
    assert g_mem == pytest.approx(g_res, rel=1e-12)
    assert rhs_mem == pytest.approx(rhs_res)


def test_cutoff_mosfet_stamps_only_gmin_scale_terms():
    # all nodes at 0 V: vgs = 0 < vth, the device contributes nothing but gmin
    cir = _circuit(
        "V1 d 0 DC 1\nV2 g 0 DC 0\nM1 d g 0 0 NCH\n.model NCH NMOS (vth0=0.45)\n"
    )
    g_mat, rhs = assemble(cir, np.zeros(5))
    d = cir.node_index("d")
    g = cir.node_index("g")
    # drain node: node gmin + channel gmin only
    assert g_mat[d][d] == pytest.approx(2 * GMIN, rel=1e-12)
    assert g_mat[d][g] == 0.0
    assert rhs[d] == 0.0
    assert rhs[g] == 0.0


def test_source_stepping_scales_a_rows_sources(monkeypatch):
    # a row that converges only by stepping: its Newton at full sources
    # fails, and each step's Newton gets the row's source values times
    # k / _SOURCE_STEPS, the last at exactly the row's own values
    monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 6)
    monkeypatch.setattr(engine, "_SOURCE_STEPS", 3)
    cir = with_override(mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS)),
                        "R2.r_nominal", 60e3)
    calls = []
    iterate = engine._Steps.iterate

    def spy(self, x, values, *args):
        calls.append(list(values))
        return iterate(self, x, values, *args)

    monkeypatch.setattr(engine._Steps, "iterate", spy)
    solve_dc(cir)
    values = [src.spec.dc_value for src in engine._Topology(cir).sources]
    assert calls[0] == values and len(calls) == 1 + engine._SOURCE_STEPS
    for k, stepped in enumerate(calls[1:], start=1):
        assert stepped == [k / engine._SOURCE_STEPS * v for v in values]
    assert calls[-1] == values


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


@pytest.mark.parametrize("temp", [0.0, -1.0, math.nan])
def test_a_temperature_that_is_not_positive_kelvin_is_a_device_error(temp):
    # resistors stay positive at these temperatures, so only the check
    # where every temperature enters a solve can refuse them
    cir = _circuit("V1 a 0 DC 1\nR1 a b 1k\nR2 b 0 1k\n")
    cir.temp = temp
    with pytest.raises(DeviceError, match="temperature must be positive kelvin"):
        solve_dc(cir)
    with pytest.raises(DeviceError, match="temperature must be positive kelvin"):
        run_transient(cir, SimOptions(dt=1e-3, t_stop=0.01), ["v(b)"])
    # a row's own temperature is checked the same way
    with pytest.raises(DeviceError, match="temperature must be positive kelvin"):
        engine._compile(replace(cir, temp=300.15), [300.15, temp])


def test_compile_checks_each_distinct_temperature_once(monkeypatch):
    checked = []
    monkeypatch.setattr(engine, "kelvin", lambda temp: checked.append(temp) or temp)
    cir = _circuit("V1 a 0 DC 1\nR1 a b 1k\nR2 b 0 1k\n")
    rows = engine._compile(cir, [None] * 512 + [350.0, None, 350.0])
    assert checked == [cir.temp, 350.0]
    assert rows.temps == [cir.temp] * 512 + [350.0, cir.temp, 350.0]


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


def test_a_ground_only_deck_is_singular():
    # every source's branch row is zero when its terminals are both ground
    cir = _circuit("V1 0 0 DC 1\nR1 0 0 1k\n")
    assert cir.node_names == ["0"]
    with pytest.raises(SingularMatrixError):
        solve_dc(cir)
    with pytest.raises(SingularMatrixError):
        run_transient(cir, SimOptions(dt=1e-3, t_stop=0.01), ["i(R1)"])


def test_a_source_between_two_nodes_stacks_on_the_one_below():
    cir = _circuit("V1 a b DC 1\nV2 b 0 DC 1\nR1 a 0 1k\n")
    op = solve_dc(cir)
    assert op.node_voltages[cir.node_index("a")] == pytest.approx(2.0, rel=1e-12)
    assert op.node_voltages[cir.node_index("b")] == pytest.approx(1.0, rel=1e-12)
    assert op.device_currents["R1"] == pytest.approx(2e-3, rel=1e-9)


def test_circuit_without_source_is_rejected():
    params = ResistorParams(r_nominal=1e3)
    cir = Circuit("r only", ["0", "a"], [BoundResistor("R1", 1, 0, params)])
    with pytest.raises(SimulationError):
        solve_dc(cir)


def _island() -> Circuit:
    """A driven divider and, apart from it, R2 between nodes x and y: the
    deck ``V1 a 0 DC 1 / R1 a 0 1k / R2 x y 1k`` built without elaborate."""
    params = ResistorParams(r_nominal=1e3)
    return Circuit("island", ["0", "a", "x", "y"], [
        BoundSource("V1", 1, 0, SourceSpec(kind="dc", dc_value=1.0)),
        BoundResistor("R1", 1, 0, params),
        BoundResistor("R2", 2, 3, params),
    ])


@pytest.mark.parametrize("solve", [
    solve_dc,
    lambda circuit: run_transient(circuit, SimOptions(dt=1e-3, t_stop=0.01), ["v(a)"]),
], ids=["solve_dc", "run_transient"])
def test_a_hand_built_island_is_singular_naming_its_nodes(solve):
    # gmin would pin x and y to 0 V; the engine refuses the circuit instead,
    # with the reason elaborate gives the same deck
    with pytest.raises(SingularMatrixError, match=r"^node\(s\) x, y not reachable"):
        solve(_island())
    with pytest.raises(ElaborationError, match=r"^node\(s\) x, y not reachable"):
        _circuit("V1 a 0 DC 1\nR1 a 0 1k\nR2 x y 1k\n")


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
    with pytest.raises(TypeError):
        SimOptions(abstol=1e-9)
    with pytest.raises(TypeError):  # the temperature is the circuit's
        SimOptions(temp=300.15)
    assert [f.name for f in fields(SimOptions)] == ["dt", "t_stop", "adaptive"]
    assert (SimOptions().abstol, SimOptions().reltol, SimOptions().vntol) == (
        1e-9, 1e-6, 1e-6)
    with pytest.raises(ValueError):
        SimOptions(dt=0.0)
    with pytest.raises(ValueError):
        SimOptions(dt=2.0, t_stop=1.0)
    # a NaN or infinite step or stop time is refused by name, where a run
    # failed converting the step count to an integer
    for kwargs in ({"t_stop": math.nan}, {"dt": math.nan, "t_stop": 1.0},
                   {"t_stop": math.inf}, {"dt": math.inf}, {"dt": math.nan}):
        name = "dt" if "dt" in kwargs else "t_stop"
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            SimOptions(**kwargs)
    # controlled steps, recorded on the dt grid
    res = run_transient(_circuit(P2_DECK),
                        SimOptions(dt=1e-3, t_stop=1.0, adaptive=True), ["w(Y1)"])
    assert res.waveform("w(Y1)").t.tobytes() == (np.arange(1001) * 1e-3).tobytes()
    assert res.dt == 1e-3


# a lone window-2 memristor on a 1 MHz sine: its controlled steps are capped
# at 5 ns
MHZ_LOOP_DECK = """V1 in 0 SIN(0 2.5 1MEG)
Y1 in 0 MEM m0=5k
.model MEM MEMRISTOR (ron=100 roff=38k l=10n uv=2e-14 p=2 pol=1)
"""


def _hysteresis_at(frequency):
    return lambda: hysteresis_trace(MEMRISTOR_DEFAULTS, SourceSpec(
        kind="sine", amplitude=2.5, frequency=frequency))


@pytest.mark.parametrize("run, message", [
    # 1e300 s at 0.3 s a step: the run kept every step and never returned
    (_hysteresis_at(1e-300), r"= 3\.33e\+300 controlled steps; at most 1e\+06 are taken"),
    # 10,103 steps at t_stop = 3000 s; 1e9 s was accepted
    (lambda: run_transient(mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS)),
                           SimOptions(t_stop=1e9, adaptive=True), ["i(M2)"]),
     r"= 3\.33e\+09 controlled steps"),
    (lambda: run_transient(_circuit(MHZ_LOOP_DECK), SimOptions(t_stop=1000.0, adaptive=True),
                           ["i(Y1)"]),
     r"^1e\+03 s at most 5e-09 s a step = 2e\+11 controlled steps"),
], ids=["1e-300-hz", "2m-1e9-s", "1-mhz-1000-s"])
def test_a_controlled_run_too_long_or_too_fine_is_refused_before_its_first_step(
        monkeypatch, run, message):
    def march(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(engine._Steps, "march", march)
    with pytest.raises(ValueError, match=message):
        run()


@pytest.mark.parametrize("frequency", [1e160, 1e300])
def test_a_controlled_loop_of_the_finest_steps_runs_and_stays_finite(frequency):
    # steps of about 5e-303 s at 1e300 Hz: the BDF2 predictor's product of
    # two step differences underflowed to 0 (ZeroDivisionError), so such a
    # run was refused; the Lagrange weights divide by single differences
    trace = _hysteresis_at(frequency)()
    assert len(trace.t) == 6001
    for field in fields(trace):
        assert np.isfinite(getattr(trace, field.name)).all(), field.name


def test_a_controlled_run_at_the_step_bound_is_taken(monkeypatch):
    # 3 s at the 0.3 s cap needs 10 steps, 3.3 s needs 11
    monkeypatch.setattr(engine, "_MAX_CONTROLLED_STEPS", 10)
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    assert run_transient(cir, ADAPTIVE, ["i(M2)"]).waveform("i(M2)").t[-1] == 3.0
    with pytest.raises(ValueError, match=r"= 11 controlled steps; at most 1e\+01"):
        run_transient(cir, SimOptions(t_stop=3.3, adaptive=True), ["i(M2)"])


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


def test_transient_newton_failure_carries_trace_and_time(nan_sources):
    # sources read NaN after t = 0, so the first backward-Euler step fails
    nan_sources(lambda t: t != 0.0)
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
    (time, effective step) of every step's Newton call (a DC row's, which
    has no time, is left out)."""
    real = engine._Steps.iterate
    calls = []

    def iterate(self, x, values, dt_eff, hist, t=None, *predicted):
        if t is None:
            return real(self, x, values, dt_eff, hist, t, *predicted)
        calls.append((t, dt_eff))
        if dt_eff > largest:
            raise engine._IterationLimit(
                f"limit at t={t:.9g} s", trace=[(1, 0.5, math.nan)], time=t)
        return real(self, x, values, dt_eff, hist, t, *predicted)

    monkeypatch.setattr(engine._Steps, "iterate", iterate)
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


# The first 3 s chunk of a settled transient on three decks, and the budget
# on the largest |s - s_ref| of its end states: the errors of the
# error-controlled BDF2 steps (1.099e-5, 1.715e-6 and 1.180e-5), rounded
# up; the variable-order steps land 4-8 times closer
CHUNK_BUDGETS = [
    (MirrorKind.TWO_MEMRISTORS, 2.0, 1.10e-5),
    (MirrorKind.TWO_MEMRISTORS, 2.9, 1.72e-6),
    (MirrorKind.PMOS_MEMRISTOR, 2.0, 1.18e-5),
]


@pytest.mark.parametrize("kind, vdd, budget", CHUNK_BUDGETS,
                         ids=["2m-2.0V", "2m-2.9V", "pmos-m-2.0V"])
def test_a_controlled_chunk_ends_within_its_budget_of_the_reference(kind, vdd, budget):
    # the reference integrates the reduced state ODE with classical
    # Runge-Kutta steps of 20 ms; at 40 ms it lands within 9e-9 of that, so
    # its own error is below 1e-9
    cir = mirror_circuit(MirrorConfig(kind=kind, vdd=vdd))
    mems = [d for d in cir.devices if isinstance(d, BoundMemristor)]

    def currents(s):
        op = solve_dc(cir, states={m.name: sk * m.params.length for m, sk in zip(mems, s)})
        return [op.device_currents[m.name] for m in mems]

    s0 = [m.w0 / m.params.length for m in mems]
    params = [m.params for m in mems]
    coarse, reference = (oracles.o_rk4_states(currents, params, s0, 3.0, steps)
                         for steps in (75, 150))
    assert np.max(np.abs(coarse - reference)) <= 1e-8
    res = run_transient(cir, SimOptions(t_stop=3.0, adaptive=True), ["i(M2)"])
    got = [res.final_states[m.name] / m.params.length for m in mems]
    assert np.max(np.abs(got - reference)) <= budget


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


def test_a_non_finite_controlled_step_raises_without_a_cut(monkeypatch, nan_sources):
    nan_sources(lambda t: t != 0.0)
    calls = _newton_limited(monkeypatch, math.inf)
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    with pytest.raises(NonConvergenceError) as exc:
        run_transient(cir, ADAPTIVE, ["m(Y2)"])
    err = exc.value
    assert "non-finite" in str(err)
    assert err.time == 3.0 / engine._DEFAULT_STEPS
    assert len(err.trace) == 1 and len(calls) == 1


@pytest.mark.parametrize("opts, cut", [(SimOptions(dt=0.05, t_stop=3.0), False),
                                       (ADAPTIVE, False),
                                       (SimOptions(dt=0.05, t_stop=3.0), True)],
                         ids=["fixed", "controlled", "fixed-cut"])
def test_memristive_steps_record_the_currents_their_newton_accepted(
        monkeypatch, opts, cut):
    # every recorded step carries the device currents of the KCL its own
    # Newton accepted, with no second pass over the samples; they are the
    # batched KCL of a DC row at the step's solution, with the memristances
    # at its states (the m(...) probes), to the bit
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    topo = engine._Topology(cir)
    real = engine._DcRows.kcl
    calls = []
    monkeypatch.setattr(engine._DcRows, "kcl",
                        lambda self, *args: calls.append(args) or real(self, *args))
    steps = _newton_limited(monkeypatch, 0.01) if cut else []
    nodes = [f"v({n})" for n in cir.node_names[1:]]
    currents = [f"i({d.name})" for d in cir.devices]
    res = run_transient(cir, opts, nodes + currents + ["m(Y1)", "m(Y2)"])
    assert len(calls) == 0  # no batched KCL after the steps
    assert not cut or any(dt_eff < 0.05 for _, dt_eff in steps)
    t = res.waveform("i(M2)").t
    x = np.zeros((len(t), topo.dim))
    x[:, 1:topo.n_nodes] = np.array([res.waveform(n).values for n in nodes]).T
    x[:, topo.branch_cols] = np.array([res.waveform(f"i({s.name})").values
                                       for s in topo.sources]).T
    rows = engine._compile(topo, [None] * len(t))
    rows.r_mem = np.array([res.waveform(m).values for m in ("m(Y1)", "m(Y2)")])
    want, residual = real(rows, np.arange(len(t)), x)
    assert (residual < SimOptions.abstol).all()
    for k, name in enumerate(currents):
        assert res.waveform(name).values.tobytes() == want[:, k].tobytes(), name


# --------------------------------------------------------------------------- #
# controlled steps: the predicted start and the first-iterate stop
# --------------------------------------------------------------------------- #

def _spy_iterate(monkeypatch) -> list:
    """Every step's call of ``_Steps.iterate`` (a DC row's, which has no
    time, is left out), as a dict: its start ``x`` (nodes and branches)
    and ``s`` (states), copied before Newton moves them, its time ``t``,
    ``dt_eff`` and ``predicted`` flag, the contraction its ``_Steps`` held
    before it, and its ``result`` (None when it raised)."""
    calls = []
    real = engine._Steps.iterate

    def spy(self, x, values, dt_eff, hist, t=None, predicted=False):
        if t is None:
            return real(self, x, values, dt_eff, hist, t, predicted)
        dim = self.topo.dim
        call = dict(x=x[:dim], s=x[dim:], t=t, dt_eff=dt_eff, predicted=predicted,
                    contraction=self.contraction, result=None)
        calls.append(call)
        call["result"] = real(self, x, values, dt_eff, hist, t, predicted)
        return call["result"]

    monkeypatch.setattr(engine._Steps, "iterate", spy)
    return calls


def _spy_march(monkeypatch) -> list:
    """The (times, solutions, currents) every ``_Steps.march`` returns,
    each solution's states at its end."""
    marches = []
    real = engine._Steps.march
    monkeypatch.setattr(engine._Steps, "march", lambda self, *args:
                        marches.append(real(self, *args)) or marches[-1])
    return marches


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _order_of(call, ts, k) -> int:
    """The order of a controlled step taken after ``k`` accepted times
    ``ts``, read from its ``dt_eff``: 1 / sum(1 / (t - t_j)) over the last
    q accepted times is the corrector's at order q, so ``dt_eff`` times
    that sum is 1 to rounding at the step's own order, and off by a whole
    term at any other."""
    t = call["t"]
    return min(range(1, min(k, engine._MAX_ORDER) + 1),
               key=lambda q: abs(call["dt_eff"] * sum(1.0 / (t - tj) for tj in ts[k - q:k])
                                 - 1.0))


@pytest.mark.parametrize("kind, vdd, retried", [
    (MirrorKind.TWO_MEMRISTORS, None, False),
    (MirrorKind.PMOS_MEMRISTOR, None, False),
    (MirrorKind.PMOS_MEMRISTOR, 2.5, True),  # 82 steps, 4 of them retried
], ids=["2m", "pmos-m", "pmos-m-2.5V"])
def test_steps_start_at_their_orders_extrapolant(monkeypatch, kind, vdd, retried):
    # the first step starts at the last accepted solution; every later step
    # of order k at the degree-k extrapolant through the last k + 1
    # accepted solutions, the states clamped to [0, 1], its weights those of
    # the accepted times' offsets from the step's end; a rejected step's
    # retry predicts again from the same solutions
    calls = _spy_iterate(monkeypatch)
    marches = _spy_march(monkeypatch)
    run_transient(mirror_circuit(MirrorConfig(kind=kind, vdd=vdd)), ADAPTIVE, ["i(M2)"])
    (ts, solutions, _), = marches
    dim = len(calls[0]["x"])
    orders = set()
    k = 1  # solutions accepted before the call, the start included
    for call in calls:
        if k == 1:
            want = solutions[0]
        else:
            order = _order_of(call, ts, k)
            orders.add(order)
            offsets = tuple(tj - call["t"] for tj in ts[k - order - 1:k])
            want = engine._combine(engine._lagrange(offsets, 0.0)[order],
                                   solutions[k - order - 1:k])
            want[dim:] = [min(max(s, 0.0), 1.0) for s in want[dim:]]
        assert call["predicted"] == (k > 1)
        assert _bits(call["x"] + call["s"]) == _bits(want)
        if (k < len(ts) and call["result"] is not None
                and call["result"][0] is solutions[k]):
            k += 1
    assert k == len(ts) and (len(calls) > k) == retried  # every accepted step
    assert orders == set(range(1, engine._MAX_ORDER + 1))


# BDF-k on a uniform history, as ``s = sum(w_j * s_j) + dt_eff * ds/dt``:
# the weights of s_{n+1-k} .. s_n and dt_eff / h (Gear 1971, table 11.1)
TEXTBOOK_BDF = {
    1: ([1.0], 1.0),
    2: ([-1 / 3, 4 / 3], 2 / 3),
    3: ([2 / 11, -9 / 11, 18 / 11], 6 / 11),
    4: ([-3 / 25, 16 / 25, -36 / 25, 48 / 25], 12 / 25),
    5: ([12 / 137, -75 / 137, 200 / 137, -300 / 137, 300 / 137], 60 / 137),
}


@pytest.mark.parametrize("order", sorted(TEXTBOOK_BDF))
def test_the_corrector_on_uniform_steps_is_textbook_bdf(order):
    h, t = 0.01, 0.37
    nodes = [t - (order - j) * h for j in range(order)]
    dt_eff, weights = engine._bdf(nodes, t, engine._lagrange(nodes, t)[order - 1])
    want, scale = TEXTBOOK_BDF[order]
    assert weights == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert dt_eff == pytest.approx(scale * h, rel=1e-12)
    # Milne's constant: the corrector's error constant dt_eff / ((k + 1) h)
    # against the predictor's 1
    c = scale / (order + 1)
    assert engine._MILNE[order] == pytest.approx(c / (1.0 + c), rel=1e-15)


def test_backward_euler_is_exact_at_order_one():
    # an uncontrolled (cut) step is order 1: hist and dt_eff to the bit
    t, h = 0.3, 0.1
    assert engine._bdf([t - h], t, [1.0]) == (t - (t - h), [1.0])


@pytest.mark.parametrize("order", range(2, engine._MAX_ORDER + 1))
def test_each_orders_growth_limit_keeps_its_steps_zero_stable(order):
    # on steps growing by a constant ratio r, BDF-k applied to ds/dt = 0 is
    # the recurrence s_{n+1} = sum(w_j * s_j); at r = _GROWTH_LIMIT[k] every
    # root but the one at 1 lies inside the unit circle
    ratio = engine._GROWTH_LIMIT[order]
    steps = [ratio ** j for j in range(order)]
    nodes = [-sum(steps[j:]) for j in range(order)]  # the last at -1, t = 0
    _, weights = engine._bdf(nodes, 0.0, engine._lagrange(nodes, 0.0)[order - 1])
    roots = np.roots([1.0] + [-w for w in reversed(weights)])
    roots = np.delete(roots, np.argmin(np.abs(roots - 1.0)))
    assert np.abs(roots).max() < 1.0


def test_a_capped_drive_climbs_an_order_a_step_and_keeps_the_most_accurate(
        monkeypatch):
    # in DASSL's initial phase the order rises by one after every step its
    # estimate lets grow at its limit; where the sine caps the steps, the
    # orders allow alike and the smallest estimate, order 5's, is taken
    # (without that choice the 3 V drive stayed at order 3)
    calls = _spy_iterate(monkeypatch)
    marches = _spy_march(monkeypatch)
    for amplitude in (1.0, 3.0):
        hysteresis_trace(MEMRISTOR_DEFAULTS,
                         SourceSpec(kind="sine", amplitude=amplitude, frequency=500.0))
    (ts, solutions, _), (ts3, _, _) = marches
    first, k = [], 1
    for call in calls[:6]:
        first.append(_order_of(call, ts, k) if k > 1 else 1)
        assert call["result"][0] is solutions[k]  # none is rejected
        k += 1
    assert first == [1, 1, 2, 3, 4, 5]
    top = [_order_of(c, ts3, int(np.searchsorted(ts3, c["t"]))) for c in calls[-100:]]
    assert top == [engine._MAX_ORDER] * 100


@pytest.mark.parametrize("kind", [MirrorKind.TWO_MEMRISTORS, MirrorKind.PMOS_MEMRISTOR])
def test_a_settled_transient_steps_above_order_two(monkeypatch, kind):
    steps = []
    real = engine._Steps.march
    monkeypatch.setattr(engine._Steps, "march", lambda self, *args:
                        steps.append(self) or real(self, *args))
    settled_transient(mirror_circuit(MirrorConfig(kind=kind)))
    counts = [sum(column) for column in zip(*(s.orders for s in steps))]
    assert len(counts) == engine._MAX_ORDER + 1 and counts[0] == 0
    assert sum(counts[3:]) > 0


def test_a_step_that_leaves_a_state_at_a_bound_is_followed_by_backward_euler(
        monkeypatch):
    # under a flat window (p = 0) the state reaches its bounds, where the
    # steps clamp it; every step taken from a clamped state is order 1,
    # whose dt_eff is its whole step
    calls = _spy_iterate(monkeypatch)
    marches = _spy_march(monkeypatch)
    hysteresis_trace(MemristorParams(window_p=0, mobility=10 * CALIBRATED_MOBILITY),
                     SourceSpec(kind="sine", amplitude=3.0, frequency=5.0))
    dim = len(calls[0]["x"])
    followed, calls = 0, iter(calls)
    for ts, solutions, _ in marches:  # the drive runs more than once from t = 0
        k = 1  # solutions accepted before the call, the start included
        for call in calls:
            if 0.0 in solutions[k - 1][dim:] or 1.0 in solutions[k - 1][dim:]:
                assert call["dt_eff"] == call["t"] - ts[k - 1]
                followed += 1
            if call["result"] is not None and call["result"][0] is solutions[k]:
                k += 1
                if k == len(ts):
                    break
    assert followed > 10


@pytest.mark.parametrize("dt, cut", [(0.005, False), (0.05, True)], ids=["fixed", "cut"])
def test_fixed_grid_and_cut_steps_start_at_the_previous_solution(monkeypatch, dt, cut):
    calls = _spy_iterate(monkeypatch)
    limited = _newton_limited(monkeypatch, 0.01)  # cuts every step over 10 ms
    run_transient(mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS)),
                  SimOptions(dt=dt, t_stop=0.5), ["i(M2)"])
    assert cut == any(dt_eff < dt for _, dt_eff in limited)
    for previous, call in zip(calls, calls[1:]):
        assert not call["predicted"]
        dim = len(call["x"])
        assert _bits(call["x"]) == _bits(previous["result"][0][:dim])
        assert _bits(call["s"]) == _bits(previous["result"][0][dim:])


def test_dc_rows_fixed_grid_and_cut_steps_never_stop_at_a_first_iterate(monkeypatch):
    # with _KAPPA infinite, the stop takes every first iterate it may; these
    # Newtons give the bits they give with it at 0, where it never fires,
    # and measure no contraction
    limited = _newton_limited(monkeypatch, 0.01)
    decks = [mirror_circuit(MirrorConfig(kind=kind)) for kind in MirrorKind]
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))

    def outputs():
        ops = [solve_dc(deck) for deck in decks]
        runs = [run_transient(cir, SimOptions(dt=dt, t_stop=0.5), ["i(M2)", "m(Y2)"])
                for dt in (0.005, 0.05)]
        return ([(_bits(op.node_voltages), op.newton_iterations) for op in ops]
                + [w.values.tobytes() for res in runs for w in res.waveforms])

    monkeypatch.setattr(engine, "_KAPPA", 0.0)
    never = outputs()
    monkeypatch.setattr(engine, "_KAPPA", math.inf)
    calls = _spy_iterate(monkeypatch)
    assert outputs() == never
    assert any(dt_eff < 0.05 for _, dt_eff in limited)
    assert calls and not any(c["predicted"] or c["contraction"] is not None
                             for c in calls)


def test_a_predicted_step_stops_early_only_after_a_contraction_is_measured(
        monkeypatch):
    # the first predicted step has no contraction to go by, so even with
    # _KAPPA infinite it takes a second iteration, which measures one; then
    # the predicted steps stop at their first iterates
    monkeypatch.setattr(engine, "_KAPPA", math.inf)
    calls = _spy_iterate(monkeypatch)
    run_transient(mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS)),
                  ADAPTIVE, ["i(M2)"])
    predicted = [c for c in calls if c["predicted"]]
    assert predicted[0]["contraction"] is None and predicted[0]["result"][-1] >= 2
    assert all(c["contraction"] > 0.0 for c in predicted[1:])
    assert sum(c["result"][-1] == 1 for c in predicted[1:]) >= 0.9 * len(predicted[1:])


def _a_converged_step():
    """A ``_Steps`` of ``2m`` and one backward-Euler step it converged:
    (steps, x, s, and the (values, dt_eff, hist, t) of its system)."""
    compiled = engine._compile(mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS)),
                               states={}).solve()
    steps = engine._Steps(compiled)
    t = dt = 0.01
    values = [engine.source_value(spec, t) for spec in steps.specs]
    with np.errstate(all="ignore"):
        x, *_ = steps.iterate(compiled.x[0].tolist() + compiled.states, values, dt,
                              compiled.states, t)
    dim = steps.topo.dim
    return steps, x[:dim], x[dim:], (values, dt, compiled.states, t)


@pytest.mark.parametrize("node_shift, state_shift, contraction, tried", [
    (0.3, 0.0, 1e-300, True),
    (0.6, 0.0, 1e-300, False),  # the node's update is clipped at _DAMP_LIMIT
    (0.0, 0.1, 1e-300, True),
    (0.0, 0.3, 1e-300, False),  # the state's update is clipped at _STATE_LIMIT
    (1e-4, 0.0, None, False),   # no contraction measured yet
], ids=["node", "node-clipped", "state", "state-clipped", "unmeasured"])
def test_the_stop_is_tried_only_on_an_unclipped_first_update(
        monkeypatch, node_shift, state_shift, contraction, tried):
    # a predicted Newton started off a step's solution, its update far
    # above its tolerance: the stop is tried (KCL is evaluated right after
    # the first solve) only with a contraction measured and no update
    # clipped; else Newton takes its second iteration
    steps, x, s, (values, dt_eff, hist, t) = _a_converged_step()
    start_x, start_s = list(x), list(s)
    start_x[steps.topo.damped_nodes[-1]] += node_shift
    start_s[0] -= state_shift
    events = []
    for name in ("assemble", "kcl"):
        real = getattr(engine._Steps, name)
        monkeypatch.setattr(engine._Steps, name, lambda self, *args, real=real, name=name:
                            events.append(name) or real(self, *args))
    steps.contraction = contraction
    with np.errstate(all="ignore"):
        *_, iterations = steps.iterate(start_x + start_s, values, dt_eff, hist, t, True)
    assert (events[:2] == ["assemble", "kcl"]) == tried
    assert tried or iterations >= 2


def test_a_first_iterate_is_taken_only_below_kappa():
    # 0.1 mV off a step's solution, w1 tolerances: with C * w1**2 at half
    # _KAPPA the first iterate is taken, at twice _KAPPA Newton takes its
    # second iteration
    steps, x, s, (values, dt_eff, hist, t) = _a_converged_step()
    node = steps.topo.damped_nodes[-1]
    start = list(x)
    start[node] += 1e-4
    w1 = 1e-4 / (SimOptions.vntol + SimOptions.reltol * abs(x[node]))
    taken = []
    for model in (0.5 * engine._KAPPA, 2.0 * engine._KAPPA):
        steps.contraction = model / (w1 * w1)
        with np.errstate(all="ignore"):
            taken.append(steps.iterate(start + s, values, dt_eff, hist, t, True)[-1])
    assert taken == [1, 2]


@pytest.mark.parametrize("kind", [MirrorKind.TWO_MEMRISTORS, MirrorKind.PMOS_MEMRISTOR])
def test_a_settled_transient_takes_about_one_iteration_per_step(monkeypatch, kind):
    # 2.38 list-Newton iterations per accepted BDF2 step started at the
    # last solution and stopped by the update test alone; about 1.05 with
    # the predicted start and the first-iterate stop (rejected and cut
    # steps' iterations included), and about 1.04 on the variable-order
    # steps, which take 54-64 steps where BDF2 took 163-182
    calls = _spy_iterate(monkeypatch)
    marches = _spy_march(monkeypatch)
    settled_transient(mirror_circuit(MirrorConfig(kind=kind)))
    steps = sum(len(ts) - 1 for ts, *_ in marches)
    iterations = sum(engine._MAX_NEWTON_ITERS if c["result"] is None else c["result"][-1]
                     for c in calls)
    assert steps > 40 and iterations <= 1.2 * steps


# --------------------------------------------------------------------------- #
# the memristive step system
# --------------------------------------------------------------------------- #

# circuits whose step systems are checked against their DC rows: both
# memristive mirrors, and the lone window-2 memristor, which has no MOSFET
STEP_CIRCUITS = {
    "2m": lambda: mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS)),
    "pmos-m": lambda: mirror_circuit(MirrorConfig(kind=MirrorKind.PMOS_MEMRISTOR)),
    "p2": lambda: _circuit(P2_DECK),
}


@pytest.mark.parametrize("name", sorted(STEP_CIRCUITS))
def test_step_node_block_is_the_dc_row_at_the_states_memristances(name):
    # the steps add their stamps in the DC rows' order, so at any (x, s) a
    # step at dt_eff = 0 whose history is its states s has the DC row's
    # matrix and right-hand side with the memristances frozen at M(s), and
    # that row's device currents and KCL residual, to the bit; its states
    # stay at s, those at a bound included, whatever the node voltages
    topo = engine._Topology(STEP_CIRCUITS[name]())
    compiled = engine._compile(topo).solve()
    steps = engine._Steps(compiled)
    dim, row = topo.dim, np.zeros(1, dtype=int)
    rng = np.random.default_rng(14)
    for k in range(21):
        x = [0.0] + rng.uniform(-0.5, 3.0, dim - 1).tolist()
        s = rng.uniform(0.0, 1.0, len(topo.memristors)).tolist()
        s[-1] = (0.0, 1.0, s[-1])[k % 3]
        t = float(rng.uniform(0.0, 1.0))
        values = [engine.source_value(spec, t) for spec in steps.specs]
        g_mat, rhs, states = steps.assemble(x + s, values, 0.0, s)
        frozen = engine._compile(topo, states=s, source_time=t)
        want, want_rhs = frozen.assemble(row, np.array([x]))
        assert g_mat.tobytes() == want[0].tobytes()
        assert rhs.tobytes() == want_rhs[0].tobytes()
        v = rng.uniform(-0.5, 3.0, dim).tolist()
        for (a, b, *_), (rs, d_dv, d_ds), sk in zip(steps.memristors, states, s):
            assert (rs - d_dv * (v[a] - v[b])) / d_ds == sk
        currents, residual = frozen.kcl(row, np.array([x]))
        by_kind, step_residual = steps.kcl(x + s)
        assert np.array(by_kind).tobytes() == currents[0, topo.kind_order].tobytes()
        assert step_residual == residual[0]


@pytest.mark.parametrize("size", range(4, 10))
def test_step_solve_is_numpy_solve_to_the_bit(size):
    # the steps and the DC rows call numpy.linalg.solve's own LAPACK kernel
    # without its wrapper; a numpy whose kernel no longer matches fails here
    rng = np.random.default_rng(size)
    for _ in range(50):
        g_mat = rng.standard_normal((size, size)) + size * np.eye(size)
        rhs = rng.standard_normal(size)
        with np.errstate(all="ignore"):
            solved = engine._solve1(g_mat, rhs)
        assert solved.tobytes() == np.linalg.solve(g_mat, rhs).tobytes()
    # a singular matrix reads NaN there, where numpy.linalg.solve raises
    g_mat[1] = 0.0
    with np.errstate(all="ignore"):
        assert np.isnan(engine._solve1(g_mat, rhs)).all()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(g_mat, rhs)
    # on a stack, as the DC rows solve, each system is solved on its own:
    # a singular one reads NaN in its own row alone
    for count in (1, 7, 512):
        g_mat = rng.standard_normal((count, size, size)) + size * np.eye(size)
        rhs = rng.standard_normal((count, size))
        want = np.linalg.solve(g_mat, rhs[..., None])[..., 0]
        assert engine._solve1(g_mat, rhs).tobytes() == want.tobytes()
        g_mat[count // 2, 1] = 0.0
        with np.errstate(all="ignore"):
            solved = engine._solve1(g_mat, rhs)
        assert np.isnan(solved[count // 2]).all()
        others = np.arange(count) != count // 2
        assert solved[others].tobytes() == want[others].tobytes()


@pytest.mark.parametrize("opts", [SimOptions(dt=1e-3, t_stop=0.01),
                                  SimOptions(t_stop=0.01, adaptive=True)],
                         ids=["fixed", "adaptive"])
def test_a_singular_step_system_raises_singular_matrix_error(monkeypatch, opts):
    # t = 0 is a DC row, a step at dt_eff = 0; every step after it has a
    # zero node row
    real = engine._Steps.assemble

    def assemble(self, x, values, dt_eff, hist):
        g_mat, rhs, states = real(self, x, values, dt_eff, hist)
        if dt_eff:
            g_mat[1] = 0.0
        return g_mat, rhs, states

    monkeypatch.setattr(engine._Steps, "assemble", assemble)
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    with pytest.raises(SingularMatrixError) as exc:
        run_transient(cir, opts, ["m(Y2)"])
    assert str(exc.value) == f"singular nodal matrix while solving {cir.title!r}"


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


# the rows one stack of DC samples holds of the 7-unknown pmos-r mirror;
# each block-boundary test bounds the stacks so that its own circuit stacks
# this many rows (_stack_blocks), which keeps its per-sample loops short
BLOCK = engine._stack_rows(7)

# sample counts that are not multiples of the block size: a full block and
# part of one, and two full blocks and part of a third
PARTIAL_BLOCK = BLOCK + 9
THREE_BLOCKS = 2 * BLOCK + 7


def _stack_blocks(monkeypatch, circuit: Circuit) -> None:
    """Bound the stacks of DC samples (engine._STACK_ENTRIES) so that one
    holds BLOCK rows of ``circuit``."""
    dim = engine._Topology(circuit).dim
    monkeypatch.setattr(engine, "_STACK_ENTRIES", BLOCK * dim ** 2)
    assert engine._stack_rows(dim) == BLOCK


@pytest.mark.parametrize("name, samples", [
    ("2r", THREE_BLOCKS),
    ("pmos-r", PARTIAL_BLOCK),
    ("resistor-loop", PARTIAL_BLOCK),
    ("resistor-loop", THREE_BLOCKS),
])
def test_memoryless_samples_equal_lone_dc_solves(monkeypatch, name, samples):
    build, dt = MEMORYLESS[name]
    cir = build()
    _stack_blocks(monkeypatch, cir)
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
        op = solve_dc(cir, source_time=time)
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
    # a controlled run read on a grid takes its states from the quadratic
    # read, clamped to [0, 1] as the steps clamp their states
    def dense(ts, ss, times):
        return np.clip(engine._quadratic_read(ts, ss, times), 0.0, 1.0)

    ts = [0.0, 0.1, 0.25, 0.3, 0.7, 1.0]
    ss = [[0.1 + 0.8 * t ** 3] for t in ts]
    # accepted times read their accepted states exactly
    assert dense(ts, ss, np.array(ts)).tolist() == ss
    # a time in (ts[k-1], ts[k]] reads the quadratic through k-2, k-1 and k;
    # the first interval the quadratic through the first three
    for t, k in [(0.05, 2), (0.2, 2), (0.28, 3), (0.5, 4), (0.9, 5)]:
        fit = np.polyfit(ts[k - 2:k + 1], [s for s, in ss[k - 2:k + 1]], 2)
        got = dense(ts, ss, np.array([t]))
        assert got[0, 0] == pytest.approx(np.polyval(fit, t), rel=1e-12)
    # a quadratic's states are read back as they are, clamped to [0, 1]
    times = np.linspace(0.0, 1.0, 41)
    got = dense(ts, [[4.4 * t * (1.0 - t)] for t in ts], times)[:, 0]
    assert got.max() == 1.0
    assert got == pytest.approx(np.minimum(4.4 * times * (1.0 - times), 1.0), abs=1e-14)


@pytest.mark.parametrize("samples", [PARTIAL_BLOCK, THREE_BLOCKS])
def test_controlled_steps_on_a_grid_record_dc_solutions_at_their_states(
        monkeypatch, samples):
    cir = _circuit(P2_DECK)
    _stack_blocks(monkeypatch, cir)
    dt = 2e-4
    opts = SimOptions(dt=dt, t_stop=(samples - 1) * dt, adaptive=True)
    res = run_transient(cir, opts, ["v(mid)", "i(Y1)", "w(Y1)"])
    t = res.waveform("i(Y1)").t
    assert t.tobytes() == (np.arange(samples) * dt).tobytes()
    v, i, w = (wave.values for wave in res.waveforms)
    # each sample is the DC solution at its source time and its state
    for k in list(range(0, samples, 37)) + [samples - 1]:
        op = solve_dc(cir, states={"Y1": w[k]}, source_time=t[k])
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
    _stack_blocks(monkeypatch, cir)
    built = []
    real = engine._Topology.__init__

    def init(self, circuit):
        built.append(circuit)
        real(self, circuit)

    monkeypatch.setattr(engine._Topology, "__init__", init)
    run_transient(cir, opts, [probe])
    assert built == [cir]


PAST_A_BLOCK = BLOCK + 3


@pytest.mark.parametrize("supply, first_bad", [
    pytest.param("dc", 1, id="1"),
    pytest.param("dc", PAST_A_BLOCK, id=f"{PAST_A_BLOCK}"),
    pytest.param("sine", PAST_A_BLOCK, id=f"sine-{PAST_A_BLOCK}"),
])
def test_memoryless_transient_raises_at_the_earliest_failing_sample(
        monkeypatch, nan_sources, supply, first_bad):
    # sources read NaN from sample ``first_bad`` on; every such sample fails
    # its cold Newton and its source-stepping retry.  Under the dc supply
    # the samples before it share one distinct row; under a sine too slow
    # to repeat a value each is its own, so the first failing distinct row
    # lies past the first block of rows
    dt = 1e-3
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    _stack_blocks(monkeypatch, cir)
    if supply == "sine":
        cir.device("V1").spec = SourceSpec(kind="sine", dc_value=3.0, amplitude=0.5,
                                           frequency=0.3)
    sources = [d.spec for d in cir.devices if isinstance(d, BoundSource)]
    before = {np.array([source_value(spec, k * dt) for spec in sources]).tobytes()
              for k in range(first_bad)}
    assert len(before) == (1 if supply == "dc" else first_bad)
    nan_sources(lambda t: t >= first_bad * dt)
    with pytest.raises(NonConvergenceError) as exc:
        run_transient(cir, SimOptions(dt=dt, t_stop=1.0), ["i(M2)"])
    err = exc.value
    assert err.time == first_bad * dt
    assert f"at t={first_bad * dt:.9g} s" in str(err)
    assert "source stepping stalled" in str(err)
    assert len(err.trace) == 1 and err.trace[0][0] == 1


def _compiled_rows(monkeypatch) -> list:
    """Row counts of every engine._compile call from here on."""
    counts = []
    real = engine._compile

    def spy(circuit, temps=(None,), **kwargs):
        counts.append(len(temps))
        return real(circuit, temps, **kwargs)

    monkeypatch.setattr(engine, "_compile", spy)
    return counts


def test_memoryless_transient_compiles_each_distinct_sample_once(monkeypatch):
    # the THD analysis's run: 10 periods of 200 samples; a sample's row is
    # the bits of its source values, and only the distinct rows are solved
    cir = _sine_supplied(MirrorKind.TWO_RESISTORS)
    dt, samples = 1e-4, 2001
    sources = [d.spec for d in cir.devices if isinstance(d, BoundSource)]
    distinct = {np.array([source_value(spec, k * dt) for spec in sources]).tobytes()
                for k in range(samples)}
    counts = _compiled_rows(monkeypatch)
    res = run_transient(cir, SimOptions(dt=dt, t_stop=(samples - 1) * dt), ["i(M2)"])
    assert len(res.waveform("i(M2)").t) == samples
    assert sum(counts) == len(distinct) < samples
    assert max(counts) <= engine._stack_rows(engine._Topology(cir).dim)


# a lone memristor across a source: 3 unknowns (ground, in, V1's branch)
LONE_MEMRISTOR = (
    "Y1 in 0 MEM m0=5k\n"
    ".model MEM MEMRISTOR (ron=100 roff=38k l=10n uv=2e-14 p=2 pol=1)\n"
)


def test_dc_samples_are_keyed_by_their_bits_in_first_sample_order(monkeypatch):
    # under a DC supply the states alone tell the samples apart: 0.0 and
    # -0.0 compare equal but differ in their bits, so they are two rows,
    # and samples of equal bits share one; the distinct rows compile in
    # the order of their first samples
    topo = engine._Topology(_circuit("V1 in 0 DC 1\n" + LONE_MEMRISTOR))
    states = np.array([[0.5], [0.0], [0.5], [-0.0], [0.25], [0.0], [-0.0]])
    compiled = []
    real = engine._compile

    def spy(circuit, temps=(None,), **kwargs):
        compiled.append(np.array(kwargs["states"][0]))
        return real(circuit, temps, **kwargs)

    monkeypatch.setattr(engine, "_compile", spy)
    times = np.zeros(len(states))
    xs, currents = engine._dc_samples(topo, times, states)
    assert len(compiled) == 1
    assert compiled[0].tobytes() == np.array([0.5, 0.0, -0.0, 0.25]).tobytes()
    # each sample reads its own solve, to the bit
    for k in range(len(states)):
        x, c = engine._dc_samples(topo, times[:1], states[k:k + 1])
        assert xs[k].tobytes() == x[0].tobytes()
        assert currents[k].tobytes() == c[0].tobytes()


def test_dc_sample_stacks_are_bounded_by_matrix_entries(monkeypatch):
    # a 3-unknown loop's 2,001-sample grid, each sample at its own state,
    # is one stack after the t = 0 row; a 7-unknown mirror's distinct
    # samples split at 512 rows
    counts = _compiled_rows(monkeypatch)
    loop = _circuit("V1 in 0 SIN(0 0.5 5)\n" + LONE_MEMRISTOR)
    assert engine._Topology(loop).dim == 3
    run_transient(loop, SimOptions(dt=1e-4, t_stop=0.2, adaptive=True), ["i(Y1)"])
    assert counts == [1, 2001] and engine._stack_rows(3) >= 2001
    counts.clear()
    mirror = _sine_supplied(MirrorKind.PMOS_RESISTOR)
    assert engine._Topology(mirror).dim == 7
    run_transient(mirror, SimOptions(dt=1e-4, t_stop=0.2), ["i(M2)"])
    assert len(counts) > 1 and counts[:-1] == [512] * (len(counts) - 1)
    assert 0 < counts[-1] <= 512


def test_dc_supplied_transient_compiles_one_row(monkeypatch):
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    opts = SimOptions(dt=1e-3, t_stop=0.1)
    nodes = range(1, len(cir.node_names))
    names = [d.name for d in cir.devices]
    counts = _compiled_rows(monkeypatch)
    res = run_transient(cir, opts, [f"v({cir.node_names[n]})" for n in nodes]
                        + [f"i({name})" for name in names])
    assert counts == [1]
    t = res.waveforms[0].t
    assert len(t) == 101
    for k, time in enumerate(t.tolist()):
        op = solve_dc(cir, source_time=time)
        for j, n in enumerate(nodes):
            assert res.waveforms[j].values[k] == op.node_voltages[n]
        for j, name in enumerate(names):
            assert res.waveforms[len(nodes) + j].values[k] == op.device_currents[name]


def test_mosfet_free_rows_are_assembled_and_solved_once(monkeypatch):
    # a MOSFET-free system does not depend on Newton's guess: each block's
    # first iteration solves it, and no MOSFET law is evaluated
    calls = []
    for name in ("_solve1", "mosfet_linearized_array"):
        real = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    counts = _compiled_rows(monkeypatch)
    build, dt = MEMORYLESS["resistor-loop"]
    cir = build()
    _stack_blocks(monkeypatch, cir)
    run_transient(cir, SimOptions(dt=dt, t_stop=(THREE_BLOCKS - 1) * dt), ["i(R1)"])
    assert len(counts) >= 2 and calls == ["_solve1"] * len(counts)


def test_non_finite_iterate_fails_after_one_iteration(monkeypatch):
    # a lone row evaluates its MOSFETs through the scalar law, a stack of
    # rows through the array law
    monkeypatch.setattr(engine, "mosfet_square_law", lambda *args: (math.nan,) * 3)
    monkeypatch.setattr(
        engine, "mosfet_linearized_array",
        lambda vgs, *args: (np.full_like(vgs, math.nan),) * 3,
    )
    monkeypatch.setattr(engine, "_SOURCE_STEPS", 1)
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    with pytest.raises(NonConvergenceError) as exc:
        solve_dc(cir)
    stack = engine._compile(cir, [None, None]).solve()
    for err in (exc.value, stack.errors[0], stack.errors[1]):
        assert type(err) is NonConvergenceError
        assert "non-finite" in str(err)
        assert len(err.trace) == 1


def test_a_stack_whose_mosfet_law_overflows_fails_as_its_lone_row():
    # at vgs = -1e300 the square law reads inf - inf: the stacked Newton
    # raised numpy's RuntimeWarning (an error in this suite) where a lone
    # row, on Python floats, finds the system singular
    cir = _circuit("V1 a 0 SIN(-1e300 0.5 5)\nM0 a 0 0 0 NCH\n.model NCH nmos ()\n")
    with pytest.raises(SingularMatrixError) as alone:
        solve_dc(cir)
    rows = engine._compile(cir, [None, None]).solve()
    assert [str(err) for err in rows.errors.values()] == [str(alone.value)] * 2


def assert_same_op(a, b):
    """Two operating points equal field by field, node voltages to the bit."""
    assert a.node_voltages.tobytes() == b.node_voltages.tobytes()
    assert a.device_currents == b.device_currents
    assert a.source_currents == b.source_currents
    assert a.kcl_residual == b.kcl_residual
    assert a.newton_iterations == b.newton_iterations


def assert_same_outcome(batched, circuit):
    """A batch row is what solving ``circuit`` alone gives: the same
    operating point or the same error."""
    try:
        single = solve_dc(circuit)
    except SimulationError as exc:
        assert type(batched) is type(exc)
        assert str(batched) == str(exc)
        # traces hold NaN residuals, which compare unequal to themselves
        assert repr(getattr(batched, "trace", None)) == repr(
            getattr(exc, "trace", None))
        return
    assert_same_op(batched, single)


def solve_together(circuits, temps=None) -> list:
    """``circuits``, of one topology, compiled as the rows of one batch, each
    device's column taken from them, and solved: each row's operating point,
    or its error."""
    records = {j: list(column)
               for j, column in enumerate(zip(*(c.devices for c in circuits)))}
    rows = engine._compile(circuits[0], temps or [None] * len(circuits),
                           records=records).solve()
    return [rows.errors.get(k) or rows.operating_point(k)
            for k in range(len(circuits))]


def singular_where_r2_is(monkeypatch, r_nominal: float) -> None:
    """Every row compiled from here on whose R2 is ``r_nominal`` gets no
    linear part, in its stack and solved alone, which leaves its ground
    row empty."""
    compile_rows, compile_steps = engine._DcRows.__init__, engine._Steps.__init__

    def compile_with_singular_rows(self, topo, temps, records, *args):
        compile_rows(self, topo, temps, records, *args)
        position = topo.circuit.devices.index(topo.circuit.device("R2"))
        r2 = records.get(position, topo.circuit.devices[position:position + 1])
        for k, device in enumerate(r2):
            if not isinstance(device, Exception) and device.params.r_nominal == r_nominal:
                self.g_lin[k] = 0.0

    def steps_on_singular_rows(self, rows, row=0):
        compile_steps(self, rows, row)
        if not rows.g_lin[row].any():
            self.g_base = [0.0] * len(self.g_base)

    monkeypatch.setattr(engine._DcRows, "__init__", compile_with_singular_rows)
    monkeypatch.setattr(engine._Steps, "__init__", steps_on_singular_rows)


def test_batch_steps_sources_row_by_row(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 6)
    monkeypatch.setattr(engine, "_SOURCE_STEPS", 3)
    base = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    # converges cold, converges by source stepping, stalls while stepping
    circuits = [with_override(base, "R2.r_nominal", r)
                for r in (20e3, 38e3, 60e3, 100e3)]
    batched = solve_together(circuits)
    for circuit, result in zip(circuits, batched):
        assert_same_outcome(result, circuit)
    assert batched[1].newton_iterations <= engine._MAX_NEWTON_ITERS
    assert batched[2].newton_iterations > engine._MAX_NEWTON_ITERS
    assert "source stepping stalled" in str(batched[3])


def test_rows_are_solved_in_place(monkeypatch):
    # one compiled batch with a row of each kind: converged cold, an
    # invalid record, singular, converged by source stepping, and stalled
    # while stepping after converging at a lower scale
    base = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    values = [20e3, -1.0, 30e3, 60e3, 100e3]
    monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 6)
    monkeypatch.setattr(engine, "_SOURCE_STEPS", 3)
    singular_where_r2_is(monkeypatch, 30e3)
    position, records, errors = overrides(base, "R2.r_nominal", values)
    rows = engine._compile(base, [None] * len(values), records={position: records})
    rows.errors.update(errors)
    rows.solve()

    alone = []
    for value in values:
        try:
            alone.append(solve_dc(with_override(base, "R2.r_nominal", value)))
        except (ElaborationError, SimulationError) as exc:
            alone.append(exc)
    failed = [k for k, single in enumerate(alone) if isinstance(single, Exception)]
    assert failed == [1, 2, 4] and sorted(rows.errors) == failed
    assert isinstance(rows.errors[2], SingularMatrixError)
    for k in failed:
        assert type(rows.errors[k]) is type(alone[k])
        assert str(rows.errors[k]) == str(alone[k])
        for array in (rows.x, rows.iterations, rows.currents, rows.residual):
            assert np.isnan(array[k]).all()
    assert "stalled at scale 0.67" in str(rows.errors[4])
    for k in (0, 3):
        assert_same_op(rows.operating_point(k), alone[k])
    assert rows.iterations[3] == alone[3].newton_iterations > engine._MAX_NEWTON_ITERS


@pytest.mark.parametrize("circuit, path, values", [
    (mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS)), "R2.r_nominal",
     [1e3, -1.0]),
    (_circuit("V1 a 0 SIN(0 1 50)\nR1 a 0 1k\n"), "V1.frequency", [50.0, -1.0]),
], ids=["resistor", "sine-frequency"])
def test_a_failed_override_is_a_row_error_not_a_record(circuit, path, values):
    position, records, errors = overrides(circuit, path, values)
    assert records[1] is circuit.devices[position]
    assert list(errors) == [1] and type(errors[1]) is ElaborationError
    assert type(errors[1].__cause__) is DeviceError
    with pytest.raises(ElaborationError) as alone:
        with_override(circuit, path, values[1])
    name = circuit.devices[position].name
    assert str(errors[1]) == str(alone.value) == f"{name}: {errors[1].__cause__}"
    # the failed row carries that error and is not solved
    rows = engine._compile(circuit, [None, None], records={position: records})
    rows.errors.update(errors)
    rows.solve()
    assert rows.errors == {1: errors[1]}
    assert_same_op(rows.operating_point(0), solve_dc(with_override(circuit, path,
                                                                   values[0])))
    for array in (rows.x, rows.iterations, rows.currents, rows.residual):
        assert np.isnan(array[1]).all()


@pytest.mark.parametrize("kind", list(MirrorKind))
def test_batch_rows_do_not_depend_on_their_neighbours(kind):
    # rows that converge after 4 to 10 iterations leave the batch at
    # different times, so each row sits at a different place in the
    # shrinking stack in each order; its stamps must add the same way
    base = mirror_circuit(MirrorConfig(kind=kind))
    circuits = [with_override(base, path, value) for path, values in (
        ("vdd", [1.2, 2.0, 3.5, 5.0]), ("T2.width", [0.1e-6, 1e-6, 4e-6]),
        ("T1.vth0", [0.2, 0.6, 1.0])) for value in values]
    temps = [250.0 + 15.0 * k for k in range(len(circuits))]
    batch = solve_together(circuits, temps)
    backwards = solve_together(circuits[::-1], temps[::-1])[::-1]
    assert len({op.newton_iterations for op in batch}) >= 3
    for k, (circuit, temp) in enumerate(zip(circuits, temps)):
        alone = solve_dc(replace(circuit, temp=temp))
        assert_same_op(batch[k], alone)
        assert_same_op(backwards[k], alone)


@pytest.mark.parametrize("kind", [MirrorKind.TWO_MEMRISTORS, MirrorKind.PMOS_MEMRISTOR])
def test_rows_solve_on_their_own_memristor_records(monkeypatch, kind):
    # each row's Y2 record (its initial memristance, r_on or window) is its
    # own: every row of a stack, and every row the stack leaves to be
    # solved alone, which steps on that row's record and state, is its
    # circuit's solve_dc, to the bit
    base = mirror_circuit(MirrorConfig(kind=kind))
    circuits = [with_override(base, path, value) for path, values in (
        ("Y2.m0", [2e3, 10e3, 30e3]), ("Y2.r_on", [50.0, 500.0]),
        ("Y2.window_p", [1, 3])) for value in values]
    alone = [solve_dc(circuit) for circuit in circuits]
    # the frozen memristance does not depend on the window
    assert len({_bits(op.node_voltages) for op in alone}) == len(circuits) - 1
    stacked = solve_together(circuits)
    monkeypatch.setattr(engine._DcRows, "newton", lambda self, rows, x: (rows.tolist(), []))
    left = solve_together(circuits)
    for k, op in enumerate(alone):
        assert_same_op(stacked[k], op)
        assert_same_op(left[k], op)


def test_lone_rows_solve_on_the_list_newton_and_are_not_steps(monkeypatch):
    # a lone DC row never runs the batched Newton: solve_dc, and the t = 0
    # row and final operating point of a settled transient, each take one
    # list Newton at dt_eff = 0 (none of these needs source stepping), which
    # the step Newton, and so every step count, does not count
    calls = []
    for owner, name, label in ((engine._DcRows, "newton", "stack"),
                               (engine._Steps, "iterate", "list")):
        def spy(self, *args, real=getattr(owner, name), label=label):
            if label == "list" and len(args) > 4:  # a step has a time
                calls.append("step")
            elif label == "list":  # a DC row steps dt_eff = 0 from its states
                assert args[2:] == (0.0, self.states)
            calls.append(label)
            return real(self, *args)

        monkeypatch.setattr(owner, name, spy)
    for kind in MirrorKind:
        solve_dc(mirror_circuit(MirrorConfig(kind=kind)))
    assert calls == ["list"] * len(MirrorKind)
    calls.clear()
    settled_transient(mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS)))
    steps = calls.count("step")
    assert "stack" not in calls and steps > 40
    # each step is one list Newton; the first and last are DC rows
    assert calls.count("list") == steps + 2 and len(calls) == 2 * steps + 2
    assert calls[0] == calls[-1] == "list" and calls[1] == "step"


def test_a_memristive_transient_builds_one_list_form_row(monkeypatch):
    # the _Steps a memristive transient builds solves its t = 0 point and
    # takes its steps; a settled transient's operating point is one more
    builds = []
    real = engine._Steps.__init__
    monkeypatch.setattr(engine._Steps, "__init__",
                        lambda self, *args: builds.append(args) or real(self, *args))
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    run_transient(cir, SimOptions(dt=1e-3, t_stop=0.05), ["i(M2)"])
    assert len(builds) == 1
    builds.clear()
    settled_transient(cir)
    assert len(builds) == 2


def test_first_newton_starts_at_each_rows_own_source_values(monkeypatch):
    # V1 ties a to ground, V2 ties b to ground from above (b sits at minus
    # its value), V3 ties c only to a: c, the branch currents and the
    # MOSFET-only node d start at 0
    cir = _circuit("V1 a 0 DC 2\nV2 0 b DC 0.5\nV3 c a DC 1\nR1 a d 1k\n"
                   "R2 c b 2k\nM1 d d b b NCH\n.model NCH nmos ()\n")
    stack, starts = [], []
    newton, iterate = engine._DcRows.newton, engine._Steps.iterate

    def stack_spy(self, rows, x):
        stack.append(x.copy())
        return newton(self, rows, x)

    def list_spy(self, x, values, *args):
        starts.append((list(x), list(values)))
        return iterate(self, x, values, *args)

    monkeypatch.setattr(engine._DcRows, "newton", stack_spy)
    monkeypatch.setattr(engine._Steps, "iterate", list_spy)
    position, records, _ = overrides(cir, "V1.dc_value", [2.0, 3.0])
    rows = engine._compile(cir, [None, None], records={position: records}).solve()
    assert not rows.errors and not starts
    expected = np.zeros((2, engine._Topology(cir).dim))
    expected[:, cir.node_index("a")] = [2.0, 3.0]
    expected[:, cir.node_index("b")] = -0.5
    assert len(stack) == 1 and stack[0].tobytes() == expected.tobytes()
    # a lone row starts the list Newton at its own source values
    for k, value in enumerate([2.0, 3.0]):
        starts.clear()
        solve_dc(with_override(cir, "V1.dc_value", value))
        x, values = starts[0]
        assert len(starts) == 1 and np.array(x).tobytes() == expected[k].tobytes()
        assert values == [value, 0.5, 1.0]

    # the source-stepping retry still ramps up from 0 V, on the list
    # Newton: the lone row's after its own first Newton fails, and each row
    # the stack leaves running at the iteration limit at once, its first
    # Newton being the stack's, run already
    monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 1)
    ramp = [v / engine._SOURCE_STEPS for v in (2.0, 0.5, 1.0)]
    starts.clear()
    engine._compile(cir).solve()
    assert len(starts) == 2
    (first, values), (retry, scaled) = starts
    assert first[cir.node_index("a")] == 2.0 and values == [2.0, 0.5, 1.0]
    assert not any(retry) and scaled == ramp
    stack.clear()
    starts.clear()
    engine._compile(cir, [None] * 2).solve()
    assert len(stack) == 1 and len(starts) == 2
    for retry, scaled in starts:
        assert not any(retry) and scaled == ramp


def test_a_stack_row_that_needs_stepping_is_solved_alone(monkeypatch):
    # converges cold, converges cold, converges by source stepping, stalls
    # while stepping: the stacked Newton runs once and leaves the last two
    # rows running at the iteration limit, each of which a _Steps built on
    # it solves alone, stepping it without a second first Newton
    monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 6)
    monkeypatch.setattr(engine, "_SOURCE_STEPS", 3)
    calls = []
    for owner, name in ((engine._DcRows, "newton"), (engine._Steps, "solve")):
        def spy(self, *args, real=getattr(owner, name), name=name):
            calls.append((name, args[0] if name == "solve" else list(args[0])))
            return real(self, *args)

        monkeypatch.setattr(owner, name, spy)
    base = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    position, records, _ = overrides(base, "R2.r_nominal", [20e3, 38e3, 60e3, 100e3])
    rows = engine._compile(base, [None] * 4, records={position: records}).solve()
    assert calls == [("newton", [0, 1, 2, 3]), ("solve", None), ("solve", None)]
    assert rows.iterations[2] > engine._MAX_NEWTON_ITERS >= rows.iterations[1]
    assert list(rows.errors) == [3] and "source stepping stalled" in str(rows.errors[3])


def test_batch_isolates_singular_and_nonconvergent_rows(monkeypatch):
    base = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    good = [with_override(base, "R2.r_nominal", 20e3),
            with_override(base, "R2.r_nominal", 38e3),
            with_override(base, "vdd", 2.0)]
    # 8 Newton iterations where the good rows need 5-6
    slow = with_override(base, "R2.r_nominal", 60e3)
    singular = with_override(base, "R2.r_nominal", 30e3)
    monkeypatch.setattr(engine, "_MAX_NEWTON_ITERS", 7)
    monkeypatch.setattr(engine, "_SOURCE_STEPS", 1)
    clean = solve_together(good)

    # a compiled row with no linear part leaves the ground row empty
    singular_where_r2_is(monkeypatch, 30e3)
    mixed = solve_together([good[0], singular, good[1], slow, good[2]])
    for batched, alone in zip([mixed[0], mixed[2], mixed[4]], clean):
        assert_same_op(batched, alone)
    # each bad row carries what its own solve raises
    assert_same_outcome(mixed[1], singular)
    assert_same_outcome(mixed[3], slow)
    assert isinstance(mixed[1], SingularMatrixError)
    assert isinstance(mixed[3], NonConvergenceError)
    assert len(mixed[3].trace) == engine._MAX_NEWTON_ITERS


def test_initial_state_overrides_are_validated():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    opts = SimOptions(dt=1e-3, t_stop=0.01)
    with pytest.raises(SimulationError):
        run_transient(cir, opts, ["m(Y2)"], initial_states={"Y9": 1e-9})
    # a state outside [0, L] is the device's error, as in solve_dc(states=)
    for run in (lambda states: run_transient(cir, opts, ["m(Y2)"],
                                             initial_states=states),
                lambda states: solve_dc(cir, states=states)):
        with pytest.raises(DeviceError, match=r"state w=2e-08 outside \[0, L="):
            run({"Y1": 5e-9, "Y2": 2e-8})
    # solve_dc merges its states as run_transient does: an omitted
    # memristor keeps its netlist state, a name matches in any case, and
    # an unknown name raises
    w0 = cir.device("Y2").w0
    both = solve_dc(cir, states={"Y1": 5e-9, "Y2": w0})
    for states in ({"Y1": 5e-9}, {"y1": 5e-9, "y2": w0}):
        op = solve_dc(cir, states=states)
        assert op.node_voltages.tobytes() == both.node_voltages.tobytes()
        assert op.device_currents == both.device_currents
    with pytest.raises(SimulationError, match="no memristor named 'Y9'"):
        solve_dc(cir, states={"Y1": 5e-9, "Y9": 1e-9})
    # a memristor-free transient refuses any name
    resistive = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    with pytest.raises(SimulationError, match="no memristor named 'Y1'"):
        run_transient(resistive, opts, ["i(R2)"], initial_states={"Y1": 5e-9})


def test_memoryless_samples_name_their_time_or_carry_the_device_error():
    opts = SimOptions(dt=1e-3, t_stop=0.01)
    parallel = _circuit("V1 a 0 SIN(1 1 50)\nV2 a 0 DC 1\nR1 a 0 1k\n")
    with pytest.raises(SingularMatrixError, match="at t=0 s") as exc:
        run_transient(parallel, opts, ["v(a)"])
    assert exc.value.time == 0.0
    # 1 + tc*(T - T0) < 0 at 100 C: the resistor law refuses the sample
    hot = _circuit("V1 a 0 DC 1\nR1 a 0 1k tc=-1\n.temp 100\n")
    with pytest.raises(DeviceError, match="resistance"):
        run_transient(hot, opts, ["v(a)"])


def test_a_singular_memristive_start_raises_before_any_step():
    cir = _circuit("V1 a 0 DC 1\nV2 a 0 DC 2\nY1 a 0 MEM m0=5k\n"
                   ".model MEM MEMRISTOR (ron=100 roff=38k l=10n uv=2e-14 p=1 pol=1)\n")
    for adaptive in (False, True):
        with pytest.raises(SingularMatrixError):
            run_transient(cir, SimOptions(dt=1e-3, t_stop=0.01, adaptive=adaptive),
                          ["w(Y1)"])


def test_one_controlled_step_records_its_two_ends():
    cir = _circuit(P2_DECK)
    res = run_transient(cir, SimOptions(dt=1e-3, t_stop=1e-3, adaptive=True),
                        ["w(Y1)"])
    wave = res.waveform("w(Y1)")
    assert wave.t.tolist() == [0.0, 1e-3]
    assert wave.values[0] == cir.device("Y1").w0
    assert wave.values[-1] == res.final_states["Y1"]


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
