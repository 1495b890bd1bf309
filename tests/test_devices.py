"""Device-law tests: frozen reference values, oracle transcriptions,
and property-based invariants."""

import importlib.util
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorsim.devices import (
    DeviceError,
    MEMRISTOR_DEFAULTS,
    MemristorParams,
    MemristorState,
    MosfetParams,
    NMOS_DEFAULTS,
    PMOS_DEFAULTS,
    RESISTOR_DEFAULTS,
    ResistorParams,
    SourceSpec,
    gate_leakage,
    gate_leakage_coefficients,
    joglekar_window,
    kelvin,
    memristance,
    memristance_at,
    memristor_drift,
    memristor_dwdt,
    memristor_state,
    mosfet_coefficients,
    mosfet_current,
    mosfet_kprime,
    mosfet_linearized,
    mosfet_linearized_array,
    mosfet_vth,
    resistor_value,
    source_value,
    state_for_memristance,
    subthreshold_leakage,
    thermal_voltage,
)
from mirrorsim import engine
from mirrorsim.constants import T_REF
from mirrorsim.netlist import BoundMemristor, BoundMosfet, BoundResistor

import oracles

REL = 1e-12


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------------------- #
# thermal voltage
# --------------------------------------------------------------------------- #

def test_thermal_voltage_at_300k():
    # frozen: k*300/q with CODATA 2018 exact constants
    assert thermal_voltage(300.0) == pytest.approx(0.025851999786435535, rel=REL)
    assert thermal_voltage(300.0) == pytest.approx(0.025852, abs=5e-7)


def test_thermal_voltage_rejects_nonpositive_kelvin():
    # one check, kelvin(), which passes a valid value through and refuses NaN
    assert kelvin(300.15) == 300.15
    for law in (kelvin, thermal_voltage, lambda t: mosfet_kprime(NMOS_DEFAULTS, t)):
        for temp in (0.0, -20.0, math.nan):
            with pytest.raises(DeviceError, match="temperature must be positive kelvin"):
                law(temp)


@given(st.floats(min_value=1.0, max_value=2000.0))
def test_thermal_voltage_linear_in_temperature(t):
    assert rel_err(thermal_voltage(2.0 * t), 2.0 * thermal_voltage(t)) < 1e-12


# --------------------------------------------------------------------------- #
# memristor
# --------------------------------------------------------------------------- #

def test_memristance_midpoint_and_bounds():
    p = MemristorParams(r_on=100.0, r_off=38e3, length=10e-9)
    assert memristance(MemristorState(w=0.5 * p.length), p) == pytest.approx(19050.0, rel=REL)
    assert memristance(MemristorState(w=p.length), p) == pytest.approx(100.0, rel=REL)
    assert memristance(MemristorState(w=0.0), p) == pytest.approx(38e3, rel=REL)


def test_state_for_memristance_inverts_the_5k_initial_condition():
    st5k = state_for_memristance(5e3, MEMRISTOR_DEFAULTS)
    assert st5k.w / MEMRISTOR_DEFAULTS.length == pytest.approx(0.8707124010554089, rel=REL)
    assert memristance(st5k, MEMRISTOR_DEFAULTS) == pytest.approx(5e3, rel=1e-12)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=9e3),
    st.floats(min_value=1e4, max_value=1e6),
)
def test_memristance_stays_inside_resistance_band(x, r_on, r_off):
    p = MemristorParams(r_on=r_on, r_off=r_off, length=10e-9)
    m = memristance(MemristorState(w=x * p.length), p)
    assert r_on - 1e-9 <= m <= r_off + 1e-9


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=6))
def test_window_bounded_and_symmetric(x, p):
    f = joglekar_window(x, p)
    assert 0.0 <= f <= 1.0
    assert f == pytest.approx(joglekar_window(1.0 - x, p), abs=1e-12)
    if p >= 1:
        assert joglekar_window(0.0, p) == 0.0
        assert joglekar_window(1.0, p) == 0.0
    else:
        assert f == 1.0


@pytest.mark.parametrize("x", [-1e-12, 1.5, math.nan])
def test_window_refuses_an_argument_outside_the_device(x):
    with pytest.raises(DeviceError, match=r"window argument must lie in \[0, 1\]"):
        joglekar_window(x, 2)


def test_dwdt_frozen_value_midpoint():
    # straight transcription, uv=1e-14 kept fixed independent of calibration:
    # -1 * 1e-14 * (100/10e-9) * 65e-6 * 1.0  (window is 1 at the midpoint)
    p = MemristorParams(mobility=1e-14, polarity=-1)
    got = memristor_dwdt(MemristorState(w=0.5 * p.length), p, 65e-6)
    assert got == pytest.approx(-6.5e-9, rel=REL)


# Reference checks against the papers the memristor law comes from.  The
# expected values are worked by hand from the papers' equations, not from
# the package's constants or oracles.

@pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("polarity", [1, -1])
def test_dwdt_is_strukov_linear_ion_drift_without_a_window(fraction, polarity):
    # Strukov, Snider, Stewart & Williams 2008 (Nature 453:80), linear ion
    # drift: dw/dt = mu_v * R_on / D * i(t).  With D = 10 nm, mu_v = 1e-14
    # m^2/(V s) (their 1e-10 cm^2/(V s)), R_on = 100 ohm and i = 0.1 mA:
    # 1e-14 * 100 / 1e-8 * 1e-4 = 1e-8 m/s, the same at every w when the
    # window is off (p = 0); the polarity only flips the sign.
    p = MemristorParams(r_on=100.0, r_off=16e3, length=10e-9, mobility=1e-14,
                        window_p=0, polarity=polarity)
    got = memristor_dwdt(MemristorState(w=fraction * p.length), p, 1e-4)
    assert got == pytest.approx(polarity * 1e-8, rel=REL)


@pytest.mark.parametrize("p, x, want", [
    # Joglekar & Wolf 2009 (Eur. J. Phys. 30:661), f(x) = 1 - (2x - 1)^(2p)
    (1, 0.0, 0.0), (1, 1.0, 0.0), (1, 0.5, 1.0),
    (1, 0.25, 0.75),                      # 1 - 0.5^2
    (1, 0.9, 0.36),                       # 1 - 0.8^2
    (2, 0.0, 0.0), (2, 1.0, 0.0), (2, 0.5, 1.0),
    (2, 0.75, 0.9375),                    # 1 - 0.5^4
    (2, 0.9, 0.5904),                     # 1 - 0.8^4 = 1 - 0.4096
    (10, 0.0, 0.0), (10, 1.0, 0.0), (10, 0.5, 1.0),
    (10, 0.25, 1.0 - 2.0 ** -20),         # 1 - 0.5^20
    (10, 0.9, 0.98847078495393153024),    # 1 - 0.8^20 = 1 - 0.01152921504606846976
])
def test_window_is_joglekar_wolf(p, x, want):
    assert joglekar_window(x, p) == pytest.approx(want, rel=REL, abs=1e-15)


def test_dwdt_matches_oracle_with_calibrated_mobility():
    p = MEMRISTOR_DEFAULTS
    s = MemristorState(w=0.5 * p.length)
    want = oracles.o_dwdt(s.w, p.length, p.r_on, p.mobility, p.polarity, p.window_p, 65e-6)
    assert rel_err(memristor_dwdt(s, p, 65e-6), want) < REL


def test_dwdt_window_disabled_with_p_zero():
    p = MemristorParams(window_p=0)
    edge = memristor_dwdt(MemristorState(w=0.0), p, 1e-6)
    mid = memristor_dwdt(MemristorState(w=0.5 * p.length), p, 1e-6)
    assert edge == pytest.approx(mid, rel=REL)  # f == 1 everywhere


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-1e-3, max_value=1e-3),
    st.integers(min_value=0, max_value=4),
)
def test_dwdt_matches_transcription(x, current, p):
    params = MemristorParams(window_p=p)
    s = MemristorState(w=x * params.length)
    want = oracles.o_dwdt(s.w, params.length, params.r_on, params.mobility,
                          params.polarity, p, current)
    got = memristor_dwdt(s, params, current)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("s", [0.0, 0.2, 0.5, 0.85, 1.0])
def test_drift_law_is_rate_window_and_window_slope(s, p):
    params = MemristorParams(window_p=p, polarity=-1)
    dt = 1e-3
    k, f, slope = memristor_drift(s, params, dt)
    assert k == dt * -1 * params.mobility * params.r_on / (params.length * params.length)
    assert f == joglekar_window(s, p)
    h = 1e-6
    lo, hi = max(s - h, 0.0), min(s + h, 1.0)
    numeric = (joglekar_window(hi, p) - joglekar_window(lo, p)) / (hi - lo)
    assert slope == pytest.approx(numeric, rel=1e-5, abs=1e-9)
    if p == 0:
        assert slope == 0.0
    # dw/dt is the same law over one second, in metres
    current = 4e-5
    want = oracles.o_dwdt(s * params.length, params.length, params.r_on,
                          params.mobility, -1, p, current)
    got = memristor_dwdt(MemristorState(w=s * params.length), params, current)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_memristor_state_is_w_over_l_inside_the_device_only():
    p = MEMRISTOR_DEFAULTS
    assert memristor_state(0.25 * p.length, p) == 0.25 * p.length / p.length
    assert memristor_state(0.0, p) == 0.0 and memristor_state(p.length, p) == 1.0
    for w in (-1e-12, 1.01 * p.length, math.nan):
        with pytest.raises(DeviceError, match=r"outside \[0, L="):
            memristor_state(w, p)


def test_memristor_params_validation():
    with pytest.raises(DeviceError):
        MemristorParams(r_on=5e3, r_off=100.0)
    with pytest.raises(DeviceError):
        MemristorParams(polarity=0)
    with pytest.raises(DeviceError):
        MemristorParams(window_p=-1)
    with pytest.raises(DeviceError):
        state_for_memristance(50.0, MEMRISTOR_DEFAULTS)
    with pytest.raises(DeviceError):
        memristance(MemristorState(w=11e-9), MEMRISTOR_DEFAULTS)


def test_mosfet_params_refuse_an_unknown_polarity():
    with pytest.raises(DeviceError, match="polarity must be 'nmos' or 'pmos', got 'cmos'"):
        MosfetParams(polarity="cmos")


# --------------------------------------------------------------------------- #
# MOSFET square law
# --------------------------------------------------------------------------- #

def test_mosfet_saturation_frozen_value():
    # 0.5 * 170e-6 * 1.5 * 0.55^2 * (1 + 0.05*0.6)
    assert mosfet_current(1.0, 0.6, NMOS_DEFAULTS) == pytest.approx(
        3.972581250000002e-05, rel=REL
    )


def test_mosfet_triode_frozen_value():
    # 170e-6*1.5 * (0.75*0.3 - 0.5*0.09) * (1 + 0.05*0.3)
    assert mosfet_current(1.2, 0.3, NMOS_DEFAULTS) == pytest.approx(
        4.658850000000001e-05, rel=REL
    )


def test_mosfet_cutoff_is_exactly_zero():
    assert mosfet_current(0.45, 1.0, NMOS_DEFAULTS) == 0.0
    assert mosfet_current(0.2, 1.0, NMOS_DEFAULTS) == 0.0
    assert mosfet_current(1.0, 0.0, NMOS_DEFAULTS) == 0.0


@given(
    st.floats(min_value=0.46, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=250.0, max_value=400.0),
)
def test_mosfet_matches_oracle_transcription(vgs, vds, temp):
    d = NMOS_DEFAULTS
    want = oracles.o_mosfet_current(
        vgs, vds, vth0=d.vth0, vth_tc=d.vth_tc, k_prime=d.k_prime,
        mobility_exp=d.mobility_exp, lam=d.lam, width=d.width, length=d.length,
        temp=temp,
    )
    got = mosfet_current(vgs, vds, d, temp)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


@given(st.floats(min_value=0.5, max_value=2.5))
def test_mosfet_continuous_at_the_region_boundary(vgs):
    veff = vgs - NMOS_DEFAULTS.vth0
    lo = mosfet_current(vgs, veff * (1 - 1e-9), NMOS_DEFAULTS)
    hi = mosfet_current(vgs, veff * (1 + 1e-9), NMOS_DEFAULTS)
    assert rel_err(lo, hi) < 1e-6


def test_pmos_is_the_reflected_nmos():
    nref = MosfetParams(vth0=0.45, k_prime=60e-6, vth_tc=-1e-3)
    points = [(-1.0, -0.8), (-0.6, -0.1), (-2.0, -1.5), (0.3, -0.5)]
    for vgs, vds in points:
        want = -mosfet_current(-vgs, -vds, nref)
        assert mosfet_current(vgs, vds, PMOS_DEFAULTS) == pytest.approx(
            want, rel=REL, abs=1e-300
        )
    # the reflection is exact: bit-identical to an NMOS record carrying the
    # mirrored threshold, for the current, both partials and the leakage
    reflected = replace(PMOS_DEFAULTS, polarity="nmos", vth0=-PMOS_DEFAULTS.vth0,
                        vth_tc=-PMOS_DEFAULTS.vth_tc)
    for temp in (250.0, T_REF, 373.0):
        for vgs, vds in points:
            i, gm, gds = mosfet_linearized(-vgs, -vds, reflected, temp)
            assert mosfet_linearized(vgs, vds, PMOS_DEFAULTS, temp) == (-i, gm, gds)
            assert subthreshold_leakage(vgs, vds, PMOS_DEFAULTS, temp) == (
                subthreshold_leakage(-vgs, -vds, reflected, temp)
            )


def test_nmos_reverse_conduction_is_symmetric():
    # swapping source and drain negates the current
    i_fwd = mosfet_current(1.0, 0.6, NMOS_DEFAULTS)
    i_rev = mosfet_current(1.0 - 0.6, -0.6, NMOS_DEFAULTS)
    assert i_rev == pytest.approx(-i_fwd, rel=REL)


@given(
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=0.01, max_value=2.5),
)
@settings(max_examples=60)
def test_mosfet_linearized_derivatives_match_finite_differences(vgs, vds):
    veff = vgs - NMOS_DEFAULTS.vth0
    if abs(vds - veff) < 1e-3:  # keep clear of the region boundary kink
        return
    i, gm, gds = mosfet_linearized(vgs, vds, NMOS_DEFAULTS)
    h = 1e-7
    gm_fd = (mosfet_current(vgs + h, vds, NMOS_DEFAULTS)
             - mosfet_current(vgs - h, vds, NMOS_DEFAULTS)) / (2 * h)
    gds_fd = (mosfet_current(vgs, vds + h, NMOS_DEFAULTS)
              - mosfet_current(vgs, vds - h, NMOS_DEFAULTS)) / (2 * h)
    assert gm == pytest.approx(gm_fd, rel=1e-5, abs=1e-12)
    assert gds == pytest.approx(gds_fd, rel=1e-5, abs=1e-12)


def test_array_law_overflows_without_a_warning():
    # every branch is evaluated at every point, so the saturation branch of a
    # triode point overflows too; the suite turns a numpy warning into an error
    vgs, vds = np.array([1e300, 1e300, 0.5]), np.array([1e300, 1.0, -1e300])
    i, gm, gds = mosfet_linearized_array(vgs, vds, 1.0, -1e300, 1e10, 1e300)
    assert not np.isfinite(i[:2]).any()


@pytest.mark.parametrize("params", [NMOS_DEFAULTS, PMOS_DEFAULTS],
                         ids=["nmos", "pmos"])
@pytest.mark.parametrize("temp", [250.0, 300.15, 373.0])
def test_array_law_equals_the_scalar_law(params, temp):
    # cutoff, triode, saturation and negative vds, including the region
    # boundaries and both signed zeros
    axis = np.concatenate([np.linspace(-3.0, 3.0, 61),
                           [0.0, -0.0, 0.45, -0.45, 0.5, -0.5, 1e-12, -1e-12]])
    vgs, vds = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    coefficients = [np.full(vgs.shape, c) for c in mosfet_coefficients(params, temp)]
    arrays = mosfet_linearized_array(vgs, vds, *coefficients)
    sign, vth = mosfet_coefficients(params, temp)[:2]
    regions = set()
    for k, (a, b) in enumerate(zip(vgs.tolist(), vds.tolist())):
        scalar = mosfet_linearized(a, b, params, temp)
        batched = tuple(float(out[k]) for out in arrays)
        # equal values and equal signs of zero
        assert [(x, math.copysign(1.0, x)) for x in batched] == [
            (x, math.copysign(1.0, x)) for x in scalar]
        assert batched[0] == mosfet_current(a, b, params, temp)
        # the region, in the frame of the NMOS the law reflects onto
        gate, drain = sign * a, abs(sign * b)
        veff = gate - (sign * b if sign * b < 0.0 else 0.0) - sign * vth
        region = ("cutoff" if veff <= 0.0 else
                  "triode" if drain < veff else "saturation")
        regions.add((region, sign * b < 0.0))
    assert regions == {(r, rev) for r in ("cutoff", "triode", "saturation")
                       for rev in (False, True)}


def test_vth_and_kprime_temperature_laws():
    assert mosfet_vth(NMOS_DEFAULTS, 310.0) == pytest.approx(0.44015, rel=REL)
    assert mosfet_kprime(NMOS_DEFAULTS, 350.0) == pytest.approx(
        0.00013500640609549988, rel=REL
    )
    assert mosfet_kprime(NMOS_DEFAULTS, T_REF) == pytest.approx(170e-6, rel=REL)


# --------------------------------------------------------------------------- #
# leakage estimators
# --------------------------------------------------------------------------- #

def test_subthreshold_frozen_value():
    got = subthreshold_leakage(0.0, 1.0, NMOS_DEFAULTS)
    assert got == pytest.approx(9.47181409687227e-12, rel=REL)


def test_subthreshold_gate_ratio_is_exponential():
    vt = thermal_voltage(T_REF)
    a = subthreshold_leakage(0.1, 1.0, NMOS_DEFAULTS)
    b = subthreshold_leakage(0.0, 1.0, NMOS_DEFAULTS)
    assert a / b == pytest.approx(math.exp(0.1 / (1.5 * vt)), rel=1e-9)


def test_subthreshold_drain_term_saturates():
    vt = thermal_voltage(T_REF)
    a = subthreshold_leakage(0.0, 50.0 * vt, NMOS_DEFAULTS)
    b = subthreshold_leakage(0.0, 5000.0 * vt, NMOS_DEFAULTS)
    assert rel_err(a, b) < 1e-9


@given(st.floats(min_value=-0.5, max_value=0.4))
@settings(max_examples=60)
def test_subthreshold_monotone_in_vgs(vgs):
    lo = subthreshold_leakage(vgs, 1.0, NMOS_DEFAULTS)
    hi = subthreshold_leakage(vgs + 0.01, 1.0, NMOS_DEFAULTS)
    assert hi > lo


def test_gate_leakage_coefficients_frozen():
    a, b = gate_leakage_coefficients(NMOS_DEFAULTS)
    assert a == pytest.approx(4.972367335051641e-07, rel=REL)
    assert b == pytest.approx(64154970426.61471, rel=REL)
    oa, ob = oracles.o_gate_coefficients(NMOS_DEFAULTS.phi_ox, NMOS_DEFAULTS.m_ox)
    assert rel_err(a, oa) < REL and rel_err(b, ob) < REL


def test_gate_leakage_frozen_values_and_limit():
    assert gate_leakage(0.5, NMOS_DEFAULTS) == pytest.approx(7.709878981673328e-56, rel=1e-9)
    assert gate_leakage(1.0, NMOS_DEFAULTS) == pytest.approx(7.396331505767169e-53, rel=1e-9)
    assert gate_leakage(0.0, NMOS_DEFAULTS) == 0.0


def test_gate_leakage_monotone_on_grid():
    grid = [0.1 + 0.1 * k for k in range(10)]  # 0.1 .. 1.0 V
    vals = [gate_leakage(v, NMOS_DEFAULTS) for v in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v > 0.0 for v in vals)


def test_gate_leakage_domain_error_at_barrier():
    with pytest.raises(DeviceError):
        gate_leakage(3.1, NMOS_DEFAULTS)
    with pytest.raises(DeviceError):
        gate_leakage(-3.2, NMOS_DEFAULTS)


@given(st.floats(min_value=0.01, max_value=3.0))
@settings(max_examples=60)
def test_gate_leakage_matches_oracle(vox):
    d = NMOS_DEFAULTS
    want = oracles.o_gate_leakage(
        vox, phi_ox=d.phi_ox, m_ox=d.m_ox, t_ox=d.t_ox, width=d.width, length=d.length
    )
    assert rel_err(gate_leakage(vox, d), want) < REL


# --------------------------------------------------------------------------- #
# compiled cells: what a law returns, the engine can solve with
# --------------------------------------------------------------------------- #

# the ends of the float range, subnormal 1e-320 included, and inf
EXTREMES = (1e300, -1e300, 1e-300, 1e-320, math.inf)


def drawn_fields(draw, record, **ordinary):
    """Keyword arguments for ``type(record)``: each numeric field its
    default half of the time, else one of its ``ordinary`` values (twice
    and minus its default, unless given) or of ``EXTREMES``."""
    out = {}
    for f in fields(record):
        v = getattr(record, f.name)
        if not isinstance(v, str):
            others = ordinary.get(f.name, (2 * v, -v))
            out[f.name] = draw(st.sampled_from([v] * (len(others) + 5)
                                               + [*others, *EXTREMES]))
    return out


@st.composite
def compiled_devices(draw, kind):
    """A bound device of ``kind``, its fields drawn by :func:`drawn_fields`
    (a record whose checks refuse them raises DeviceError)."""
    if kind == "R":
        return BoundResistor("R1", 1, 0, ResistorParams(
            **drawn_fields(draw, RESISTOR_DEFAULTS, temp_coeff=(0.0, -2e-3))))
    if kind == "Y":
        params = MemristorParams(**drawn_fields(
            draw, MEMRISTOR_DEFAULTS, window_p=(0, 2), polarity=(-1, 2)))
        length = MEMRISTOR_DEFAULTS.length
        w0 = draw(st.sampled_from([0.0, 0.5 * length, length, *EXTREMES]))
        return BoundMemristor("Y1", 1, 0, params, w0)
    defaults = NMOS_DEFAULTS if kind == "nmos" else PMOS_DEFAULTS
    return BoundMosfet("M1", 1, 1, 0, 0, MosfetParams(**{
        **drawn_fields(draw, defaults, lam=(0.0, -0.05)), "polarity": kind}))


@pytest.mark.parametrize("kind", ["R", "Y", "nmos", "pmos"])
@given(data=st.data(), temp=st.sampled_from([1e-300, 1.0, 300.15, 1e300, math.inf]),
       state=st.sampled_from([None, 0.0, 0.5, 1.0]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_law_returns_cells_the_solve_can_use_or_raises(kind, data, temp, state):
    # the DC rows take each law's cells as they come: a record that builds
    # and a law that returns give finite cells, and a finite conductance
    # wherever the engine divides by a resistance (a memristor at any state
    # in [0, 1], where its steps read it), and a memristor a finite drift
    # rate over a 1 s step
    try:
        device = data.draw(compiled_devices(kind))
        cell = engine._CELLS[type(device)](device, temp, state)
    except DeviceError:
        return
    assert all(map(math.isfinite, np.ravel(cell)))
    if kind == "R":
        assert cell > 0.0
    if kind == "Y":
        for m in (cell, memristance_at(0.0, device.params),
                  memristance_at(1.0, device.params)):
            assert m > 0.0 and math.isfinite(1.0 / m)
        assert math.isfinite(memristor_drift(0.5, device.params, 1.0)[0])


# --------------------------------------------------------------------------- #
# resistor and source
# --------------------------------------------------------------------------- #

def test_resistor_nominal_at_reference_and_frozen_at_350k():
    p = ResistorParams(r_nominal=38e3)
    assert resistor_value(p, T_REF) == pytest.approx(38e3, rel=REL)
    assert resistor_value(p, 350.0) == pytest.approx(39894.299999999996, rel=REL)


def test_resistor_rejects_nonphysical_result():
    p = ResistorParams(r_nominal=1e3, temp_coeff=-0.1)
    with pytest.raises(DeviceError):
        resistor_value(p, T_REF + 20.0)


@given(st.floats(min_value=10.0, max_value=1e6), st.floats(min_value=200.0, max_value=400.0))
def test_resistor_matches_oracle(r, temp):
    p = ResistorParams(r_nominal=r)
    assert rel_err(resistor_value(p, temp), oracles.o_resistor(r, 1e-3, temp)) < REL


def test_source_value_dc_and_sine():
    dc = SourceSpec(kind="dc", dc_value=2.5)
    assert source_value(dc, 0.0) == 2.5
    assert source_value(dc, 123.0) == 2.5
    s = SourceSpec(kind="sine", dc_value=5.0, amplitude=2.5, frequency=50.0)
    assert source_value(s, 0.0) == pytest.approx(5.0, rel=REL)
    assert source_value(s, 0.005) == pytest.approx(7.5, rel=REL)  # quarter period
    with pytest.raises(TypeError):  # a time is always given
        source_value(s)


@pytest.mark.parametrize("spec", [
    SourceSpec(kind="dc", dc_value=2.5),
    SourceSpec(kind="sine", dc_value=1.2, amplitude=0.7, frequency=37.0, phase=0.9),
], ids=["dc", "sine"])
def test_source_value_on_an_array_is_the_scalar_law_to_the_bit(spec):
    times = np.concatenate([[0.0], np.random.default_rng(3).uniform(0.0, 2.0, 500),
                            np.arange(2001) * 1e-4])
    got = source_value(spec, times)
    assert got.shape == times.shape
    want = np.array([source_value(spec, t) for t in times.tolist()])
    assert got.tobytes() == want.tobytes()


def test_numpy_sine_is_math_sine_on_the_drive_samples(monkeypatch):
    # The engine evaluates a memoryless transient's sources with numpy.sin
    # and a memristive step's with math.sin: on a platform where the two
    # differ on the benchmark's own sine samples, the THD and hysteresis
    # outputs would move.  Record every array of sine sample times the
    # seed-1 drive workload evaluates, and compare the two on its arguments.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("drive_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    calls = []
    real = engine.source_value

    def spy(spec, time):
        if isinstance(time, np.ndarray) and spec.kind == "sine":
            calls.append((spec, time))
        return real(spec, time)

    monkeypatch.setattr(engine, "source_value", spy)
    tasks = workloads.build_tasks("drive", 1)
    for task in tasks:
        workloads.run_task(task)
    # every THD run's one period (200 samples), resistor loop's one cycle
    # (2,000) and memristor loop's one cycle (2,001, ends included) was
    # seen, besides the t = 0 rows of the memristive ones
    lengths = [len(t) for _, t in calls]
    assert lengths.count(200) == len(tasks) // 2
    assert lengths.count(2000) == lengths.count(2001) == len(tasks) // 4
    for source, times in calls:
        args = 2.0 * math.pi * source.frequency * times + source.phase
        scalar = np.array([math.sin(a) for a in args.tolist()])
        assert np.sin(args).tobytes() == scalar.tobytes(), source


def test_source_spec_validation():
    with pytest.raises(DeviceError):
        SourceSpec(kind="sine", dc_value=1.0, amplitude=1.0, frequency=0.0)
    # a sine whose frequency is not finite has no period to sample
    for frequency in (math.nan, math.inf):
        with pytest.raises(DeviceError, match="finite frequency"):
            SourceSpec(kind="sine", amplitude=1.0, frequency=frequency)
    with pytest.raises(DeviceError):
        SourceSpec(kind="noise")
    # a field that is not finite, of either kind, has no value a solve can use
    for kind in ("dc", "sine"):
        for name in ("dc_value", "amplitude", "phase"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(DeviceError, match=f"{name} must be finite"):
                    SourceSpec(kind=kind, frequency=5.0, **{name: bad})
    # a sine whose peak or whose 2*pi*f overflows gives inf or NaN values
    with pytest.raises(DeviceError, match="peak"):
        SourceSpec(kind="sine", dc_value=1e308, amplitude=-1e308, frequency=5.0)
    with pytest.raises(DeviceError, match="frequency overflows"):
        SourceSpec(kind="sine", amplitude=1.0, frequency=1e308)
    # a dc source ignores its sine fields; the largest finite values pass
    SourceSpec(kind="dc", dc_value=1e308, amplitude=1e308)
    SourceSpec(kind="sine", dc_value=8e307, amplitude=-8e307, frequency=1e307)
