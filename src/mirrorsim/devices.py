"""Device models: memristor (linear ion drift), level-1 MOSFET, resistor.

All device laws live here as free functions over small frozen parameter
records, so the simulation engine, the analysis layer and the tests all
evaluate exactly the same arithmetic; each device rule (the memristor drift
law, its [0, L] state check, the kelvin check) is one function, here only.
A record that builds and a law that returns have given what the engine can
solve with: finite values, and finite conductances wherever it divides by a
resistance; anything else raises :class:`DeviceError`.  Everything is SI
unless a docstring says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    ELECTRON_MASS,
    REDUCED_PLANCK,
    T_REF,
)

__all__ = [
    "DeviceError",
    "MemristorParams",
    "MemristorState",
    "MosfetParams",
    "ResistorParams",
    "SourceSpec",
    "NMOS_DEFAULTS",
    "PMOS_DEFAULTS",
    "MEMRISTOR_DEFAULTS",
    "RESISTOR_DEFAULTS",
    "CALIBRATED_MOBILITY",
    "kelvin",
    "thermal_voltage",
    "joglekar_window",
    "memristor_state",
    "memristance",
    "memristance_at",
    "state_for_memristance",
    "memristor_drift",
    "memristor_dwdt",
    "mosfet_vth",
    "mosfet_kprime",
    "mosfet_current",
    "mosfet_linearized",
    "mosfet_coefficients",
    "mosfet_square_law",
    "mosfet_linearized_array",
    "subthreshold_leakage",
    "gate_leakage",
    "resistor_value",
    "source_value",
]


class DeviceError(ValueError):
    """Raised when a device parameter or evaluation point is out of domain."""


# --------------------------------------------------------------------------- #
# Parameter records
# --------------------------------------------------------------------------- #

CALIBRATED_MOBILITY = 2.073265856875396e-14
"""Dopant mobility uv (m^2 V^-1 s^-1) calibrated so that the memristive
mirror at a 2.5 V supply completes its 5 kOhm -> 38 kOhm switching transient
in 1.4 s.  ``mirrorsim calibrate`` re-derives this value from scratch."""


@dataclass(frozen=True)
class MemristorParams:
    """Linear ion drift memristor.

    Parameters
    ----------
    r_on, r_off : float
        Fully-doped and fully-undoped resistances (ohm),
        ``0 < r_on < r_off < inf`` with ``1/r_on`` finite: every memristance
        lies in [r_on, r_off], so every conductance of one is finite.
    length : float
        Device thickness L (m) that the doped/undoped boundary travels.
    mobility : float
        Dopant drift mobility uv (m^2 V^-1 s^-1), positive, with a finite
        drift rate ``uv * r_on / L^2`` (the state's rate per ampere).
    window_p : int
        Joglekar window exponent p, at most 2**53 (above it every float is
        even, and the slope's power ``2p - 1`` would lose its sign);
        ``p = 0`` disables the window entirely.
    polarity : int
        +1 if positive applied current grows the doped region (w increases),
        -1 for the opposite orientation.
    """

    r_on: float = 100.0
    r_off: float = 38e3
    length: float = 10e-9
    mobility: float = CALIBRATED_MOBILITY
    window_p: int = 1
    polarity: int = 1
    footprint_w: float = 45e-9
    footprint_l: float = 90e-9

    def __post_init__(self) -> None:
        if not (0.0 < self.r_on < self.r_off < math.inf):
            raise DeviceError(f"require 0 < r_on < r_off < inf, got {self.r_on}, {self.r_off}")
        if 1.0 / self.r_on == math.inf:
            raise DeviceError(f"r_on {self.r_on}: its conductance 1/r_on overflows")
        if self.length <= 0.0 or self.mobility <= 0.0:
            raise DeviceError("memristor length and mobility must be positive")
        if self.length * self.length == 0.0:  # the drift law divides by L*L
            raise DeviceError(f"memristor length {self.length} m squared underflows to 0")
        rate = self.mobility * self.r_on / (self.length * self.length)
        if not math.isfinite(rate):
            raise DeviceError(f"drift rate uv*r_on/L^2 = {rate} not finite "
                              f"(uv={self.mobility}, r_on={self.r_on}, L={self.length})")
        if not 0 <= self.window_p <= 2**53 or int(self.window_p) != self.window_p:
            raise DeviceError(f"window_p must be an integer in [0, 2**53], got {self.window_p}")
        if self.polarity not in (-1, 1):
            raise DeviceError(f"polarity must be +1 or -1, got {self.polarity}")


@dataclass
class MemristorState:
    """Mutable boundary position w (m) of a memristor."""

    w: float


@dataclass(frozen=True)
class MosfetParams:
    """Square-law (level-1) MOSFET with simple temperature laws.

    ``k_prime`` is mu0*Cox at the reference temperature; the effective value
    scales as ``(T/T0)**mobility_exp``.  The threshold shifts linearly:
    ``vth(T) = vth0 + vth_tc*(T - T0)``.  Oxide fields (``t_ox``, ``phi_ox``,
    ``m_ox``) only feed the gate-tunneling estimator.
    """

    polarity: str = "nmos"
    vth0: float = 0.45
    k_prime: float = 170e-6
    lam: float = 0.05
    n_sub: float = 1.5
    t_ox: float = 4e-9
    phi_ox: float = 3.1
    m_ox: float = 0.3 * ELECTRON_MASS
    width: float = 0.27e-6
    length: float = 0.18e-6
    mobility_exp: float = -1.5
    vth_tc: float = -1e-3

    def __post_init__(self) -> None:
        if self.polarity not in ("nmos", "pmos"):
            raise DeviceError(f"polarity must be 'nmos' or 'pmos', got {self.polarity!r}")
        for name in ("k_prime", "n_sub", "t_ox", "phi_ox", "m_ox", "width", "length"):
            if getattr(self, name) <= 0.0:
                raise DeviceError(f"{name} must be positive")
        if not 0.0 <= self.lam < math.inf:
            raise DeviceError(f"lam (channel-length modulation) must be in [0, inf), "
                              f"got {self.lam}")


@dataclass(frozen=True)
class ResistorParams:
    """Ohmic resistor with a linear temperature coefficient."""

    r_nominal: float
    temp_coeff: float = 1e-3
    footprint_w: float = 2e-6
    footprint_l: float = 10e-6

    def __post_init__(self) -> None:
        if self.r_nominal <= 0.0:
            raise DeviceError("r_nominal must be positive")


@dataclass(frozen=True)
class SourceSpec:
    """Independent voltage source: DC level or a sine riding on one.

    ``value(t) = dc_value + amplitude * sin(2*pi*frequency*t + phase)`` for
    kind "sine"; a plain "dc" source ignores the AC fields.  Phase is radians.
    """

    kind: str = "dc"
    dc_value: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("dc", "sine"):
            raise DeviceError(f"source kind must be 'dc' or 'sine', got {self.kind!r}")
        for name in ("dc_value", "amplitude", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise DeviceError(f"source {name} must be finite, got {getattr(self, name)}")
        if self.kind == "sine":
            if not 0.0 < self.frequency < math.inf:
                raise DeviceError("sine source requires a finite frequency > 0")
            # source_value adds the sine to the DC level and scales the
            # frequency by 2*pi; either overflowing gives inf or NaN values
            if math.isinf(abs(float(self.dc_value)) + abs(float(self.amplitude))):
                raise DeviceError("sine source peak |dc| + |amplitude| overflows")
            if math.isinf(2.0 * math.pi * float(self.frequency)):
                raise DeviceError("sine source 2*pi*frequency overflows")


NMOS_DEFAULTS = MosfetParams()
PMOS_DEFAULTS = MosfetParams(polarity="pmos", vth0=-0.45, k_prime=60e-6, vth_tc=1e-3)
MEMRISTOR_DEFAULTS = MemristorParams()
RESISTOR_DEFAULTS = ResistorParams(r_nominal=38e3)


# --------------------------------------------------------------------------- #
# Small shared pieces
# --------------------------------------------------------------------------- #

def kelvin(temp: float) -> float:
    """``temp``, unless it is not a positive kelvin value (NaN included)."""
    if not temp > 0.0:
        raise DeviceError(f"temperature must be positive kelvin, got {temp}")
    return temp


def thermal_voltage(temp: float) -> float:
    """Thermal voltage kT/q (V) at the :func:`kelvin` value ``temp``."""
    return BOLTZMANN * kelvin(temp) / ELEMENTARY_CHARGE


def joglekar_window(x: float, p: int) -> float:
    """Joglekar boundary window f(x) = 1 - (2x - 1)^(2p) on x = w/L in [0, 1].

    ``p = 0`` returns exactly 1.0 (window disabled); larger p flattens the
    window in the middle while still pinning it to zero at both boundaries.
    """
    if not 0.0 <= x <= 1.0:
        raise DeviceError(f"window argument must lie in [0, 1], got {x}")
    if p == 0:
        return 1.0
    return 1.0 - (2.0 * x - 1.0) ** (2 * p)


# --------------------------------------------------------------------------- #
# Memristor
# --------------------------------------------------------------------------- #

def memristance_at(s, params: MemristorParams):
    """M(s) = s Ron + (1 - s) Roff (ohm) at the normalized state s = w/L,
    unchecked; ``s`` may be a float or an array."""
    return s * params.r_on + (1.0 - s) * params.r_off


def memristor_state(w: float, params: MemristorParams) -> float:
    """State s = w/L of the boundary position ``w`` (m), within [0, L] only."""
    s = w / params.length
    if not 0.0 <= s <= 1.0:
        raise DeviceError(f"state w={w} outside [0, L={params.length}]")
    return s


def memristance(state: MemristorState, params: MemristorParams) -> float:
    """Instantaneous resistance M(w) = (w/L) Ron + (1 - w/L) Roff (ohm)."""
    return memristance_at(memristor_state(state.w, params), params)


def state_for_memristance(m0: float, params: MemristorParams) -> MemristorState:
    """Invert M(w): the boundary position that realizes memristance ``m0``."""
    if not params.r_on <= m0 <= params.r_off:
        raise DeviceError(
            f"target memristance {m0} outside [{params.r_on}, {params.r_off}]"
        )
    x = (params.r_off - m0) / (params.r_off - params.r_on)
    return MemristorState(w=x * params.length)


def memristor_drift(s: float, params: MemristorParams, dt: float) -> tuple:
    """Linear ion drift over a step ``dt`` (s) at the normalized state ``s``:
    ``(k, f, f')`` with ``ds = k*i*f`` for a device current i (A),
    ``k = dt * polarity * uv * Ron / L^2``, f the Joglekar window and f' its
    slope ``-4p (2s - 1)^(2p - 1)`` (0 when p = 0)."""
    q = params.window_p
    k = dt * params.polarity * params.mobility * params.r_on / (params.length * params.length)
    slope = -4.0 * q * (2.0 * s - 1.0) ** (2 * q - 1) if q else 0.0
    return k, joglekar_window(s, q), slope


def memristor_dwdt(state: MemristorState, params: MemristorParams, current: float) -> float:
    """Boundary drift rate dw/dt (m/s) for the given device current (A):
    ``L*k*i*f`` of :func:`memristor_drift` over 1 s, w clamped to [0, L]."""
    s = min(max(state.w / params.length, 0.0), 1.0)
    k, f, _ = memristor_drift(s, params, 1.0)
    return params.length * k * current * f


# --------------------------------------------------------------------------- #
# MOSFET square law
# --------------------------------------------------------------------------- #

def mosfet_vth(params: MosfetParams, temp: float = T_REF) -> float:
    """Threshold voltage at ``temp``: vth0 + vth_tc * (T - T0)."""
    return params.vth0 + params.vth_tc * (temp - T_REF)


def mosfet_kprime(params: MosfetParams, temp: float = T_REF) -> float:
    """Transconductance parameter at ``temp``: k' * (T/T0)^mobility_exp;
    a power that overflows a float raises :class:`DeviceError`."""
    try:
        return params.k_prime * (kelvin(temp) / T_REF) ** params.mobility_exp
    except OverflowError:
        raise DeviceError(f"(T/T0)^mobility_exp overflows at T={temp} K "
                          f"(mobility_exp={params.mobility_exp})") from None


def mosfet_linearized(
    vgs: float, vds: float, params: MosfetParams, temp: float = T_REF
) -> tuple[float, float, float]:
    """Drain current and its partials (id, d id/d vgs, d id/d vds).

    The current is signed into the drain terminal.  PMOS devices are handled
    by reflecting the bias point (and the threshold) through the origin;
    an NMOS driven with ``vds < 0`` is treated as the symmetric device with
    source and drain exchanged.  See :func:`mosfet_square_law`.
    """
    return mosfet_square_law(vgs, vds, *mosfet_coefficients(params, temp))


def mosfet_current(vgs: float, vds: float, params: MosfetParams, temp: float = T_REF) -> float:
    """Square-law drain current (A); see :func:`mosfet_linearized` for signs."""
    return mosfet_linearized(vgs, vds, params, temp)[0]


def mosfet_coefficients(
    params: MosfetParams, temp: float = T_REF
) -> tuple[float, float, float, float]:
    """Per-device inputs of :func:`mosfet_square_law` and
    :func:`mosfet_linearized_array` at ``temp``:
    ``(sign, vth, beta, lam)`` with sign +1.0 (NMOS) or -1.0 (PMOS) and
    ``beta = k'(T) * W / L``, all four finite: beta positive only, as a
    beta that underflows to 0 would read as an open channel, and the
    threshold ``vth(T)`` finite only."""
    kp = mosfet_kprime(params, temp)
    sign = -1.0 if params.polarity == "pmos" else 1.0
    beta = kp * params.width / params.length
    if not 0.0 < beta < math.inf:
        raise DeviceError(f"beta {beta} outside (0, inf) at T={temp} K "
                          f"(k'(T)={kp}, W={params.width}, L={params.length})")
    vth = mosfet_vth(params, temp)
    if not math.isfinite(vth):
        raise DeviceError(f"threshold {vth} not finite at T={temp} K "
                          f"(vth0={params.vth0}, vth_tc={params.vth_tc})")
    return sign, vth, beta, params.lam


def mosfet_square_law(
    vgs: float, vds: float, sign: float, vth: float, beta: float, lam: float
) -> tuple[float, float, float]:
    """:func:`mosfet_linearized` of one device given its
    :func:`mosfet_coefficients`.

    The PMOS reflection through the origin is a multiplication by
    ``sign = -1``, an exact negation: id changes sign, the partials do not.
    """
    vgs_f = sign * vgs
    vds_f = sign * vds
    vth_r = sign * vth
    forward = vds_f >= 0.0
    if not forward:
        # the symmetric device with source and drain exchanged
        vgs_f, vds_f = vgs_f - vds_f, -vds_f
    veff = vgs_f - vth_r
    clm = 1.0 + lam * vds_f
    if veff <= 0.0:
        i = gm = gds = 0.0
    elif vds_f < veff:  # triode
        core = veff * vds_f - 0.5 * vds_f * vds_f
        i = beta * core * clm
        gm = beta * vds_f * clm
        gds = beta * ((veff - vds_f) * clm + core * lam)
    else:  # saturation
        sat = 0.5 * beta * veff * veff
        i = sat * clm
        gm = beta * veff * clm
        gds = sat * lam
    if not forward:
        i, gm, gds = -i, -gm, gm + gds
    return sign * i, gm, gds


@np.errstate(all="ignore")
def mosfet_linearized_array(vgs, vds, sign, vth, beta, lam):
    """:func:`mosfet_square_law` elementwise over arrays of bias points and
    :func:`mosfet_coefficients`.

    Every element goes through the scalar law's operations in the scalar
    law's order, so each result equals the scalar law's to the bit, signed
    zeros included.  Both branches of every region are evaluated, so an
    extreme bias point or coefficient may overflow in a branch it does not
    take: numpy's floating-point warnings are silenced, and a non-finite
    result is left for the caller's solve to reject.
    """
    vgs_r = sign * vgs
    vds_r = sign * vds
    vth_r = sign * vth
    forward = vds_r >= 0.0
    # below zero: the symmetric device with source and drain exchanged
    vgs_f = np.where(forward, vgs_r, vgs_r - vds_r)
    vds_f = np.where(forward, vds_r, -vds_r)
    veff = vgs_f - vth_r
    clm = 1.0 + lam * vds_f
    core = veff * vds_f - 0.5 * vds_f * vds_f
    sat = 0.5 * beta * veff * veff
    triode = vds_f < veff
    cutoff = veff <= 0.0
    i = np.where(cutoff, 0.0, np.where(triode, beta * core * clm, sat * clm))
    gm = np.where(cutoff, 0.0, np.where(triode, beta * vds_f * clm, beta * veff * clm))
    gds = np.where(cutoff, 0.0, np.where(
        triode, beta * ((veff - vds_f) * clm + core * lam), sat * lam))
    i, gm, gds = (np.where(forward, i, -i), np.where(forward, gm, -gm),
                  np.where(forward, gds, gm + gds))
    return sign * i, gm, gds


# --------------------------------------------------------------------------- #
# Leakage estimators
# --------------------------------------------------------------------------- #

def subthreshold_leakage(
    vgs: float, vds: float, params: MosfetParams, temp: float = T_REF
) -> float:
    """Subthreshold channel current magnitude (A).

    ``I0 * exp((vgs - vth)/(n*VT)) * (1 - exp(-vds/VT))`` with
    ``I0 = (W/L) * k' * VT^2 * e^1.8``; the drain term saturates to 1 within
    a few VT of drain bias.  PMOS points are reflected onto the NMOS form.
    """
    vt = thermal_voltage(temp)
    vth = mosfet_vth(params, temp)
    kp = mosfet_kprime(params, temp)
    if params.polarity == "pmos":
        vgs, vds, vth = -vgs, -vds, -vth
    i0 = (params.width / params.length) * kp * vt * vt * math.exp(1.8)
    return i0 * math.exp((vgs - vth) / (params.n_sub * vt)) * (1.0 - math.exp(-vds / vt))


def gate_leakage_coefficients(params: MosfetParams) -> tuple[float, float]:
    """Tunneling prefactor A (A/V^2) and slope B (V/m) for the gate estimator.

    ``A = q^3 / (16 pi^2 hbar phi)`` and
    ``B = 4 pi sqrt(2 m_ox) phi^(3/2) / (3 hbar q)`` with the barrier height
    ``phi`` entering as an energy (phi_ox converted volts -> joules), the
    standard Fowler-Nordheim convention that keeps B/(vox/t_ox) dimensionless.
    """
    q = ELEMENTARY_CHARGE
    phi_j = params.phi_ox * q
    a = q**3 / (16.0 * math.pi**2 * REDUCED_PLANCK * phi_j)
    b = 4.0 * math.pi * math.sqrt(2.0 * params.m_ox) * phi_j**1.5 / (3.0 * REDUCED_PLANCK * q)
    return a, b


def gate_leakage(vox: float, params: MosfetParams) -> float:
    """Gate direct-tunneling current magnitude (A) at oxide voltage ``vox``.

    ``W*L*A*(vox/t_ox)^2 * exp(-B*(1 - (1 - vox/phi_ox)^(3/2))/(vox/t_ox))``.
    Polarity-symmetric in vox; exactly 0 at vox = 0 (the analytic limit);
    raises :class:`DeviceError` once ``|vox|`` reaches the barrier height,
    where the triangular-barrier expression loses validity.
    """
    v = abs(vox)
    if v >= params.phi_ox:
        raise DeviceError(f"|vox|={v} outside the tunneling domain [0, {params.phi_ox})")
    if v == 0.0:
        return 0.0
    a, b = gate_leakage_coefficients(params)
    field = v / params.t_ox
    shape = 1.0 - (1.0 - v / params.phi_ox) ** 1.5
    return params.width * params.length * a * field * field * math.exp(-b * shape / field)


# --------------------------------------------------------------------------- #
# Resistor and sources
# --------------------------------------------------------------------------- #

def resistor_value(params: ResistorParams, temp: float = T_REF) -> float:
    """Resistance at ``temp``: r_nominal * (1 + temp_coeff*(T - T0)) (ohm),
    positive and finite only, and with a finite conductance ``1/r``."""
    r = params.r_nominal * (1.0 + params.temp_coeff * (temp - T_REF))
    if not 0.0 < r < math.inf:
        raise DeviceError(
            f"resistance {r} outside (0, inf) at T={temp} K (temp_coeff={params.temp_coeff})"
        )
    if 1.0 / r == math.inf:
        raise DeviceError(f"resistance {r}: its conductance 1/r overflows at T={temp} K")
    return r


def source_value(spec: SourceSpec, time: float | np.ndarray) -> float | np.ndarray:
    """Source voltage at ``time`` (s).

    ``time`` may also be an array of times, which gives an array of
    values: the same operations in the same order, the sine through
    :func:`numpy.sin` in place of :func:`math.sin` (bit for bit the same
    where the platform's two agree, which the tests check)."""
    array = isinstance(time, np.ndarray)
    if spec.kind == "dc":
        return np.full(time.shape, spec.dc_value) if array else spec.dc_value
    return spec.dc_value + spec.amplitude * (np.sin if array else math.sin)(
        2.0 * math.pi * spec.frequency * time + spec.phase
    )
