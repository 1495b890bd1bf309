"""Independent straight-line transcriptions of every device equation.

These deliberately repeat the arithmetic (and the physical constants) rather
than importing anything from the package under test: each function is a
direct transcription of one closed-form device law, used as the reference
the implementation must reproduce to 1e-12 relative.  The memristor loop is
the exception: a closed-form solution of a driven device, which the
stepped transient must reproduce within its truncation budget.  So is the
classical Runge-Kutta integrator of a circuit's memristor states, whose
device currents the caller supplies.
"""

import math

import numpy as np

K_B = 1.380649e-23            # J/K
Q = 1.602176634e-19           # C
HBAR = 1.054571817e-34        # J s
T0 = 300.15                   # K


def o_thermal_voltage(temp):
    return K_B * temp / Q


def o_window(x, p):
    return 1.0 if p == 0 else 1.0 - (2.0 * x - 1.0) ** (2 * p)


def o_memristance(w, length, r_on, r_off):
    x = w / length
    return x * r_on + (1.0 - x) * r_off


def o_dwdt(w, length, r_on, mobility, polarity, p, current):
    return polarity * mobility * (r_on / length) * current * o_window(w / length, p)


def o_vth(vth0, vth_tc, temp):
    return vth0 + vth_tc * (temp - T0)


def o_kprime(k_prime, mobility_exp, temp):
    return k_prime * (temp / T0) ** mobility_exp


def o_mosfet_current(vgs, vds, *, vth0, vth_tc, k_prime, mobility_exp, lam,
                     width, length, temp=T0):
    """Level-1 NMOS drain current; regions transcribed one by one."""
    vth = o_vth(vth0, vth_tc, temp)
    kp = o_kprime(k_prime, mobility_exp, temp)
    beta = kp * width / length
    veff = vgs - vth
    if veff <= 0.0:
        return 0.0
    if vds < veff:
        return beta * (veff * vds - 0.5 * vds * vds) * (1.0 + lam * vds)
    return 0.5 * beta * veff * veff * (1.0 + lam * vds)


def o_subthreshold(vgs, vds, *, vth0, vth_tc, k_prime, mobility_exp, n_sub,
                   width, length, temp=T0):
    vt = o_thermal_voltage(temp)
    vth = o_vth(vth0, vth_tc, temp)
    kp = o_kprime(k_prime, mobility_exp, temp)
    i0 = (width / length) * kp * vt * vt * math.exp(1.8)
    return i0 * math.exp((vgs - vth) / (n_sub * vt)) * (1.0 - math.exp(-vds / vt))


def o_gate_coefficients(phi_ox_volts, m_ox):
    """Tunneling A and B with the barrier height as an energy (volts * q)."""
    phi = phi_ox_volts * Q
    a = Q**3 / (16.0 * math.pi**2 * HBAR * phi)
    b = 4.0 * math.pi * math.sqrt(2.0 * m_ox) * phi**1.5 / (3.0 * HBAR * Q)
    return a, b


def o_gate_leakage(vox, *, phi_ox, m_ox, t_ox, width, length):
    if vox == 0.0:
        return 0.0
    a, b = o_gate_coefficients(phi_ox, m_ox)
    field = vox / t_ox
    shape = 1.0 - (1.0 - vox / phi_ox) ** 1.5
    return width * length * a * field * field * math.exp(-b * shape / field)


def o_resistor(r_nominal, temp_coeff, temp):
    return r_nominal * (1.0 + temp_coeff * (temp - T0))


def o_square_wave_thd(n_harmonics):
    """Analytic THD of a symmetric square wave truncated at n_harmonics:
    amplitudes 4/(n*pi) for odd n, so THD = sqrt(sum_{odd 3..N} 1/n^2)."""
    s = sum(1.0 / (n * n) for n in range(3, n_harmonics + 1, 2))
    return math.sqrt(s)


def o_memristor_loop(params, amplitude, frequency, t, s0=0.5):
    """Current (A) at the times ``t`` (an array) of a p = 1 Joglekar
    memristor driven by ``amplitude * sin(2*pi*frequency*t)`` across its
    terminals from the state ``s0 = w/L`` (Joglekar & Wolf 2009).

    With f(s) = 4s(1 - s) the state is a logistic function of the charge q,
    logit s = logit s0 + 4Kq with K = polarity*uv*Ron/L^2, so the flux
    phi(q) = int M dq is closed-form: Roff*q - (Roff - Ron)/(4K) *
    [softplus(a + 4Kq) - softplus(a)], a = logit s0.  It rises strictly
    (dphi/dq = M > 0), and the drive's flux (A/w)(1 - cos wt) is known at
    every time, so each sample's charge is the root of phi(q) = phi(t)
    (Chua 1971), found by Newton from the side where it converges
    monotonically, and i = v / M(s(q))."""
    t = np.asarray(t, dtype=float)
    omega = 2.0 * math.pi * frequency
    r_on, r_off = params.r_on, params.r_off
    k4 = 4.0 * params.polarity * params.mobility * r_on / (params.length * params.length)
    a = math.log(s0 / (1.0 - s0))
    flux = amplitude / omega * (1.0 - np.cos(omega * t))

    def state(q):
        return 1.0 / (1.0 + np.exp(-(a + k4 * q)))

    def phi(q):
        lift = np.logaddexp(0.0, a + k4 * q) - np.logaddexp(0.0, a)
        return r_off * q - (r_off - r_on) / k4 * lift

    # flux >= 0 and Ron <= M <= Roff, so the root lies in [flux/Roff,
    # flux/Ron]: phi is concave for K > 0 (start left), convex for K < 0
    q = flux / (r_off if k4 > 0.0 else r_on)
    for _ in range(200):
        s = state(q)
        step = (phi(q) - flux) / (s * r_on + (1.0 - s) * r_off)
        q = q - step
        if np.all(np.abs(step) <= 1e-15 * np.maximum(np.abs(q), 1e-30)):
            break
    s = state(q)
    return amplitude * np.sin(omega * t) / (s * r_on + (1.0 - s) * r_off)


def o_rk4_states(currents, params, s0, t_stop, steps):
    """Normalized states s = w/L at ``t_stop`` of memristors started at
    ``s0``, by the classical fourth-order Runge-Kutta method in ``steps``
    equal steps on ds/dt = o_dwdt(s*L, ...) / L.  ``params`` holds each
    memristor's parameters, and ``currents(s)`` its current (A) with the
    states at s: a DC solve with the memristances frozen there makes this
    the reduced state ODE of a memristive transient, whose node voltages
    follow the states at once.  The states must stay inside [0, 1]."""
    h = t_stop / steps

    def rate(s):
        return np.array([o_dwdt(sk * p.length, p.length, p.r_on, p.mobility, p.polarity,
                                p.window_p, i) / p.length
                         for sk, p, i in zip(s, params, currents(s))])

    s = np.array(s0, dtype=float)
    for _ in range(steps):
        k1 = rate(s)
        k2 = rate(s + 0.5 * h * k1)
        k3 = rate(s + 0.5 * h * k2)
        k4 = rate(s + h * k3)
        s = s + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s
