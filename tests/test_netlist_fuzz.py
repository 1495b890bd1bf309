"""Netlist fuzzing: random decks from the grammar of docs/netlist.md, run
through the CLI, and the same decks with one token broken.

Every deck must end in an exit code of the CLI's table (0, 1 or 2), never
a traceback; a DC deck that exits 0 must solve to a KCL residual within
``SimOptions.abstol``, and every recorded sample of a ``.tran`` deck that
runs must keep KCL by the oracles' device laws.  Model and instance keys come from the netlist's own
key tables, so a key the parser accepts is a key the fuzzer writes.

Each generated token carries what may be done to it such that the deck
must then fail to parse: a node name is any word, so a garbled node is
still a deck; an optional ``key=value``, ``.dc`` or ``.end`` may be
dropped; and a SIN argument may be dropped or doubled, since the phase is
optional.  Every other token, dropped, doubled or replaced by ``@``, breaks
the grammar.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorsim import engine
from mirrorsim.cli import main
from mirrorsim.devices import DeviceError
from mirrorsim.engine import SimOptions, SimulationError, run_transient, solve_dc
from mirrorsim.netlist import (
    _INSTANCE_FIELDS,
    _MODEL_FIELDS,
    BoundMemristor,
    BoundMosfet,
    BoundResistor,
    NetlistError,
    elaborate,
    parse,
)

import oracles

NODES = ("0", "a", "b", "c", "d")
ANY, NODE, OPTIONAL, SINE_ARG = "drop double garble", "drop double", "double garble", "garble"

# values for every key: all but the last valid, the last out of its
# device's domain where the device has one (drawn one time in eleven, or in
# sixteen after three valid ones); w0 = 10n (= L) and m0 = 100 (= r_on)
# start a memristor at its r_on bound, where an extreme ron is read
KEY_VALUES = {
    "ron": ("100", "1k", "-5"), "roff": ("38k", "20k", "50"), "l": ("10n", "20n", "0"),
    "uv": ("2e-14", "1e-13", "-1e-14"), "p": ("1", "2", "1.5"), "pol": ("1", "-1", "0"),
    "vth0": ("0.45", "0.3", "-0.45"), "kp": ("170u", "60u", "0"),
    "lambda": ("0.05", "0.1", "-0.1"), "nsub": ("1.5", "1.2", "0"),
    "tox": ("4n", "2n", "-4n"), "phiox": ("3.1", "2.5", "0"), "mox": ("2.7e-31", "1e-31", "0"),
    "bex": ("-1.5", "-1", "-2"), "vtc": ("-1m", "1m", "2m"),
    "tc": ("1m", "0", "-2m"), "w": ("1u", "2u", "-1u"), "m0": ("5k", "20k", "100", "50k"),
    "w0": ("5n", "1n", "10n", "11n"),
}
MODELS = {"MEM": "memristor", "NCH": "nmos", "PCH": "pmos"}

# magnitudes at the ends of the float range, subnormal 1e-320 included
EXTREMES = ("1e300", "-1e300", "1e-300", "1e-320")


def rare_extreme(values):
    """One of ``values``, or about one time in ten one of ``EXTREMES``."""
    return st.sampled_from(list(values) * (36 // len(values)) + list(EXTREMES))


@st.composite
def key_values(draw, keys, at_most=3):
    chosen = draw(st.lists(st.sampled_from(sorted(keys)), unique=True, max_size=at_most))
    return [(f"{k}={draw(rare_extreme(KEY_VALUES[k][:-1] * 5 + KEY_VALUES[k][-1:]))}",
             OPTIONAL) for k in chosen]


@st.composite
def decks(draw):
    """A deck as lines of (token, mutations) pairs, and whether it is DC."""
    lines = [[("*", ""), ("fuzz", "")]] if draw(st.booleans()) else []
    value = st.sampled_from(["1k", "38k", "4.7k", "100", "2meg", "p1"])
    if draw(st.booleans()):
        lines.append([(".param", ANY), (f"p1={draw(st.sampled_from(['10k', '1k']))}", ANY)])
    else:
        value = value.filter(lambda v: v != "p1")
    node = st.sampled_from(NODES)
    supply = draw(st.sampled_from(["2.5", "1", "5", "0.7"]))
    if draw(st.integers(0, 3)) == 0:
        args = [draw(rare_extreme([supply])), draw(rare_extreme(["0.5", "1"])),
                draw(rare_extreme(["5", "50"]))]
        args += [draw(rare_extreme(["0", "0.3"]))] if draw(st.booleans()) else []
        drive = [("SIN", ANY), ("(", ANY)] + [(v, SINE_ARG) for v in args] + [(")", ANY)]
    else:
        drive = [("DC", ANY), (supply, ANY)]
    lines.append([("V1", ANY), ("a", NODE), ("0", NODE)] + drive)
    if draw(st.booleans()):
        # on node a, VB parallels V1: a singular system
        lines.append([("VB", ANY), (draw(st.sampled_from("bbba")), NODE), ("0", NODE),
                      ("DC", ANY), ("0.7", ANY)])
    used = set()
    for k in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from("RYM"))
        if kind == "R":
            card = [(f"R{k}", ANY), (draw(node), NODE), (draw(node), NODE), (draw(value), ANY)]
            card += draw(key_values(_INSTANCE_FIELDS["R"]))
        elif kind == "Y":
            used.add("MEM")
            card = [(f"Y{k}", ANY), (draw(node), NODE), (draw(node), NODE), ("MEM", ANY)]
            card += draw(key_values(_INSTANCE_FIELDS["Y"], at_most=1))
        else:
            model = draw(st.sampled_from(["NCH", "PCH"]))
            used.add(model)
            card = [(f"M{k}", ANY)] + [(draw(node), NODE) for _ in range(4)] + [(model, ANY)]
            card += draw(key_values(_INSTANCE_FIELDS["M"]))
        lines.append(card)
    for name in sorted(used):
        params = draw(key_values(_MODEL_FIELDS[MODELS[name]]))
        lines.append([(".model", ANY), (name, ANY), (MODELS[name], ANY), ("(", ANY)]
                     + params + [(")", ANY)])
    analysis = draw(st.sampled_from(["", ".dc", ".tran"]))
    if analysis == ".dc":
        lines.append([(".dc", OPTIONAL)])
    elif analysis == ".tran":
        step = draw(st.sampled_from([1, 5]))  # ms
        stop = step * draw(st.integers(1, 200))
        lines.append([(".tran", ANY), (draw(rare_extreme([f"{step}m"])), ANY),
                      (draw(rare_extreme([f"{stop}m"])), ANY)])
    if draw(st.booleans()):
        lines.append([(".temp", ANY), (draw(rare_extreme(["27", "-40", "125"])), ANY)])
    if draw(st.booleans()):
        lines.append([(".end", OPTIONAL)])
    return lines, analysis != ".tran"


def _render(lines) -> str:
    return "".join(" ".join(token for token, _ in line) + "\n" for line in lines)


def _mutations(lines):
    """Every (line, token, mutation) the grammar must reject."""
    return [(i, j, how) for i, line in enumerate(lines) for j, (_, allowed) in enumerate(line)
            for how in ("drop", "double", "garble") if how in allowed]


def _mutate(lines, i, j, how):
    line = list(lines[i])
    if how == "drop":
        del line[j]
    elif how == "double":
        line.insert(j, line[j])
    else:
        line[j] = ("@", "")
    return lines[:i] + [line] + lines[i + 1:]


def _run(tmp_path_factory, text: str) -> int:
    folder = tmp_path_factory.mktemp("deck")
    deck = folder / "deck.cir"
    deck.write_text(text, encoding="utf-8")
    return main(["run", str(deck), "-o", str(folder / "out.csv")])


@given(deck=decks(), pick=st.integers(min_value=0))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_deck_ends_in_an_exit_code_and_a_broken_deck_is_refused(tmp_path_factory,
                                                                    deck, pick):
    lines, dc = deck
    text = _render(lines)
    code = _run(tmp_path_factory, text)
    assert code in (0, 1, 2), text
    if code == 0 and dc:
        assert solve_dc(elaborate(parse(text))).kcl_residual <= SimOptions.abstol, text
    mutations = _mutations(lines)
    i, j, how = mutations[pick % len(mutations)]
    broken = _render(_mutate(lines, i, j, how))
    assert _run(tmp_path_factory, broken) in (1, 2), broken


def _outcome(result):
    """A solve's operating point or error as comparable values: each field
    of the point, node voltages by their bytes, or the error's type, text
    and trace (whose NaN residuals compare unequal to themselves)."""
    if isinstance(result, Exception):
        return type(result), str(result), repr(getattr(result, "trace", None))
    return (result.node_voltages.tobytes(), repr(result.device_currents),
            repr(result.source_currents), repr(result.kcl_residual),
            result.newton_iterations)


@given(deck=decks(), limit=st.sampled_from([engine._MAX_NEWTON_ITERS, 3]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_lone_dc_row_is_its_row_of_a_stack(deck, limit):
    # a lone row runs the list Newton of the memristive steps, a stack of
    # rows the batched one: each row of a two-row stack is the deck's
    # solve_dc, to the bit, or fails with its error, text and trace; a
    # 3-iteration limit sends most decks through source stepping
    try:
        circuit = elaborate(parse(_render(deck[0])))
    except (NetlistError, DeviceError):
        return
    with mock.patch.object(engine, "_MAX_NEWTON_ITERS", limit):
        try:
            alone = solve_dc(circuit)
        except (SimulationError, DeviceError) as exc:
            alone = exc
        try:
            rows = engine._compile(circuit, [None, None]).solve()
            stack = [rows.errors.get(k) or rows.operating_point(k) for k in (0, 1)]
        except (SimulationError, DeviceError) as exc:  # raised before any row
            stack = [exc]
    for row in stack:
        assert _outcome(row) == _outcome(alone)


def _memristive_tran(deck) -> bool:
    lines, dc = deck
    return not dc and any(line[0][0].startswith("Y") for line in lines)


@given(deck=decks().filter(_memristive_tran))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_transient_deck_s_states_take_their_backward_euler_steps(deck):
    # each recorded state of a .tran deck that runs is the backward-Euler
    # update, from the state one grid step before, at its own recorded
    # current: s_k = s_{k-1} + dt*k*i_k*f(s_k), with k and f the oracles'
    # drift law, within reltol, or it sits at a bound; a grid step that
    # _Steps.march cut is exempt
    text = _render(deck[0])
    try:
        circuit = elaborate(parse(text))
        _, step, stop = circuit.analysis
        opts = SimOptions(dt=step, t_stop=stop)
    except (NetlistError, DeviceError, ValueError):
        return
    memristors = [d for d in circuit.devices if isinstance(d, BoundMemristor)]
    cut, march = set(), engine._Steps.march

    def spy(self, x, currents, t, t_end, *args):
        cut.add(t_end)
        return march(self, x, currents, t, t_end, *args)

    probes = [f"{kind}({m.name})" for m in memristors for kind in "iw"]
    with mock.patch.object(engine._Steps, "march", spy):
        try:
            res = run_transient(circuit, opts, probes)
        except (SimulationError, DeviceError):
            return
    for m in memristors:
        p = m.params
        t = res.waveform(f"i({m.name})").t
        i = res.waveform(f"i({m.name})").values
        w = res.waveform(f"w({m.name})").values
        s = w / p.length
        for k in range(1, len(t)):
            if t[k] in cut or s[k] in (0.0, 1.0):
                continue
            drift = oracles.o_dwdt(w[k], p.length, p.r_on, p.mobility, p.polarity,
                                   p.window_p, i[k]) / p.length
            assert abs(s[k] - s[k - 1] - step * drift) <= SimOptions.reltol, (text, m.name, k)


def _drain_current(p, vgs, vds, temp):
    """A MOSFET's drain current (A) by the oracles' NMOS law: a PMOS is the
    NMOS reflected through the origin, threshold included, and a reversed
    channel the device with source and drain exchanged."""
    sign = -1.0 if p.polarity == "pmos" else 1.0
    vgs, vds = sign * vgs, sign * vds
    flow = 1.0 if vds >= 0.0 else -1.0
    if vds < 0.0:
        vgs, vds = vgs - vds, -vds
    return sign * flow * oracles.o_mosfet_current(
        vgs, vds, vth0=sign * p.vth0, vth_tc=sign * p.vth_tc, k_prime=p.k_prime,
        mobility_exp=p.mobility_exp, lam=p.lam, width=p.width, length=p.length,
        temp=temp)


@given(deck=decks().filter(lambda deck: not deck[1]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_transient_deck_s_samples_keep_kirchhoff_s_current_law(deck):
    # every recorded sample of a .tran deck that runs, DC-solved (no
    # memristor) or stepped, balances the currents at each non-ground node
    # within abstol, plus gmin (1e-12 S) times the node's voltage and each
    # MOSFET channel's |v_ds| there: each device's current from the
    # oracles' laws at the recorded voltages and, for a memristor, its
    # recorded w, and each source's recorded current, summed over the
    # deck's own terminals
    text = _render(deck[0])
    try:
        circuit = elaborate(parse(text))
        _, step, stop = circuit.analysis
        opts = SimOptions(dt=step, t_stop=stop)
    except (NetlistError, DeviceError, ValueError):
        return
    nodes = circuit.node_names[1:]
    probes = ([f"v({node})" for node in nodes] + [f"i({d.name})" for d in circuit.devices]
              + [f"w({d.name})" for d in circuit.devices if isinstance(d, BoundMemristor)])
    try:
        res = run_transient(circuit, opts, probes)
    except (SimulationError, DeviceError):
        return
    temp = circuit.temp
    v = [0.0 * res.waveforms[0].t] + [res.waveform(f"v({node})").values for node in nodes]
    for k in range(len(res.waveforms[0].t)):
        net, allowance = [0.0] * len(v), [abs(u[k]) for u in v]
        for d in circuit.devices:
            if isinstance(d, BoundMosfet):
                a, b = d.n_d, d.n_s
                vds = v[a][k] - v[b][k]
                current = _drain_current(d.params, v[d.n_g][k] - v[b][k], vds, temp)
                allowance[a] += abs(vds)
                allowance[b] += abs(vds)
            else:
                a, b = d.n_pos, d.n_neg
                drop = v[a][k] - v[b][k]
                if isinstance(d, BoundResistor):
                    p = d.params
                    current = drop / oracles.o_resistor(p.r_nominal, p.temp_coeff, temp)
                elif isinstance(d, BoundMemristor):
                    p = d.params
                    w = res.waveform(f"w({d.name})").values[k]
                    current = drop / oracles.o_memristance(w, p.length, p.r_on, p.r_off)
                else:
                    current = res.waveform(f"i({d.name})").values[k]
            net[a] -= current
            net[b] += current
        for node in range(1, len(v)):
            assert abs(net[node]) <= SimOptions.abstol + 1e-12 * allowance[node], (
                text, nodes[node - 1], k)


@pytest.mark.parametrize("deck, message", [
    # (T/T0)^bex overflowed in Python's float power: OverflowError
    ("V1 a 0 DC 1\nR1 a d 1k\nM1 d d 0 0 NCH\n.model NCH nmos (bex=-1e4)\n.temp -200\n",
     "error: M1: (T/T0)^mobility_exp overflows at T=73.1"),
    # the drift law's L*L underflowed to 0 in a transient: ZeroDivisionError
    ("V1 a 0 DC 1\nR1 a b 1k\nY1 b 0 MEM\n.model MEM memristor (l=1e-170)\n.tran 5m 10m\n",
     "error: Y1: memristor length 1e-170 m squared underflows to 0"),
], ids=["mosfet-mobility-power", "memristor-length-square"])
def test_decks_that_raised_a_traceback_exit_1(tmp_path_factory, capsys, deck, message):
    assert _run(tmp_path_factory, deck) == 1
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("deck, code, message", [
    # 0.5*beta*veff^2 overflows in the array law's saturation branch: no
    # warning (the suite turns warnings into errors), a singular system
    ("V1 a 0 DC 2.5\nVB a 0 DC 0.7\nM0 0 0 c d PCH w=2u\nR1 c a 1e-300\n"
     ".model PCH pmos (vth0=-1e300 mox=1e300)\n.dc\n", 2,
     "error: singular nodal matrix"),
    # beta = kp*W/L overflows to inf: the MOSFET law names it
    ("V1 a 0 DC 2.5\nR1 a d 1k\nM1 d d 0 0 NCH w=1e300 l=1e-300\n"
     ".model NCH nmos (kp=1e300)\n.dc\n", 1,
     "error: M1: beta inf outside (0, inf)"),
    # (T/T0)^-1.5 underflows to 0 at 1e300 K, and so does beta, which
    # would read as an open channel
    ("V1 a 0 DC 2.5\nR1 a b 1k\nM1 b b 0 0 NCH\n.model NCH nmos ()\n.temp 1e300\n"
     ".dc\n", 1, "error: M1: beta 0.0 outside (0, inf) at T=1e+300 K"),
    # a conductance of 1/1e-320 overflows to inf
    ("V1 a 0 DC 2.5\nR1 a 0 1e-320\n.dc\n", 1,
     "error: R1: resistance 1e-320: its conductance 1/r overflows"),
    # a memristor at w0 = L has memristance r_on, whose conductance
    # overflowed in the DC rows (a numpy warning, then 100 iterations)
    *[(f"V1 a 0 DC 2.5\nR1 a b 1k\nY1 b 0 MEM w0=10n\n"
       f".model MEM memristor (ron=1e-320 roff=38k)\n{analysis}\n", 1,
       "error: Y1: r_on 1e-320: its conductance 1/r_on overflows")
      for analysis in (".dc", ".tran 1m 10m")],
    # vth0 + vth_tc*(T - T0) overflows to inf
    ("V1 a 0 DC 2.5\nR1 a b 1k\nM1 b b 0 0 NCH\n.model NCH nmos (vtc=1e308)\n"
     ".temp 100\n.dc\n", 1, "error: M1: threshold inf not finite at T=373.15 K"),
    # the window slope's -4p (2s - 1)^(2p - 1) was -inf * 0 at p = 1e308: a
    # non-finite iterate
    ("V1 a 0 DC 2.5\nR1 a b 1k\nY1 b 0 MEM\n.model MEM memristor (p=1e308)\n"
     ".tran 1m 10m\n", 1, "error: Y1: window_p must be an integer in [0, 2**53], "
     "got 1e+308"),
    # r*(1 + tc*(T - T0)) overflows to inf, which would read as an open
    ("V1 a 0 DC 2.5\nR1 a 0 1k tc=1e308\n.temp 125\n.dc\n", 1,
     "error: R1: resistance inf outside (0, inf)"),
    # the drift law's k = dt*uv*Ron/L^2 was inf: a non-finite iterate at
    # the first step
    ("V1 a 0 DC 2.5\nR1 a b 1k\nY1 b 0 MEM\n"
     ".model MEM memristor (uv=1e300 ron=1e300 roff=1e301 l=1e-150)\n.tran 1m 10m\n", 1,
     "error: Y1: drift rate uv*r_on/L^2 = inf not finite"),
], ids=["array-law-overflow", "mosfet-beta", "mosfet-beta-underflow",
        "resistor-conductance", "memristor-conductance-dc", "memristor-conductance-tran",
        "mosfet-threshold", "memristor-window-exponent", "resistor-value",
        "memristor-drift-rate"])
def test_an_overflowing_deck_exits_with_a_named_error(tmp_path_factory, capsys, deck,
                                                       code, message):
    assert _run(tmp_path_factory, deck) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("tran, steps", [
    (".tran 1e-300 5m", "5e+297"),  # numpy refused the grid: ValueError
    (".tran 1e-320 1e-300", "1e+20"),
    (".tran 1m 1e300", "1e+303"),
    (".tran 1e-320 116m", "inf"),  # int(inf) raised OverflowError
], ids=["fine-step", "subnormal-step", "long-stop", "infinite-ratio"])
def test_a_grid_too_fine_to_hold_exits_1(tmp_path_factory, capsys, tran, steps):
    assert _run(tmp_path_factory, f"V1 a 0 DC 1\nR1 a 0 1k\n{tran}\n") == 1
    assert capsys.readouterr().err == (
        f"error: t_stop / dt = {steps} steps; at most 1e+07 are taken\n")
