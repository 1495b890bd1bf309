"""Netlist front-end tests: value grammar, parse/print round-trip,
parse and elaboration diagnostics, built-in mirror topologies, overrides."""

import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mirrorsim.devices import (
    DeviceError,
    MEMRISTOR_DEFAULTS,
    SourceSpec,
    state_for_memristance,
)
from mirrorsim.netlist import (
    _INSTANCE_FIELDS,
    _MODEL_FIELDS,
    BoundMosfet,
    BoundResistor,
    BoundSource,
    DcCard,
    ElaborationError,
    EndCard,
    MemristorCard,
    MirrorConfig,
    MirrorKind,
    ModelCard,
    MosfetCard,
    ParamCard,
    ParseError,
    ResistorCard,
    SourceCard,
    TempCard,
    TranCard,
    apply_override,
    builtin_mirror,
    elaborate,
    format_value,
    mirror_circuit,
    overrides,
    parse,
    parse_value,
    print_netlist,
    resolve_param_path,
    with_override,
)
from mirrorsim.constants import T_REF


# --------------------------------------------------------------------------- #
# value grammar
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize(
    "token, expected",
    [
        ("38k", 38e3),
        ("38K", 38e3),
        ("170u", 170e-6),
        ("4n", 4e-9),
        ("10p", 10e-12),
        ("2f", 2e-15),
        ("1m", 1e-3),
        ("2meg", 2e6),
        ("2MEG", 2e6),
        ("3g", 3e9),
        ("1.5", 1.5),
        (".5", 0.5),
        ("-0.45", -0.45),
        ("2.5e-3", 2.5e-3),
        ("1E3", 1e3),
        ("1e3k", 1e6),
    ],
)
def test_value_suffixes(token, expected):
    assert parse_value(token) == pytest.approx(expected, rel=1e-15)


def test_meg_is_not_milli():
    assert parse_value("2meg") == 2e6
    assert parse_value("2m") == 2e-3


@pytest.mark.parametrize("token", ["38kohm", "12x", "1..2", "k", "--3", "1e", ""])
def test_malformed_values_are_parse_errors(token):
    with pytest.raises(ParseError):
        parse_value(token, line=7)


@pytest.mark.parametrize("token", ["1e999", "-2e308", "1e306meg", "1e300g"])
def test_values_that_overflow_a_float_are_parse_errors(token):
    with pytest.raises(ParseError, match="overflows a float"):
        parse_value(token, line=7)


def test_value_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_value("38kohm", line=7)
    assert exc.value.line == 7
    assert "line 7" in str(exc.value)


def test_param_reference_and_undefined_param():
    assert parse_value("rl", env={"rl": 38e3}) == 38e3
    assert parse_value("RL", env={"rl": 38e3}) == 38e3
    with pytest.raises(ParseError):
        parse_value("nope", env={"rl": 38e3})
    with pytest.raises(ParseError):
        parse_value("rl", env=None)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_value_reparses_exactly(x):
    assert parse_value(format_value(x)) == x


# --------------------------------------------------------------------------- #
# parsing cards
# --------------------------------------------------------------------------- #

def test_resistor_card_suffix_expansion():
    ast = parse("R1 vdd d1 38k\n")
    assert ast.cards == [ResistorCard("R1", "vdd", "d1", 38000.0)]


def test_memristor_card_binds_model_name():
    ast = parse("Y1 vdd d1 MEMMOD w0=5n\n")
    assert ast.cards == [MemristorCard("Y1", "vdd", "d1", "MEMMOD", {"w0": 5e-9})]


def test_missing_node_is_parse_error_naming_line_1():
    with pytest.raises(ParseError) as exc:
        parse("R1 vdd 38k\n")
    assert exc.value.line == 1


def test_case_insensitive_names_and_nodes():
    ast = parse("r1 VDD D1 38k\n")
    card = ast.cards[0]
    assert card.name == "R1"
    assert (card.n_pos, card.n_neg) == ("vdd", "d1")


def test_title_only_from_leading_comment_line():
    assert parse("* my circuit\nR1 a 0 1k\nV1 a 0 DC 1\n").title == "my circuit"
    assert parse("R1 a 0 1k\nV1 a 0 DC 1\n").title == ""
    # a later * line is a plain comment, not a title
    assert parse("R1 a 0 1k\n* not a title\nV1 a 0 DC 1\n").title == ""


def test_comments_continuations_and_blank_lines():
    text = (
        "* title line\n"
        "\n"
        "V1 in 0 DC 2.5 ; trailing comment\n"
        "* full-line comment\n"
        "R1 in\n"
        "+ 0\n"
        "+ 38k\n"
    )
    ast = parse(text)
    assert ast.cards == [
        SourceCard("V1", "in", "0", SourceSpec(kind="dc", dc_value=2.5)),
        ResistorCard("R1", "in", "0", 38000.0),
    ]
    # the joined card reports the line it started on
    assert ast.cards[1].line == 5


def test_continuation_without_a_previous_card():
    with pytest.raises(ParseError) as exc:
        parse("+ 38k\n")
    assert exc.value.line == 1


def test_sine_source_with_and_without_phase():
    with_phase = parse("V1 a 0 SIN(5.0 2.5 50 1.5)\n").cards[0].spec
    assert with_phase == SourceSpec(
        kind="sine", dc_value=5.0, amplitude=2.5, frequency=50.0, phase=1.5
    )
    no_phase = parse("V1 a 0 SIN(5.0 2.5 50)\n").cards[0].spec
    assert no_phase.phase == 0.0


def test_sine_source_rejects_bad_arity_and_zero_frequency():
    with pytest.raises(ParseError):
        parse("V1 a 0 SIN(5.0 2.5)\n")
    with pytest.raises(ParseError):
        parse("V1 a 0 SIN(5.0 2.5 0)\n")
    with pytest.raises(ParseError):
        parse("V1 a 0 DC 1 2\n")
    with pytest.raises(ParseError):
        parse("V1 a 0 PULSE(0 1)\n")


def test_unknown_device_letter():
    with pytest.raises(ParseError):
        parse("Q1 c b e QMOD\n")


def test_duplicate_element_name_is_parse_error_with_line():
    with pytest.raises(ParseError) as exc:
        parse("R1 a 0 1k\nr1 b 0 2k\n")
    assert exc.value.line == 2


def test_mosfet_card_takes_four_nodes_and_instance_geometry():
    ast = parse("M1 d g s b NCH w=1u l=0.18u\n")
    assert ast.cards == [
        MosfetCard("M1", "d", "g", "s", "b", "NCH", {"w": 1e-6, "l": 0.18e-6})
    ]
    with pytest.raises(ParseError):
        parse("M1 d g s NCH\n")


def test_unknown_and_duplicate_instance_params():
    with pytest.raises(ParseError):
        parse("R1 a 0 1k foo=3\n")
    with pytest.raises(ParseError):
        parse("R1 a 0 1k tc=1m tc=2m\n")
    with pytest.raises(ParseError):
        parse("Y1 a 0 MEM w0=1n m0=5k\n")


def test_negative_or_zero_resistance_rejected():
    with pytest.raises(ParseError):
        parse("R1 a 0 -38k\n")
    with pytest.raises(ParseError):
        parse("R1 a 0 0\n")


# --------------------------------------------------------------------------- #
# directives
# --------------------------------------------------------------------------- #

def test_model_directive_requires_parens():
    ast = parse(".model NCH NMOS (vth0=0.45 kp=170u)\n")
    assert ast.cards == [ModelCard("NCH", "nmos", {"vth0": 0.45, "kp": 170e-6})]
    with pytest.raises(ParseError):
        parse(".model NCH NMOS vth0=0.45\n")
    with pytest.raises(ParseError):
        parse(".model NCH BJT (vth0=0.45)\n")
    with pytest.raises(ParseError):
        parse(".model MEM MEMRISTOR (vth0=0.45)\n")


def test_tran_dc_temp_param_end():
    ast = parse(".param RL=38k\n.tran 1u 2m\n.temp 27\n.end\n")
    assert ast.cards == [
        ParamCard("rl", 38e3),
        TranCard(1e-6, 2e-3),
        TempCard(27.0),
        EndCard(),
    ]
    assert parse(".dc\n").cards == [DcCard()]


def test_param_must_be_defined_before_use():
    assert parse(".param RL=38k\nR1 a 0 RL\nV1 a 0 DC 1\n").cards[1].value == 38e3
    with pytest.raises(ParseError) as exc:
        parse("R1 a 0 RL\n.param RL=38k\n")
    assert exc.value.line == 1


def test_one_analysis_directive_at_most():
    with pytest.raises(ParseError) as exc:
        parse(".tran 1u 1m\n.dc\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse(".tran 1u 1m\n.tran 1u 2m\n")


def test_tran_validation():
    with pytest.raises(ParseError):
        parse(".tran 2m 1m\n")
    with pytest.raises(ParseError):
        parse(".tran 0 1m\n")
    with pytest.raises(ParseError):
        parse(".tran 1u\n")


@pytest.mark.parametrize("deck, message", [
    ("R2 a 0 1k tc=\n", "malformed key=value 'tc='"),
    (".param =5\n", "malformed key=value '=5'"),
    ("Y1 a 0\n", "memristor Y1 needs 2 nodes and a model"),
    ("V2 a 0\n", "source V2 needs 2 nodes and a drive"),
    (".model X\n", ".model needs a name and a type"),
    (".dc 1\n", ".dc takes no arguments"),
    (".param 1x=5\n", "malformed parameter name '1x'"),
    (".end foo\n", ".end takes no arguments"),
])
def test_malformed_cards_name_their_line(deck, message):
    with pytest.raises(ParseError) as exc:
        parse("V1 a 0 DC 1\nR1 a 0 1k\n" + deck)
    assert str(exc.value) == f"line 3: {message}"


def test_unknown_directive():
    with pytest.raises(ParseError):
        parse(".ac dec 10 1 1meg\n")


def test_text_after_end_is_ignored():
    ast = parse("R1 a 0 1k\n.end\nthis is not a netlist line\n")
    assert isinstance(ast.cards[-1], EndCard)
    assert len(ast.cards) == 2


# --------------------------------------------------------------------------- #
# parse . print round-trip
# --------------------------------------------------------------------------- #

FULL_FEATURE_NETLIST = """* kitchen-sink netlist
.param rl=38k
V1 vdd 0 DC 2.5
V2 sig 0 SIN(5.0 2.5 50)
R1 vdd d1 rl tc=1m
Y1 vdd d2 MEM m0=5k
Y2 d2 0 MEM w0=5n
M1 d1 d1 0 0 NCH w=0.27u l=0.18u
M2 d2 d1 0 0 NCH
.model NCH NMOS (vth0=0.45 kp=170u lambda=0.05 nsub=1.5 tox=4n phiox=3.1 bex=-1.5 vtc=-1m)
.model MEM MEMRISTOR (ron=100 roff=38k l=10n uv=2e-14 p=1 pol=-1)
.tran 1u 2m
.temp 27
.end
"""


def test_parse_print_round_trip_is_structural_identity():
    ast = parse(FULL_FEATURE_NETLIST)
    assert parse(print_netlist(ast)) == ast


def test_round_trip_for_all_builtin_mirrors():
    for kind in MirrorKind:
        ast = builtin_mirror(MirrorConfig(kind=kind))
        assert parse(print_netlist(ast)) == ast


def test_round_trip_keeps_a_dc_directive():
    ast = parse("V1 a 0 DC 1\nR1 a 0 1k\n.dc\n")
    assert print_netlist(ast).splitlines()[-1] == ".dc"
    assert parse(print_netlist(ast)) == ast


def test_round_trip_ignores_line_numbers():
    a = parse("R1 a 0 1k\n")
    b = parse("* c\n\n\nR1 a 0 1k\n")
    assert a.cards == b.cards
    assert a.cards[0].line != b.cards[0].line


# --------------------------------------------------------------------------- #
# elaboration
# --------------------------------------------------------------------------- #

def test_two_node_divider_elaborates_to_one_nonground_node():
    cir = elaborate(parse("V1 1 0 DC 2.5\nR1 1 0 1k\n"))
    assert cir.node_names == ["0", "1"]
    assert isinstance(cir.devices[0], BoundSource)
    assert isinstance(cir.devices[1], BoundResistor)


def test_m0_shorthand_inverts_the_resistance_law():
    text = (
        "V1 a 0 DC 1\n"
        "Y1 a 0 MEM m0=5k\n"
        ".model MEM MEMRISTOR (ron=100 roff=38k l=10n uv=2e-14 p=1 pol=-1)\n"
    )
    y1 = elaborate(parse(text)).device("Y1")
    assert y1.w0 / y1.params.length == pytest.approx(
        (38000.0 - 5000.0) / (38000.0 - 100.0), rel=1e-12
    )


def test_memristor_initial_state_defaults_to_midpoint():
    text = "V1 a 0 DC 1\nY1 a 0 MEM\n.model MEM MEMRISTOR (ron=100 roff=38k l=10n)\n"
    y1 = elaborate(parse(text)).device("Y1")
    assert y1.w0 == pytest.approx(5e-9, rel=1e-12)


def test_model_params_resolve_with_defaults():
    text = (
        "V1 a 0 DC 1\n"
        "M1 a a 0 0 NCH w=1u\n"
        ".model NCH NMOS (vth0=0.5)\n"
    )
    m1 = elaborate(parse(text)).device("M1")
    assert m1.params.vth0 == 0.5
    assert m1.params.k_prime == 170e-6  # default fills the gap
    assert m1.params.width == 1e-6
    assert m1.params.length == 0.18e-6


def test_pmos_model_kind_sets_polarity():
    text = (
        "V1 a 0 DC 1\n"
        "M1 0 a a a PCH\n"
        ".model PCH PMOS (vth0=-0.45 kp=60u)\n"
    )
    m1 = elaborate(parse(text)).device("M1")
    assert m1.params.polarity == "pmos"
    assert m1.params.vth0 == -0.45


def test_undefined_model_and_kind_mismatch():
    with pytest.raises(ElaborationError):
        elaborate(parse("V1 a 0 DC 1\nY1 a 0 NOPE\n"))
    text = (
        "V1 a 0 DC 1\n"
        "Y1 a 0 NCH\n"
        ".model NCH NMOS (vth0=0.45)\n"
    )
    with pytest.raises(ElaborationError):
        elaborate(parse(text))
    text = (
        "V1 a 0 DC 1\n"
        "M1 a a 0 0 MEM\n"
        ".model MEM MEMRISTOR (ron=100)\n"
    )
    with pytest.raises(ElaborationError):
        elaborate(parse(text))


@pytest.mark.parametrize("w0", ["-1n", "11n"])
def test_an_initial_state_outside_the_device_is_an_elaboration_error(w0):
    text = (
        "V1 a 0 DC 1\n"
        f"Y1 a 0 MEM w0={w0}\n"
        ".model MEM MEMRISTOR (ron=100 roff=38k l=10n)\n"
    )
    with pytest.raises(ElaborationError, match=r"^Y1: state w=.* outside \[0, L=1e-08\]"):
        elaborate(parse(text))


def test_duplicate_model_name():
    text = ".model A NMOS (vth0=1)\n.model A NMOS (vth0=2)\nV1 a 0 DC 1\nR1 a 0 1k\n"
    with pytest.raises(ElaborationError):
        elaborate(parse(text))


def test_missing_ground_is_an_elaboration_error():
    with pytest.raises(ElaborationError):
        elaborate(parse("V1 a b DC 1\nR1 a b 1k\n"))


def test_floating_island_is_an_elaboration_error():
    text = "V1 a 0 DC 1\nR1 a 0 1k\nR2 x y 1k\n"
    with pytest.raises(ElaborationError) as exc:
        elaborate(parse(text))
    assert "x" in str(exc.value) and "y" in str(exc.value)


def test_netlist_without_any_source_is_rejected():
    with pytest.raises(ElaborationError):
        elaborate(parse("R1 a 0 1k\n"))


def test_empty_deck_unknown_node_and_subzero_temp_are_elaboration_errors():
    with pytest.raises(ElaborationError, match="^netlist has no devices$"):
        elaborate(parse(""))
    circuit = elaborate(parse("V1 a 0 DC 1\nR1 a 0 1k\n"))
    with pytest.raises(ElaborationError, match="^unknown node 'nope'$"):
        circuit.node_index("nope")
    with pytest.raises(ElaborationError, match=r"^\.temp -300\.0 C is below absolute zero$"):
        elaborate(parse("V1 a 0 DC 1\nR1 a 0 1k\n.temp -300\n"))


def test_temp_directive_converts_celsius_to_kelvin():
    cir = elaborate(parse("V1 a 0 DC 1\nR1 a 0 1k\n.temp 27\n"))
    assert cir.temp == pytest.approx(300.15, rel=1e-12)
    assert elaborate(parse("V1 a 0 DC 1\nR1 a 0 1k\n")).temp == T_REF


def test_analysis_directives_are_recorded():
    base = "V1 a 0 DC 1\nR1 a 0 1k\n"
    assert elaborate(parse(base)).analysis is None
    assert elaborate(parse(base + ".dc\n")).analysis == ("dc",)
    assert elaborate(parse(base + ".tran 1u 2m\n")).analysis == ("tran", 1e-6, 2e-3)


def test_window_p_and_polarity_must_be_integral():
    text = (
        "V1 a 0 DC 1\n"
        "Y1 a 0 MEM\n"
        ".model MEM MEMRISTOR (p=1.5)\n"
    )
    with pytest.raises(ElaborationError):
        elaborate(parse(text))
    text = (
        "V1 a 0 DC 1\n"
        "Y1 a 0 MEM\n"
        ".model MEM MEMRISTOR (pol=0.5)\n"
    )
    with pytest.raises(ElaborationError):
        elaborate(parse(text))


def test_integral_values_bind_as_int_only_where_a_float_holds_them_exactly():
    def memristor(params: str):
        return elaborate(parse(f"V1 a 0 DC 1\nY1 a 0 MEM\n.model MEM MEMRISTOR ({params})\n"))

    for pol in (1, -1):
        params = memristor(f"pol={pol} p=2").device("Y1").params
        assert (params.polarity, params.window_p) == (pol, 2)
        assert type(params.polarity) is int and type(params.window_p) is int
    # 1e300 is integral, but no exact integer: the check prints the float
    with pytest.raises(ElaborationError, match=r"polarity must be \+1 or -1, got 1e\+300$"):
        memristor("pol=1e300")


# a distinct valid value for every key of each card kind: none is its
# field's default, so a key that sets the wrong field, or none, shows
_KEY_VALUES = {
    "memristor": {"ron": 150.0, "roff": 40e3, "l": 12e-9, "uv": 3e-14, "p": 2, "pol": -1},
    "nmos": {"vth0": 0.41, "kp": 160e-6, "lambda": 0.07, "nsub": 1.3, "tox": 3e-9,
             "phiox": 3.2, "mox": 2e-31, "bex": -1.2, "vtc": -2e-3},
    "pmos": {"vth0": -0.42, "kp": 55e-6, "lambda": 0.06, "nsub": 1.4, "tox": 5e-9,
             "phiox": 3.3, "mox": 3e-31, "bex": -1.3, "vtc": 2e-3},
    "R": {"tc": 2e-3, "w": 3e-6, "l": 9e-6},
    "M": {"w": 1e-6, "l": 0.5e-6},
    "Y": {"w0": 3e-9},
}
_KEY_TABLES = {**_MODEL_FIELDS, **_INSTANCE_FIELDS}
_KEY_DECKS = {  # the deck of each card kind, with its keys at {keys}
    "memristor": "V1 a 0 DC 1\nY1 a 0 MEM\n.model MEM memristor ({keys})\n",
    "nmos": "V1 a 0 DC 1\nM1 a a 0 0 NCH\n.model NCH nmos ({keys})\n",
    "pmos": "V1 a 0 DC 1\nM1 0 a a a PCH\n.model PCH pmos ({keys})\n",
    "R": "V1 a 0 DC 1\nR1 a 0 1k {keys}\n",
    "M": "V1 a 0 DC 1\nM1 a a 0 0 NCH {keys}\n.model NCH nmos ()\n",
    "Y": "V1 a 0 DC 1\nY1 a 0 MEM {keys}\n.model MEM memristor ()\n",
}


@pytest.mark.parametrize("kind", list(_KEY_DECKS))
def test_every_key_sets_its_own_field(kind):
    table = _KEY_TABLES[kind]
    values = _KEY_VALUES[kind]
    # Y's m0 sets w0 too, so it takes its own deck below
    assert set(values) | ({"m0"} if kind == "Y" else set()) == set(table)
    keys = " ".join(f"{key}={format_value(v)}" for key, v in values.items())
    device = elaborate(parse(_KEY_DECKS[kind].format(keys=keys))).devices[1]
    record = device if kind == "Y" else device.params
    for key, value in values.items():
        got = getattr(record, table[key])
        assert (got, type(got)) == (value, type(value)), key


def test_the_m0_key_is_the_m0_override():
    deck = _KEY_DECKS["Y"].format(keys="m0=7k")
    base = elaborate(parse(_KEY_DECKS["Y"].format(keys="")))
    assert (elaborate(parse(deck)).device("Y1")
            == with_override(base, f"Y1.{_INSTANCE_FIELDS['Y']['m0']}", 7e3).device("Y1"))


def test_the_docs_map_every_key_to_its_field():
    text = (Path(__file__).resolve().parents[1] / "docs" / "netlist.md").read_text()
    sections = {
        "`.model <NAME> memristor": ("memristor", "Y"),
        "`.model <NAME> NMOS": ("nmos", "pmos", "M"),
        "Resistors": ("R",),
    }
    for section in text.split("\n### ")[1:]:
        title = next((t for t in sections if section.startswith(t)), None)
        if title is None:
            continue
        rows = set(re.findall(r"^\|\s*`(\w+)`\s*\|\s*`(\w+)`\s*\|", section, re.M))
        for kind in sections.pop(title):
            assert set(_KEY_TABLES[kind].items()) <= rows, (title, kind)
    assert not sections  # every section was found


# --------------------------------------------------------------------------- #
# built-in mirrors
# --------------------------------------------------------------------------- #

def _cards_of(ast, cls):
    return [c for c in ast.cards if isinstance(c, cls)]


def test_two_resistors_card_census():
    ast = builtin_mirror(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    assert len(_cards_of(ast, ResistorCard)) == 2
    assert len(_cards_of(ast, MosfetCard)) == 2
    assert len(_cards_of(ast, SourceCard)) == 1
    assert len(_cards_of(ast, MemristorCard)) == 0
    v1 = _cards_of(ast, SourceCard)[0]
    assert v1.spec == SourceSpec(kind="dc", dc_value=2.5)
    assert {c.value for c in _cards_of(ast, ResistorCard)} == {38e3}


def test_two_memristors_swaps_loads_only():
    ast = builtin_mirror(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    assert len(_cards_of(ast, MemristorCard)) == 2
    assert len(_cards_of(ast, ResistorCard)) == 0
    for card in _cards_of(ast, MemristorCard):
        assert card.params == {"m0": 5e3}


def test_input_device_is_diode_connected():
    for kind in MirrorKind:
        cir = mirror_circuit(MirrorConfig(kind=kind))
        m1, m2 = cir.device("M1"), cir.device("M2")
        assert m1.n_d == m1.n_g  # diode connection: V_GS1 = V_DS1
        assert m2.n_g == m1.n_d  # mirror gate ties to the input drain
        assert m1.n_s == m2.n_s == 0
        assert m1.n_b == m2.n_b == 0


def test_resistor_and_memristor_mirrors_share_topology():
    def shape(kind):
        cir = mirror_circuit(MirrorConfig(kind=kind))
        out = [cir.node_names]
        for d in cir.devices:
            if isinstance(d, BoundMosfet):
                out.append(("mosfet", d.n_d, d.n_g, d.n_s, d.n_b))
            elif isinstance(d, BoundSource):
                out.append(("source", d.n_pos, d.n_neg))
            else:
                out.append(("load", d.n_pos, d.n_neg))
        return out

    assert shape(MirrorKind.TWO_RESISTORS) == shape(MirrorKind.TWO_MEMRISTORS)
    assert shape(MirrorKind.PMOS_RESISTOR) == shape(MirrorKind.PMOS_MEMRISTOR)


def test_pmos_variants_add_biased_pmos_input_branch():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.PMOS_RESISTOR))
    mp1 = cir.device("MP1")
    assert mp1.params.polarity == "pmos"
    assert mp1.n_g == cir.node_index("vb")
    assert mp1.n_s == mp1.n_b == cir.node_index("vdd")
    assert mp1.n_d == cir.node_index("d1")
    assert cir.device("V1").spec.dc_value == 2.0
    assert cir.device("VB").spec.dc_value == 0.7
    # only the output branch keeps a passive load
    assert [d.name for d in cir.devices if isinstance(d, BoundResistor)] == ["R2"]


def test_builtin_memristors_move_toward_roff_under_positive_current():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    y2 = cir.device("Y2")
    assert y2.params.polarity == -1
    assert y2.params.mobility == MEMRISTOR_DEFAULTS.mobility
    assert y2.w0 / y2.params.length == pytest.approx(
        (38e3 - 5e3) / (38e3 - 100.0), rel=1e-12
    )


def test_builtin_overrides_flow_through():
    cfg = MirrorConfig(kind=MirrorKind.TWO_RESISTORS, vdd=3.0, r_load=19e3)
    cir = mirror_circuit(cfg)
    assert cir.device("V1").spec.dc_value == 3.0
    assert cir.device("R1").params.r_nominal == 19e3
    pm = mirror_circuit(MirrorConfig(kind=MirrorKind.PMOS_MEMRISTOR, vbias=0.8))
    assert pm.device("VB").spec.dc_value == 0.8


def test_every_builtin_elaborates_with_single_supply_to_ground():
    for kind in MirrorKind:
        cir = mirror_circuit(MirrorConfig(kind=kind))
        supplies = [d for d in cir.devices
                    if isinstance(d, BoundSource) and 0 in (d.n_pos, d.n_neg)]
        assert cir.device("V1") in supplies


# --------------------------------------------------------------------------- #
# parameter paths & overrides
# --------------------------------------------------------------------------- #

def test_alias_resolution():
    assert resolve_param_path("T2.width") == "M2.width"
    assert resolve_param_path("t1.vth0") == "M1.vth0"
    assert resolve_param_path("source.vbias") == "VB.dc_value"
    assert resolve_param_path("vdd") == "V1.dc_value"
    assert resolve_param_path("R2.r_nominal") == "R2.r_nominal"


def test_with_override_copies_instead_of_mutating():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    swept = with_override(cir, "T2.width", 2e-6)
    assert swept.device("M2").params.width == 2e-6
    assert cir.device("M2").params.width == 0.27e-6
    assert swept.device("M1").params.width == 0.27e-6
    # a parameter, a source field and a memristor's m0: the original's
    # devices and nodes compare equal before and after
    for kind, path, value in ((MirrorKind.TWO_RESISTORS, "T2.width", 2e-6),
                              (MirrorKind.TWO_RESISTORS, "V1.dc_value", 3.0),
                              (MirrorKind.TWO_MEMRISTORS, "Y2.m0", 19e3)):
        cir = mirror_circuit(MirrorConfig(kind=kind))
        devices = [replace(d) for d in cir.devices]
        nodes = list(cir.node_names)
        swept = with_override(cir, path, value)
        assert cir.devices == devices
        assert cir.node_names == nodes
        assert swept.devices != devices
        assert all(a is not b for a, b in zip(swept.devices, cir.devices))


def test_override_paths_cover_sources_and_memristors():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    assert with_override(cir, "vdd", 3.0).device("V1").spec.dc_value == 3.0
    assert with_override(cir, "source.vdd", 2.8).device("V1").spec.dc_value == 2.8
    m0 = with_override(cir, "Y2.m0", 19e3).device("Y2")
    assert m0.w0 / m0.params.length == pytest.approx(
        (38e3 - 19e3) / (38e3 - 100.0), rel=1e-12
    )
    assert with_override(cir, "Y2.mobility", 1e-14).device("Y2").params.mobility == 1e-14


def test_override_rejects_unknown_paths():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_RESISTORS))
    # attributes of a record that are not its fields included
    for path in ("T2", "nope.width", "M2.nope", "V1.width", "M2.__doc__",
                 "M2.__post_init__", "R2.__class__"):
        with pytest.raises(ElaborationError):
            apply_override(cir, path, 1.0)
    with pytest.raises(ElaborationError):
        apply_override(cir, "R2.r_nominal", -1.0)  # device validation still applies


@pytest.mark.parametrize("kind, path, values", [
    (MirrorKind.TWO_RESISTORS, "T2.width", [0.2e-6, 0.4e-6, -1.0]),
    (MirrorKind.TWO_RESISTORS, "R2.r_nominal", [20e3, 60e3, 0.0]),
    (MirrorKind.TWO_RESISTORS, "V1.dc_value", [2.0, 3.0]),
    (MirrorKind.TWO_MEMRISTORS, "Y2.m0", [5e3, 19e3, 1.0]),
], ids=["mosfet", "resistor", "source", "memristor-m0"])
def test_override_records_equal_dataclass_replace(kind, path, values):
    cir = mirror_circuit(MirrorConfig(kind=kind))
    position, records, errors = overrides(cir, path, values)
    dev = cir.devices[position]
    field = path.partition(".")[2]
    for k, value in enumerate(values):
        try:
            if field == "m0":
                expected = replace(dev, w0=state_for_memristance(value, dev.params).w)
            elif field == "dc_value":
                expected = replace(dev, spec=replace(dev.spec, dc_value=value))
            else:
                expected = replace(dev, params=replace(dev.params, **{field: value}))
        except DeviceError as exc:
            assert records[k] is dev and str(errors[k]) == f"{dev.name}: {exc}"
            continue
        assert k not in errors
        assert records[k] == expected and type(records[k]) is type(expected)
        assert records[k] is not dev


def test_override_validation_errors_are_elaboration_errors():
    cir = mirror_circuit(MirrorConfig(kind=MirrorKind.TWO_MEMRISTORS))
    with pytest.raises(ElaborationError):
        apply_override(cir, "Y2.m0", 1.0)  # below r_on
