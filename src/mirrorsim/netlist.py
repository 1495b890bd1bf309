"""Netlist front end: a small, strict SPICE-flavored dialect.

The grammar (EBNF in docs/netlist.md) covers exactly what the simulator
models: R / Y (memristor) / M (MOSFET) / V element cards, `.model`, `.tran`,
`.dc`, `.temp`, `.param` and `.end` directives, `*` and `;` comments, `+`
continuations, and SI value suffixes f p n u m k meg g.  Everything is
case-insensitive; node ``0`` is ground.  Anything outside the grammar is a
:class:`ParseError` carrying the offending line number — never a warning.

`parse` builds a typed AST, `print_netlist` renders it back canonically, and
`elaborate` turns an AST into a bound :class:`Circuit` ready for the engine.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field, fields, replace

from .constants import T_REF, ZERO_CELSIUS
from .devices import (
    DeviceError,
    MEMRISTOR_DEFAULTS,
    MemristorParams,
    MosfetParams,
    NMOS_DEFAULTS,
    PMOS_DEFAULTS,
    RESISTOR_DEFAULTS,
    ResistorParams,
    SourceSpec,
    memristor_state,
    state_for_memristance,
)

__all__ = [
    "NetlistError",
    "ParseError",
    "ElaborationError",
    "NetlistAst",
    "ResistorCard",
    "MemristorCard",
    "MosfetCard",
    "SourceCard",
    "ModelCard",
    "TranCard",
    "DcCard",
    "TempCard",
    "ParamCard",
    "EndCard",
    "parse",
    "print_netlist",
    "format_value",
    "parse_value",
    "elaborate",
    "Circuit",
    "BoundResistor",
    "BoundMemristor",
    "BoundMosfet",
    "BoundSource",
    "terminals",
    "unsolvable",
    "model_card",
    "MirrorKind",
    "MirrorConfig",
    "MIRROR_MEMRISTOR",
    "builtin_mirror",
    "mirror_circuit",
    "PARAM_ALIASES",
    "resolve_param_path",
    "overrides",
    "apply_override",
    "with_override",
]


class NetlistError(Exception):
    """Base class for netlist front-end failures."""


class ParseError(NetlistError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ElaborationError(NetlistError):
    pass


# --------------------------------------------------------------------------- #
# Values
# --------------------------------------------------------------------------- #

_SI_SUFFIXES = {
    "": 0,
    "f": -15,
    "p": -12,
    "n": -9,
    "u": -6,
    "m": -3,
    "k": 3,
    "meg": 6,
    "g": 9,
}

_VALUE_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+))(?:[eE]([+-]?\d+))?([a-zA-Z]*)$"
)
_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def parse_value(token: str, env: dict[str, float] | None = None, line: int = 0) -> float:
    """Numeric value token: literal with optional SI suffix, or a `.param` name.

    The suffix must be one of f p n u m k meg g (case-insensitive) and nothing
    else — ``38kohm`` is a parse error, as is an undefined parameter name.
    A suffix shifts the decimal exponent, so ``170u`` is exactly the float
    ``170e-6`` (not ``170 * 1e-6``, which differs in the last bit).  A
    literal too large for a float, such as ``1e999``, is a parse error.
    """
    m = _VALUE_RE.match(token)
    if m:
        mantissa, exponent, suffix = m.groups()
        shift = _SI_SUFFIXES.get(suffix.lower())
        if shift is None:
            raise ParseError(f"unknown value suffix {suffix!r} in {token!r}", line)
        total = int(exponent or 0) + shift
        value = float(f"{mantissa}e{total}")
        if math.isinf(value):
            raise ParseError(f"value {token!r} overflows a float", line)
        return value
    if env is not None and _NAME_RE.match(token):
        key = token.lower()
        if key in env:
            return env[key]
        raise ParseError(f"undefined parameter {token!r}", line)
    raise ParseError(f"malformed value {token!r}", line)


def format_value(x: float) -> str:
    """Canonical value text for the pretty-printer.

    Uses the shortest digit string that reparses to exactly the same float,
    so printing and reparsing an AST is a structural identity.
    """
    return repr(float(x))


# --------------------------------------------------------------------------- #
# AST cards
# --------------------------------------------------------------------------- #

@dataclass
class ResistorCard:
    name: str
    n_pos: str
    n_neg: str
    value: float
    params: dict[str, float] = field(default_factory=dict)
    line: int = field(default=0, compare=False)


@dataclass
class MemristorCard:
    name: str
    n_pos: str
    n_neg: str
    model: str
    params: dict[str, float] = field(default_factory=dict)
    line: int = field(default=0, compare=False)


@dataclass
class MosfetCard:
    name: str
    n_d: str
    n_g: str
    n_s: str
    n_b: str
    model: str
    params: dict[str, float] = field(default_factory=dict)
    line: int = field(default=0, compare=False)


@dataclass
class SourceCard:
    name: str
    n_pos: str
    n_neg: str
    spec: SourceSpec = field(default_factory=SourceSpec)
    line: int = field(default=0, compare=False)


@dataclass
class ModelCard:
    name: str
    kind: str  # nmos | pmos | memristor
    params: dict[str, float] = field(default_factory=dict)
    line: int = field(default=0, compare=False)


@dataclass
class TranCard:
    step: float
    stop: float
    line: int = field(default=0, compare=False)


@dataclass
class DcCard:
    line: int = field(default=0, compare=False)


@dataclass
class TempCard:
    celsius: float
    line: int = field(default=0, compare=False)


@dataclass
class ParamCard:
    name: str
    value: float
    line: int = field(default=0, compare=False)


@dataclass
class EndCard:
    line: int = field(default=0, compare=False)


Card = (
    ResistorCard | MemristorCard | MosfetCard | SourceCard
    | ModelCard | TranCard | DcCard | TempCard | ParamCard | EndCard
)


@dataclass
class NetlistAst:
    title: str = ""
    cards: list = field(default_factory=list)


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #

def _logical_lines(text: str):
    """Strip comments, join `+` continuations; yields (first_line_no, text)."""
    merged: list[tuple[int, str]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split(";", 1)[0]
        if body.lstrip().startswith("*"):
            body = ""
        if not body.strip():
            continue
        stripped = body.strip()
        if stripped.startswith("+"):
            if not merged:
                raise ParseError("continuation with nothing to continue", no)
            prev_no, prev = merged[-1]
            merged[-1] = (prev_no, prev + " " + stripped[1:].strip())
        else:
            merged.append((no, stripped))
    return merged


def _split_kv(token: str, line: int) -> tuple[str, str]:
    if "=" not in token:
        raise ParseError(f"expected key=value, got {token!r}", line)
    key, _, val = token.partition("=")
    if not key or not val:
        raise ParseError(f"malformed key=value {token!r}", line)
    return key.lower(), val


_MOSFET_MODEL_FIELDS = {
    "vth0": "vth0", "kp": "k_prime", "lambda": "lam", "nsub": "n_sub",
    "tox": "t_ox", "phiox": "phi_ox", "mox": "m_ox", "bex": "mobility_exp",
    "vtc": "vth_tc",
}

_MODEL_FIELDS = {
    "memristor": {"ron": "r_on", "roff": "r_off", "l": "length", "uv": "mobility",
                  "p": "window_p", "pol": "polarity"},
    "nmos": _MOSFET_MODEL_FIELDS,
    "pmos": _MOSFET_MODEL_FIELDS,
}
"""The keys of each `.model` type, and the parameter-record field each sets."""

_INSTANCE_FIELDS = {
    "R": {"tc": "temp_coeff", "w": "footprint_w", "l": "footprint_l"},
    "Y": {"w0": "w0", "m0": "m0"},
    "M": {"w": "width", "l": "length"},
}
"""The instance keys of each element class, and the field each sets: a
parameter-record field, or for a memristor its initial boundary position
``w0`` or the override pseudo-field ``m0`` (see :func:`overrides`)."""


def _parse_params(tokens: list[str], allowed, env, line) -> dict[str, float]:
    out: dict[str, float] = {}
    for tok in tokens:
        key, val = _split_kv(tok, line)
        if key not in allowed:
            raise ParseError(f"unknown parameter {key!r}", line)
        if key in out:
            raise ParseError(f"duplicate parameter {key!r}", line)
        out[key] = parse_value(val, env, line)
    return out


def _parse_element(tokens: list[str], env, line: int) -> Card:
    name = tokens[0].upper()
    if not _NAME_RE.match(name):
        raise ParseError(f"malformed element name {tokens[0]!r}", line)
    kind = name[0]
    rest = tokens[1:]
    if kind == "R":
        if len(rest) < 3:
            raise ParseError(f"resistor {name} needs 2 nodes and a value", line)
        value = parse_value(rest[2], env, line)
        if value <= 0.0:
            raise ParseError(f"resistor {name} must have a positive value", line)
        params = _parse_params(rest[3:], _INSTANCE_FIELDS["R"], env, line)
        return ResistorCard(name, rest[0].lower(), rest[1].lower(), value, params, line)
    if kind == "Y":
        if len(rest) < 3:
            raise ParseError(f"memristor {name} needs 2 nodes and a model", line)
        model = rest[2].upper()
        if not _NAME_RE.match(model):
            raise ParseError(f"malformed model name {rest[2]!r}", line)
        params = _parse_params(rest[3:], _INSTANCE_FIELDS["Y"], env, line)
        if "w0" in params and "m0" in params:
            raise ParseError(f"memristor {name}: give w0 or m0, not both", line)
        return MemristorCard(name, rest[0].lower(), rest[1].lower(), model, params, line)
    if kind == "M":
        if len(rest) < 5:
            raise ParseError(f"mosfet {name} needs 4 nodes and a model", line)
        model = rest[4].upper()
        if not _NAME_RE.match(model):
            raise ParseError(f"malformed model name {rest[4]!r}", line)
        params = _parse_params(rest[5:], _INSTANCE_FIELDS["M"], env, line)
        return MosfetCard(
            name, rest[0].lower(), rest[1].lower(), rest[2].lower(), rest[3].lower(),
            model, params, line,
        )
    if kind == "V":
        if len(rest) < 3:
            raise ParseError(f"source {name} needs 2 nodes and a drive", line)
        n_pos, n_neg = rest[0].lower(), rest[1].lower()
        drive = [t.lower() for t in rest[2:]]
        if drive[0] == "dc":
            if len(drive) != 2:
                raise ParseError(f"source {name}: DC takes exactly one value", line)
            spec = SourceSpec(kind="dc", dc_value=parse_value(rest[3], env, line))
        elif drive[0] == "sin":
            args = drive[1:]
            if args and args[0] == "(":
                if args[-1] != ")":
                    raise ParseError(f"source {name}: unterminated SIN(...)", line)
                args = args[1:-1]
            if len(args) not in (3, 4):
                raise ParseError(
                    f"source {name}: SIN needs (offset amplitude freq [phase])", line
                )
            vals = [parse_value(a, env, line) for a in args]
            phase = vals[3] if len(vals) == 4 else 0.0
            try:
                spec = SourceSpec(
                    kind="sine", dc_value=vals[0], amplitude=vals[1],
                    frequency=vals[2], phase=phase,
                )
            except DeviceError as exc:
                raise ParseError(f"source {name}: {exc}", line) from exc
        else:
            raise ParseError(f"source {name}: unknown drive {drive[0]!r}", line)
        return SourceCard(name, n_pos, n_neg, spec, line)
    raise ParseError(f"unknown element class {kind!r} in {name!r}", line)


def _parse_directive(tokens: list[str], env, line: int) -> Card:
    word = tokens[0].lower()
    rest = tokens[1:]
    if word == ".model":
        if len(rest) < 2:
            raise ParseError(".model needs a name and a type", line)
        name, kind = rest[0].upper(), rest[1].lower()
        if kind not in _MODEL_FIELDS:
            raise ParseError(f"unknown model type {rest[1]!r}", line)
        body = rest[2:]
        if not body or body[0] != "(" or body[-1] != ")":
            raise ParseError(".model parameters must be parenthesized", line)
        params = _parse_params(body[1:-1], _MODEL_FIELDS[kind], env, line)
        return ModelCard(name, kind, params, line)
    if word == ".tran":
        if len(rest) != 2:
            raise ParseError(".tran needs a step and a stop time", line)
        step = parse_value(rest[0], env, line)
        stop = parse_value(rest[1], env, line)
        if step <= 0.0 or stop <= 0.0 or step > stop:
            raise ParseError(".tran needs 0 < step <= stop", line)
        return TranCard(step, stop, line)
    if word == ".dc":
        if rest:
            raise ParseError(".dc takes no arguments", line)
        return DcCard(line)
    if word == ".temp":
        if len(rest) != 1:
            raise ParseError(".temp needs one value (degrees Celsius)", line)
        return TempCard(parse_value(rest[0], env, line), line)
    if word == ".param":
        if len(rest) != 1:
            raise ParseError(".param needs name=value", line)
        key, val = _split_kv(rest[0], line)
        if not _NAME_RE.match(key):
            raise ParseError(f"malformed parameter name {key!r}", line)
        return ParamCard(key, parse_value(val, env, line), line)
    if word == ".end":
        if rest:
            raise ParseError(".end takes no arguments", line)
        return EndCard(line)
    raise ParseError(f"unknown directive {tokens[0]!r}", line)


def parse(text: str) -> NetlistAst:
    """Parse netlist text into an AST.

    The first line is a title only if it is a ``*`` comment line; a netlist
    may equally well begin directly with a card.  `.param` names must be
    defined before use; element names must be unique (case-insensitive); at
    most one analysis directive (``.tran`` or ``.dc``) is allowed.
    """
    lines = text.splitlines()
    title = ""
    if lines and lines[0].lstrip().startswith("*"):
        title = lines[0].lstrip()[1:].strip()
    ast = NetlistAst(title=title)
    env: dict[str, float] = {}
    seen_names: set[str] = set()
    analysis_seen = False
    for no, logical in _logical_lines(text):
        padded = logical.replace("(", " ( ").replace(")", " ) ")
        tokens = padded.split()
        if tokens[0].startswith("."):
            card = _parse_directive(tokens, env, no)
            if isinstance(card, ParamCard):
                env[card.name] = card.value
            if isinstance(card, (TranCard, DcCard)):
                if analysis_seen:
                    raise ParseError("more than one analysis directive", no)
                analysis_seen = True
            ast.cards.append(card)
            if isinstance(card, EndCard):
                break
        else:
            card = _parse_element(tokens, env, no)
            if card.name in seen_names:
                raise ParseError(f"duplicate element name {card.name}", no)
            seen_names.add(card.name)
            ast.cards.append(card)
    return ast


# --------------------------------------------------------------------------- #
# Pretty-printer
# --------------------------------------------------------------------------- #

def _fmt_params(params: dict[str, float]) -> str:
    return "".join(f" {k}={format_value(v)}" for k, v in params.items())


def print_netlist(ast: NetlistAst) -> str:
    """Render an AST back to canonical netlist text (parse . print identity)."""
    out: list[str] = []
    if ast.title:
        out.append(f"* {ast.title}")
    for c in ast.cards:
        if isinstance(c, ResistorCard):
            out.append(f"{c.name} {c.n_pos} {c.n_neg} {format_value(c.value)}"
                       + _fmt_params(c.params))
        elif isinstance(c, MemristorCard):
            out.append(f"{c.name} {c.n_pos} {c.n_neg} {c.model}" + _fmt_params(c.params))
        elif isinstance(c, MosfetCard):
            out.append(f"{c.name} {c.n_d} {c.n_g} {c.n_s} {c.n_b} {c.model}"
                       + _fmt_params(c.params))
        elif isinstance(c, SourceCard):
            s = c.spec
            if s.kind == "dc":
                drive = f"DC {format_value(s.dc_value)}"
            else:
                drive = (f"SIN({format_value(s.dc_value)} {format_value(s.amplitude)} "
                         f"{format_value(s.frequency)} {format_value(s.phase)})")
            out.append(f"{c.name} {c.n_pos} {c.n_neg} {drive}")
        elif isinstance(c, ModelCard):
            out.append(f".model {c.name} {c.kind.upper()} ({_fmt_params(c.params).lstrip()})")
        elif isinstance(c, TranCard):
            out.append(f".tran {format_value(c.step)} {format_value(c.stop)}")
        elif isinstance(c, DcCard):
            out.append(".dc")
        elif isinstance(c, TempCard):
            out.append(f".temp {format_value(c.celsius)}")
        elif isinstance(c, ParamCard):
            out.append(f".param {c.name}={format_value(c.value)}")
        elif isinstance(c, EndCard):
            out.append(".end")
        else:  # pragma: no cover - exhaustive over Card
            raise TypeError(f"unknown card {c!r}")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------- #
# Elaboration: AST -> Circuit
# --------------------------------------------------------------------------- #

@dataclass
class BoundResistor:
    name: str
    n_pos: int
    n_neg: int
    params: ResistorParams


@dataclass
class BoundMemristor:
    name: str
    n_pos: int
    n_neg: int
    params: MemristorParams
    w0: float  # initial boundary position (m)


@dataclass
class BoundMosfet:
    name: str
    n_d: int
    n_g: int
    n_s: int
    n_b: int
    params: MosfetParams


@dataclass
class BoundSource:
    name: str
    n_pos: int
    n_neg: int
    spec: SourceSpec


def terminals(device) -> tuple[int, ...]:
    """Node indices of a bound device's terminals."""
    if isinstance(device, BoundMosfet):
        return (device.n_d, device.n_g, device.n_s, device.n_b)
    return (device.n_pos, device.n_neg)


@dataclass
class Circuit:
    """Elaborated circuit: interned nodes plus bound device instances.

    Node 0 is ground; ``node_names[i]`` is the canonical (lower-case) name of
    node ``i``.  Device order follows the netlist, which also fixes the row
    ordering of every CSV the analysis layer emits.
    """

    title: str
    node_names: list[str]
    devices: list
    temp: float = T_REF
    analysis: tuple | None = None  # ("tran", step, stop) | ("dc",)

    def node_index(self, name: str) -> int:
        try:
            return self.node_names.index(name.lower())
        except ValueError:
            raise ElaborationError(f"unknown node {name!r}") from None

    def device(self, name: str):
        wanted = name.upper()
        for d in self.devices:
            if d.name == wanted:
                return d
        raise ElaborationError(f"unknown device {name!r}")

    def copy(self) -> Circuit:
        """Copy with its own node list and device records, sharing the
        frozen parameter and source records, which an override replaces
        rather than mutates."""
        # re-running a record's __init__ copies it several times faster
        # than copy.copy
        devices = [type(d)(**vars(d)) for d in self.devices]
        return Circuit(self.title, list(self.node_names), devices, self.temp,
                       self.analysis)


def _record(defaults, table: dict[str, str], params: dict[str, float], **given):
    """``defaults`` with the fields ``given`` and each key of card
    ``params`` set on its field in ``table``; an integer field takes an
    integral value that a float holds exactly (|v| <= 2**53) as int
    (anything else is left for the record's checks to reject, and their
    messages print it as the float it is)."""
    for key, value in params.items():
        name = table[key]
        if (type(getattr(defaults, name)) is int and abs(value) <= 2**53
                and value == int(value)):
            value = int(value)
        given[name] = value
    return replace(defaults, **given)


def _bind(card, models: dict[str, ModelCard], intern):
    """The bound device of an element card, its nodes interned in terminal
    order; a value out of its device's domain raises :class:`DeviceError`."""
    if isinstance(card, SourceCard):
        return BoundSource(card.name, intern(card.n_pos), intern(card.n_neg), card.spec)
    if isinstance(card, ResistorCard):
        params = _record(RESISTOR_DEFAULTS, _INSTANCE_FIELDS["R"], card.params,
                         r_nominal=card.value)
        return BoundResistor(card.name, intern(card.n_pos), intern(card.n_neg), params)
    model = models.get(card.model)
    if model is None:
        raise ElaborationError(f"{card.name}: undefined model {card.model}")
    if isinstance(card, MosfetCard):
        if model.kind not in ("nmos", "pmos"):
            raise ElaborationError(f"{card.name}: model {card.model} is not a MOSFET")
        params = _record(NMOS_DEFAULTS if model.kind == "nmos" else PMOS_DEFAULTS,
                         {**_MODEL_FIELDS[model.kind], **_INSTANCE_FIELDS["M"]},
                         {**model.params, **card.params})
        return BoundMosfet(card.name, intern(card.n_d), intern(card.n_g),
                           intern(card.n_s), intern(card.n_b), params)
    if model.kind != "memristor":
        raise ElaborationError(f"{card.name}: model {card.model} is not a memristor")
    params = _record(MEMRISTOR_DEFAULTS, _MODEL_FIELDS["memristor"], model.params)
    if "w0" in card.params:
        w0 = card.params["w0"]
        memristor_state(w0, params)  # raises outside [0, L]
    elif "m0" in card.params:
        w0 = state_for_memristance(card.params["m0"], params).w
    else:
        w0 = 0.5 * params.length
    return BoundMemristor(card.name, intern(card.n_pos), intern(card.n_neg), params, w0)


def unsolvable(node_names: list[str], devices: list) -> str | None:
    """Why a nodal solve cannot take ``devices`` on ``node_names``, or
    None: there are no devices, no terminal touches ground (node 0), there
    is no voltage source, or a non-ground node is not reachable from a
    source through device connectivity (an island the nodal matrix cannot
    pin down; the reason names its nodes)."""
    if not devices:
        return "netlist has no devices"
    ends = [terminals(d) for d in devices]
    if not any(0 in ts for ts in ends):
        return "no device terminal touches ground (node 0)"
    linked: list[set[int]] = [set() for _ in node_names]
    for ts in ends:
        for t in ts:
            linked[t].update(ts)
    seen = {t for d, ts in zip(devices, ends) if isinstance(d, BoundSource) for t in ts}
    if not seen:
        return "netlist has no voltage source"
    frontier = seen
    while frontier:
        frontier = set().union(*(linked[n] for n in frontier)) - seen
        seen |= frontier
    unreachable = [node_names[i] for i in range(1, len(node_names)) if i not in seen]
    if unreachable:
        return f"node(s) {', '.join(sorted(unreachable))} not reachable from any source"
    return None


def elaborate(ast: NetlistAst) -> Circuit:
    """Bind an AST to device instances with interned node indices.

    Checks performed here (each failure is an :class:`ElaborationError`):
    models exist and are unique, and the circuit is one a nodal solve can
    take (see :func:`unsolvable`, which the engine also applies).
    """
    models: dict[str, ModelCard] = {}
    for c in ast.cards:
        if isinstance(c, ModelCard):
            if c.name in models:
                raise ElaborationError(f"duplicate model {c.name}")
            models[c.name] = c

    node_names = ["0"]

    def intern(name: str) -> int:
        if name not in node_names:
            node_names.append(name)
        return node_names.index(name)

    devices: list = []
    temp = T_REF
    analysis: tuple | None = None
    for c in ast.cards:
        if isinstance(c, (ResistorCard, MemristorCard, MosfetCard, SourceCard)):
            try:
                devices.append(_bind(c, models, intern))
            except DeviceError as exc:
                raise ElaborationError(f"{c.name}: {exc}") from exc
        elif isinstance(c, TempCard):
            temp = c.celsius + ZERO_CELSIUS
            if temp <= 0.0:
                raise ElaborationError(f".temp {c.celsius} C is below absolute zero")
        elif isinstance(c, TranCard):
            analysis = ("tran", c.step, c.stop)
        elif isinstance(c, DcCard):
            analysis = ("dc",)
        # ModelCard, ParamCard, EndCard carry no devices

    reason = unsolvable(node_names, devices)
    if reason:
        raise ElaborationError(reason)
    return Circuit(ast.title, node_names, devices, temp, analysis)


# --------------------------------------------------------------------------- #
# Built-in mirror circuits
# --------------------------------------------------------------------------- #

class MirrorKind(enum.Enum):
    TWO_RESISTORS = "2r"
    TWO_MEMRISTORS = "2m"
    PMOS_RESISTOR = "pmos-r"
    PMOS_MEMRISTOR = "pmos-m"

    @property
    def has_memristors(self) -> bool:
        return self in (MirrorKind.TWO_MEMRISTORS, MirrorKind.PMOS_MEMRISTOR)

    @property
    def has_pmos(self) -> bool:
        return self in (MirrorKind.PMOS_RESISTOR, MirrorKind.PMOS_MEMRISTOR)


@dataclass(frozen=True)
class MirrorConfig:
    """A built-in mirror instance.

    ``vdd``/``vbias`` of ``None`` pick the per-kind defaults (2.5 V for the
    NMOS-only circuits; 2.0 V supply with a 0.7 V gate bias for the PMOS
    variants).  ``r_load`` sets the resistor loads, ``m0`` the initial
    memristance of memristive loads.
    """

    kind: MirrorKind = MirrorKind.TWO_RESISTORS
    vdd: float | None = None
    vbias: float | None = None
    r_load: float = RESISTOR_DEFAULTS.r_nominal
    m0: float = 5e3

    @property
    def vdd_value(self) -> float:
        if self.vdd is not None:
            return self.vdd
        return 2.0 if self.kind.has_pmos else 2.5

    @property
    def vbias_value(self) -> float:
        return 0.7 if self.vbias is None else self.vbias


_TITLES = {
    MirrorKind.TWO_RESISTORS: "current mirror, two resistor loads",
    MirrorKind.TWO_MEMRISTORS: "current mirror, two memristor loads",
    MirrorKind.PMOS_RESISTOR: "current mirror, pmos input branch, resistor load",
    MirrorKind.PMOS_MEMRISTOR: "current mirror, pmos input branch, memristor load",
}


MIRROR_MEMRISTOR = replace(MEMRISTOR_DEFAULTS, polarity=-1)
"""The mirrors' load memristor: polarity -1, so that positive branch
current drives the memristance up toward r_off."""


def model_card(name: str, kind: str, record, keys=None) -> ModelCard:
    """`.model` card of type ``kind`` that sets ``keys`` (default: all of
    the type's keys) to the values of their fields in ``record``."""
    table = _MODEL_FIELDS[kind]
    return ModelCard(name, kind, {k: getattr(record, table[k]) for k in keys or table})


def builtin_mirror(config: MirrorConfig,
                   memristor_params: MemristorParams = MIRROR_MEMRISTOR) -> NetlistAst:
    """Netlist for one of the four reference mirror topologies.

    Both branches hang from ``vdd``: the input branch load feeds the
    diode-connected M1 (alias T1) at node ``d1``, and M2 (alias T2), gated
    from ``d1``, pulls the output branch load at node ``d2``.  PMOS variants
    replace the input-branch load with a PMOS whose gate sits at ``vbias``.
    Memristor loads default to :data:`MIRROR_MEMRISTOR`.
    """
    kind = config.kind
    ast = NetlistAst(title=_TITLES[kind])
    cards = ast.cards
    cards.append(SourceCard("V1", "vdd", "0", SourceSpec(kind="dc", dc_value=config.vdd_value)))
    if kind.has_pmos:
        cards.append(SourceCard("VB", "vb", "0", SourceSpec(kind="dc", dc_value=config.vbias_value)))
        cards.append(MosfetCard("MP1", "d1", "vb", "vdd", "vdd", "PCH"))
    elif kind.has_memristors:
        cards.append(MemristorCard("Y1", "vdd", "d1", "MEM", {"m0": config.m0}))
    else:
        cards.append(ResistorCard("R1", "vdd", "d1", config.r_load))
    if kind.has_memristors:
        cards.append(MemristorCard("Y2", "vdd", "d2", "MEM", {"m0": config.m0}))
    else:
        cards.append(ResistorCard("R2", "vdd", "d2", config.r_load))
    cards.append(MosfetCard("M1", "d1", "d1", "0", "0", "NCH"))
    cards.append(MosfetCard("M2", "d2", "d1", "0", "0", "NCH"))
    mosfet_keys = ("vth0", "kp", "lambda")
    cards.append(model_card("NCH", "nmos", NMOS_DEFAULTS, mosfet_keys))
    if kind.has_pmos:
        cards.append(model_card("PCH", "pmos", PMOS_DEFAULTS, mosfet_keys))
    if kind.has_memristors:
        cards.append(model_card("MEM", "memristor", memristor_params))
    return ast


def mirror_circuit(config: MirrorConfig,
                   memristor_params: MemristorParams = MIRROR_MEMRISTOR) -> Circuit:
    """Elaborated form of :func:`builtin_mirror`."""
    return elaborate(builtin_mirror(config, memristor_params))


# --------------------------------------------------------------------------- #
# Parameter paths (shared by parameter_sweep and the CLI --set flag)
# --------------------------------------------------------------------------- #

PARAM_ALIASES = {
    "t1": "M1",
    "t2": "M2",
    "p1": "MP1",
    "vdd": "V1.dc_value",
    "vbias": "VB.dc_value",
    "source.vdd": "V1.dc_value",
    "source.vbias": "VB.dc_value",
}
"""Schematic-style aliases: T1 is the diode-connected input device M1."""


def resolve_param_path(path: str) -> str:
    """Canonical ``ELEMENT.field`` form of a parameter path."""
    key = path.strip()
    low = key.lower()
    if low in PARAM_ALIASES:
        key = PARAM_ALIASES[low]
    head, dot, tail = key.partition(".")
    alias = PARAM_ALIASES.get(head.lower())
    if dot and alias is not None and "." not in alias:
        key = f"{alias}.{tail}"
    return key


def _copy_with(record, name: str, value):
    """Copy of the dataclass ``record`` with field ``name`` set to
    ``value``, made without its generated ``__init__``, which would take
    every field again."""
    copy = object.__new__(type(record))
    vars(copy).update(vars(record))
    vars(copy)[name] = value
    return copy


def _with_field(record, name: str, value):
    """``dataclasses.replace(record, **{name: value})`` for a frozen
    parameter or source record: a copy with the one field set, then the
    record's own ``__post_init__`` checks, which raise as ``replace``
    would."""
    copy = _copy_with(record, name, value)
    copy.__post_init__()
    return copy


def overrides(circuit: Circuit, path: str, values) -> tuple[int, list, dict]:
    """``(position, records, errors)``: the position in ``circuit.devices``
    of the device that the parameter path (``ELEMENT.field``) names, that
    device's record with the parameter set to each of ``values``, and the
    :class:`ElaborationError` of each value that fails its checks, by the
    value's index.  Each value's records are copies of the device's with
    only the swept field set (:func:`_with_field`), equal to what
    :func:`dataclasses.replace` gives, and the parameter or source record's
    own checks run on each; a failed value's slot in ``records`` holds the
    device unchanged, and its error is the check's prefixed with the
    device's name, as :func:`elaborate` gives it, and carries the check's
    as ``__cause__``.

    ``T1``/``T2`` alias the two mirror NMOS cards, ``source.vdd`` (or bare
    ``vdd``) and ``source.vbias`` (or ``vbias``) alias the supply and gate
    bias values, and a memristor accepts the pseudo-field ``m0`` (initial
    memristance).  Unknown paths raise :class:`ElaborationError`.
    """
    elem, dot, fieldname = resolve_param_path(path).partition(".")
    if not dot or not fieldname:
        raise ElaborationError(f"override path {path!r} must look like ELEMENT.field")
    dev = circuit.device(elem)  # raises for unknown element
    fieldname = fieldname.lower()
    if isinstance(dev, BoundSource):
        if fieldname not in ("dc_value", "amplitude", "frequency", "phase"):
            raise ElaborationError(f"source {dev.name} has no field {fieldname!r}")
        attr, build = "spec", lambda v: _with_field(dev.spec, fieldname, v)
    elif isinstance(dev, BoundMemristor) and fieldname == "m0":
        attr, build = "w0", lambda v: state_for_memristance(v, dev.params).w
    elif fieldname in {f.name for f in fields(dev.params)}:
        attr, build = "params", lambda v: _with_field(dev.params, fieldname, v)
    else:
        raise ElaborationError(f"{dev.name} has no parameter {fieldname!r}")
    records, errors = [], {}
    for k, value in enumerate(values):
        try:
            records.append(_copy_with(dev, attr, build(value)))
        except DeviceError as exc:
            records.append(dev)
            errors[k] = ElaborationError(f"{dev.name}: {exc}")
            errors[k].__cause__ = exc
    return circuit.devices.index(dev), records, errors


def apply_override(circuit: Circuit, path: str, value: float) -> None:
    """Set one device parameter in place, replacing that device's record;
    unknown paths and invalid values raise (see :func:`overrides`)."""
    position, (record,), errors = overrides(circuit, path, [value])
    if errors:
        raise errors[0]
    circuit.devices[position] = record


def with_override(circuit: Circuit, path: str, value: float) -> Circuit:
    """Copy of ``circuit`` with one parameter overridden (see
    :meth:`Circuit.copy`); ``circuit`` itself is left as it was."""
    clone = circuit.copy()
    apply_override(clone, path, value)
    return clone
