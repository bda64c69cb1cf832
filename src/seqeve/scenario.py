"""Scenario files: strict schema, YAML syntax, radians-only angles.

The package only reads scenarios.  Unknown keys are rejected (fail-closed),
and a null section ("state: ~") is an absent one.  Each range is checked by
its owner in the domain layer, and ``named`` puts the offending field in
front of its message.  ``parse_number`` turns scenario values and
command-line tokens alike into floats: a YAML int or float, or a string that
``float`` reads, so '1e-1' (a string to YAML 1.1) and "0.5" are numbers.
Angles are radians; the string form "deg:30" is degrees.  An unreadable
file (missing, not UTF-8, a NUL in its path) and a number beyond float range
are ScenarioErrors too.

A read gives the chain and its ``Scenario``: every party's directions are
checked and written as rows of the ``ChainSpec`` arrays that the kernel
reads, and no direction or settings object is built.  An Eve whose numbers
are floats in range is checked in one pass; any other goes field by field,
which names a fault.  The ``Scenario`` records what the output needs beyond
the chain: the state, the settings model of Alice, Bob and each Eve, and
the output format and path.

A block-style text is read by ``_block`` in one pass over its lines: ASCII
block mappings and '- ' sequences indented with spaces, compact '- key:'
items, plain keys, and one-line plain scalars and flow mappings of them,
such as ``{theta: deg:80, phi: 0.3}``.  It keeps a scalar only when it is a
``str`` or a decimal that ``float`` reads, signed digits, a dot and digits
or an unsigned dot and digits, then a signed exponent or none (-1.5, 1.,
.5e-3; +.5 and 1.0e5 are strings to YAML 1.1).  It declines any other text,
such as one with a quote, anchor, comment, directive, int or null.  Those
are composed once by ``CSafeLoader``, PyYAML's binding of libyaml, when
PyYAML was built with it, else by the pure-Python ``SafeLoader``; both
build the same node graph.  The loader is a subclass made on the first
read, whose ``resolve`` finds a scalar's implicit tag in one table keyed by
its first character, the table that types the line reader's other scalars
too.  ``_plain`` builds plain mappings, sequences, strings and decimals from
the nodes, and one ``SafeConstructor`` builds every other node in the same
queue and with the same node cache, so the document is the safe loader's,
aliases, cycles and merge keys included.  On either route the document,
the messages and the exit codes are PyYAML's.  A ``%YAML`` directive other
than 1.1 or 1.2, a constructor error and nesting deeper than MAX_NESTING
(or than Python's recursion limit) are ``not valid YAML`` like a syntax
error.  yaml is imported on the first read: ``plan`` and ``unbounded``
never load it.  A read pauses the cyclic collector, since the transient
node graph only gives it work that frees nothing, and then restores the
caller's setting.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import re
from collections import deque
from pathlib import Path
from typing import AbstractSet, Any, Callable

import numpy as np

from .chain import DEFAULT_BIAS, MUB_ANGLES, MUB_DIRECTIONS, ChainSpec, check_bias
from .linalg import direction_components
from .measurement import check_sharpness
from .states import PureTwoQubitState, bell_state, check_tilt_angle, tilted_state
from .value import Value

SETTINGS_MODELS = ("mub", "explicit")
OUTPUT_FORMATS = ("csv", "json")
# %YAML directive versions that both loaders accept; libyaml refuses the rest.
YAML_VERSIONS = ((1, 1), (1, 2))
# Deepest nesting read: libyaml's composer overflows the C stack near 25,000.
MAX_NESTING = 10_000


class ScenarioError(ValueError):
    """Scenario schema violation; the message names the offending field."""


def named(field_name: str, check: Callable[..., Any], *args: object) -> Any:
    """``check(*args)``, its ValueError re-raised with the field name in front."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ScenarioError(f"{field_name}: {exc}") from exc


def parse_number(
    value: object, field_name: str, check: Callable | None = None
) -> float:
    """A finite float from an int, a float or a numeric string, then ``check``ed."""
    try:
        # Neither bools nor null, bytes or collections are numbers.
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise TypeError
        out = float(value)
    except OverflowError:  # an int beyond float range, such as 10**400
        out = math.inf
    except (TypeError, ValueError):
        raise ScenarioError(f"{field_name}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ScenarioError(f"{field_name}: value must be finite")
    if check is not None:
        named(field_name, check, out)
    return out


def parse_angle(value: object, field_name: str, check: Callable | None = None) -> float:
    """Radians from a 'deg:<x>' string, else from ``parse_number``."""
    if isinstance(value, str) and value.startswith("deg:"):
        try:
            value = math.radians(float(value[4:]))
        except ValueError:
            raise ScenarioError(f"{field_name}: cannot parse degrees in {value!r}")
    return parse_number(value, field_name, check)


def _require_mapping(value: object, field_name: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{field_name}: expected a mapping")
    return value


def _check_keys(mapping: dict, allowed: AbstractSet[str], field_name: str) -> None:
    if not mapping.keys() <= allowed:
        unknown = sorted(set(mapping) - allowed, key=str)
        raise ScenarioError(f"{field_name}.{unknown[0]}: unknown key")


# A direction as (theta, phi, x, y, z): its angles and its unit vector.
Direction = tuple[float, float, float, float, float]
Directions = tuple[Direction, Direction]


class StateSpec(Value):
    """Initial state: the Bell state when ``theta`` is None, else tilted."""

    __slots__ = ("theta",)
    _defaults = {"theta": None}

    @property
    def kind(self) -> str:
        return "bell" if self.theta is None else "tilted"

    def build(self) -> PureTwoQubitState:
        return bell_state() if self.theta is None else tilted_state(self.theta)


class PartySpec(Value):
    """Settings model of Alice or Bob, "mub" or "explicit", as of each Eve;
    the directions themselves are rows of the ``ChainSpec``."""

    __slots__ = ("settings",)
    _defaults = {"settings": "mub"}


class OutputSpec(Value):
    """Output format, and the file to write (stdout when ``path`` is None)."""

    __slots__ = ("format", "path")
    _defaults = {"format": "csv", "path": None}


class Scenario(Value):
    """A validated ``chain`` scenario beyond its ``ChainSpec``: its state,
    the settings model of Alice, Bob and each Eve, and its output."""

    __slots__ = ("state", "alice", "bob", "eves", "output")
    _defaults = {
        "state": StateSpec(), "alice": PartySpec(), "bob": PartySpec(), "eves": (),
        "output": OutputSpec(),
    }


# The sigma_z / sigma_x rows, and the keys of what each Eve has one or two of.
_MUB = tuple(map(tuple, np.hstack([MUB_ANGLES, MUB_DIRECTIONS]).tolist()))
_PARTY_KEYS = frozenset({"settings", "directions"})
_EVE_KEYS = _PARTY_KEYS | {"lambda", "bias"}
_DIRECTION_KEYS = frozenset({"theta", "phi"})


def _parse_direction(raw: object, field_name: str) -> Direction:
    mapping = _require_mapping(raw, field_name)
    _check_keys(mapping, _DIRECTION_KEYS, field_name)
    if "theta" not in mapping:
        raise ScenarioError(f"{field_name}.theta: required key is missing")
    theta = parse_angle(mapping["theta"], f"{field_name}.theta")
    phi = parse_angle(mapping.get("phi", 0.0), f"{field_name}.phi")
    return (theta, phi, *named(field_name, direction_components, theta, phi))


def _parse_directions(mapping: dict, field_name: str) -> tuple[str, Directions]:
    """The ``settings`` and ``directions`` keys: the model and its two rows."""
    model = mapping.get("settings", "mub")
    if model not in SETTINGS_MODELS:
        raise ScenarioError(
            f"{field_name}.settings: must be one of {SETTINGS_MODELS}, got {model!r}"
        )
    if model == "mub":
        if "directions" in mapping:
            raise ScenarioError(
                f"{field_name}.directions: only valid for explicit settings"
            )
        return model, _MUB
    raw = mapping.get("directions")
    if not isinstance(raw, list) or len(raw) != 2:
        raise ScenarioError(
            f"{field_name}.directions: explicit settings need exactly 2 directions"
        )
    return model, (
        _parse_direction(raw[0], f"{field_name}.directions[0]"),
        _parse_direction(raw[1], f"{field_name}.directions[1]"),
    )


def _parse_eve(raw: object, field_name: str) -> tuple[float, float, str, Directions]:
    """An Eve's (lambda, bias, settings model, direction rows), field by field."""
    eve = _require_mapping(raw, field_name)
    _check_keys(eve, _EVE_KEYS, field_name)
    if "lambda" not in eve:
        raise ScenarioError(f"{field_name}.lambda: required key is missing")
    lam = parse_number(eve["lambda"], f"{field_name}.lambda", check_sharpness)
    bias = parse_number(eve.get("bias", DEFAULT_BIAS), f"{field_name}.bias", check_bias)
    return (lam, bias, *_parse_directions(eve, field_name))


def _plain_eve(eve: object) -> tuple[float, float, str, Directions] | None:
    """``_parse_eve`` of an Eve whose numbers are floats in range, checked in
    one pass with no field name; None for any other Eve."""
    if eve.__class__ is not dict or not eve.keys() <= _EVE_KEYS:
        return None
    lam, bias = eve.get("lambda"), eve.get("bias", DEFAULT_BIAS)
    model, raw = eve.get("settings", "mub"), eve.get("directions")
    if not lam.__class__ is bias.__class__ is float:
        return None
    try:
        check_sharpness(lam)
        check_bias(bias)
        if model == "mub" and "directions" not in eve:
            return lam, bias, model, _MUB
        if model != "explicit" or raw.__class__ is not list or len(raw) != 2:
            return None
        rows = []
        for angles in raw:
            if angles.__class__ is not dict or not angles.keys() <= _DIRECTION_KEYS:
                return None
            theta, phi = angles.get("theta"), angles.get("phi", 0.0)
            if not theta.__class__ is phi.__class__ is float:
                return None
            rows.append((theta, phi, *direction_components(theta, phi)))
    except ValueError:
        return None
    return lam, bias, model, tuple(rows)


def _parse_state(raw: object) -> StateSpec:
    mapping = _require_mapping(raw, "state")
    _check_keys(mapping, {"kind", "theta"}, "state")
    kind = mapping.get("kind")
    if kind not in ("bell", "tilted"):
        raise ScenarioError(f"state.kind: must be 'bell' or 'tilted', got {kind!r}")
    if kind == "bell":
        if "theta" in mapping:
            raise ScenarioError("state.theta: only valid for kind 'tilted'")
        return StateSpec()
    if "theta" not in mapping:
        raise ScenarioError("state.theta: required for kind 'tilted'")
    return StateSpec(parse_angle(mapping["theta"], "state.theta", check_tilt_angle))


def _parse_party(raw: object, field_name: str) -> tuple[str, Directions]:
    mapping = _require_mapping(raw, field_name)
    _check_keys(mapping, _PARTY_KEYS, field_name)
    return _parse_directions(mapping, field_name)


def _parse_output(raw: object) -> OutputSpec:
    mapping = _require_mapping(raw, "output")
    _check_keys(mapping, {"format", "path"}, "output")
    fmt = mapping.get("format", "csv")
    if fmt not in OUTPUT_FORMATS:
        raise ScenarioError(
            f"output.format: must be one of {OUTPUT_FORMATS}, got {fmt!r}"
        )
    path = mapping.get("path")
    if path is not None and (not isinstance(path, str) or "\0" in path):
        raise ScenarioError(f"output.path: expected a file name, got {path!r}")
    return OutputSpec(fmt, path)


_CORE = "tag:yaml.org,2002:"
_STR, _FLOAT, _SEQ, _MAP = (_CORE + name for name in ("str", "float", "seq", "map"))
# Keys that SafeConstructor.flatten_mapping rewrites: '<<' and '='.
_FLATTENED = (_CORE + "merge", _CORE + "value")


def _malformed(exc: Exception) -> ValueError:
    """The ValueError for a LookupError or AttributeError that a constructor
    raised on a malformed tagged scalar: !!int "", !!bool x, !!timestamp x."""
    return ValueError(str(exc))


def _plain_scalar(tag: str, value: str) -> object:
    """The ``str`` or float that a plain scalar of ``tag`` builds, else None.

    A float is kept when its text is a plain decimal, which ``float`` reads
    as the constructor does, bit for bit; the constructor takes any other
    float text, such as 1_0, 1:30, .inf or a tagged '!!float 1e5'.
    """
    if tag == _STR:
        return value
    if tag == _FLOAT and _number_patterns()[0](value):
        return float(value)
    return None


def _plain(root):
    """The document that PyYAML's safe loader constructs from ``root``.

    Plain mappings and sequences, and the scalars of ``_plain_scalar``, are
    built here.  Every other node goes to one ``SafeConstructor``, which
    shares the node cache and the first-in first-out queue of containers to
    fill, keys before values.  That is the batch order of ``construct_document``, so a
    collection reached twice is one object and the first bad node raises
    the error the loader raises.
    """
    from yaml.constructor import ConstructorError, SafeConstructor
    from yaml.nodes import MappingNode, ScalarNode, SequenceNode

    constructor = SafeConstructor()
    built = constructor.constructed_objects
    # Only construct_document, never called here, replaces this list.
    generators = constructor.state_generators
    # (collection node, its container yet to fill), or a generator of PyYAML's.
    pending = deque()

    def by_pyyaml(build, work):
        """``build(work)``, with the generators it leaves queued behind the rest."""
        try:
            data = build(work)
        except (LookupError, AttributeError) as exc:
            raise _malformed(exc) from None
        pending.extend(generators)
        generators.clear()
        return data

    def read(node):
        kind, tag = node.__class__, node.tag
        if kind is ScalarNode:
            data = _plain_scalar(tag, node.value)
            if data is not None:
                return data
        elif node in built:
            return built[node]
        elif kind is SequenceNode and tag == _SEQ:
            data = built[node] = []
            pending.append((node, data))
            return data
        elif kind is MappingNode and tag == _MAP:
            data = built[node] = {}
            pending.append((node, data))
            return data
        return by_pyyaml(constructor.construct_object, node)

    document = read(root)
    while pending:
        work = pending.popleft()
        if work.__class__ is not tuple:
            by_pyyaml(list, work)  # list() runs the generator to its end
            continue
        node, data = work
        if data.__class__ is list:
            data.extend([read(child) for child in node.value])
            continue
        for key_node, _ in node.value:
            if key_node.tag in _FLATTENED:
                constructor.flatten_mapping(node)
                break
        for key_node, value_node in node.value:
            key = read(key_node)
            # Only a list, dict or set, none of them collections.abc.Hashable,
            # which is the constructor's own check.
            if key.__hash__ is None:
                raise ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    "found unhashable key", key_node.start_mark,
                )
            data[key] = read(value_node)
    return document


@functools.cache
def _implicit(base: type) -> Callable[[str], str]:
    """The implicit tag of a plain scalar under ``base``, a safe loader.

    PyYAML's ``resolve`` joins the resolvers of a plain scalar's first
    character to the wildcard ones for each scalar; the table holds every
    first character's joined list, taken when it is made, and any other
    character gets the wildcards alone.  That is PyYAML's tag for every
    node as long as no path resolver can make a tag depend on where the
    node is.
    """
    assert not base.yaml_path_resolvers, "a path resolver would bypass the table"
    resolvers = base.yaml_implicit_resolvers
    wildcard = tuple(resolvers.get(None, ()))
    table = {
        first: tuple(pairs) + wildcard
        for first, pairs in resolvers.items() if first is not None
    }
    default = base.DEFAULT_SCALAR_TAG

    def tag_of(value: str) -> str:
        # value[:1] is '' for the empty scalar, the key of its resolver.
        for tag, regexp in table.get(value[:1], wildcard):
            if regexp.match(value):
                return tag
        return default

    return tag_of


@functools.cache
def _loader(base: type) -> type:
    """``base``, a safe loader, resolving implicit tags from ``_implicit``."""
    from yaml.nodes import MappingNode, ScalarNode, SequenceNode

    tag_of = _implicit(base)
    defaults = {
        ScalarNode: base.DEFAULT_SCALAR_TAG,
        SequenceNode: base.DEFAULT_SEQUENCE_TAG,
        MappingNode: base.DEFAULT_MAPPING_TAG,
    }

    class Loader(base):
        def resolve(self, kind, value, implicit):
            if kind is ScalarNode and implicit[0]:
                return tag_of(value)
            return defaults.get(kind)

    return Loader


@functools.cache
def _scalar_pattern() -> Callable:
    """``fullmatch`` of a plain scalar that ``_block`` reads: words of these
    characters, a colon only inside a word, and no '-' alone in front."""
    char = r"[-\w.+/~=<]"
    word = rf"{char}+(?::+{char}+)*"
    return re.compile(rf"(?!-(?!{char})){word}(?: +{word})*", re.ASCII).fullmatch


# A plain decimal (see above), a float to YAML 1.1 that ``float`` reads.
_DECIMAL = r"(?:[-+]?[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+][0-9]+)?"


@functools.cache
def _number_patterns() -> tuple[Callable, Callable]:
    """``fullmatch`` of a plain decimal, and of a flow mapping of two word
    keys and decimals such as ``{theta: 0.5, phi: 1.25}``, in four groups."""
    pair = rf"(\w+): +({_DECIMAL}) *"
    flow = rf"\{{ *{pair}, *{pair}\}}"
    return tuple(re.compile(p, re.ASCII).fullmatch for p in (_DECIMAL, flow))


def _block(text: str, tag_of: Callable[[str], str]) -> object:
    """The document of ``text`` if it is in the block subset, else None.

    One pass over the lines, with a stack of the open block collections and
    their columns.  It declines a scalar outside ``_scalar_pattern`` or one
    that ``_plain_scalar`` does not build, an empty value, a scalar that
    runs on to the next line, an indent the stack does not place, a
    document marker, a line past the 1024 characters that both parsers
    allow a key, and nesting deeper than MAX_NESTING.  It never raises.
    """
    if text.startswith(("---", "...")) or "\n---" in text or "\n..." in text:
        return None
    is_scalar, (is_decimal, is_pair) = _scalar_pattern(), _number_patterns()
    document = [None]
    stack = [(-1, document)]  # (column, collection), the document's holder first
    # The key of stack[-1], or -1 for its new last item, whose value is to come.
    hold = -1
    seen = {}  # each non-decimal scalar read, and what it reads as (None: declined)

    def scalar(raw):
        value = seen.get(raw, False)  # no scalar reads as False
        if value is False:
            if is_decimal(raw):
                return float(raw)
            value = _plain_scalar(tag_of(raw), raw)  # a str, or None
            if value is not None and not is_scalar(raw):
                value = None
            seen[raw] = value
        return value

    def node(raw):
        if raw[0] != "{":
            return scalar(raw)
        if raw[-1] != "}" or len(stack) > MAX_NESTING:
            return None
        pair = is_pair(raw)
        if pair:
            key, value, key2, value2 = pair.groups()
            key, key2 = seen.get(key) or scalar(key), seen.get(key2) or scalar(key2)
            if key is not None and key2 is not None:
                return {key: float(value), key2: float(value2)}
            return None
        # A key without ': ' has the empty value, a null.
        pairs = [pair.strip(" ").partition(": ") for pair in raw[1:-1].split(",")]
        pairs = [(scalar(key), scalar(value.lstrip(" "))) for key, _, value in pairs]
        return None if any(None in pair for pair in pairs) else dict(pairs)

    lines = text.split("\n")
    if max(map(len, lines)) > 1024:
        return None
    for line in lines:
        rest = line.lstrip(" ")
        if not rest:
            continue
        col, rest = len(line) - len(rest), rest.rstrip(" ")
        while True:  # one entry of the line: '- ', a key, or a value
            top_col, top = stack[-1]
            if rest[:2] == "- ":
                kind = list
            elif rest[0] == "{":
                kind = None
            elif rest[-1] == ":":
                kind, key, value = dict, rest[:-1], ""
            else:
                key, sep, value = rest.partition(": ")
                kind = dict if sep else None
            if kind is None:  # the line ends in a value, held before it
                value = node(rest)
                if value is None or hold is None or col <= top_col:
                    return None
                top[hold] = value
                hold = None
                break
            if hold is None:
                # A key at a sequence's column ends it: it sat at its key's column.
                while top_col > col or (
                    top_col == col and kind is dict and top.__class__ is list
                ):
                    stack.pop()
                    top_col, top = stack[-1]
                if top_col != col or top.__class__ is not kind:
                    return None
            elif col > top_col or (
                kind is list and col == top_col and top.__class__ is dict
            ):
                # The held value opens here: deeper, or a sequence at its key's column.
                if len(stack) > MAX_NESTING:
                    return None
                top[hold] = kind()
                top = top[hold]
                stack.append((col, top))
            else:
                return None
            if kind is list:
                top.append(None)
                hold = -1
                after = rest[2:].lstrip(" ")
                col += len(rest) - len(after)
                rest = after
                continue
            hold = seen.get(key) or scalar(key)  # a memo hit costs no call
            if hold is None:
                return None
            if value:
                value = value.lstrip(" ")
                value = seen.get(value) or node(value)
                if value is None:
                    return None
                top[hold] = value
                hold = None
            break
    return None if hold is not None else document[0]


def _document(text: str) -> object:
    """The YAML document of ``text`` as PyYAML's safe loader builds it.

    ``_block`` reads a block-style text; PyYAML composes any other.
    """
    import yaml

    base = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    # Compose leaves thousands of tracked nodes alive, which reference
    # counting frees; a collection run meanwhile frees none of them, only
    # promotes them, until a full collection walks them all.
    collecting = gc.isenabled()
    gc.disable()
    try:
        document = _block(text, _implicit(base))
        if document is not None:
            return document
        loader = _loader(base)
        # Every directive starts with '%'; only those ahead of the first
        # document are scanned.
        if "%" in text:
            for token in yaml.scan(text, Loader=loader):
                if isinstance(token, yaml.DirectiveToken):
                    if token.name == "YAML" and token.value not in YAML_VERSIONS:
                        version = "%d.%d" % token.value
                        raise yaml.YAMLError(f"%YAML {version} is not 1.1 or 1.2")
                elif not isinstance(token, yaml.StreamStartToken):
                    break
        # Each collection opens with one of these, so fewer cannot nest deeper.
        if sum(map(text.count, "[{-:?")) > MAX_NESTING:
            depth = 0
            for event in yaml.parse(text, Loader=loader):
                depth += isinstance(event, yaml.CollectionStartEvent)
                depth -= isinstance(event, yaml.CollectionEndEvent)
                if depth > MAX_NESTING:
                    raise yaml.YAMLError(f"nested deeper than {MAX_NESTING} levels")
        root = yaml.compose(text, Loader=loader)
        return None if root is None else _plain(root)
    # The constructor raises a plain ValueError on a bad tagged scalar: !!int "0x".
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ScenarioError(f"scenario: not valid YAML ({exc})")
    finally:
        if collecting:
            gc.enable()


def loads_scenario(text: str) -> tuple[ChainSpec, Scenario]:
    """Parse and validate a scenario document: its chain and its ``Scenario``.

    Each party is checked and written straight into its rows of the
    ``ChainSpec`` arrays, and only its settings model is kept beyond them;
    Bob's directions follow the Eves'.
    """
    mapping = _require_mapping(_document(text), "scenario")
    # Checked before the keys, so a document of another mode is named as such.
    mode = mapping.get("mode")
    if mode != "chain":
        raise ScenarioError(f"mode: must be one of ('chain',), got {mode!r}")
    _check_keys(
        mapping, {"mode", "state", "alice", "bob", "eves", "output"}, "scenario"
    )

    # A null section is an absent one.
    sections = {key: value for key, value in mapping.items() if value is not None}
    state = _parse_state(sections.get("state", {"kind": "bell"}))
    alice, alice_rows = _parse_party(sections.get("alice", {}), "alice")
    bob, bob_rows = _parse_party(sections.get("bob", {}), "bob")
    raw_eves = sections.get("eves", [])
    if not isinstance(raw_eves, list):
        raise ScenarioError("eves: expected a list")
    # The per-field route reads only an Eve that the one-pass check declines.
    eves = [
        _plain_eve(raw) or _parse_eve(raw, f"eves[{idx}]")
        for idx, raw in enumerate(raw_eves)
    ]
    lambdas, bias, models, rows = zip(*eves) if eves else ((),) * 4
    output = _parse_output(sections.get("output", {}))
    spec = ChainSpec(
        state.build(), np.array(alice_rows)[:, :2],
        np.array([*rows, bob_rows])[..., 2:],
        np.repeat([*lambdas, 1.0], 2).reshape(-1, 2), np.array(bias, dtype=float),
    )
    scenario = Scenario(state, PartySpec(alice), PartySpec(bob), models, output)
    return spec, scenario


def load_scenario(path: str | Path) -> tuple[ChainSpec, Scenario]:
    """Read and parse a scenario file; a failed read is a ScenarioError too."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    # ValueError: a file that is not UTF-8, or a NUL in the path.
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ScenarioError(
            f"scenario: cannot read {os.fspath(path)!r}: {reason}"
        ) from exc
    return loads_scenario(text)
