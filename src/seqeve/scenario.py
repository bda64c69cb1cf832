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

Documents are composed once by ``CSafeLoader``, PyYAML's binding of
libyaml, when PyYAML was built with it, else by the pure-Python
``SafeLoader``; both build the same node graph.  ``_plain`` builds plain
mappings, sequences, strings and floats from the nodes, and one
``SafeConstructor`` builds every other node in the same queue and with the
same node cache, so the document is the safe loader's, aliases, cycles
and merge keys included.  A ``%YAML`` directive other than 1.1 or 1.2, a
constructor error and nesting deeper than MAX_NESTING (or than Python's
recursion limit) are ``not valid YAML`` like a syntax error.  yaml is
imported on the first read: ``plan`` and ``unbounded`` never load it.
"""

from __future__ import annotations

import math
import os
from collections import deque
from pathlib import Path
from typing import Any, Callable

from .chain import (
    DEFAULT_BIAS, ChainSpec, PartySettings, check_bias, mub_sharp_pair,
    mub_unsharp_pair,
)
from .linalg import BlochDirection
from .measurement import SharpSetting, UnsharpSetting, check_sharpness
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


def _check_keys(mapping: dict, allowed: set[str], field_name: str) -> None:
    unknown = sorted(set(mapping) - allowed, key=str)
    if unknown:
        raise ScenarioError(f"{field_name}.{unknown[0]}: unknown key")


Directions = tuple[BlochDirection, BlochDirection]


class StateSpec(Value):
    """Initial state: the Bell state when ``theta`` is None, else tilted."""

    __slots__ = ("theta",)

    def __init__(self, theta: float | None = None) -> None:
        object.__setattr__(self, "theta", theta)

    @property
    def kind(self) -> str:
        return "bell" if self.theta is None else "tilted"

    def build(self) -> PureTwoQubitState:
        return bell_state() if self.theta is None else tilted_state(self.theta)


class PartySpec(Value):
    """Sharp settings of Alice or Bob: the MUB pair when ``directions`` is None."""

    __slots__ = ("directions",)

    def __init__(self, directions: Directions | None = None) -> None:
        object.__setattr__(self, "directions", directions)

    @property
    def settings(self) -> str:
        return "mub" if self.directions is None else "explicit"

    def build(self) -> PartySettings:
        if self.directions is None:
            return mub_sharp_pair()
        return PartySettings(*(SharpSetting(d) for d in self.directions))


class EveSpec(Value):
    """Unsharp settings of one Eve: the MUB pair when ``directions`` is None."""

    __slots__ = ("sharpness", "directions", "bias")

    def __init__(
        self, sharpness: float, directions: Directions | None = None,
        bias: float = DEFAULT_BIAS,
    ) -> None:
        object.__setattr__(self, "sharpness", sharpness)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "bias", bias)

    @property
    def settings(self) -> str:
        return "mub" if self.directions is None else "explicit"

    def build(self) -> PartySettings:
        if self.directions is None:
            return mub_unsharp_pair(self.sharpness)
        return PartySettings(
            *(UnsharpSetting(d, self.sharpness) for d in self.directions)
        )


class OutputSpec(Value):
    """Output format, and the file to write (stdout when ``path`` is None)."""

    __slots__ = ("format", "path")

    def __init__(self, format: str = "csv", path: str | None = None) -> None:
        object.__setattr__(self, "format", format)
        object.__setattr__(self, "path", path)


class Scenario(Value):
    """A validated ``chain`` scenario: its state, parties and output."""

    __slots__ = ("state", "alice", "bob", "eves", "output")

    def __init__(
        self, state: StateSpec = StateSpec(), alice: PartySpec = PartySpec(),
        bob: PartySpec = PartySpec(), eves: tuple[EveSpec, ...] = (),
        output: OutputSpec = OutputSpec(),
    ) -> None:
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)
        object.__setattr__(self, "eves", eves)
        object.__setattr__(self, "output", output)


def _parse_direction(raw: object, field_name: str) -> BlochDirection:
    mapping = _require_mapping(raw, field_name)
    _check_keys(mapping, {"theta", "phi"}, field_name)
    if "theta" not in mapping:
        raise ScenarioError(f"{field_name}.theta: required key is missing")
    theta = parse_angle(mapping["theta"], f"{field_name}.theta")
    phi = parse_angle(mapping.get("phi", 0.0), f"{field_name}.phi")
    return named(field_name, BlochDirection, theta, phi)


def _parse_directions(mapping: dict, field_name: str) -> Directions | None:
    """The ``settings`` and ``directions`` keys: None for MUB, else the pair."""
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
        return None
    raw = mapping.get("directions")
    if not isinstance(raw, list) or len(raw) != 2:
        raise ScenarioError(
            f"{field_name}.directions: explicit settings need exactly 2 directions"
        )
    return (
        _parse_direction(raw[0], f"{field_name}.directions[0]"),
        _parse_direction(raw[1], f"{field_name}.directions[1]"),
    )


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


def _parse_party(raw: object, field_name: str) -> PartySpec:
    mapping = _require_mapping(raw, field_name)
    _check_keys(mapping, {"settings", "directions"}, field_name)
    return PartySpec(_parse_directions(mapping, field_name))


def _parse_eve(raw: object, field_name: str) -> EveSpec:
    mapping = _require_mapping(raw, field_name)
    _check_keys(mapping, {"lambda", "settings", "directions", "bias"}, field_name)
    if "lambda" not in mapping:
        raise ScenarioError(f"{field_name}.lambda: required key is missing")
    sharpness = parse_number(mapping["lambda"], f"{field_name}.lambda", check_sharpness)
    raw_bias = mapping.get("bias", DEFAULT_BIAS)
    bias = parse_number(raw_bias, f"{field_name}.bias", check_bias)
    return EveSpec(sharpness, _parse_directions(mapping, field_name), bias)


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
# Float spellings left to the constructor: 1_0, 1:30 (base 60), .inf, .nan.
_NOT_PLAIN_FLOAT = frozenset("_:nN")


def _malformed(exc: Exception) -> ValueError:
    """The ValueError for a LookupError or AttributeError that a constructor
    raised on a malformed tagged scalar: !!int "", !!bool x, !!timestamp x."""
    return ValueError(str(exc))


def _plain(root):
    """The document that PyYAML's safe loader constructs from ``root``.

    Plain mappings and sequences, ``str`` scalars and plain floats are
    built here; a float without the characters above is read by ``float``,
    which gives what the constructor gives bit for bit or raises
    ValueError, such as on '--1', where the constructor takes over.  Every
    other node goes to one ``SafeConstructor``, which shares the node cache
    and the first-in first-out queue of containers to fill, keys before
    values.  That is the batch order of ``construct_document``, so a
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
            if tag == _STR:
                return node.value
            if tag == _FLOAT and _NOT_PLAIN_FLOAT.isdisjoint(node.value):
                try:
                    return float(node.value)
                except ValueError:
                    pass
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


def _document(text: str) -> object:
    """The YAML document of ``text`` as PyYAML's safe loader builds it."""
    import yaml

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        # Only the directives ahead of the first document are scanned.
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


def loads_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
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
    alice = _parse_party(sections.get("alice", {}), "alice")
    bob = _parse_party(sections.get("bob", {}), "bob")
    raw_eves = sections.get("eves", [])
    if not isinstance(raw_eves, list):
        raise ScenarioError("eves: expected a list")
    eves = tuple(
        _parse_eve(entry, f"eves[{idx}]") for idx, entry in enumerate(raw_eves)
    )
    return Scenario(state, alice, bob, eves, _parse_output(sections.get("output", {})))


def load_scenario(path: str | Path) -> Scenario:
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


def to_chain_spec(scenario: Scenario) -> ChainSpec:
    """Build the simulator input for a scenario."""
    return ChainSpec(
        initial=scenario.state.build(),
        alice=scenario.alice.build(),
        eves=tuple(eve.build() for eve in scenario.eves),
        bob=scenario.bob.build(),
        input_bias=tuple(eve.bias for eve in scenario.eves),
    )
