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
checked and written as rows of the ``ChainSpec`` arrays in the shape that
the kernel reads, Alice's as (theta, phi) and every other party's as unit
vectors, and no direction or settings object is built.  An Eve whose
numbers are floats in range is checked in one pass; any other goes field
by field, which names a fault.  The ``Scenario`` is one record of the
plain labels that the output needs beyond the chain: the state's kind, the
settings model of Alice, Bob and each Eve, and the output format and path.

A block-style text is read by ``_block`` in one pass over its lines: ASCII
block mappings and '- ' sequences indented with spaces, compact '- key:'
items, plain keys, and one-line plain scalars and flow mappings of them,
such as ``{theta: deg:80, phi: 0.3}``.  A '#' at the start of a line or
after a space starts a comment, which ends the line.  It keeps a scalar
only when it is a ``str`` or a decimal that ``float`` reads, signed
digits, a dot and digits or an unsigned dot and digits, then a signed
exponent or none (-1.5, 1., .5e-3; +.5 and 1.0e5 are strings to YAML
1.1); the loader's implicit resolvers, in one table keyed by a scalar's
first character, type the rest.  It declines any other text, such as one
with a quote, anchor, tag, directive, int or null, and ``yaml.load`` reads
that with ``CSafeLoader``, PyYAML's binding of libyaml, when PyYAML was
built with it, else with the pure-Python ``SafeLoader``.  On either route
the document, the messages and the exit codes are PyYAML's.  A ``%YAML``
directive other than 1.1 or 1.2, a constructor error and nesting deeper
than MAX_NESTING (or than Python's recursion limit) are ``not valid
YAML`` like a syntax error.  yaml is imported on the first read: ``plan``
and ``unbounded`` never load it.  A read pauses the cyclic collector,
since the transient node graph only gives it work that frees nothing, and
then restores the caller's setting.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import re
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


class Scenario(Value):
    """A validated ``chain`` scenario beyond its ``ChainSpec``, as labels:
    the ``state`` kind, "bell" or "tilted", the settings model of ``alice``,
    ``bob`` and each of the ``eves``, "mub" or "explicit", and the output
    ``format`` and ``path`` (stdout when None)."""

    __slots__ = ("state", "alice", "bob", "eves", "format", "path")
    _defaults = {
        "state": "bell", "alice": "mub", "bob": "mub", "eves": (), "format": "csv",
        "path": None,
    }


# The sigma_z / sigma_x unit vectors, and the keys of what each Eve has one or two of.
_MUB = tuple(map(tuple, MUB_DIRECTIONS.tolist()))
_PARTY_KEYS = frozenset({"settings", "directions"})
_EVE_KEYS = _PARTY_KEYS | {"lambda", "bias"}
_DIRECTION_KEYS = frozenset({"theta", "phi"})


def _parse_direction(raw: object, field_name: str) -> tuple[float, float]:
    """A direction's (theta, phi), checked as the angles of a unit vector."""
    mapping = _require_mapping(raw, field_name)
    _check_keys(mapping, _DIRECTION_KEYS, field_name)
    if "theta" not in mapping:
        raise ScenarioError(f"{field_name}.theta: required key is missing")
    theta = parse_angle(mapping["theta"], f"{field_name}.theta")
    phi = parse_angle(mapping.get("phi", 0.0), f"{field_name}.phi")
    named(field_name, direction_components, theta, phi)
    return theta, phi


def _parse_directions(mapping: dict, field_name: str) -> tuple[str, tuple | None]:
    """The ``settings`` and ``directions`` keys: the model, and the (theta,
    phi) of both directions, or None for the MUB pair."""
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
        return model, None
    raw = mapping.get("directions")
    if not isinstance(raw, list) or len(raw) != 2:
        raise ScenarioError(
            f"{field_name}.directions: explicit settings need exactly 2 directions"
        )
    return model, (
        _parse_direction(raw[0], f"{field_name}.directions[0]"),
        _parse_direction(raw[1], f"{field_name}.directions[1]"),
    )


def _unit_rows(angles: tuple | None) -> tuple:
    """The unit vector of each (theta, phi), or the MUB pair's for None."""
    if angles is None:
        return _MUB
    return tuple(direction_components(theta, phi) for theta, phi in angles)


def _parse_eve(raw: object, field_name: str) -> tuple[float, float, str, tuple]:
    """An Eve's (lambda, bias, settings model, unit vectors), field by field."""
    eve = _require_mapping(raw, field_name)
    _check_keys(eve, _EVE_KEYS, field_name)
    if "lambda" not in eve:
        raise ScenarioError(f"{field_name}.lambda: required key is missing")
    lam = parse_number(eve["lambda"], f"{field_name}.lambda", check_sharpness)
    bias = parse_number(eve.get("bias", DEFAULT_BIAS), f"{field_name}.bias", check_bias)
    model, angles = _parse_directions(eve, field_name)
    return lam, bias, model, _unit_rows(angles)


def _plain_eve(eve: object) -> tuple[float, float, str, tuple] | None:
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
            rows.append(direction_components(theta, phi))
    except ValueError:
        return None
    return lam, bias, model, tuple(rows)


def _parse_state(raw: object) -> tuple[str, PureTwoQubitState]:
    mapping = _require_mapping(raw, "state")
    _check_keys(mapping, {"kind", "theta"}, "state")
    kind = mapping.get("kind")
    if kind not in ("bell", "tilted"):
        raise ScenarioError(f"state.kind: must be 'bell' or 'tilted', got {kind!r}")
    if kind == "bell":
        if "theta" in mapping:
            raise ScenarioError("state.theta: only valid for kind 'tilted'")
        return kind, bell_state()
    if "theta" not in mapping:
        raise ScenarioError("state.theta: required for kind 'tilted'")
    theta = parse_angle(mapping["theta"], "state.theta", check_tilt_angle)
    return kind, tilted_state(theta)


def _parse_party(raw: object, field_name: str) -> tuple[str, tuple | None]:
    mapping = _require_mapping(raw, field_name)
    _check_keys(mapping, _PARTY_KEYS, field_name)
    return _parse_directions(mapping, field_name)


def _parse_output(raw: object) -> tuple[str, str | None]:
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
    return fmt, path


# The one implicit tag of a scalar that ``_block`` keeps as its text.
_STR = "tag:yaml.org,2002:str"


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
def _scalar_pattern() -> Callable:
    """``fullmatch`` of a plain scalar that ``_block`` reads: words of these
    characters, a colon only inside a word, and no '-' alone in front."""
    char = r"[-\w.+/~=<]"
    word = rf"{char}+(?::+{char}+)*"
    return re.compile(rf"(?!-(?!{char})){word}(?: +{word})*", re.ASCII).fullmatch


# A plain decimal: a float to YAML 1.1 that ``float`` reads as the loader
# does, bit for bit.  Any other float text, such as 1_0, 1:30 or .inf, is
# left to ``yaml.load``.
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
    their columns; in a text with a '#', each comment is cut off its line
    first.  It declines a scalar outside ``_scalar_pattern`` or one that is
    neither a plain decimal nor a ``str`` to ``tag_of``, an empty value, a
    scalar that runs on to the next line, an indent the stack does not
    place, a document marker, a line past the 1024 characters that both
    parsers allow a key, and nesting deeper than MAX_NESTING.  It never
    raises.
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
            # Any other scalar is kept only as a str; the rest go to yaml.load.
            value = raw if tag_of(raw) == _STR and is_scalar(raw) else None
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
    if "#" in text:
        # A '#' that starts a line or follows a space starts a comment.
        lines = ["" if line[:1] == "#" else line.partition(" #")[0] for line in lines]
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


def _pyyaml(text: str, base: type) -> object:
    """``yaml.load``'s document of ``text`` under ``base``, a safe loader,
    behind the ``%YAML`` version check and the nesting guard; each error of
    PyYAML's is a ScenarioError."""
    import yaml

    try:
        # Every directive starts with '%'; only those ahead of the first
        # document are scanned.
        if "%" in text:
            for token in yaml.scan(text, Loader=base):
                if isinstance(token, yaml.DirectiveToken):
                    if token.name == "YAML" and token.value not in YAML_VERSIONS:
                        version = "%d.%d" % token.value
                        raise yaml.YAMLError(f"%YAML {version} is not 1.1 or 1.2")
                elif not isinstance(token, yaml.StreamStartToken):
                    break
        # Each collection opens with one of these, so fewer cannot nest deeper.
        if sum(map(text.count, "[{-:?")) > MAX_NESTING:
            depth = 0
            for event in yaml.parse(text, Loader=base):
                depth += isinstance(event, yaml.CollectionStartEvent)
                depth -= isinstance(event, yaml.CollectionEndEvent)
                if depth > MAX_NESTING:
                    raise yaml.YAMLError(f"nested deeper than {MAX_NESTING} levels")
        try:
            return yaml.load(text, Loader=base)
        # The constructor's own errors on a malformed tagged scalar:
        # !!int "", !!bool x, !!timestamp x.
        except (LookupError, AttributeError) as exc:
            raise ValueError(exc) from None
    # The constructor raises a plain ValueError on a bad tagged scalar: !!int "0x".
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ScenarioError(f"scenario: not valid YAML ({exc})")


def _document(text: str) -> object:
    """The YAML document of ``text`` as PyYAML's safe loader builds it.

    ``_block`` reads a block-style text and ``_pyyaml`` any other; an error
    of the line reader's own is no ScenarioError.
    """
    import yaml

    base = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    # A load leaves thousands of tracked nodes alive, which reference
    # counting frees; a collection run meanwhile frees none of them, only
    # promotes them, until a full collection walks them all.
    collecting = gc.isenabled()
    gc.disable()
    try:
        document = _block(text, _implicit(base))
        return _pyyaml(text, base) if document is None else document
    finally:
        if collecting:
            gc.enable()


def loads_scenario(text: str) -> tuple[ChainSpec, Scenario]:
    """Parse and validate a scenario document: its chain and its ``Scenario``.

    Each party is checked and written straight into its rows of the
    ``ChainSpec`` arrays in the kernel's shape, Alice's as (theta, phi) and
    the unit vectors of each Eve and then Bob, and only its settings model
    is kept beyond them.
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
    kind, initial = _parse_state(sections.get("state", {"kind": "bell"}))
    alice, alice_angles = _parse_party(sections.get("alice", {}), "alice")
    bob, bob_angles = _parse_party(sections.get("bob", {}), "bob")
    raw_eves = sections.get("eves", [])
    if not isinstance(raw_eves, list):
        raise ScenarioError("eves: expected a list")
    # The per-field route reads only an Eve that the one-pass check declines.
    eves = [
        _plain_eve(raw) or _parse_eve(raw, f"eves[{idx}]")
        for idx, raw in enumerate(raw_eves)
    ]
    lambdas, bias, models, rows = zip(*eves) if eves else ((),) * 4
    fmt, path = _parse_output(sections.get("output", {}))
    spec = ChainSpec(
        initial, np.array(alice_angles or MUB_ANGLES),
        np.array([*rows, _unit_rows(bob_angles)]),
        np.repeat([*lambdas, 1.0], 2).reshape(-1, 2), np.array(bias, dtype=float),
    )
    return spec, Scenario(kind, alice, bob, models, fmt, path)


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
