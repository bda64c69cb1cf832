"""Tests for scenario parsing, validation, and canonical serialization."""

import contextlib
import copy
import gc
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from yaml.nodes import MappingNode, ScalarNode, SequenceNode
from yaml.resolver import Resolver

from helpers import count_calls, wall_clock_budget
from oracles import dumps_scenario, read_document, scenario_values
import seqeve
import seqeve.cli
import seqeve.scenario
from seqeve import Scenario, ScenarioError, loads_scenario
from seqeve.cli import main
from seqeve.states import check_tilt_angle, tilted_state

LOADERS = settings(max_examples=150, deadline=None, derandomize=True)
# The document property is the one guard of both routes against yaml.load.
DOCUMENTS = settings(max_examples=500, deadline=None, derandomize=True)
needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML is built without libyaml"
)
# The detail after this prefix is worded by whichever parser found the error.
YAML_ERROR = "scenario: not valid YAML ("
GOLDEN = Path(__file__).parent / "golden"
# A prefix that the line reader declines, so that yaml.load reads the text.
DECLINED = "%YAML 1.1\n---\n"
# libyaml reads only 1.1 and 1.2; PyYAML's Python parser takes any 1.x.
YAML_VERSIONS = ["1.0", "1.1", "1.2", "1.3", "1.9", "1.10", "2.0"]

CHAIN_DOC = """\
mode: chain
state:
  kind: bell
eves:
  - lambda: 0.552
    settings: mub
  - lambda: 0.602
    settings: mub
    bias: 0.5
output:
  format: csv
"""

EXPLICIT_DOC = """\
mode: chain
state:
  kind: tilted
  theta: deg:30
alice:
  settings: explicit
  directions:
    - {theta: 0.0, phi: 0.0}
    - {theta: deg:90, phi: 0.0}
eves:
  - lambda: 0.7
    settings: explicit
    directions:
      - {theta: 0.0}
      - {theta: 1.5707963267948966}
    bias: 0.25
"""


def test_parses_chain_scenario():
    spec, scenario = loads_scenario(CHAIN_DOC)
    assert scenario == Scenario(eves=("mub", "mub"))
    assert spec.sharpness.tolist() == [[0.552, 0.552], [0.602, 0.602], [1.0, 1.0]]
    assert spec.n_eves == 2
    assert spec.bias.tolist() == [0.5, 0.5]


def test_degree_prefix_converts():
    spec, scenario = loads_scenario(EXPLICIT_DOC)
    assert scenario.state == "tilted"
    tilt = math.atan2(spec.initial.amp[3].real, spec.initial.amp[0].real)
    assert tilt == pytest.approx(math.pi / 6, abs=1e-12)
    np.testing.assert_allclose(
        spec.initial.amp, tilted_state(math.pi / 6).amp, rtol=0, atol=1e-12
    )
    assert spec.alice[1, 0] == pytest.approx(math.pi / 2, abs=1e-12)
    assert spec.bias.tolist() == [0.25]


@pytest.mark.parametrize(
    "doc,field",
    [
        ("mode: chain\nstate: {kind: ghz}\n", "state.kind"),
        ("mode: fly\n", "mode"),
        ("mode: chain\neves:\n  - lambd: 0.5\n", "eves[0].lambd"),
        ("mode: chain\neves:\n  - lambda: 1.5\n", "eves[0].lambda"),
        ("mode: chain\neves:\n  - lambda: 0.5\n    bias: 2.0\n", "eves[0].bias"),
        ("mode: chain\nstate: {kind: tilted}\n", "state.theta"),
        ("mode: chain\nstate: {kind: bell, theta: 0.2}\n", "state.theta"),
        ("mode: chain\nnoise: 0.1\n", "scenario.noise"),
        ("mode: chain\noutput: {format: xml}\n", "output.format"),
        ('mode: chain\noutput: {path: "a\\0b"}\n', "output.path"),
        (
            "mode: chain\nalice: {settings: explicit}\n",
            "alice.directions",
        ),
        (
            "mode: chain\nalice: {settings: mub, directions: []}\n",
            "alice.directions",
        ),
        ("mode: chain\nstate: {kind: tilted, theta: 30deg}\n", "state.theta"),
    ],
)
def test_validation_names_offending_field(doc, field):
    with pytest.raises(ScenarioError, match=field.replace("[", r"\[")):
        loads_scenario(doc)


def test_round_trip_identity():
    for doc in (CHAIN_DOC, EXPLICIT_DOC):
        first = scenario_values(loads_scenario(doc))
        text = dumps_scenario(yaml.safe_load(doc))
        assert scenario_values(loads_scenario(text)) == first
        # A second round trip is also stable.
        assert dumps_scenario(yaml.safe_load(text)) == text


def test_plan_mode_is_rejected(tmp_path, capsys):
    with pytest.raises(ScenarioError, match="^mode: "):
        loads_scenario("mode: plan\n")
    path = tmp_path / "plan.yaml"
    path.write_text("mode: plan\n", encoding="utf-8")
    assert main(["chain", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: mode: ")


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("version", YAML_VERSIONS)
def test_yaml_directive_version_does_not_depend_on_loader(version, fallback):
    if not fallback and not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML is built without libyaml")
    text = f"%YAML {version}\n---\n{CHAIN_DOC}"
    ok = version in ("1.1", "1.2")
    expected = scenario_values(loads_scenario(CHAIN_DOC)) if ok else YAML_ERROR
    assert _parsed(text, fallback=fallback) == expected


def test_not_yaml_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="YAML"):
        loads_scenario("mode: [unclosed\n")


def test_cli_import_leaves_yaml_unloaded():
    src = str(Path(seqeve.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # Nor does it compile the line reader's patterns.
    code = (
        "import sys, seqeve.cli; print('yaml' in sys.modules, "
        "seqeve.scenario._scalar_pattern.cache_info().currsize, "
        "seqeve.scenario._number_patterns.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False 0 0"


@needs_libyaml
def test_parses_with_libyaml_and_falls_back_to_safe_loader(monkeypatch):
    used = []
    real_load = yaml.load
    c_loader = yaml.CSafeLoader

    def spy(stream, Loader):
        used.append(Loader)
        return real_load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    # The directive makes the line reader decline, so yaml.load reads it.
    text = DECLINED + EXPLICIT_DOC
    first = scenario_values(loads_scenario(text))
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert scenario_values(loads_scenario(text)) == first
    assert used == [c_loader, yaml.SafeLoader]


# Nesting depth --------------------------------------------------------------


def _nested(depth):
    return "mode: chain\nx: " + "[" * depth + "]" * depth + "\n"


@needs_libyaml
def test_nesting_past_the_cap_is_an_input_error_under_libyaml(tmp_path):
    # In a child process: without the cap, libyaml crashes the interpreter.
    path = tmp_path / "deep.yaml"
    path.write_text(_nested(30_000), encoding="utf-8")
    src = str(Path(seqeve.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "seqeve.cli", "chain", "--scenario", str(path)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"input error: {YAML_ERROR}")


def test_deep_nesting_is_an_input_error_under_safe_loader(tmp_path, capsys):
    path = tmp_path / "deep.yaml"
    path.write_text(_nested(2_000), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.delattr(yaml, "CSafeLoader", raising=False)
        assert main(["chain", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {YAML_ERROR}")


def test_many_collections_at_shallow_depth_are_read(tmp_path, capsys, monkeypatch):
    eves = ", ".join(
        f"{{lambda: {0.05 + 0.01 * (k % 9)}, bias: 0.5, settings: mub}}"
        for k in range(2_600)
    )
    path = tmp_path / "wide.yaml"
    path.write_text(f"mode: chain\neves: [{eves}]\n", encoding="utf-8")
    text = path.read_text(encoding="utf-8")
    assert sum(map(text.count, "[{-:?")) > seqeve.scenario.MAX_NESTING

    def chain():
        code = main(["chain", "--scenario", str(path)])
        return code, capsys.readouterr()

    code, first = chain()
    assert code == 0 and first.out.count("\n") == 2_600 + 4
    # The document nests 3 deep: a cap of 3 reads it alike, a cap of 2 does not.
    monkeypatch.setattr(seqeve.scenario, "MAX_NESTING", 3)
    assert chain() == (0, first)
    monkeypatch.setattr(seqeve.scenario, "MAX_NESTING", 2)
    code, second = chain()
    assert code == 2
    assert second.err == (
        f"input error: {YAML_ERROR}nested deeper than 2 levels)\n"
    )


def test_a_block_document_past_the_cap_is_refused_by_the_guard(
    tmp_path, capsys, monkeypatch
):
    """The line reader declines a block document nested past MAX_NESTING,
    and the guard in front of PyYAML refuses it as at any depth."""
    text = "mode: chain\na:\n  b:\n    c:\n      d: x\n"  # 4 deep
    path = tmp_path / "deep.yaml"
    path.write_text(text, encoding="utf-8")
    tag_of = seqeve.scenario._implicit(yaml.SafeLoader)
    monkeypatch.setattr(seqeve.scenario, "MAX_NESTING", 4)
    assert seqeve.scenario._block(text, tag_of) is not None
    monkeypatch.setattr(seqeve.scenario, "MAX_NESTING", 3)
    assert seqeve.scenario._block(text, tag_of) is None
    for fallback in FALLBACKS:
        with pytest.MonkeyPatch.context() as mp:
            if fallback:
                mp.delattr(yaml, "CSafeLoader", raising=False)
            assert main(["chain", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"input error: {YAML_ERROR}nested deeper than 3 levels)\n"
        )


# Loader equivalence ---------------------------------------------------------

# (theta, phi) of a direction.
directions = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))
states = st.one_of(
    st.builds(lambda: {"kind": "bell"}),
    st.floats(0.0, math.pi / 4, exclude_min=True).map(
        lambda theta: {"kind": "tilted", "theta": theta}
    ),
)
sharpness = st.floats(0.0, 1.0, exclude_min=True)
biases = st.floats(0.0, 1.0)


def _explicit(pair):
    angles = [{"theta": theta, "phi": phi} for theta, phi in pair]
    return {"settings": "explicit", "directions": angles}


def _output(fmt, path):
    return {"format": fmt} if path is None else {"format": fmt, "path": path}


def _scenario_doc(state, alice, bob, eves, output):
    """A scenario document with every section, and ``eves`` only if any."""
    doc = {"mode": "chain", "state": state, "alice": alice, "bob": bob}
    if eves:
        doc["eves"] = eves
    doc["output"] = output
    return doc


def documents_of(directions):
    """Scenario documents in plain radians, whose explicit settings take
    their directions from ``directions``; every dict is a new one, so no
    dump of a document has an alias."""
    parties = st.one_of(
        st.builds(lambda: {"settings": "mub"}),
        st.tuples(directions, directions).map(_explicit),
    )
    eves = st.builds(
        lambda lam, bias, party: {"lambda": lam, "bias": bias, **party},
        sharpness, biases, parties,
    )
    return st.builds(
        _scenario_doc,
        states,
        parties,
        parties,
        st.lists(eves, max_size=4),
        st.builds(
            _output,
            st.sampled_from(("csv", "json")),
            # A NUL cannot be in a file name, so output.path rejects it.
            st.one_of(
                st.none(),
                st.text(st.characters(blacklist_characters="\0"), max_size=12),
            ),
        ),
    )


documents = documents_of(directions)

WRONG_TYPES = ["abc", "deg:abc", True, None, 7, [], {}, [1, 2], {"theta": 0.1}]
NON_FINITE = [math.nan, math.inf, -math.inf, "deg:nan", "deg:inf", "deg:-inf"]


def _paths(node, path=()):
    """Every node of a parsed document, as a key/index path from the root."""
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _paths(value, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def near_valid_documents(draw):
    """A valid document with one fault: wrong type, non-finite angle,
    list where a mapping belongs, an unclosed flow collection, or a %YAML
    directive (of a version either loader may read or refuse)."""
    text = dumps_scenario(draw(documents))
    doc = yaml.safe_load(text)
    kind = draw(
        st.sampled_from(
            ("wrong-type", "non-finite", "list-for-mapping", "unclosed", "directive")
        )
    )
    if kind == "directive":
        return f"%YAML {draw(st.sampled_from(YAML_VERSIONS))}\n---\n{text}"
    if kind == "unclosed":
        text = yaml.safe_dump(doc, sort_keys=True, default_flow_style=True)
        closers = [i for i, ch in enumerate(text) if ch in "]}"]
        cut = draw(st.sampled_from(closers))
        return text[:cut] + text[cut + 1 :]
    path = draw(st.sampled_from(list(_paths(doc))))
    if kind == "wrong-type":
        value = draw(st.sampled_from(WRONG_TYPES))
    elif kind == "non-finite":
        value = draw(st.sampled_from(NON_FINITE))
    else:
        node = _at(doc, path)
        value = list(node.values()) if isinstance(node, dict) else [node]
    flow = draw(st.sampled_from((False, True, None)))
    return yaml.safe_dump(
        _replaced(doc, path, value), sort_keys=True, default_flow_style=flow
    )


def _parsed(text, *, fallback):
    """loads_scenario's result as ``scenario_values``, or its error up to the
    parser's own detail."""
    with pytest.MonkeyPatch.context() as mp:
        if fallback:
            mp.delattr(yaml, "CSafeLoader")
        try:
            return scenario_values(loads_scenario(text))
        except ScenarioError as exc:
            return _error_prefix(str(exc))


def _error_prefix(message):
    head, sep, _ = message.partition(YAML_ERROR)
    return head + sep if sep else message


def _chain_run(text, workdir, *, fallback):
    """(exit code, stderr prefix, output bytes) of ``seqeve chain`` on ``text``."""
    scenario, out = workdir / "scenario.yaml", workdir / "out.csv"
    scenario.write_text(text, encoding="utf-8")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        if fallback:
            mp.delattr(yaml, "CSafeLoader")
        code = main(["chain", "--scenario", str(scenario), "--out", str(out)])
    written = out.read_bytes() if out.exists() else None
    return code, _error_prefix(err.getvalue()), written


@needs_libyaml
@LOADERS
@given(documents)
def test_both_loaders_restore_dumped_scenarios(doc):
    """Both read the arrays that the library's setting classes fill."""
    text = dumps_scenario(doc)
    expected = scenario_values(read_document(doc))
    assert _parsed(text, fallback=False) == expected
    assert _parsed(text, fallback=True) == expected


@needs_libyaml
@LOADERS
@given(near_valid_documents())
def test_both_loaders_agree_on_near_valid_documents(tmp_path_factory, text):
    workdir = tmp_path_factory.mktemp("loaders", numbered=True)
    assert _parsed(text, fallback=False) == _parsed(text, fallback=True)
    fast = _chain_run(text, workdir, fallback=False)
    assert fast == _chain_run(text, workdir, fallback=True)
    assert fast[0] in (0, 2, 3)


# Both routes against yaml.load ---------------------------------------------


# Wall time for one read of a small document, which takes milliseconds, so
# that a read without end fails instead of hanging the suite.
READ_BUDGET_S = 5


def _decline(text, tag_of):
    return None


def _read(text, *, fallback, lines=True):
    """repr of the document that ``_document`` reads from ``text``, or its
    error; with ``lines`` off the line reader declines every text.  A read
    past READ_BUDGET_S gives its TimeoutError, which no loader gives."""
    with pytest.MonkeyPatch.context() as mp:
        if fallback:
            mp.delattr(yaml, "CSafeLoader", raising=False)
        if not lines:
            mp.setattr(seqeve.scenario, "_block", _decline)
        try:
            with wall_clock_budget(READ_BUDGET_S):
                # repr tells 1, 1.0 and True apart, and -0.0 from 0.0; NaN equals NaN.
                return repr(seqeve.scenario._document(text))
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"


SCALAR_FORMS = [
    # Numbers.
    "1_000", "0b101", "017", "0o17", "0x1F", "1:30", "1:30.5", "-.inf", ".NaN",
    "+1.5e+3", "-0.0", "0.0", "1e999", "-1e999", "12", "0.25", "-7",
    # Booleans, nulls and text.
    "yes", "No", "on", "~", "null", "abc", '"1.5"', "'x'", "deg:30",
    # Tagged and timestamped values, some of them bad.
    "2001-02-30", "2001-12-14", "2001-12-14t21:59:43.10-05:00", '!!int "0x"',
    '!!float "-"', '!!float "1__0"', '!!float "--1"', '!!float " -1"',
    '!!float ""', '!!int ""', "!!bool x", "!!timestamp x", "!!str 1",
    "!!float 3", "!!int 0x1F", "!!null x", "!!binary aGVsbG8=",
]
# Forms that the line reader declines: anchors, aliases, merges and tags.
UNMODELLED_FORMS = [
    "&s [1, 2]", "*s", "&m {x: 1}", "*m", "&v 5", "*v", "&c [*c]",
    "{<<: {x: 1}, y: 2}", "{<<: [{x: 1}, {x: 3}], y: 2}", "{<<: 1}",
    "{=: 1}", "=", "!!set {a, b}", "!!omap [a: 1]", "!!pairs [a: 1]",
    "!!str [a]", "!!seq x", "!!map x", "!foo x", "!!python/tuple [1]",
]
KEY_FORMS = [
    "a", "b", "1", "1.0", "true", "~", '"1"', "!!int 1", '!!int "0x"', "<<", "=", "[a]",
    "!!seq x",
]
WHOLE_DOCUMENTS = [
    "",
    "--- 1\n--- 2\n",
    "# only a comment\n",
    "1: a\n1.0: b\ntrue: c\n",
    "a: 1\na: 2\n",
    # A constructor that went depth first would raise the first error.
    'a: [[!!int "0x"]]\nb: [!!float "-"]\n',
    'a: [!!int "0x"]\nb: [[!!float "-"]]\n',
    # Keys are read before their values.
    '!!int "0x": !!float "-"\n',
    "? [a]\n: 1\n",
    "? {a: 1}\n: 2\n",
    "base: &b {x: !!int \"0x\"}\nm: {y: !!float \"-\", <<: *b}\n",
    "a: &x {self: *x}\n",
]


def _flow_seq(items):
    return "[" + ", ".join(items) + "]"


@st.composite
def yaml_forms(draw):
    """A mapping of number, boolean, null, tagged and unmodelled forms, in
    block or flow position, or one of the whole documents above."""
    if draw(st.booleans()):
        return draw(st.sampled_from(WHOLE_DOCUMENTS))
    scalars = st.sampled_from(SCALAR_FORMS)
    values = st.one_of(
        scalars,
        st.sampled_from(UNMODELLED_FORMS),
        st.lists(scalars, max_size=3).map(_flow_seq),
        st.lists(st.tuples(st.sampled_from(KEY_FORMS), scalars), max_size=2).map(
            lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"
        ),
        st.just(""),  # an empty value is null
    )
    entries = draw(
        st.lists(st.tuples(st.sampled_from(KEY_FORMS), values), min_size=1, max_size=4)
    )
    return "".join(f"{key}: {value}\n" for key, value in entries)


# SafeLoader always; CSafeLoader too where PyYAML is built with libyaml.
FALLBACKS = (False, True) if hasattr(yaml, "CSafeLoader") else (True,)


# Documents whose graph is a cycle, and what the safe loader reads: a
# reader without a node cache would read such an alias forever.
CYCLIC_DOCUMENTS = {
    "a: &c [1, *c]\n": "{'a': [1, [...]]}",
    "a: &c [*c]\n": "{'a': [[...]]}",
    "a: &x {self: *x}\n": "{'a': {'self': {...}}}",
}
# Reads each argument under libyaml, if PyYAML has it, and then under the
# pure-Python loader.  The reads get 1 GiB more address space than the
# imports left mapped, so a read that never ends stops at MemoryError.
CYCLIC_READER = """\
import os, sys
import yaml
import seqeve.scenario

if os.path.exists("/proc/self/statm"):
    import resource
    with open("/proc/self/statm") as statm:
        mapped = int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard == resource.RLIM_INFINITY or mapped + 2**30 < hard:
        resource.setrlimit(resource.RLIMIT_AS, (mapped + 2**30, hard))
for fallback in (False, True):
    if fallback:
        if not hasattr(yaml, "CSafeLoader"):
            break
        del yaml.CSafeLoader
    for text in sys.argv[1:]:
        print(repr(seqeve.scenario._document(text)), flush=True)
"""


def test_cyclic_documents_are_read_in_bounded_time():
    """Read in a child interpreter, so that a reader that loops on a cycle
    fails at the timeout or at the memory cap instead of hanging the suite."""
    src = str(Path(seqeve.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CYCLIC_READER, *CYCLIC_DOCUMENTS],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == list(CYCLIC_DOCUMENTS.values()) * len(FALLBACKS)


@DOCUMENTS
@given(
    st.one_of(
        documents.map(dumps_scenario), near_valid_documents(), yaml_forms()
    )
)
def test_document_builds_what_yaml_load_builds(text):
    """``_document``, with and without the line reader, builds what
    ``yaml.load`` builds, or fails with its error; a text with a '%' may
    also fail the ``%YAML`` version check."""
    for fallback in FALLBACKS:
        expected = _read(text, fallback=fallback, lines=False)
        if "%" not in text:
            base = yaml.SafeLoader if fallback else yaml.CSafeLoader
            assert expected == _loaded(text, base)
        assert _read(text, fallback=fallback) == expected


def _anchored(text):
    """``text``, a dumped scenario, written again with anchors, aliases and
    merges.  A direction mapping equal to an earlier one becomes an alias of
    it.  Each later Eve merges the first Eve's mapping and keeps only her
    pairs that differ from it, unless the merge would bring in a
    ``directions`` key that she must not have."""
    root = yaml.compose(text)
    sections = {key.value: value for key, value in root.value}
    parties = [sections[name] for name in ("alice", "bob") if name in sections]
    if "eves" in sections:
        parties += sections["eves"].value
    firsts = {}
    for party in parties:
        for key, value in party.value:
            if key.value == "directions":
                value.value = [
                    firsts.setdefault(tuple((k.value, v.value) for k, v in d.value), d)
                    for d in value.value
                ]
    eves = sections["eves"].value if "eves" in sections else []
    for eve in eves[1:]:
        first = {key.value: value for key, value in eves[0].value}
        own = {key.value: value for key, value in eve.value}
        if "directions" in first and "directions" not in own:
            continue
        kept = [
            (key, value)
            for key, value in eve.value
            if not _same_scalar(value, first.get(key.value))
        ]
        merge = ScalarNode("tag:yaml.org,2002:merge", "<<")
        eve.value = [(merge, eves[0])] + kept
    return yaml.serialize(root, Dumper=yaml.SafeDumper)


def _same_scalar(node, other):
    return (
        isinstance(node, ScalarNode)
        and isinstance(other, ScalarNode)
        and (node.tag, node.value) == (other.tag, other.value)
    )


# Documents whose directions come from a pool of up to three, so some repeat.
pooled_documents = st.lists(directions, min_size=1, max_size=3).flatmap(
    lambda pool: documents_of(st.sampled_from(pool))
)


@LOADERS
@given(pooled_documents)
def test_anchored_and_merged_scenarios_read_back(doc):
    text = _anchored(dumps_scenario(doc))
    expected = scenario_values(read_document(doc))
    for fallback in FALLBACKS:
        assert _parsed(text, fallback=fallback) == expected


def _perfbench_shaped(n_eves):
    """A tilted chain of explicit, biased Eves, one flow mapping per direction."""
    lines = [
        "mode: chain",
        "state:\n  kind: tilted\n  theta: 0.584598",
        "alice:\n  settings: explicit\n  directions:",
        "    - {theta: 1.958342, phi: 6.048998}\n    - {theta: 2.643923, phi: 3.663264}",
        "bob:\n  settings: mub",
        "eves:",
    ]
    for m in range(n_eves):
        lines += [
            f"  - lambda: {0.1 + 0.0125 * m:.6f}",
            "    settings: explicit",
            f"    bias: {0.2 + 0.009 * m:.6f}",
            "    directions:",
            f"      - {{theta: {0.04 * m:.6f}, phi: {0.09 * m:.6f}}}",
            f"      - {{theta: {3.1 - 0.04 * m:.6f}, phi: {0.1:.6f}}}",
        ]
    return "\n".join(lines) + "\n"


# The calls of yaml that read a text.
YAML_READS = ("scan", "parse", "compose", "load")


@pytest.mark.parametrize("fallback", [False, True])
def test_a_chain_scenario_is_read_without_yaml_or_loaded_once(monkeypatch, fallback):
    """The line reader reads a 64-Eve file with no yaml call; behind a
    directive, which it declines, the file is scanned and loaded once."""
    if fallback:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    for prefix, expected in (("", [0, 0, 0, 0]), (DECLINED, [1, 0, 0, 1])):
        text = prefix + _perfbench_shaped(64)
        with pytest.MonkeyPatch.context() as mp:
            calls = [count_calls(mp, yaml, name) for name in YAML_READS]
            spec, _ = loads_scenario(text)
        assert spec.n_eves == 64
        assert list(map(len, calls)) == expected
        assert repr(seqeve.scenario._document(text)) == repr(yaml.safe_load(text))


def test_the_readme_example_is_read_by_the_line_reader(monkeypatch):
    """README's example scenario, comments and all, is read with no yaml
    call, as ``yaml.safe_load`` reads it."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    text = re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)
    assert "#" in text
    expected = yaml.safe_load(text)
    calls = [count_calls(monkeypatch, yaml, name) for name in YAML_READS]
    assert repr(seqeve.scenario._document(text)) == repr(expected)
    assert calls == [[]] * len(YAML_READS)
    assert loads_scenario(text)[0].n_eves == 2


# One document per class of graph that the line reader declines.
UNMODELLED_DOCUMENTS = {
    "shared-sequence": "a: &s [1, 2]\nb: *s\n",
    "shared-mapping": "a: &m {x: 1}\nb: [*m]\n",
    "cycle": "a: &c [1, *c]\n",
    "merge-key": "base: &b {x: 1}\nm: {<<: *b, y: 2}\n",
    "value-key": "a: {=: 1, b: 2}\n",
    "sequence-key": "? [a, b]\n: 1\n",
    "mapping-key": "? {a: 1}\n: 1\n",
    "set": "a: !!set {x, y}\n",
    "omap": "a: !!omap [x: 1, y: 2]\n",
    "pairs": "a: !!pairs [x: 1, x: 2]\n",
    "scalar-tag-on-a-sequence": "a: !!str [x]\n",
    "sequence-tag-on-a-scalar": "a: !!seq x\n",
    "unknown-tag": "a: !thing x\n",
    "merge-key-after-a-bad-scalar": 'a: {y: !!int "0x", <<: {x: !!float "-"}}\n',
    "sequence-tag-on-a-scalar-key": "!!seq x: 1\n",
    "merged-scenario": (GOLDEN / "chain_merge.yaml").read_text(encoding="utf-8"),
}


@pytest.mark.parametrize("fallback", [pytest.param(False, marks=needs_libyaml), True])
@pytest.mark.parametrize("doc", UNMODELLED_DOCUMENTS.values(), ids=UNMODELLED_DOCUMENTS)
def test_each_unmodelled_graph_is_loaded_once(monkeypatch, doc, fallback):
    """One yaml.load and no other yaml call reads the document, or fails
    with the error, that yaml.load gives."""
    base = yaml.SafeLoader if fallback else yaml.CSafeLoader
    expected = _loaded(doc, base)
    calls = [count_calls(monkeypatch, yaml, name) for name in YAML_READS]
    assert _read(doc, fallback=fallback) == expected
    assert list(map(len, calls)) == [0, 0, 0, 1]


@pytest.mark.parametrize("directive, scans", [("", 0), ("%YAML 1.2\n---\n", 1)])
def test_only_a_document_with_a_percent_sign_is_scanned(monkeypatch, directive, scans):
    """Every directive starts with '%', so a document without one is read by
    one parser, not two.  The anchor makes the line reader decline."""
    text = directive + _perfbench_shaped(64).replace("mode:", "mode: &mode", 1)
    scanned = count_calls(monkeypatch, yaml, "scan")
    assert repr(seqeve.scenario._document(text)) == repr(yaml.safe_load(text))
    assert len(scanned) == scans


def test_a_read_runs_no_cyclic_collection():
    """The transient node graph gives the collector nothing to free, so the
    read runs no collection, by the line reader or by PyYAML; one that left
    the collector on ran some 400 at these thresholds on a 64-Eve document."""
    texts = [_perfbench_shaped(64), DECLINED + _perfbench_shaped(64)]
    for text in texts:
        seqeve.scenario._document(text)  # the first read imports, which collects
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    thresholds = gc.get_threshold()
    for text in texts:
        gc.callbacks.append(record)
        gc.set_threshold(10, 10**6, 10**6)
        try:
            seqeve.scenario._document(text)
        finally:
            gc.set_threshold(*thresholds)
            gc.callbacks.remove(record)
    assert started == []


def _reader_fault(text, tag_of):
    raise KeyError("reader")


# Each way out of a read: its text, nesting cap, line reader (None: its
# own), and what it raises.
_CAP = seqeve.scenario.MAX_NESTING
WAYS_OUT = {
    "document": ("a: 1\n", _CAP, None, None),
    "line-reader": ("a: b\n", _CAP, None, None),
    "syntax-error": ("a: [\n", _CAP, None, ScenarioError),
    "nesting-guard": (_nested(3), 2, None, ScenarioError),
    "reader-fault": ("a: b\n", _CAP, _reader_fault, KeyError),
}


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("way_out", WAYS_OUT.values(), ids=WAYS_OUT)
def test_a_read_leaves_the_collector_as_it_found_it(monkeypatch, collecting, way_out):
    text, cap, reader, error = way_out
    monkeypatch.setattr(seqeve.scenario, "MAX_NESTING", cap)
    if reader:
        monkeypatch.setattr(seqeve.scenario, "_block", reader)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        with pytest.raises(error) if error else contextlib.nullcontext():
            seqeve.scenario._document(text)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "value", ['!!float ""', '!!int ""', '!!int "-"', "!!bool x", "!!timestamp x"]
)
def test_a_malformed_tagged_scalar_exits_2(tmp_path, capsys, value):
    path = tmp_path / "s.yaml"
    path.write_text(f"mode: chain\neves:\n  - lambda: {value}\n", encoding="utf-8")
    assert main(["chain", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {YAML_ERROR}")


@pytest.mark.parametrize("error", [KeyError, AttributeError, ValueError])
def test_a_fault_in_the_line_reader_is_not_bad_input(tmp_path, capsys, monkeypatch, error):
    """Only PyYAML's errors are ``not valid YAML``: a fault of the line
    reader's own leaves the read as it is, and exits 5, an internal error."""

    def broken(text, tag_of):
        raise error("reader")

    monkeypatch.setattr(seqeve.scenario, "_block", broken)
    with pytest.raises(error):
        seqeve.scenario._document(CHAIN_DOC)
    path = tmp_path / "s.yaml"
    path.write_text(CHAIN_DOC, encoding="utf-8")
    assert main(["chain", "--scenario", str(path)]) == 5
    expected = {
        KeyError: "internal error: KeyError: 'reader'\n",
        AttributeError: "internal error: AttributeError: reader\n",
        ValueError: "internal error: reader\n",
    }
    assert capsys.readouterr().err == expected[error]


# Numbers and null sections --------------------------------------------------

SPELLED_DOC = """\
mode: chain
state: {kind: tilted, theta: THETA}
eves:
  - lambda: LAMBDA
    bias: BIAS
    settings: explicit
    directions:
      - {theta: 0.0, phi: PHI}
      - {theta: 1.5}
"""
DOTTED = {"THETA": "0.5", "LAMBDA": "0.1", "BIAS": "0.25", "PHI": "1.0"}


def _spelled(**spelling):
    text = SPELLED_DOC
    for key, value in {**DOTTED, **spelling}.items():
        text = text.replace(key, value)
    return text


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("directive", ["", "%YAML 1.2\n---\n"])
@pytest.mark.parametrize(
    "spelling",
    [
        {"THETA": "5e-1", "LAMBDA": "1e-1", "BIAS": "2.5e-1", "PHI": "1e0"},
        {"THETA": '"0.5"', "LAMBDA": "'0.1'", "BIAS": '"0.25"', "PHI": '"1"'},
    ],
    ids=["exponent", "quoted"],
)
def test_any_float_spelling_is_a_number(spelling, directive, fallback):
    if not fallback and not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML is built without libyaml")
    expected = scenario_values(loads_scenario(_spelled()))
    assert _parsed(directive + _spelled(**spelling), fallback=fallback) == expected


NUMBER_FIELDS = {
    "eves[0].lambda": "mode: chain\neves:\n  - lambda: VALUE\n",
    "eves[0].bias": "mode: chain\neves:\n  - {lambda: 0.5, bias: VALUE}\n",
    "state.theta": "mode: chain\nstate: {kind: tilted, theta: VALUE}\n",
    "bob.directions[1].phi": (
        "mode: chain\nbob:\n  settings: explicit\n"
        "  directions: [{theta: 0.0}, {theta: 1.5, phi: VALUE}]\n"
    ),
}


@pytest.mark.parametrize("value", ["abc", '""', "true", "~"])
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_text_bools_and_null_are_not_numbers(tmp_path, capsys, field, value):
    path = tmp_path / "s.yaml"
    path.write_text(NUMBER_FIELDS[field].replace("VALUE", value), encoding="utf-8")
    assert main(["chain", "--scenario", str(path)]) == 2
    message = f"input error: {field}: expected a number, got "
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("section", ["state", "alice", "bob", "eves", "output"])
def test_a_null_section_is_an_absent_one(section):
    absent = scenario_values(read_document({"mode": "chain"}))
    assert scenario_values(loads_scenario(f"mode: chain\n{section}: ~\n")) == absent


def _tilt_texts(x):
    return st.sampled_from([repr(x), f"{x:e}", f"deg:{math.degrees(x)!r}"])


@LOADERS
@given(st.one_of(st.floats(), st.floats(0.0, 1.0)).flatmap(_tilt_texts))
def test_command_line_and_scenario_read_a_tilt_alike(text):
    """--theta1 and state.theta accept or refuse the same text, and a value
    they accept reaches the range check as the same float."""
    checked = {seqeve.cli: [], seqeve.scenario: []}
    with pytest.MonkeyPatch.context() as mp:
        for module, seen in checked.items():

            def spy(theta, seen=seen):
                seen.append(theta)
                check_tilt_angle(theta)

            mp.setattr(module, "check_tilt_angle", spy)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            argv = ["unbounded", "--theta1", text, "--lambdas", "0.3"]
            by_cli = main(argv) != 2
        try:
            loads_scenario(f"mode: chain\nstate:\n  kind: tilted\n  theta: {text}\n")
            by_file = True
        except ScenarioError:
            by_file = False
    assert by_cli == by_file
    assert checked[seqeve.cli] == checked[seqeve.scenario]


# The line reader -----------------------------------------------------------

# Scalars that the line reader reads, most of them, and RESOLVED_TEXTS below.
PLAIN_TEXTS = [
    "x", "mub", "a b", "a  b", "0.5", "-1.25", "+.5", "1.5e+3", "1.", "-0.0",
    "deg:80", "deg:-12.5", "deg:30", "a:b", "a::b", "/tmp/out.csv", "-x", "x-",
    "~x", "=x", "<x", "1e-3", "0.1.2",
]
BLOCK_KEYS = ["a", "b", "theta", "phi", "deg:30", "1.5"]


@st.composite
def block_scalars(draw, common):
    """A scalar from ``common`` seven times in eight, else from RESOLVED_TEXTS."""
    if draw(st.integers(0, 7)):
        return draw(st.sampled_from(common))
    return draw(st.sampled_from(RESOLVED_TEXTS))


def _collection(draw, col, depth, first):
    """The lines of a block mapping or sequence whose entries sit at column
    ``col``, and whose first line starts with ``first``."""
    keys, values = block_scalars(BLOCK_KEYS), block_scalars(PLAIN_TEXTS)
    sequence = draw(st.booleans())
    lines = []
    for i in range(draw(st.integers(1, 3))):
        head = (first if i == 0 else " " * col) + (
            "- " if sequence else draw(keys) + ":"
        )
        forms = ("scalar", "flow", "block") if depth < 3 else ("scalar", "flow")
        form = draw(st.sampled_from(forms))
        if form == "scalar":
            lines.append(head + ("" if sequence else " ") + draw(values))
        elif form == "flow":
            pairs = draw(st.lists(st.tuples(keys, values), min_size=1, max_size=3))
            flow = ", ".join(f"{key}: {value}" for key, value in pairs)
            lines.append(head + ("" if sequence else " ") + "{" + flow + "}")
        elif sequence:
            # A compact item: '- key: value' or '- - value' on the entry's line.
            lines += _collection(draw, col + 2, depth + 1, head)
        else:
            # Step 0 puts a sequence at its key's column, or a mapping or a
            # value beside it.
            step = draw(st.integers(0, 3))
            lines.append(head)
            if draw(st.integers(0, 3)):
                lines += _collection(draw, col + step, depth + 1, " " * (col + step))
            else:
                lines.append(" " * (col + step) + draw(values))
        if draw(st.integers(0, 4)) == 0:
            lines.append(" " * draw(st.integers(0, 3)))
    return lines


# Comment lines, and tails of a line: a '#' after a tab or inside a word
# starts no comment, and a '{' or ': ' in a comment is no part of the text.
COMMENT_LINES = ["# x", "#", "  # a: b", " #{", "\t# x", "#---"]
COMMENT_TAILS = [" # x", "  #", " # a: b", " #{c: d}", " # - x", "\t# x", "#c"]


@st.composite
def block_documents(draw):
    """Block-style text: mappings and sequences nested at mixed indents,
    compact items, one-line flow mappings, values on their own line, blank
    lines and repeated keys; one draw in eight moves a line one column in or
    out, and one in eight puts a document marker in front of a line.  One
    draw in two adds comment lines or tails of a line."""
    col = draw(st.integers(0, 2))
    lines = _collection(draw, col, 0, " " * col)
    edit = draw(st.integers(0, 7))
    at = draw(st.integers(0, len(lines) - 1))
    if edit == 0:
        line = lines[at]
        lines[at] = line[1:] if line[:1] == " " and draw(st.booleans()) else " " + line
    elif edit == 1:
        lines[at] = draw(st.sampled_from(("---", "..."))) + " " + lines[at]
    for _ in range(draw(st.integers(0, 3)) if draw(st.booleans()) else 0):
        at = draw(st.integers(0, len(lines)))
        if at == len(lines) or draw(st.booleans()):
            lines.insert(at, draw(st.sampled_from(COMMENT_LINES)))
        else:
            lines[at] += draw(st.sampled_from(COMMENT_TAILS))
    return "\n".join(lines) + "\n"


def _loaded(text, base):
    """repr of ``yaml.load``'s document of ``text``, or the ScenarioError
    that ``_document`` gives for its error."""
    try:
        return repr(yaml.load(text, Loader=base))
    # The constructor's errors on a malformed tagged scalar: !!int "", !!bool x.
    except (yaml.YAMLError, ValueError, LookupError, AttributeError) as exc:
        return f"ScenarioError: {YAML_ERROR}{exc})"


# Of the draws of block_documents, the least share that the line reader reads.
READ_SHARE = 0.25


def test_the_line_reader_reads_block_documents_as_yaml_load():
    """Under both loaders a block document reads as ``yaml.load`` reads it,
    or fails with its error, and the line reader reads a fixed share."""
    read = []

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(block_documents())
    # Both parsers allow a key 1024 characters.
    @example("a" * 1024 + ": b\n")
    @example("a" * 1025 + ": b\n")
    @example("x: {" + "a" * 1025 + ": b}\n")
    # A line that starts a document alone is a scalar to the reader.
    @example("---\n")
    @example("--- a\n")
    # A sign before a leading dot makes a string, not a decimal.
    @example("- +.5\n")
    # Word keys of a flow mapping of decimals that are a bool and an int.
    @example("- {y: 0.5, 1: 1.5}\n")
    # Comments: whole lines, tails after a space, and '#' that starts none.
    @example("# x\na: b\n  # x\n")
    @example("a: b # x\nc: 0.5  # y: z\n")
    @example("a: b\t# x\n")
    @example("\t# x\na: b\n")
    @example("a: b#c\n")
    @example("- # x\n")
    @example("- a # x\n- # y\n")
    @example("a: # x\n  b: c\n")
    @example("a: # x\n- b\n")
    @example("a: {b: c, #{d: e}}\n")
    @example("a: {b: 0.5, c: 1.5} #}\n")
    @example("a: b #\n  c\n")
    def reads_alike(text):
        tag_of = seqeve.scenario._implicit(yaml.SafeLoader)
        read.append(seqeve.scenario._block(text, tag_of) is not None)
        for fallback in FALLBACKS:
            base = yaml.SafeLoader if fallback else yaml.CSafeLoader
            assert _read(text, fallback=fallback) == _loaded(text, base)

    reads_alike()
    assert sum(read) >= READ_SHARE * len(read), (sum(read), len(read))


# Implicit tags from one table -----------------------------------------------

# Plain scalars that reach each kind of resolver, an empty one included.
RESOLVED_TEXTS = [
    "", "~", "null", "Null", "<<", "=", ".inf", "-.Inf", "+.INF", ".nan", "1_0",
    "12:30", "1:30.5", "-1:30", "0x1F", "0o17", "017", "0b101", "+1.5e+3",
    "-0.0", ".5", "1.", "2001-12-14", "2001-12-14t21:59:43.10-05:00",
    "2001-12-14 21:59:43.10 -5", "yes", "No", "ON", "off", "true", "False",
    "y", "n", "abc", " 1", "1 ", "deg:30", "!x", "&a", "*b",
    # The edges of the decimal rule: no sign before a leading dot, and an
    # exponent only with its sign.
    "+.5", "-.5", "+.5e-3", "1.0e5", "1.e+5", "0.", "-0.", "00.50", "+1.5",
]
scalar_texts = st.one_of(
    st.sampled_from(RESOLVED_TEXTS),
    st.text(alphabet="0123456789.:_-+eExXoObB~<=ntfyNTFYl ", max_size=10),
    st.text(max_size=6),
)
BASES = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


def _written(kind, implicit, value):
    """A one-key document whose node of ``kind`` holds ``value``: written
    plain when ``implicit`` marks it plain, else double-quoted, and tagged
    ``!!str`` when it marks it neither plain nor quoted."""
    if not implicit[0]:
        value = yaml.dump(value, Dumper=yaml.SafeDumper, default_style='"', width=1 << 16)
        value = value.rstrip("\n")
        if not implicit[1]:
            value = "!!str " + value
    if kind is ScalarNode:
        return f"k: {value}\n"
    if kind is SequenceNode:
        return f"k:\n- {value}\n"
    return f"k:\n  {value}: v\n"


@pytest.mark.parametrize(
    "implicit",
    [(plain, quoted) for plain in (True, False) for quoted in (True, False)],
    ids=["plain-quoted", "plain", "quoted", "neither"],
)
@pytest.mark.parametrize("kind", [ScalarNode, SequenceNode, MappingNode])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(value=scalar_texts)
def test_the_table_resolves_as_pyyaml_resolves(kind, implicit, value):
    """The line reader's table gives a plain scalar the tag that PyYAML's
    resolver gives it.  In a node of each kind, the reader reads a plain
    scalar as ``yaml.load`` does or declines it, and declines each quoted or
    tagged one, which the table would mistype: PyYAML resolves only plain
    scalars by their text."""
    text = _written(kind, implicit, value)
    for base in BASES:
        tag_of = seqeve.scenario._implicit(base)
        loader = base("")
        try:
            expected = Resolver.resolve(loader, kind, value, implicit)
        finally:
            loader.dispose()
        if kind is ScalarNode and implicit[0]:
            assert tag_of(value) == expected
        read = seqeve.scenario._block(text, tag_of)
        if read is None:
            continue
        assert implicit[0], f"read a non-plain scalar from {text!r}"
        # repr tells 1.0 from '1.0', and -0.0 from 0.0.
        assert repr(read) == repr(yaml.load(text, Loader=base))
        if kind is not ScalarNode:
            tags = {list: base.DEFAULT_SEQUENCE_TAG, dict: base.DEFAULT_MAPPING_TAG}
            assert tags[read["k"].__class__] == expected


# Texts near the decimal rule: signs, dots, exponents, underscores, colons.
decimal_texts = st.one_of(
    st.sampled_from(RESOLVED_TEXTS + PLAIN_TEXTS),
    st.text(alphabet="0123456789.+-eE_: ", max_size=8),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(decimal_texts)
@example("-0.")
@example("+.5")
def test_the_decimal_rule_types_only_what_yaml_types_a_float(text):
    """A text the rule reads is a float to both loaders, with the repr, the
    sign of zero included, that ``float`` gives it."""
    is_decimal, _ = seqeve.scenario._number_patterns()
    if not is_decimal(text):
        return
    for base in BASES:
        tag_of = seqeve.scenario._implicit(base)
        assert tag_of(text) == Resolver.DEFAULT_SCALAR_TAG.replace("str", "float")
        assert repr(yaml.load(text, Loader=base)) == repr(float(text))


SCENARIO_TEXTS = {
    **{
        str(path.relative_to(GOLDEN.parent)): path.read_text(encoding="utf-8")
        for path in sorted(GOLDEN.parent.glob("**/*.yaml"))
    },
    "CHAIN_DOC": CHAIN_DOC,
    "EXPLICIT_DOC": EXPLICIT_DOC,
    "SPELLED_DOC": _spelled(),
    "perfbench-shaped": _perfbench_shaped(8),
    **UNMODELLED_DOCUMENTS,
}


def _commented(text):
    """``text`` with a comment line in front, and a comment after its first line."""
    first, _, rest = text.partition("\n")
    return f"# a scenario\n{first}  # the first line\n{rest}"


@pytest.mark.parametrize("text", SCENARIO_TEXTS.values(), ids=SCENARIO_TEXTS)
def test_every_scenario_reads_as_yaml_load_reads(text):
    """Each scenario, and the same text with comments, reads as yaml.load
    reads it; the line reader reads the commented text when it reads the text."""
    commented = _commented(text)
    for fallback in FALLBACKS:
        base = yaml.SafeLoader if fallback else yaml.CSafeLoader
        expected = _loaded(text, base)
        assert _read(text, fallback=fallback) == expected
        loaded = _loaded(commented, base)
        assert _read(commented, fallback=fallback) == loaded
        # The comments move only the place that a parser's error names.
        assert loaded == expected or expected.startswith("ScenarioError")
    tag_of = seqeve.scenario._implicit(yaml.SafeLoader)
    read = seqeve.scenario._block(text, tag_of)
    assert repr(seqeve.scenario._block(commented, tag_of)) == repr(read)


# The one-pass Eve check ------------------------------------------------------


# Values that replace one field of a valid Eve: the bounds of each number
# field and the floats just past them, non-finite floats, values that are
# numbers only to the field checks or not at all, and other collections.
EVE_FIELD_VALUES = [
    0.0, -0.0, 1.0, math.pi, 2.0 * math.pi, math.nextafter(0.0, -1.0),
    math.nextafter(1.0, 2.0), math.nextafter(math.pi, 4.0),
    math.nextafter(2.0 * math.pi, 7.0), math.nan, math.inf, -math.inf,
    0, 1, True, False, None, "deg:30", "0.5", "x", "mub", "explicit",
    [], {}, [{"theta": 0.5}], [{"theta": 0.5}] * 3,
]


@st.composite
def eve_mappings(draw):
    """A valid Eve, explicit, MUB by default or MUB by name, with one fault
    one time in two: a field replaced, a key or item removed, or an unknown
    key or a third item added."""
    eve = {"lambda": draw(sharpness)}
    if draw(st.booleans()):
        eve["bias"] = draw(biases)
    if draw(st.integers(0, 3)):
        eve.update(_explicit(draw(st.tuples(directions, directions))))
    elif draw(st.booleans()):
        eve["settings"] = "mub"
    if draw(st.booleans()):
        return eve
    path = draw(st.sampled_from(list(_paths(eve))))
    action = draw(st.sampled_from(["replace", "remove", "add"]))
    if action == "replace" or not path:
        return _replaced(eve, path, draw(st.sampled_from(EVE_FIELD_VALUES)))
    eve = copy.deepcopy(eve)
    parent = _at(eve, path[:-1])
    if action == "remove":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent["psi"] = 0.5
    else:
        parent.append({"theta": 0.5})
    return eve


def _chain_of(eves, *, one_pass):
    """repr of ``scenario_values`` of a chain document of ``eves``, or the
    error message, with the one-pass check on or off."""
    with pytest.MonkeyPatch.context() as mp:
        document = {"mode": "chain", "eves": eves}
        mp.setattr(seqeve.scenario, "_document", lambda text: document)
        if not one_pass:
            mp.setattr(seqeve.scenario, "_plain_eve", lambda eve: None)
        try:
            return repr(scenario_values(loads_scenario("")))
        except ScenarioError as exc:
            return str(exc)


def _assert_one_reading(eves):
    """Each Eve the one-pass check accepts is read field by field with a
    bit-identical row, and the chain of ``eves`` reads, or fails, alike with
    the check on and off; whether the check accepted each Eve."""
    accepted = []
    for eve in eves:
        plain = seqeve.scenario._plain_eve(eve)
        accepted.append(plain is not None)
        if plain is not None:
            assert repr(seqeve.scenario._parse_eve(eve, "eves[0]")) == repr(plain)
    assert _chain_of(eves, one_pass=True) == _chain_of(eves, one_pass=False)
    return accepted


# Of the Eves drawn, the least share that the one-pass check accepts.
ONE_PASS_SHARE = 0.2


def test_the_one_pass_check_accepts_only_what_the_field_checks_accept():
    """An Eve the one-pass check accepts is accepted field by field with a
    bit-identical row, and any chain reads alike, or fails alike, either way."""
    accepted = []

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(eve_mappings(), min_size=1, max_size=3))
    @example([{"lambda": 1.0, "bias": 0.0, "settings": "mub"}])
    @example([{"lambda": 5e-324, "directions": [{"theta": math.pi}, {"theta": -0.0}],
               "settings": "explicit", "bias": 1.0}])
    def agrees(eves):
        accepted.extend(_assert_one_reading(eves))

    agrees()
    share = (sum(accepted), len(accepted))
    assert share[0] >= ONE_PASS_SHARE * share[1], share


FAULTLESS_EVES = [
    {"lambda": 0.5, "bias": 0.25, **_explicit([(0.5, 1.5), (2.0, 4.0)])},
    {"lambda": 1.0, "settings": "mub"},
]


@pytest.mark.parametrize("eve", FAULTLESS_EVES, ids=["explicit", "mub"])
def test_every_one_field_fault_reads_alike_either_way(eve):
    """Each field of an Eve, replaced by each of EVE_FIELD_VALUES or removed,
    or an unknown key beside it, gives one reading or one message."""
    for path in list(_paths(eve))[1:]:
        parent = copy.deepcopy(_at(eve, path[:-1]))
        del parent[path[-1]]
        variants = [_replaced(eve, path[:-1], parent)]
        if isinstance(parent, dict):
            variants.append(_replaced(eve, path[:-1], {**parent, "psi": 0.5}))
        variants += [_replaced(eve, path, value) for value in EVE_FIELD_VALUES]
        for faulted in variants:
            _assert_one_reading([faulted])
