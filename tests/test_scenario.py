"""Tests for scenario parsing, validation, and canonical serialization."""

import math

import pytest

from seqeve import Scenario, ScenarioError, loads_scenario
from seqeve.cli import main
from seqeve.scenario import dumps_scenario, to_chain_spec

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
    scenario = loads_scenario(CHAIN_DOC)
    assert scenario.mode == "chain"
    assert scenario.state.kind == "bell"
    assert [e.sharpness for e in scenario.eves] == [0.552, 0.602]
    spec = to_chain_spec(scenario)
    assert spec.n_eves == 2
    assert spec.input_bias == (0.5, 0.5)


def test_degree_prefix_converts():
    scenario = loads_scenario(EXPLICIT_DOC)
    assert scenario.state.theta == pytest.approx(math.pi / 6, abs=1e-12)
    assert scenario.alice.directions[1].theta == pytest.approx(
        math.pi / 2, abs=1e-12
    )
    assert scenario.eves[0].bias == 0.25


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
        first = loads_scenario(doc)
        second = loads_scenario(dumps_scenario(first))
        assert first == second
        # A second round trip is also stable.
        assert loads_scenario(dumps_scenario(second)) == second


def test_to_chain_spec_rejects_other_modes():
    with pytest.raises(ScenarioError, match="mode"):
        to_chain_spec(Scenario(mode="plan"))


def test_plan_mode_is_rejected(tmp_path, capsys):
    with pytest.raises(ScenarioError, match="^mode: "):
        loads_scenario("mode: plan\n")
    path = tmp_path / "plan.yaml"
    path.write_text("mode: plan\n", encoding="utf-8")
    assert main(["chain", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: mode: ")


def test_not_yaml_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="YAML"):
        loads_scenario("mode: [unclosed\n")
