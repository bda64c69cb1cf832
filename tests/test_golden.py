"""Byte-for-byte comparison of command output against files in tests/golden/.

A golden file is the stdout of ``seqeve <argv>`` for the argv listed next to
its name below, read by the one-pass argv reader and again, written
'--flag=value', by argparse; each chain golden is also printed from its
scenario read by PyYAML instead of the line reader.  Regenerate one only
when a change of output is intended, and say why in the change that does
it.
"""

from pathlib import Path

import pytest

from helpers import attached
from seqeve.cli import _plain_args, main

GOLDEN = Path(__file__).parent / "golden"
PI_4 = "0.7853981633974483"
PI_6 = "0.5235987755982988"
JSON = ["--format", "json"]
UNBOUNDED_PI = ["unbounded", "--theta1", PI_4, "--lambdas", PI_6]
UNBOUNDED_MIXED = ["unbounded", "--theta1", "0.6", "--lambdas", "0.3,0.5,0.7"]
# An even depth, so that the low halves of the leaf labels are not empty.
UNBOUNDED_MIXED4 = ["unbounded", "--theta1", "0.6", "--lambdas", "0.3,0.5,0.7,0.4"]
CHAIN_MIXED = ["chain", "--scenario", str(GOLDEN / "chain_mixed.yaml")]
# Bell state, MUB Alice, explicit Bob with a nonzero phi, and output.format
# json, so that --format csv overrides the scenario's own format.
CHAIN_EXPLICIT = ["chain", "--scenario", str(GOLDEN / "chain_explicit.yaml")]
# A sharp Eve at bias 0, an Eve of lambda 1e-9 (a string to YAML 1.1) with
# explicit directions at bias 1, and a MUB Eve: the writer's spellings of
# 1, 1e-09 and 0 in CSV and JSON.
CHAIN_EDGES = ["chain", "--scenario", str(GOLDEN / "chain_edges.yaml")]
# The same scenario written with anchors, aliases and merge keys.
CHAIN_MERGE = ["chain", "--scenario", str(GOLDEN / "chain_merge.yaml")]
# Unsorted, with a repeat, and with chains of 0 to 5 Eves that stop at
# different positions of one lockstep plan.
PLAN_MIXED = ["plan", "--rates", "0.45,0.05,0.3,0.05,0.99,1e-300,0.2"]

CASES = {
    "unbounded_pi4_pi6.csv": UNBOUNDED_PI,
    "unbounded_pi4_pi6.json": UNBOUNDED_PI + JSON,
    "unbounded_mixed3.csv": UNBOUNDED_MIXED,
    "unbounded_mixed3.json": UNBOUNDED_MIXED + JSON,
    "unbounded_mixed4.csv": UNBOUNDED_MIXED4,
    "unbounded_mixed4.json": UNBOUNDED_MIXED4 + JSON,
    "plan_check_paper.txt": ["plan", "--rates", "0.1,0.2,0.3", "--check-paper"],
    "plan_mixed.txt": PLAN_MIXED,
    "chain_mixed.csv": CHAIN_MIXED,
    "chain_mixed.json": CHAIN_MIXED + JSON,
    "chain_explicit.json": CHAIN_EXPLICIT,
    "chain_explicit.csv": CHAIN_EXPLICIT + ["--format", "csv"],
    "chain_edges.csv": CHAIN_EDGES,
    "chain_edges.json": CHAIN_EDGES + JSON,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_argparse_route_prints_the_same_golden_file(name, capsys):
    # The one-pass reader declines '--flag=value', which argparse reads.
    argv = attached(CASES[name])
    assert _plain_args(argv) is None
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


# The chain goldens, read again behind a directive that the line reader
# declines, so that PyYAML composes the scenario.
DECLINED = "%YAML 1.1\n---\n"
CHAIN_CASES = [name for name in sorted(CASES) if name.startswith("chain_")]


@pytest.mark.parametrize("name", CHAIN_CASES)
def test_a_composed_scenario_prints_the_same_golden_file(name, capsys, tmp_path):
    argv = list(CASES[name])
    source = Path(argv[argv.index("--scenario") + 1])
    copy = tmp_path / source.name
    copy.write_text(DECLINED + source.read_text(encoding="utf-8"), encoding="utf-8")
    argv[argv.index("--scenario") + 1] = str(copy)
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_merged_scenario_prints_the_chain_golden_file(capsys):
    assert main(CHAIN_MERGE + JSON) == 0
    expected = (GOLDEN / "chain_mixed.json").read_bytes()
    assert capsys.readouterr().out.encode() == expected
