"""Property tests: the scalar unbounded route against the branch-tree oracle.

``branch_tree`` builds every outcome history with an SVD per node and
``oracles.branch_tables`` takes the leaves' tables from 4x4 operator traces
with each leaf's own Alice unitary; they stay the reference.  ``leaf_theta``,
the leaf table (the no-Eve case of the assemblage kernel) and
``seqeve unbounded`` must agree with them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import seqeve.cli
from seqeve import ADAPTED, CANONICAL, leaf_theta
from seqeve.steering import report_from_table
from seqeve.unbounded import (
    ALICE_STRATEGIES, _leaf_tables, branch_tree, evaluate_branch,
)

MAX_DEPTH = 8
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
# The CLI check evaluates every oracle leaf, up to 2^8 of them per example.
CLI_PROPERTY = settings(max_examples=8, deadline=None, derandomize=True)


def trees(lo: float):
    """(theta1, weak angles) with every angle in [lo, pi/4], depth 1..8."""
    angle = st.floats(lo, math.pi / 4)
    return st.tuples(angle, st.lists(angle, min_size=1, max_size=MAX_DEPTH))


@PROPERTY
@given(trees(0.2))
def test_every_tree_leaf_has_the_recursion_angle_and_weight(tree):
    theta1, angles = tree
    theta = leaf_theta(theta1, angles)
    leaves = branch_tree(theta1, angles)
    assert len(leaves) == 2 ** len(angles)
    for leaf in leaves:
        assert abs(leaf.theta - theta) <= 1e-12
        assert abs(leaf.probability - 2.0 ** -len(angles)) <= 1e-12


def oracle_report(leaf, choice):
    return report_from_table(oracles.branch_table(leaf, choice))


@PROPERTY
@given(trees(0.3))
def test_closed_form_tables_match_the_operator_oracle(tree):
    # The oracle divides a trace by Alice's marginal P(a|i), so its entries
    # carry roundoff of about 1e-16 / P(a|i); compare the joint P(a, c|i, k).
    leaves = branch_tree(*tree)
    for choice in (CANONICAL, ADAPTED):
        oracle, marginals = oracles.branch_tables(leaves, choice)
        for leaf, expected, marginal in zip(leaves, oracle, marginals):
            kernel = _leaf_tables(leaf.theta).probs[ALICE_STRATEGIES.index(choice)]
            joint_error = (kernel - expected) * marginal[None, :, :, None]
            assert np.abs(joint_error).max() <= 1e-12


@PROPERTY
@given(trees(0.3), st.integers(min_value=0))
def test_evaluate_branch_ignores_the_alice_unitary(tree, index):
    leaves = branch_tree(*tree)
    leaf = leaves[index % len(leaves)]
    for choice in (CANONICAL, ADAPTED):
        closed, rotated = evaluate_branch(leaf, choice), oracle_report(leaf, choice)
        assert abs(closed.lhs - rotated.lhs) <= 1e-9
        assert abs(closed.key_rate - rotated.key_rate) <= 1e-9


@CLI_PROPERTY
@given(trees(0.3))
def test_cli_rows_match_the_tree_oracle(tree):
    theta1, angles = tree
    captured = []

    def capture(groups, columns, *rest):
        captured.extend(
            dict(zip(columns, (prefix + suffix, *values)))
            for prefixes, suffixes, values in groups
            for prefix in prefixes
            for suffix in suffixes
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqeve.cli, "_write_rows", capture)
        argv = ["--theta1", repr(theta1), "--lambdas", ",".join(map(repr, angles))]
        assert seqeve.cli.main(["unbounded", *argv]) == 0
    *rows, summary = captured
    leaves = branch_tree(theta1, angles)
    assert [row["branch"] for row in rows] == [
        "".join(map(str, leaf.outcomes)) for leaf in leaves
    ]
    # The rows are exactly uniform: one angle, weight 2^-n, summary weight 1.
    first = {k: v for k, v in rows[0].items() if k != "branch"}
    assert first["weight"] == 2.0 ** -len(angles)
    assert all({k: v for k, v in row.items() if k != "branch"} == first for row in rows)
    averages = dict.fromkeys((CANONICAL, ADAPTED), 0.0)
    for row, leaf in zip(rows, leaves):
        assert abs(row["theta"] - leaf.theta) <= 1e-9
        assert abs(row["weight"] - leaf.probability) <= 1e-9
        for choice in (CANONICAL, ADAPTED):
            rep = oracle_report(leaf, choice)
            assert abs(row[f"lhs_{choice}"] - rep.lhs) <= 1e-9
            assert abs(row[f"key_rate_{choice}"] - rep.key_rate) <= 1e-9
            averages[choice] += leaf.probability * rep.key_rate
    assert summary["weight"] == 1.0
    for choice in (CANONICAL, ADAPTED):
        assert abs(summary[f"key_rate_{choice}"] - averages[choice]) <= 1e-9
