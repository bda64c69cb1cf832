"""Property tests: the planner's exact sharpness solve against bisection.

``tests/oracles.py`` keeps plain bisection on the monotone sharpness-to-rate
map: 20 halvings of [0, 1] that end on the 2^-20 grid.  The exact solve must
return the same grid point bit for bit, and where no sharpness reaches the
target it must fail at the same position for the same reason.  Whole plans
are rebuilt position by position from the bisection and Bob's check.  The
planner takes Bob's table as the next Eve's table at sharpness 1, so that
identity is checked on general upstream states.  The lockstep planner
must give each target of a batch the plan of the one-target loop in
``tests/oracles.py``, bit for bit, whatever other targets share the batch,
and no chain that a depth-first search over sharpnesses finds may be longer
than its plan.  Its grid points and chain lengths must be those of the
same greedy chain in 60-digit decimal arithmetic, where no decision may lie
within 1e-13 of its threshold.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from seqeve import bell_state, tilted_state
from seqeve.chain import DEFAULT_BIAS, Assemblage, mub_sharp_pair, mub_unsharp_pair
from oracles import lambda_min_for_rate
from seqeve.planner import InfeasibleError, max_eves, plan_chains
from seqeve.steering import report_from_table

SOLVE_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

targets = st.floats(0.001, 0.95, exclude_min=True, exclude_max=True)
prefixes = st.lists(st.floats(0.01, 1.0, exclude_min=True), max_size=5)
plan_targets = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1e-6, exclude_min=True),
)
# The smallest targets plan the longest chains; 0.99 and the largest
# target below 1 plan none.
EDGE_TARGETS = (5e-324, 1e-300, 0.99, math.nextafter(1.0, 0.0))
# 1 to 12 targets drawn with replacement from a pool, so batches repeat some.
batches = st.lists(
    st.one_of(plan_targets, st.sampled_from(EDGE_TARGETS)), min_size=1, max_size=8
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12))


def outcome(solve, *args):
    """The returned sharpness, or the position, reason and message of the failure."""
    try:
        return solve(*args)
    except InfeasibleError as exc:
        return exc.position, exc.reason, str(exc)


@SOLVE_PROPERTY
@given(prefixes, targets)
def test_exact_solve_equals_bisection_bit_for_bit(prefix, target):
    upstream = oracles.kernel_positions(oracles.mub(prefix))[-1]
    expected = outcome(oracles.bisect_min_sharpness, upstream, len(prefix) + 1, target)
    assert outcome(lambda_min_for_rate, tuple(prefix), target) == expected


def bob_key_rate(state):
    bob = oracles.party_arrays(mub_sharp_pair())
    return report_from_table(state.table(*bob)).key_rate


@settings(max_examples=60, deadline=None, derandomize=True)
@given(plan_targets)
@example(math.nextafter(1.0, 0.0))
@example(5e-324)
def test_plan_equals_the_bisection_chain_bit_for_bit(target):
    lambdas, state = (), Assemblage.of(bell_state(), mub_sharp_pair())
    while True:
        # Bob's rate stays above the target, so this never raises.
        lam = oracles.bisect_min_sharpness(state, len(lambdas) + 1, target)
        candidate = oracles.eve_step(state, mub_unsharp_pair(lam), DEFAULT_BIAS)
        if bob_key_rate(candidate) <= target:
            break
        lambdas, state = lambdas + (lam,), candidate
    plan = max_eves(target)
    assert (plan.lambdas, plan.bob_rate) == (lambdas, bob_key_rate(state))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.one_of(st.none(), st.floats(0.05, math.pi / 4)),
    st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 1.0)), max_size=5),
)
def test_bob_table_is_the_table_at_sharpness_one(theta, eves):
    initial = bell_state() if theta is None else tilted_state(theta)
    state = Assemblage.of(initial, mub_sharp_pair())
    for lam, bias in eves:
        state = oracles.eve_step(state, mub_unsharp_pair(lam), bias)
    at_one = state.table(*oracles.party_arrays(mub_unsharp_pair(1.0))).probs
    bob = state.table(*oracles.party_arrays(mub_sharp_pair())).probs
    assert np.array_equal(at_one, bob)


def plan_bits(plan):
    return (
        plan.target_rate.hex(),
        [lam.hex() for lam in plan.lambdas],
        plan.bob_rate.hex(),
        plan.max_eves,
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.05, 0.95))
@example(0.1)
@example(0.2)
@example(0.3)
def test_no_searched_chain_is_longer_than_max_eves(target):
    assert oracles.longest_chain(target) == max_eves(target).max_eves


@settings(max_examples=100, deadline=None, derandomize=True)
@given(batches)
@example([0.45, 0.05, 0.3, 0.05, 0.99, 1e-300, 0.2])
@example(list(EDGE_TARGETS))
def test_lockstep_plans_equal_the_one_target_loop_bit_for_bit(targets):
    plans = plan_chains(targets)
    expected = [plan_bits(oracles.sequential_plan(t)) for t in targets]
    assert [plan_bits(plan) for plan in plans] == expected
    # A plan does not depend on the other rows of its batch, nor on their order.
    assert plan_chains(targets[::-1]) == plans[::-1]
    assert plans[0] == max_eves(targets[0])


# A decision this close to its threshold is a near-tie: roundoff could decide it.
NEAR_TIE = 1e-13


@settings(max_examples=300, deadline=None, derandomize=True)
# Within ~4e-13 of 0 the first Eve's threshold lies that close to the grid
# point 1/2, and near 1 to the grid point 1: ties in all but name.
@given(st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=1, max_size=4))
@example([0.1, 0.2, 0.3])
def test_plans_equal_the_exact_decimal_plan(targets):
    for target, plan in zip(targets, plan_chains(targets)):
        exact = oracles.exact_plan(target)
        tight = [name for name, margin in exact.margins if margin < NEAR_TIE]
        assert not tight, f"target {target!r}: near-ties {tight}"
        assert [lam * oracles.GRID for lam in plan.lambdas] == list(exact.grid)
        assert plan.max_eves == len(exact.grid)
