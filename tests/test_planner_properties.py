"""Property tests: the planner's exact sharpness solve against bisection.

``tests/oracles.py`` keeps plain bisection on the monotone sharpness-to-rate
map: 20 halvings of [0, 1] that end on the 2^-20 grid.  The exact solve must
return the same grid point bit for bit, and where no sharpness reaches the
target it must fail at the same position for the same reason.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from seqeve import BOB, InfeasibleError, mub_chain
from seqeve.chain import pauli_state
from seqeve.planner import lambda_min_for_rate

SOLVE_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

targets = st.floats(0.001, 0.95, exclude_min=True, exclude_max=True)
prefixes = st.lists(st.floats(0.01, 1.0, exclude_min=True), max_size=5)


def outcome(solve, *args):
    """The returned sharpness, or the position, reason and message of the failure."""
    try:
        return solve(*args)
    except InfeasibleError as exc:
        return exc.position, exc.reason, str(exc)


@SOLVE_PROPERTY
@given(prefixes, targets)
def test_exact_solve_equals_bisection_bit_for_bit(prefix, target):
    upstream = pauli_state(mub_chain(prefix), BOB)
    expected = outcome(oracles.bisect_min_sharpness, upstream, len(prefix) + 1, target)
    assert outcome(lambda_min_for_rate, tuple(prefix), target) == expected
