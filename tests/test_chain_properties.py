"""Property tests: the assemblage kernel against the 4x4 oracle.

``tests/oracles.py`` propagates 4x4 density matrices with explicit Kraus
operators; ``seqeve.chain`` must agree with it on general chains, from
random complex pure states and explicit directions.  Each Eve's Bloch map
must be completely positive, which the kernel's checks on conditional
states cannot see.  The planner's exact solve assumes that the steering
value is affine in the new Eve's sharpness, and its snap to the 2^-20 grid
assumes that the rates are monotone in it.  Both are checked here as well.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from seqeve import (
    BOB,
    BlochDirection,
    PartySettings,
    PureTwoQubitState,
    SharpSetting,
    UnsharpSetting,
    mub_chain,
    report,
    tilted_state,
)
from seqeve.chain import (
    ZeroProbabilityError, Assemblage, _eve_maps, conditional_table, propagate, tables
)
from seqeve.linalg import ATOL, COMPOSED_ATOL
from seqeve.steering import MAX_DELTA, THRESHOLD, fgi_lhs, reports

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
# Checking every party of a chain costs O(N^2) Eve steps, with N up to 40.
CHAIN_PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)
MAX_EVES = 40
MAX_PREFIX = 6

directions = st.builds(
    BlochDirection, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)
)
# Directions off the x-z plane.
tilted_directions = st.builds(
    BlochDirection,
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi, exclude_min=True, exclude_max=True).filter(
        lambda phi: phi != math.pi
    ),
)
sharpness = st.floats(0.01, 1.0)
biases = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def sharp_pairs(angles=directions):
    return st.builds(
        PartySettings,
        st.builds(SharpSetting, angles),
        st.builds(SharpSetting, angles),
    )


def unsharp_pairs(angles=directions):
    return st.builds(
        PartySettings,
        st.builds(UnsharpSetting, angles, sharpness),
        st.builds(UnsharpSetting, angles, sharpness),
    )


@st.composite
def pure_states(draw):
    """Random pure states with complex amplitudes, not only tilted ones."""
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)))
    amp = parts[:4] + 1j * parts[4:]
    norm = np.linalg.norm(amp)
    assume(norm > 0.1)
    return PureTwoQubitState(amp / norm)


@st.composite
def general_chains(draw):
    n = draw(st.integers(0, MAX_EVES))
    eves = draw(st.lists(unsharp_pairs(tilted_directions), min_size=n, max_size=n))
    return oracles.chain(
        initial=draw(pure_states()),
        alice=draw(sharp_pairs(tilted_directions)),
        eves=tuple(eves),
        bob=draw(sharp_pairs(tilted_directions)),
        input_bias=tuple(draw(st.floats(0.0, 1.0)) for _ in eves),
    )


@st.composite
def chains(draw):
    n = draw(st.integers(0, MAX_EVES))
    eves = draw(st.lists(unsharp_pairs(), min_size=n, max_size=n))
    return oracles.chain(
        initial=tilted_state(draw(st.floats(0.05, math.pi / 4))),
        alice=draw(sharp_pairs()),
        eves=tuple(eves),
        bob=draw(sharp_pairs()),
        input_bias=tuple(draw(biases) for _ in eves),
    )


def explicit_chain(input_bias):
    """A fixed chain of explicit Eves, one per bias."""
    return oracles.chain(
        initial=tilted_state(0.6),
        alice=PartySettings(
            SharpSetting(BlochDirection(0.1)), SharpSetting(BlochDirection(1.4, 0.3))
        ),
        eves=tuple(
            PartySettings(
                UnsharpSetting(BlochDirection(0.3 * m, 0.5), 0.1 + 0.08 * m),
                UnsharpSetting(BlochDirection(1.2), 0.5),
            )
            for m in range(len(input_bias))
        ),
        bob=PartySettings(
            SharpSetting(BlochDirection(0.7, 2.0)), SharpSetting(BlochDirection(2.5))
        ),
        input_bias=tuple(input_bias),
    )


def parties(spec):
    return list(range(1, spec.n_eves + 1)) + [BOB]


@CHAIN_PROPERTY
@given(chains())
def test_kernel_matches_the_4x4_oracle(chain):
    spec = chain.spec()
    settings_seen = list(chain.eves) + [chain.bob]
    rhos = oracles.chain_rhos(chain)
    for party, seen, rho in zip(parties(spec), settings_seen, rhos):
        expected = oracles.table(chain.alice, seen, rho).probs
        assert np.abs(conditional_table(spec, party).probs - expected).max() <= 1e-12
        assert np.abs(propagate(spec, party).rho - rho).max() <= 1e-12


@CHAIN_PROPERTY
@given(chains())
@example(explicit_chain(()))
@example(explicit_chain((0.0, 1.0, 1.0, 0.0, 0.5)))
def test_one_pass_reports_equal_per_party_reports(chain):
    spec = chain.spec()
    stacked = tables(spec).probs
    assert stacked.shape == (spec.n_eves + 1, 2, 2, 2, 2)
    for probs, party in zip(stacked, parties(spec)):
        assert np.array_equal(probs, conditional_table(spec, party).probs)
    assert reports(spec) == [report(spec, party) for party in parties(spec)]


@CHAIN_PROPERTY
@given(general_chains())
def test_kernel_joint_matches_the_operator_oracle(chain):
    """p(a|i) and p(a|i) P(c|k,i,a) of every party, within 1e-12."""
    measured = list(chain.eves) + [chain.bob]
    expected = [
        oracles.joint_table(chain.alice, party, rho)
        for party, rho in zip(measured, oracles.chain_rhos(chain))
    ]
    spec = chain.spec()
    try:
        state = Assemblage.of(chain.initial, chain.alice)
    except ZeroProbabilityError:
        assert expected[0][0].min() < 2e-12
        return
    marginals = state.p_alice.reshape(2, 2)
    joint = marginals[None, None, :, :, None] * tables(spec).probs
    for (p_alice, oracle_joint), kernel_joint in zip(expected, joint):
        assert np.abs(marginals - p_alice).max() <= 1e-12
        assert np.abs(kernel_joint - oracle_joint).max() <= 1e-12


@CHAIN_PROPERTY
@given(chains())
@example(explicit_chain(()))
@example(explicit_chain((0.0, 1.0, 1.0, 0.0, 0.5)))
def test_stacked_pass_equals_the_per_eve_loop(chain):
    """The stack does the per-Eve loop's arithmetic, so it agrees bit for bit."""
    spec = chain.spec()
    expected = oracles.kernel_tables(chain)
    assert np.array_equal(tables(spec).probs, np.stack(expected))
    lhs = [rep.lhs for rep in reports(spec)]
    assert lhs == [oracles.scalar_fgi_lhs(probs) for probs in expected]


@PROPERTY
@given(
    directions,
    directions,
    st.floats(0.0, 1.0, exclude_min=True),
    st.floats(0.0, 1.0, exclude_min=True),
    st.floats(0.0, 1.0),
)
def test_eve_maps_are_completely_positive(dir0, dir1, lam0, lam1, bias):
    eve = PartySettings(UnsharpSetting(dir0, lam0), UnsharpSetting(dir1, lam1))
    directions = np.array([[dir0.unit_vector(), dir1.unit_vector()]])
    step = _eve_maps(directions, np.array([[lam0, lam1]]), np.array([bias]))[0]
    assert np.array_equal(step, oracles.eve_map(eve, bias))
    assert np.linalg.eigvalsh(oracles.choi_state(step)).min() >= -ATOL


def test_choi_state_sees_a_map_that_is_positive_only():
    # The transpose keeps every Bloch vector in the ball, yet is not
    # completely positive.
    transpose = np.diag([1.0, -1.0, 1.0])
    assert np.linalg.eigvalsh(oracles.choi_state(transpose)).min() < -0.4


@CHAIN_PROPERTY
@given(chains())
def test_reports_lie_in_range(chain):
    """lhs in [0, 1], delta = max(lhs - 3/4, 0) in [0, 1/4], rate in [0, 1]."""
    for rep in reports(chain.spec()):
        assert -COMPOSED_ATOL <= rep.lhs <= 1.0 + COMPOSED_ATOL
        assert rep.delta == max(rep.lhs - THRESHOLD, 0.0)
        assert rep.delta <= MAX_DELTA + COMPOSED_ATOL
        assert 0.0 <= rep.key_rate <= 1.0
        assert rep.violated == (rep.delta > 0.0)


@PROPERTY
@given(st.lists(sharpness, max_size=MAX_PREFIX), sharpness, sharpness)
def test_rates_are_monotone_in_the_new_eve_sharpness(prefix, lam1, lam2):
    weak, sharp = sorted((lam1, lam2))
    position = len(prefix) + 1
    weak_spec, sharp_spec = mub_chain(prefix + [weak]), mub_chain(prefix + [sharp])
    eve_weak = report(weak_spec, position).key_rate
    assert eve_weak <= report(sharp_spec, position).key_rate + 1e-12
    assert report(sharp_spec, BOB).key_rate <= report(weak_spec, BOB).key_rate + 1e-12


@PROPERTY
@given(
    st.floats(0.05, math.pi / 4),
    sharp_pairs(),
    st.lists(st.tuples(unsharp_pairs(), biases), max_size=MAX_PREFIX),
    directions,
    directions,
    sharpness,
)
def test_steering_value_is_affine_in_the_new_eve_sharpness(
    theta, alice, upstream_eves, dir0, dir1, lam
):
    state = Assemblage.of(tilted_state(theta), alice)
    for eve, bias in upstream_eves:
        state = oracles.eve_step(state, eve, bias)

    def lhs(s):
        eve = PartySettings(UnsharpSetting(dir0, s), UnsharpSetting(dir1, s))
        return fgi_lhs(state.table(*oracles.party_arrays(eve)))

    assert abs((lhs(lam) - 0.5) - lam * (lhs(1.0) - 0.5)) <= 1e-12


@CHAIN_PROPERTY
@given(chains())
def test_alice_marginals_ignore_every_eve(chain):
    """No signalling: P(a | i) in every party's joint table is its initial value."""
    rhos = oracles.chain_rhos(chain)
    measured = list(chain.eves) + [chain.bob]
    initial = oracles.joint_table(chain.alice, chain.bob, rhos[0])[0].reshape(4)
    marginals = Assemblage.of(chain.initial, chain.alice).p_alice
    assert np.abs(marginals - initial).max() <= 1e-12
    joint = marginals.reshape(2, 2)[..., None] * tables(chain.spec()).probs
    for party, rho, party_joint in zip(measured, rhos, joint):
        oracle = oracles.joint_table(chain.alice, party, rho)[0].reshape(4)
        assert np.abs(oracle - initial).max() <= 1e-12
        # Summed over the party's outcome, for each of its inputs.
        assert np.abs(party_joint.sum(axis=-1).reshape(2, 4) - initial).max() <= 1e-12


alice_angles = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))
# Alice's two settings at z and x, then z twice: p(1|0) of |00> is 0.
PRODUCT_STACK = [((0.5 * math.pi, 0.0), (0.5 * math.pi, 0.0)), ((0.0, 0.0), (0.0, 0.0))]


@PROPERTY
@given(pure_states(), st.lists(st.tuples(alice_angles, alice_angles), min_size=1))
@example(PureTwoQubitState(np.array([1.0, 0.0, 0.0, 0.0])), PRODUCT_STACK)
def test_stacked_start_equals_separate_starts(state, stack):
    """Each row of a start on an (S, 2, 2) angle stack is its own start, bit for bit.

    A stack with a marginal too small to condition on raises the message of
    the first separate start that raises it.
    """
    amp = state.amp.reshape(2, 2).tolist()
    rows = []
    for angles in stack:
        try:
            rows.append(Assemblage.start(amp, angles))
        except ZeroProbabilityError as exc:
            with pytest.raises(ZeroProbabilityError) as stacked_exc:
                Assemblage.start(amp, stack)
            assert str(stacked_exc.value) == str(exc)
            return
    stacked = Assemblage.start(amp, stack)
    assert stacked.p_alice.shape == (len(stack), 4)
    assert stacked.bloch.shape == (len(stack), 4, 3)
    assert stacked.p_alice.tobytes() == np.stack([r.p_alice for r in rows]).tobytes()
    assert stacked.bloch.tobytes() == np.stack([r.bloch for r in rows]).tobytes()
