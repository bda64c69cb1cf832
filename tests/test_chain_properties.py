"""Property tests: the Pauli-coordinate chain kernel against the 4x4 oracle.

``tests/oracles.py`` propagates 4x4 density matrices with explicit Kraus
operators; ``seqeve.chain`` must agree with it on general chains.  The
planner's exact solve assumes that the steering value is affine in the new
Eve's sharpness, and its snap to the 2^-20 grid assumes that the rates are
monotone in it.  Both are checked here as well.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from seqeve import (
    BOB,
    BlochDirection,
    ChainSpec,
    PartySettings,
    SharpSetting,
    UnsharpSetting,
    conditional_table,
    fgi_lhs,
    mub_chain,
    propagate,
    report,
    tilted_state,
)
from seqeve.chain import PauliState, tables
from seqeve.linalg import COMPOSED_ATOL, ID2, kron
from seqeve.measurement import projector
from seqeve.steering import MAX_DELTA, THRESHOLD, reports

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
# Checking every party of a chain costs O(N^2) Eve steps, with N up to 40.
CHAIN_PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)
MAX_EVES = 40
MAX_PREFIX = 6

directions = st.builds(
    BlochDirection, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)
)
sharpness = st.floats(0.01, 1.0)
biases = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def sharp_pairs():
    return st.builds(
        PartySettings,
        st.builds(SharpSetting, directions),
        st.builds(SharpSetting, directions),
    )


def unsharp_pairs():
    return st.builds(
        PartySettings,
        st.builds(UnsharpSetting, directions, sharpness),
        st.builds(UnsharpSetting, directions, sharpness),
    )


@st.composite
def chains(draw):
    n = draw(st.integers(0, MAX_EVES))
    eves = draw(st.lists(unsharp_pairs(), min_size=n, max_size=n))
    return ChainSpec(
        initial=tilted_state(draw(st.floats(0.05, math.pi / 4))),
        alice=draw(sharp_pairs()),
        eves=tuple(eves),
        bob=draw(sharp_pairs()),
        input_bias=tuple(draw(biases) for _ in eves),
    )


def explicit_chain(input_bias):
    """A fixed chain of explicit Eves, one per bias."""
    return ChainSpec(
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
def test_kernel_matches_the_4x4_oracle(spec):
    settings_seen = list(spec.eves) + [spec.bob]
    for party, seen, rho in zip(parties(spec), settings_seen, oracles.chain_rhos(spec)):
        expected = oracles.table(spec.alice, seen, rho).probs
        assert np.abs(conditional_table(spec, party).probs - expected).max() <= 1e-12
        assert np.abs(propagate(spec, party).rho - rho).max() <= 1e-12


@CHAIN_PROPERTY
@given(chains())
@example(explicit_chain(()))
@example(explicit_chain((0.0, 1.0, 1.0, 0.0, 0.5)))
def test_one_pass_reports_equal_per_party_reports(spec):
    stacked = tables(spec).probs
    assert stacked.shape == (spec.n_eves + 1, 2, 2, 2, 2)
    for probs, party in zip(stacked, parties(spec)):
        assert np.array_equal(probs, conditional_table(spec, party).probs)
    assert reports(spec) == [report(spec, party) for party in parties(spec)]


@CHAIN_PROPERTY
@given(chains())
@example(explicit_chain(()))
@example(explicit_chain((0.0, 1.0, 1.0, 0.0, 0.5)))
def test_stacked_pass_equals_the_per_eve_loop(spec):
    """The stack does the per-Eve loop's arithmetic, so it agrees bit for bit."""
    expected = oracles.pauli_tables(spec)
    assert np.array_equal(tables(spec).probs, np.stack(expected))
    lhs = [rep.lhs for rep in reports(spec)]
    assert lhs == [oracles.scalar_fgi_lhs(probs) for probs in expected]


@CHAIN_PROPERTY
@given(chains())
def test_reports_lie_in_range(spec):
    """lhs in [0, 1], delta = max(lhs - 3/4, 0) in [0, 1/4], rate in [0, 1]."""
    for rep in reports(spec):
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
    state = PauliState.of(tilted_state(theta))
    for eve, bias in upstream_eves:
        state = state.after(eve, bias)

    def lhs(s):
        eve = PartySettings(UnsharpSetting(dir0, s), UnsharpSetting(dir1, s))
        return fgi_lhs(state.table(alice, eve))

    assert abs((lhs(lam) - 0.5) - lam * (lhs(1.0) - 0.5)) <= 1e-12


@CHAIN_PROPERTY
@given(chains())
def test_alice_marginals_ignore_every_eve(spec):
    """No signalling: P(a | i) in every party's table is its initial value."""
    alice_projs = [
        kron(projector(setting, a), ID2) for setting in spec.alice.settings for a in (0, 1)
    ]

    def oracle_marginals(rho):
        return np.array([np.trace(p @ rho).real for p in alice_projs])

    def kernel_marginals(state):
        return 0.5 * (spec.alice.effect_rows @ state.coords[:, 0])

    rhos = oracles.chain_rhos(spec)
    initial = oracle_marginals(rhos[0])
    state = PauliState.of(spec.initial)
    assert np.abs(kernel_marginals(state) - initial).max() <= 1e-12
    for eve, bias, rho in zip(spec.eves, spec.input_bias, rhos[1:]):
        state = state.after(eve, bias)
        assert np.abs(oracle_marginals(rho) - initial).max() <= 1e-12
        assert np.abs(kernel_marginals(state) - initial).max() <= 1e-12
