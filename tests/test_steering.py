"""Tests for the steering inequality evaluation and key-rate bound."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import (
    random_pure_amp,
    random_pure_qubit_density,
    random_qubit_density,
)
from seqeve import (
    BOB,
    PureTwoQubitState,
    mub_chain,
    mub_sharp_pair,
    report,
)
from seqeve.chain import table_from_operators
from seqeve.linalg import kron
from seqeve.measurement import projector
from seqeve.planner import shrink_factor
from seqeve.steering import delta_for_rate, fgi_lhs, key_rate


def mub_table(rho: np.ndarray):
    grid = [
        [projector(s, outcome) for outcome in (0, 1)]
        for s in mub_sharp_pair().settings
    ]
    return table_from_operators(rho, grid, grid)


class TestFgiLhs:
    def test_bell_sharp_is_maximal(self):
        from seqeve.chain import conditional_table

        table = conditional_table(mub_chain(()), BOB)
        assert fgi_lhs(table) == pytest.approx(1.0, abs=1e-12)

    def test_uncorrelated_state_is_half(self):
        table = mub_table(np.eye(4, dtype=complex) / 4.0)
        assert fgi_lhs(table) == pytest.approx(0.5, abs=1e-12)

    def test_first_eve_matched_closed_form(self):
        from seqeve.chain import conditional_table

        table = conditional_table(mub_chain((0.552,)), 1)
        assert fgi_lhs(table) == pytest.approx((1 + 0.552) / 2, abs=1e-12)

    def test_anticorrelated_outcomes_relabel_freely(self):
        # The singlet-like state with flipped correlations still scores 1.
        amp = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
        table = mub_table(PureTwoQubitState(amp).density_matrix())
        assert fgi_lhs(table) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(97)
        for _ in range(200):
            rho = PureTwoQubitState(random_pure_amp(rng)).density_matrix()
            assert fgi_lhs(mub_table(rho)) <= 1.0 + 1e-12


class TestProductStates:
    def test_pure_products_never_violate(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            rho = kron(
                random_pure_qubit_density(rng), random_pure_qubit_density(rng)
            )
            assert fgi_lhs(mub_table(rho)) <= 0.75 + 1e-10

    def test_mixed_products_never_violate(self):
        rng = np.random.default_rng(103)
        for _ in range(500):
            rho = kron(random_qubit_density(rng), random_qubit_density(rng))
            assert fgi_lhs(mub_table(rho)) <= 0.75 + 1e-10


class TestKeyRate:
    def test_maximal_violation_gives_one_bit(self):
        assert key_rate(0.25) == pytest.approx(1.0, abs=1e-12)

    def test_no_violation_gives_zero(self):
        assert key_rate(0.0) == 0.0

    def test_published_bob_value(self):
        # Violation degree of the two-Eve chain at sharpness 0.552 / 0.602.
        assert key_rate(0.16229) == pytest.approx(0.634, abs=5e-4)

    def test_rejects_out_of_range(self):
        for bad in (-0.01, 0.26):
            with pytest.raises(ValueError, match="violation degree"):
                key_rate(bad)

    def test_inverse_relation_on_grid(self):
        for delta in np.linspace(0.0, 0.25, 1000):
            assert delta_for_rate(key_rate(float(delta))) == pytest.approx(
                float(delta), abs=1e-12
            )

    def test_strictly_monotone_on_grid(self):
        rates = [key_rate(float(d)) for d in np.linspace(0.0, 0.25, 1000)]
        assert all(b > a for a, b in zip(rates, rates[1:]))


class TestReport:
    def test_unperturbed_bob_is_maximal(self):
        rep = report(mub_chain(()), BOB)
        assert rep.lhs == pytest.approx(1.0, abs=1e-10)
        assert rep.delta == pytest.approx(0.25, abs=1e-10)
        assert rep.key_rate == pytest.approx(1.0, abs=1e-10)
        assert rep.violated

    def test_four_eve_chain_bob_rate(self):
        rep = report(mub_chain((0.552, 0.602, 0.67, 0.768)), BOB)
        assert rep.key_rate == pytest.approx(0.172, abs=2e-3)

    def test_three_eve_chain_bob_rate(self):
        rep = report(mub_chain((0.604, 0.672, 0.772)), BOB)
        assert rep.key_rate == pytest.approx(0.269, abs=2e-3)

    def test_delta_and_violated_are_consistent(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            lam = float(rng.uniform(0.1, 1.0))
            rep = report(mub_chain((lam,)), 1)
            assert rep.violated == (rep.delta > 0)
            if not rep.violated:
                assert rep.key_rate == 0.0
            assert 0.0 <= rep.delta <= 0.25

    def test_global_phase_invariance(self):
        from seqeve import bell_state

        base = bell_state()
        rotated = PureTwoQubitState(np.exp(1j * 0.7) * base.amp)
        rep_a = report(mub_chain((), initial=base), BOB)
        rep_b = report(mub_chain((), initial=rotated), BOB)
        assert rep_a.lhs == pytest.approx(rep_b.lhs, abs=1e-12)
        assert rep_a.key_rate == pytest.approx(rep_b.key_rate, abs=1e-12)

    def test_sequence_of_eve_rates_matches_recursion(self):
        lambdas = (0.552, 0.602)
        spec = mub_chain(lambdas)
        damping = 1.0
        for m, lam in enumerate(lambdas, start=1):
            rep = report(spec, m)
            assert rep.lhs == pytest.approx((1 + lam * damping) / 2, abs=1e-12)
            assert rep.key_rate == pytest.approx(0.1, abs=2e-3)
            damping *= shrink_factor(lam)
        assert report(spec, BOB).key_rate == pytest.approx(0.634, abs=2e-3)


# Ties, signed zeros and NaN, where the order of the minima and maxima shows.
cells = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, math.nan, -math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def table_stacks(draw):
    """A (..., 2, 2, 2, 2) array with up to two stack axes, unvalidated."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    size = 16 * math.prod(shape)
    values = draw(st.lists(cells, min_size=size, max_size=size))
    return np.array(values).reshape(shape + (2, 2, 2, 2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table_stacks())
def test_fgi_lhs_equals_the_four_minimum_formula(probs):
    """Two minima and a max reduction give the four-minimum formula's bits.

    A NaN is compared as NaN: NumPy's vector loops may set its sign bit,
    which no output shows.
    """
    expected = oracles.four_min_fgi_lhs(probs)
    got = fgi_lhs(SimpleNamespace(probs=probs))
    assert isinstance(got, float) == (probs.ndim == 4)
    got, nan = np.asarray(got), np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()
