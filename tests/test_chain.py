"""Tests for state propagation through the eavesdropper chain."""

import math

import numpy as np
import pytest

from helpers import random_direction
from oracles import assemblage, eve1_conditional, partial_trace, post_measurement_state
from seqeve import (
    BOB,
    ChainSpec,
    InvariantError,
    PartySettings,
    SharpSetting,
    UnsharpSetting,
    ZeroProbabilityError,
    bell_state,
    mub_chain,
    mub_sharp_pair,
    mub_unsharp_pair,
    tilted_state,
)
from seqeve.chain import ConditionalTable, conditional_table, propagate
from seqeve.linalg import ID2, PAULI_X, PAULI_Z, Z_DIR, kron
from seqeve.measurement import effect
from seqeve.planner import shrink_factor
from seqeve.states import TwoQubitState
from seqeve.steering import report

Z_SHARP = SharpSetting(Z_DIR)


def correlation(rho: np.ndarray, op: np.ndarray) -> float:
    return float(np.trace(kron(op, op) @ rho).real)


def random_chain(rng, max_len=4, mub_only=False) -> ChainSpec:
    n = int(rng.integers(1, max_len + 1))
    if mub_only:
        eves = tuple(mub_unsharp_pair(float(rng.uniform(0.1, 1.0))) for _ in range(n))
        bias = (0.5,) * n
    else:
        eves = tuple(
            PartySettings(
                UnsharpSetting(random_direction(rng), float(rng.uniform(0.1, 1.0))),
                UnsharpSetting(random_direction(rng), float(rng.uniform(0.1, 1.0))),
            )
            for _ in range(n)
        )
        bias = tuple(float(rng.uniform(0.0, 1.0)) for _ in range(n))
    return ChainSpec.of(
        initial=bell_state(),
        alice=mub_sharp_pair(),
        eves=eves,
        bob=mub_sharp_pair(),
        input_bias=bias,
    )


class TestAssemblage:
    def test_bell_perfect_z_correlation(self):
        sigma = assemblage(bell_state().to_density(), Z_SHARP, 0)
        np.testing.assert_allclose(sigma, np.diag([0.5, 0.0]), atol=1e-12)

    def test_no_signalling_completeness(self):
        rng = np.random.default_rng(67)
        from helpers import random_pure_amp
        from seqeve import PureTwoQubitState

        for _ in range(50):
            state = PureTwoQubitState(random_pure_amp(rng)).to_density()
            setting = SharpSetting(random_direction(rng))
            total = assemblage(state, setting, 0) + assemblage(state, setting, 1)
            np.testing.assert_allclose(
                total, partial_trace(state.rho, "B"), atol=1e-10
            )

    def test_tilted_state_value(self):
        sigma = assemblage(tilted_state(math.pi / 6).to_density(), Z_SHARP, 1)
        np.testing.assert_allclose(sigma, np.diag([0.0, 0.25]), atol=1e-12)


class TestEve1Conditional:
    def test_projective_perfect_correlation(self):
        got = eve1_conditional(
            bell_state().to_density(), Z_SHARP, 0, UnsharpSetting(Z_DIR, 1.0), 0
        )
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_matched_basis_closed_form(self):
        got = eve1_conditional(
            bell_state().to_density(), Z_SHARP, 0, UnsharpSetting(Z_DIR, 0.552), 0
        )
        assert got == pytest.approx((1 + 0.552) / 2, abs=1e-12)

    def test_cross_basis_is_unbiased(self):
        rng = np.random.default_rng(71)
        from seqeve.linalg import X_DIR

        for _ in range(20):
            lam = float(rng.uniform(0.05, 1.0))
            got = eve1_conditional(
                bell_state().to_density(), Z_SHARP, 0, UnsharpSetting(X_DIR, lam), 0
            )
            assert got == pytest.approx(0.5, abs=1e-12)

    def test_zero_probability_conditioning_raises(self):
        # |00> as a raw product state: Alice never sees outcome 1 along z.
        state = TwoQubitState(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
        with pytest.raises(ZeroProbabilityError):
            eve1_conditional(state, Z_SHARP, 1, UnsharpSetting(Z_DIR, 0.5), 0)


class TestPostMeasurementState:
    def test_sharp_limit_is_projective_collapse(self):
        state = bell_state().to_density()
        got = post_measurement_state(
            state, Z_SHARP, 0, UnsharpSetting(Z_DIR, 1.0), 0
        )
        np.testing.assert_allclose(got, np.diag([0.5, 0.0]), atol=1e-12)

    def test_matched_basis_trace(self):
        state = bell_state().to_density()
        for lam in (0.3, 0.552, 0.9):
            got = post_measurement_state(
                state, Z_SHARP, 0, UnsharpSetting(Z_DIR, lam), 0
            )
            assert np.trace(got).real == pytest.approx((1 + lam) / 4, abs=1e-12)
            assert got[0, 0].real == pytest.approx((1 + lam) / 4, abs=1e-12)

    def test_probability_conservation(self):
        rng = np.random.default_rng(73)
        state = bell_state().to_density()
        for _ in range(20):
            alice = SharpSetting(random_direction(rng))
            eve = UnsharpSetting(random_direction(rng), float(rng.uniform(0.1, 1.0)))
            total = sum(
                np.trace(post_measurement_state(state, alice, a, eve, c)).real
                for a in (0, 1)
                for c in (0, 1)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestPropagate:
    def test_empty_chain_returns_initial(self):
        spec = mub_chain(())
        np.testing.assert_allclose(
            propagate(spec, BOB).rho, bell_state().density_matrix(), atol=1e-12
        )

    def test_single_eve_shrink_factor(self):
        spec = mub_chain((0.552,))
        rho = propagate(spec, BOB).rho
        expected = shrink_factor(0.552)
        assert correlation(rho, PAULI_Z) == pytest.approx(expected, abs=1e-12)
        assert correlation(rho, PAULI_X) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.91693, abs=5e-5)

    def test_two_eve_shrink_product(self):
        spec = mub_chain((0.552, 0.602))
        rho = propagate(spec, BOB).rho
        expected = shrink_factor(0.552) * shrink_factor(0.602)
        assert correlation(rho, PAULI_Z) == pytest.approx(expected, abs=1e-12)
        assert correlation(rho, PAULI_X) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.82455, abs=5e-5)

    def test_trace_one_at_every_stage(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            spec = random_chain(rng)
            for m in list(range(1, spec.n_eves + 1)) + [BOB]:
                assert np.trace(propagate(spec, m).rho).real == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_projective_eve_kills_cross_basis_only(self):
        # A single z-measuring Eve (bias 1) zeroes x-correlation, keeps z.
        spec = ChainSpec.of(
            initial=bell_state(),
            alice=mub_sharp_pair(),
            eves=(mub_unsharp_pair(1.0),),
            bob=mub_sharp_pair(),
            input_bias=(1.0,),
        )
        rho = propagate(spec, BOB).rho
        assert correlation(rho, PAULI_Z) == pytest.approx(1.0, abs=1e-12)
        assert correlation(rho, PAULI_X) == pytest.approx(0.0, abs=1e-12)
        # Input-averaged projective Eve halves both correlations.
        rho = propagate(mub_chain((1.0,)), BOB).rho
        assert correlation(rho, PAULI_Z) == pytest.approx(0.5, abs=1e-12)
        assert correlation(rho, PAULI_X) == pytest.approx(0.5, abs=1e-12)

    def test_invalid_party_index(self):
        spec = mub_chain((0.5,))
        with pytest.raises(ValueError, match="party"):
            propagate(spec, 2)


class TestConditionalTable:
    @pytest.mark.parametrize("query", [conditional_table, report])
    @pytest.mark.parametrize("party", [0, -1, 3, "alice", 1.0, True], ids=repr)
    def test_a_bad_party_reads_no_row(self, query, party):
        # The party picks a row of the stacked pass: 0 or -1 would wrap onto
        # Bob's row, and True would read Eve 1's.
        message = r"party must be an Eve index in 1\.\.2 or BOB"
        with pytest.raises(ValueError, match=message):
            query(mub_chain((0.552, 0.602)), party)

    def test_bob_no_eves_perfect_correlation(self):
        table = conditional_table(mub_chain(()), BOB)
        assert table.probs[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert table.probs[0, 0, 1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_second_eve_matched_cell(self):
        table = conditional_table(mub_chain((0.552, 0.602)), 2)
        expected = (1 + 0.602 * shrink_factor(0.552)) / 2
        assert expected == pytest.approx(0.77598, abs=5e-5)
        for k in (0, 1):
            assert table.probs[k, k, 0, 0] == pytest.approx(expected, abs=1e-12)
            assert table.probs[k, k, 1, 1] == pytest.approx(expected, abs=1e-12)

    def test_rows_normalize(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            spec = random_chain(rng)
            for party in list(range(1, spec.n_eves + 1)) + [BOB]:
                table = conditional_table(spec, party)
                np.testing.assert_allclose(
                    table.probs.sum(axis=-1), np.ones((2, 2, 2)), atol=1e-10
                )

    def test_lazy_alice_equals_explicit_forking(self):
        # Fold Alice's projector into the 4x4 state before the first Eve's
        # update and compare with conditional_table.
        spec = mub_chain((0.552, 0.602))
        state = spec.initial.to_density()
        table = conditional_table(spec, 2)
        eve1 = mub_unsharp_pair(0.552)
        eve2 = mub_unsharp_pair(0.602)
        alice_settings = mub_sharp_pair().settings
        for i, alice in enumerate(alice_settings):
            from seqeve.measurement import projector

            for a in (0, 1):
                p_alice = float(
                    np.trace(kron(projector(alice, a), ID2) @ state.rho).real
                )
                for k, setting2 in enumerate(eve2.settings):
                    for c in (0, 1):
                        joint = 0.0
                        for k1, setting1 in enumerate(eve1.settings):
                            for c1 in (0, 1):
                                rho_fork = post_measurement_state(
                                    state, alice, a, setting1, c1
                                )
                                joint += 0.5 * float(
                                    np.trace(effect(setting2, c) @ rho_fork).real
                                )
                        assert table.probs[k, i, a, c] == pytest.approx(
                            joint / p_alice, abs=1e-12
                        )

    def test_validation_rejects_bad_table(self):
        bad = np.full((2, 2, 2, 2), 0.4)
        with pytest.raises(InvariantError, match="sum to 1"):
            ConditionalTable(bad)
        with pytest.raises(InvariantError, match="shape"):
            ConditionalTable(np.zeros((2, 2, 2)))


class TestNoSignalling:
    def test_alice_marginals_ignore_downstream(self):
        rng = np.random.default_rng(89)
        for _ in range(50):
            spec = random_chain(rng)
            alice = mub_sharp_pair()  # random_chain's Alice
            initial = spec.initial.density_matrix()
            from seqeve.measurement import projector

            reference = {
                (i, a): float(
                    np.trace(kron(projector(s, a), ID2) @ initial).real
                )
                for i, s in enumerate(alice.settings)
                for a in (0, 1)
            }
            for party in list(range(1, spec.n_eves + 1)) + [BOB]:
                rho = propagate(spec, party).rho
                for (i, a), expected in reference.items():
                    got = float(
                        np.trace(
                            kron(projector(alice.settings[i], a), ID2) @ rho
                        ).real
                    )
                    assert got == pytest.approx(expected, abs=1e-10)


class TestChainSpecValidation:
    def test_rejects_unsharp_alice(self):
        with pytest.raises(ValueError, match="sharp"):
            ChainSpec.of(
                initial=bell_state(),
                alice=mub_unsharp_pair(0.5),
                eves=(),
                bob=mub_sharp_pair(),
            )

    def test_rejects_sharp_eve(self):
        with pytest.raises(ValueError, match="unsharp"):
            ChainSpec.of(
                initial=bell_state(),
                alice=mub_sharp_pair(),
                eves=(mub_sharp_pair(),),
                bob=mub_sharp_pair(),
            )

    def test_rejects_bias_length_mismatch(self):
        with pytest.raises(ValueError, match="bias"):
            ChainSpec.of(
                initial=bell_state(),
                alice=mub_sharp_pair(),
                eves=(mub_unsharp_pair(0.5),),
                bob=mub_sharp_pair(),
                input_bias=(0.5, 0.5),
            )

    def test_rejects_mixed_setting_kinds(self):
        with pytest.raises(ValueError, match="same setting kind"):
            PartySettings(SharpSetting(Z_DIR), UnsharpSetting(Z_DIR, 0.5))
