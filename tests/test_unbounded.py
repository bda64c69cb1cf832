"""Tests for the branching weak-measurement strategy."""

import itertools
import math

import numpy as np
import pytest

from helpers import count_calls, random_pure_amp
from oracles import (
    adapted_alice_measurement,
    alice_facing_count,
    canonical_settings,
    partial_trace,
    schmidt_state,
    weak_step,
)
from seqeve import (
    ADAPTED,
    CANONICAL,
    DegenerateStateError,
    PureTwoQubitState,
    ZeroProbabilityError,
    bell_state,
    leaf_theta,
    tilted_state,
)
from seqeve.linalg import ID2, PAULI_X, PAULI_Z
from seqeve.measurement import WeakKrausSetting, weak_kraus
from seqeve.unbounded import (
    BranchNode,
    branch_state,
    branch_tree,
    evaluate_branch,
    leaf_scores,
    schmidt_decompose,
)
from seqeve.value import Value


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return abs(np.vdot(a, b)) ** 2


class TestSchmidtDecompose:
    def test_bell_is_already_canonical(self):
        sf = schmidt_decompose(bell_state())
        assert sf.theta == pytest.approx(math.pi / 4, abs=1e-12)
        np.testing.assert_allclose(sf.u_alice, ID2, atol=1e-10)
        np.testing.assert_allclose(sf.v_other, ID2, atol=1e-10)

    def test_tilted_is_already_canonical(self):
        sf = schmidt_decompose(tilted_state(math.pi / 6))
        assert sf.theta == pytest.approx(math.pi / 6, abs=1e-12)
        np.testing.assert_allclose(sf.u_alice, ID2, atol=1e-10)
        np.testing.assert_allclose(sf.v_other, ID2, atol=1e-10)

    def test_x_basis_tilted_state(self):
        # cos(a)|++> + sin(a)|--> arises from a weak x-basis step on Bell.
        sf, prob = weak_step(bell_state(), WeakKrausSetting(math.pi / 6), 0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert sf.theta == pytest.approx(math.pi / 6, abs=1e-10)
        hadamard_like = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        np.testing.assert_allclose(np.abs(sf.u_alice), np.abs(hadamard_like), atol=1e-10)
        np.testing.assert_allclose(np.abs(sf.v_other), np.abs(hadamard_like), atol=1e-10)

    def test_reconstruction_fidelity(self):
        rng = np.random.default_rng(109)
        for _ in range(1000):
            psi = PureTwoQubitState(random_pure_amp(rng))
            try:
                sf = schmidt_decompose(psi)
            except DegenerateStateError:
                continue
            assert fidelity(schmidt_state(sf).amp, psi.amp) > 1 - 1e-10

    def test_unitarity_of_factors(self):
        rng = np.random.default_rng(113)
        for _ in range(200):
            sf = schmidt_decompose(PureTwoQubitState(random_pure_amp(rng)))
            for mat in (sf.u_alice, sf.v_other):
                np.testing.assert_allclose(mat @ mat.conj().T, ID2, atol=1e-10)

    def test_degenerate_product_state_raises(self):
        amp = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(DegenerateStateError):
            schmidt_decompose(PureTwoQubitState(amp))

    def test_phase_convention_is_deterministic(self):
        rng = np.random.default_rng(127)
        for _ in range(50):
            psi = PureTwoQubitState(random_pure_amp(rng))
            a = schmidt_decompose(psi)
            b = schmidt_decompose(psi)
            assert a.theta == b.theta
            assert np.array_equal(a.u_alice, b.u_alice)
            assert np.array_equal(a.v_other, b.v_other)


class TestWeakStep:
    def test_balanced_angle_changes_nothing(self):
        sf, prob = weak_step(bell_state(), WeakKrausSetting(math.pi / 4), 0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert sf.theta == pytest.approx(math.pi / 4, abs=1e-10)

    def test_outcome_probabilities_sum_to_one(self):
        rng = np.random.default_rng(131)
        for _ in range(100):
            psi = PureTwoQubitState(random_pure_amp(rng))
            setting = WeakKrausSetting(rng.uniform(1e-2, math.pi / 4))
            total = 0.0
            for c in (0, 1):
                kraus = weak_kraus(setting, c)
                post = psi.amp.reshape(2, 2) @ kraus.T
                total += float(np.vdot(post, post).real)
            assert total == pytest.approx(1.0, abs=1e-12)


class TestCorrectAndForward:
    def test_identity_unitaries_leave_state_alone(self):
        sf = schmidt_decompose(bell_state())
        np.testing.assert_allclose(
            branch_state(sf.theta, sf.u_alice).amp, bell_state().amp, atol=1e-10
        )

    def test_forwarded_marginal_is_diagonal(self):
        sf, _ = weak_step(bell_state(), WeakKrausSetting(math.pi / 6), 0)
        forwarded = branch_state(sf.theta, sf.u_alice)
        marginal = partial_trace(forwarded.density_matrix(), "B")
        np.testing.assert_allclose(
            marginal,
            np.diag([math.cos(math.pi / 6) ** 2, math.sin(math.pi / 6) ** 2]),
            atol=1e-10,
        )

    def test_round_trip_cancels_second_side_unitary(self):
        rng = np.random.default_rng(137)
        for _ in range(100):
            try:
                sf = schmidt_decompose(PureTwoQubitState(random_pure_amp(rng)))
            except DegenerateStateError:
                continue
            again = schmidt_decompose(branch_state(sf.theta, sf.u_alice))
            # Up to phase, the forwarded state's second-side unitary is I.
            np.testing.assert_allclose(np.abs(again.v_other), ID2.real, atol=1e-9)
            assert again.theta == pytest.approx(sf.theta, abs=1e-10)


class TestBranchTree:
    def test_uninformative_measurement(self):
        leaves = branch_tree(math.pi / 4, (math.pi / 4,))
        assert len(leaves) == 2
        for leaf in leaves:
            assert leaf.theta == pytest.approx(math.pi / 4, abs=1e-10)
            assert leaf.probability == pytest.approx(0.5, abs=1e-12)

    def test_outcome_swap_symmetry_on_bell(self):
        leaves = branch_tree(math.pi / 4, (math.pi / 6,))
        assert [leaf.outcomes for leaf in leaves] == [(0,), (1,)]
        for leaf in leaves:
            assert leaf.theta == pytest.approx(math.pi / 6, abs=1e-10)
            assert leaf.probability == pytest.approx(0.5, abs=1e-12)

    def test_leaf_count_and_weight_conservation(self):
        rng = np.random.default_rng(139)
        for depth in range(1, 7):
            angles = tuple(rng.uniform(0.1, math.pi / 4) for _ in range(depth))
            theta1 = rng.uniform(0.1, math.pi / 4)
            leaves = branch_tree(theta1, angles)
            assert len(leaves) == 2**depth
            assert sum(leaf.probability for leaf in leaves) == pytest.approx(
                1.0, abs=1e-10
            )
            assert alice_facing_count(leaves) == 2 ** (depth - 1)

    def test_sibling_weights_sum_to_parent(self):
        leaves = branch_tree(0.6, (0.3, 0.5, 0.7))
        by_outcome = {leaf.outcomes: leaf.probability for leaf in leaves}
        for prefix in itertools.product((0, 1), repeat=2):
            parent = sum(
                by_outcome[prefix + (c,)] for c in (0, 1)
            )
            # Parent weight equals the sum over the depth-2 subtree prefix.
            partial = sum(
                p for o, p in by_outcome.items() if o[:2] == prefix
            )
            assert parent == pytest.approx(partial, abs=1e-12)
        assert sum(by_outcome.values()) == pytest.approx(1.0, abs=1e-12)

    def test_precomputable_and_bit_identical(self):
        first = branch_tree(0.7, (0.4, 0.6))
        second = branch_tree(0.7, (0.4, 0.6))
        for a, b in zip(first, second):
            assert a.outcomes == b.outcomes
            assert a.theta == b.theta
            assert a.probability == b.probability
            assert np.array_equal(a.u_alice, b.u_alice)

    def test_requires_at_least_one_angle(self):
        with pytest.raises(ValueError, match="at least one"):
            branch_tree(math.pi / 4, ())

    def test_leaves_are_built_positionally(self, monkeypatch):
        # Every field given positionally binds in one loop, never by _bind.
        binds = count_calls(monkeypatch, Value, "_bind")
        assert len(branch_tree(0.7, [0.6] * 4)) == 16
        assert len(binds) == 0


class TestLeafTheta:
    def test_known_angles(self):
        assert leaf_theta(math.pi / 4, (math.pi / 6,)) == pytest.approx(
            math.pi / 6, abs=1e-15
        )
        assert leaf_theta(math.pi / 4, (math.pi / 4,) * 3) == pytest.approx(
            math.pi / 4, abs=1e-15
        )

    def test_matches_the_tree_near_pi_over_4(self):
        # sin(2t) is flat here: taking asin of it loses about half the digits.
        q = math.pi / 4
        for eps in (1e-12, 1e-10, 1e-8, 1e-6):
            for theta1, angles in ((q, (q - eps,)), (q - eps, (q - eps, q - eps / 2))):
                oracle = branch_tree(theta1, angles)[0].theta
                assert leaf_theta(theta1, angles) == pytest.approx(oracle, abs=1e-12)

    def test_product_state_leaf_trips_the_marginal_threshold_first(self):
        # p(1|0) = sin^2(theta) falls below ZERO_PROB_ATOL near theta = 1e-6,
        # long before theta itself falls below DEGENERATE_THETA = 1e-8.
        q, weak = math.pi / 4, 0.75
        leaf_scores(leaf_theta(q, [weak] * 5231))
        with pytest.raises(ZeroProbabilityError, match="outcome 1"):
            leaf_scores(leaf_theta(q, [weak] * 5232))
        leaf_theta(q, [weak] * 7067)
        with pytest.raises(DegenerateStateError, match="weak measurement 7068 "):
            leaf_theta(q, [weak] * 7068)

    def test_degenerate_where_the_tree_prunes(self):
        assert any(leaf.degenerate for leaf in branch_tree(0.3, (1e-5, 1e-5)))
        with pytest.raises(DegenerateStateError, match="weak measurement 2"):
            leaf_theta(0.3, (1e-5, 1e-5))

    def test_validates_like_branch_tree(self):
        for theta1, angles, match in (
            (math.pi / 4, (), "at least one"),
            (0.0, (0.3,), "tilt angle"),
            (math.pi / 2, (0.3,), "tilt angle"),
            (0.5, (0.3, 0.9), "weak angle"),
            (0.5, (0.0,), "weak angle"),
        ):
            for route in (branch_tree, leaf_theta):
                with pytest.raises(ValueError, match=match):
                    route(theta1, angles)


class TestCanonicalSettings:
    def test_bell_second_setting_is_sigma_x(self):
        (a1, a2), (b1, b2) = canonical_settings(math.pi / 4)
        np.testing.assert_allclose(a1, PAULI_Z, atol=1e-12)
        np.testing.assert_allclose(a2, PAULI_X, atol=1e-12)
        np.testing.assert_allclose(b1, PAULI_Z, atol=1e-12)
        np.testing.assert_allclose(b2, PAULI_X, atol=1e-12)

    def test_tilted_substitution(self):
        (_, a2), _ = canonical_settings(math.pi / 6)
        expected = 0.5 * PAULI_Z + (math.sqrt(3.0) / 2.0) * PAULI_X
        np.testing.assert_allclose(a2, expected, atol=1e-12)

    def test_rejects_out_of_range(self):
        for bad in (0.0, math.pi / 2):
            with pytest.raises(ValueError, match="tilt angle"):
                canonical_settings(bad)


class TestAdaptedMeasurement:
    def test_bell_branch_angle(self):
        (leaf,) = [n for n in branch_tree(math.pi / 4, (math.pi / 4,)) if n.outcomes == (0,)]
        adapted = adapted_alice_measurement(leaf)
        assert adapted.mu == pytest.approx(math.pi / 4, abs=1e-10)
        np.testing.assert_allclose(
            adapted.operator, (PAULI_Z + PAULI_X) / math.sqrt(2.0), atol=1e-9
        )

    def test_tilted_branch_angle(self):
        (leaf,) = [n for n in branch_tree(math.pi / 4, (math.pi / 6,)) if n.outcomes == (0,)]
        adapted = adapted_alice_measurement(leaf)
        assert adapted.mu == pytest.approx(math.atan(math.sqrt(3.0) / 2.0), abs=1e-10)
        assert adapted.mu == pytest.approx(0.71372, abs=1e-5)

    def test_conjugation_preserves_spectrum(self):
        rng = np.random.default_rng(149)
        for _ in range(100):
            psi = PureTwoQubitState(random_pure_amp(rng))
            try:
                sf = schmidt_decompose(psi)
            except DegenerateStateError:
                continue
            node = BranchNode((0,), sf.theta, sf.u_alice, 1.0)
            eigs = np.sort(np.linalg.eigvalsh(adapted_alice_measurement(node).operator))
            np.testing.assert_allclose(eigs, [-1.0, 1.0], atol=1e-10)


def adapted_term_oracle(theta: float) -> float:
    """Closed-form second term of the inequality under the adapted setting.

    Alice measures cos(mu) sz + sin(mu) sx with tan(mu) = sin(2 theta) on
    the tilted state; the worst-case conditional agreement follows from the
    joint distribution P(a,b) = (1 + (-1)^a cos(mu)cos(2t)
    + (-1)^(a+b) sin(mu)sin(2t))/4 with Bob along sigma_x.
    """
    mu = math.atan(math.sin(2.0 * theta))
    align = math.cos(mu) * math.cos(2.0 * theta)
    corr = math.sin(mu) * math.sin(2.0 * theta)
    p00 = (1.0 + align + corr) / (2.0 * (1.0 + align))
    p11 = (1.0 - align + corr) / (2.0 * (1.0 - align))
    return max(min(p00, p11), min(1.0 - p00, 1.0 - p11))


class TestEvaluateBranch:
    def test_bell_branch_canonical_is_maximal(self):
        (leaf,) = [n for n in branch_tree(math.pi / 4, (math.pi / 4,)) if n.outcomes == (0,)]
        rep = evaluate_branch(leaf, CANONICAL)
        assert rep.lhs == pytest.approx(1.0, abs=1e-10)
        assert rep.key_rate == pytest.approx(1.0, abs=1e-10)

    def test_tilted_branch_canonical_value(self):
        (leaf,) = [n for n in branch_tree(math.pi / 4, (math.pi / 6,)) if n.outcomes == (0,)]
        rep = evaluate_branch(leaf, CANONICAL)
        t = math.pi / 6
        expected = 0.5 * (1.0 + 1.0 / (2.0 * (math.cos(t) ** 4 + math.sin(t) ** 4)))
        assert expected == pytest.approx(0.9, abs=1e-12)
        assert rep.lhs == pytest.approx(expected, abs=1e-10)
        assert rep.key_rate == pytest.approx(math.log2(1.5), abs=1e-9)

    def test_tilted_branch_adapted_value(self):
        (leaf,) = [n for n in branch_tree(math.pi / 4, (math.pi / 6,)) if n.outcomes == (0,)]
        rep = evaluate_branch(leaf, ADAPTED)
        expected = 0.5 * (1.0 + adapted_term_oracle(math.pi / 6))
        assert rep.lhs == pytest.approx(expected, abs=1e-10)
        # The adapted choice scores below the tilt-matched one here.
        assert rep.key_rate < evaluate_branch(leaf, CANONICAL).key_rate

    def test_rate_depends_only_on_branch_angle(self):
        # Two different outcome histories with equal angles score equally.
        leaves = branch_tree(math.pi / 4, (math.pi / 6, math.pi / 5))
        by_theta = {}
        for leaf in leaves:
            for choice in (CANONICAL, ADAPTED):
                key = (round(leaf.theta, 12), choice)
                rate = evaluate_branch(leaf, choice).key_rate
                by_theta.setdefault(key, rate)
                assert rate == pytest.approx(by_theta[key], abs=1e-10)

    @pytest.mark.parametrize("theta", np.geomspace(1.1e-6, 1e-2, 12).tolist())
    def test_small_angles_evaluate(self, theta):
        # Down to where Alice's smallest marginal sin^2(theta) nears 1e-12.
        leaf = BranchNode((0,), theta, ID2, 1.0)
        for choice in (CANONICAL, ADAPTED):
            rep = evaluate_branch(leaf, choice)
            assert 0.0 <= rep.key_rate <= 1.0

    @pytest.mark.parametrize("choice", [CANONICAL, ADAPTED])
    def test_rejects_angle_outside_tilt_range(self, choice):
        with pytest.raises(ValueError, match="tilt angle"):
            evaluate_branch(BranchNode((0,), 1.0, ID2, 1.0), choice)

    def test_rejects_unknown_choice(self):
        (leaf,) = [n for n in branch_tree(math.pi / 4, (math.pi / 4,)) if n.outcomes == (0,)]
        with pytest.raises(ValueError, match="alice_choice"):
            evaluate_branch(leaf, "optimal")


def test_branch_state_builds_expected_amplitudes():
    state = branch_state(math.pi / 6, ID2)
    np.testing.assert_allclose(state.amp, tilted_state(math.pi / 6).amp, atol=1e-12)
