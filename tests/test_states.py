"""Tests for the two-qubit state types."""

import math

import numpy as np
import pytest

from helpers import random_pure_amp
from seqeve import InvariantError, PureTwoQubitState, bell_state, tilted_state
from seqeve.states import TwoQubitState


def test_bell_amplitudes():
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(bell_state().amp, [s, 0.0, 0.0, s], atol=1e-12)


def test_tilted_at_pi_over_4_equals_bell():
    np.testing.assert_allclose(
        tilted_state(math.pi / 4).amp, bell_state().amp, atol=1e-12
    )


def test_tilted_direct_substitution():
    np.testing.assert_allclose(
        tilted_state(math.pi / 6).amp,
        [math.sqrt(3.0) / 2.0, 0.0, 0.0, 0.5],
        atol=1e-12,
    )


@pytest.mark.parametrize("theta", [0.0, -0.1, math.pi / 4 + 0.01, math.pi])
def test_tilted_rejects_angle_outside_range(theta):
    with pytest.raises(ValueError, match="pi/4"):
        tilted_state(theta)


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        PureTwoQubitState(np.array([1.0, 1.0, 0.0, 0.0]))


def test_pure_state_rejects_wrong_length():
    with pytest.raises(ValueError, match="length 4"):
        PureTwoQubitState(np.array([1.0, 0.0]))


def test_density_from_pure_state_passes_invariants():
    rng = np.random.default_rng(37)
    for _ in range(100):
        state = PureTwoQubitState(random_pure_amp(rng)).to_density()
        eigs = np.sort(np.linalg.eigvalsh(state.rho))
        assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-12)
        # Rank one: the second-largest eigenvalue vanishes.
        assert eigs[-2] < 1e-10


def test_two_qubit_state_rejects_trace_violation():
    with pytest.raises(InvariantError, match="trace"):
        TwoQubitState(np.eye(4, dtype=complex))


@pytest.mark.parametrize(
    "nan", [complex(math.nan, 0.0), complex(0.0, math.nan)], ids=["real", "imaginary"]
)
def test_two_qubit_state_rejects_nan_trace(nan):
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    rho[1, 1] += nan
    with pytest.raises(InvariantError, match="trace"):
        TwoQubitState(rho)


def test_two_qubit_state_rejects_non_hermitian():
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    rho[0, 1] = 0.5
    with pytest.raises(InvariantError, match="Hermitian"):
        TwoQubitState(rho)


def test_two_qubit_state_rejects_negative_eigenvalue():
    rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(InvariantError, match="negative eigenvalue"):
        TwoQubitState(rho)


def test_two_qubit_state_rejects_a_stack():
    # One matrix per state: a stack of valid matrices is not a state.
    rho = np.stack([bell_state().density_matrix()] * 2)
    with pytest.raises(InvariantError, match=r"4x4, got shape \(2, 4, 4\)"):
        TwoQubitState(rho)
