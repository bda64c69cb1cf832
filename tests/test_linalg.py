"""Tests for the fixed-dimension linear algebra layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_direction, random_hermitian4, random_psd2
from oracles import ID4, partial_trace, psd_sqrt
from seqeve import BlochDirection, bell_state, tilted_state
from seqeve.linalg import (
    ATOL,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    X_DIR,
    Z_DIR,
    direction_operator,
    is_hermitian,
    kron,
)


class TestKron:
    def test_identity_case(self):
        np.testing.assert_allclose(kron(ID2, ID2), ID4, atol=1e-12)

    def test_diagonal_product(self):
        np.testing.assert_allclose(
            kron(PAULI_Z, PAULI_Z), np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-12
        )

    def test_bell_state_is_xx_eigenvector(self):
        # Direct 4-vector multiplication: sigma_x x sigma_x fixes the state.
        amp = bell_state().amp
        np.testing.assert_allclose(kron(PAULI_X, PAULI_X) @ amp, amp, atol=1e-12)

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            d = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            np.testing.assert_allclose(
                kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-10
            )


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = bell_state().density_matrix()
        np.testing.assert_allclose(partial_trace(rho, "B"), 0.5 * ID2, atol=1e-12)

    def test_product_state_factorization(self):
        rng = np.random.default_rng(11)
        a = random_psd2(rng)
        b = random_psd2(rng)
        got = partial_trace(kron(a, b), "A")
        np.testing.assert_allclose(got, a * np.trace(b), atol=1e-10)

    def test_tilted_state_marginal(self):
        rho = tilted_state(math.pi / 6).density_matrix()
        np.testing.assert_allclose(
            partial_trace(rho, "A"), np.diag([0.75, 0.25]), atol=1e-12
        )

    def test_linearity(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            r1 = random_hermitian4(rng)
            r2 = random_hermitian4(rng)
            alpha, beta = rng.normal(size=2)
            for keep in ("A", "B"):
                np.testing.assert_allclose(
                    partial_trace(alpha * r1 + beta * r2, keep),
                    alpha * partial_trace(r1, keep) + beta * partial_trace(r2, keep),
                    atol=1e-10,
                )

    def test_trace_preserved(self):
        rng = np.random.default_rng(17)
        rho = random_hermitian4(rng)
        for keep in ("A", "B"):
            assert np.trace(partial_trace(rho, keep)) == pytest.approx(
                np.trace(rho), abs=1e-12
            )

    def test_bad_subsystem_tag(self):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(ID4, "C")


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(ID2), ID2, atol=1e-12)

    def test_diagonal_case(self):
        got = psd_sqrt(np.diag([0.75, 0.25]).astype(complex))
        np.testing.assert_allclose(got, np.diag([math.sqrt(0.75), 0.5]), atol=1e-12)

    def test_effect_operator_sqrt(self):
        # Effect along z with sharpness 0.552 has eigenvalues (1 +- 0.552)/2.
        eff = np.diag([0.776, 0.224]).astype(complex)
        got = psd_sqrt(eff)
        np.testing.assert_allclose(
            got, np.diag([math.sqrt(0.776), math.sqrt(0.224)]), atol=1e-12
        )

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            m = random_psd2(rng)
            eigs, vecs = np.linalg.eigh(m)
            oracle = vecs @ np.diag(np.sqrt(np.clip(eigs, 0.0, None))) @ vecs.conj().T
            np.testing.assert_allclose(psd_sqrt(m), oracle, atol=1e-9)

    def test_square_recovers_input(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(1000):
            m = random_psd2(rng)
            root = psd_sqrt(m)
            worst = max(worst, float(np.max(np.abs(root @ root - m))))
        assert worst < 1e-10

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            psd_sqrt(np.diag([1.0, -1e-6]).astype(complex))

    def test_clamps_tiny_negative(self):
        got = psd_sqrt(np.diag([1.0, -1e-10]).astype(complex))
        np.testing.assert_allclose(got, np.diag([1.0, 0.0]), atol=1e-5)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            psd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


class TestBlochDirection:
    def test_unit_vector_norm(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = random_direction(rng)
            assert np.linalg.norm(n.unit_vector()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta,phi", [(-0.1, 0.0), (3.2, 0.0), (0.0, -1.0), (0.0, 7.0)])
    def test_rejects_out_of_range(self, theta, phi):
        with pytest.raises(ValueError):
            BlochDirection(theta, phi)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            BlochDirection(float("nan"), 0.0)


class TestDirectionOperator:
    def test_pole_is_sigma_z(self):
        np.testing.assert_allclose(direction_operator(Z_DIR), PAULI_Z, atol=1e-12)

    def test_equatorial_axes(self):
        np.testing.assert_allclose(direction_operator(X_DIR), PAULI_X, atol=1e-12)
        np.testing.assert_allclose(
            direction_operator(BlochDirection(math.pi / 2, math.pi / 2)),
            PAULI_Y,
            atol=1e-12,
        )

    def test_involution(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            op = direction_operator(random_direction(rng))
            np.testing.assert_allclose(op @ op, ID2, atol=1e-12)
            np.testing.assert_allclose(op, op.conj().T, atol=1e-12)
            assert np.trace(op) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(-16.0, -8.0),
    st.sampled_from((None, complex(math.nan, 0.0), complex(0.0, math.nan))),
    st.integers(0, 15),
)
def test_is_hermitian_agrees_with_allclose(seed, log_noise, nan_part, nan_at):
    """The max-abs test equals allclose at rtol 0, NaN entries included."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = random_hermitian4(rng) + 10.0**log_noise * noise
    if nan_part is not None:
        m[divmod(nan_at, 4)] += nan_part
    expected = bool(np.allclose(m, m.conj().T, rtol=0.0, atol=ATOL))
    assert is_hermitian(m) is expected
