"""Tests for projectors, unsharp effects, weak Kraus pairs, and the trade-off."""

import math

import numpy as np
import pytest

from helpers import random_direction, random_qubit_density
from oracles import psd_sqrt, tradeoff
from seqeve import SharpSetting, UnsharpSetting
from seqeve.linalg import ID2, PAULI_X, X_DIR, Z_DIR
from seqeve.measurement import (
    WeakKrausSetting,
    effect,
    projector,
    sqrt_effect,
    weak_kraus,
)


class TestProjector:
    def test_computational_basis(self):
        got = projector(SharpSetting(Z_DIR), 0)
        np.testing.assert_allclose(got, np.diag([1.0, 0.0]), atol=1e-12)

    def test_sigma_x_eigenprojector(self):
        got = projector(SharpSetting(X_DIR), 0)
        np.testing.assert_allclose(got, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_completeness_and_idempotence(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            setting = SharpSetting(random_direction(rng))
            p0 = projector(setting, 0)
            p1 = projector(setting, 1)
            np.testing.assert_allclose(p0 + p1, ID2, atol=1e-12)
            np.testing.assert_allclose(p0 @ p0, p0, atol=1e-12)
            assert np.trace(p0).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError, match="outcome"):
            projector(SharpSetting(Z_DIR), 2)


class TestEffect:
    def test_projective_limit(self):
        got = effect(UnsharpSetting(Z_DIR, 1.0), 0)
        np.testing.assert_allclose(got, np.diag([1.0, 0.0]), atol=1e-12)

    def test_half_sharp_diagonal(self):
        got = effect(UnsharpSetting(Z_DIR, 0.5), 0)
        np.testing.assert_allclose(got, np.diag([0.75, 0.25]), atol=1e-12)

    def test_table_sharpness_along_x(self):
        got = effect(UnsharpSetting(X_DIR, 0.552), 0)
        np.testing.assert_allclose(
            got, np.array([[0.5, 0.276], [0.276, 0.5]]), atol=1e-12
        )

    def test_eigenvalues(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            lam = rng.uniform(0.05, 1.0)
            e = effect(UnsharpSetting(random_direction(rng), lam), 1)
            eigs = np.sort(np.linalg.eigvalsh(e))
            np.testing.assert_allclose(
                eigs, [(1 - lam) / 2, (1 + lam) / 2], atol=1e-12
            )

    def test_completeness(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            setting = UnsharpSetting(random_direction(rng), rng.uniform(0.05, 1.0))
            np.testing.assert_allclose(
                effect(setting, 0) + effect(setting, 1), ID2, atol=1e-12
            )

    def test_sharpness_validation(self):
        for bad in (0.0, -0.2, 1.1):
            with pytest.raises(ValueError, match="sharpness"):
                UnsharpSetting(Z_DIR, bad)


class TestSqrtEffect:
    def test_projective_limit_is_projector(self):
        got = sqrt_effect(UnsharpSetting(Z_DIR, 1.0), 0)
        np.testing.assert_allclose(got, np.diag([1.0, 0.0]), atol=1e-12)

    def test_diagonal_case(self):
        got = sqrt_effect(UnsharpSetting(Z_DIR, 0.5), 0)
        np.testing.assert_allclose(
            got, np.diag([math.sqrt(0.75), math.sqrt(0.25)]), atol=1e-12
        )

    def test_matches_psd_sqrt_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            setting = UnsharpSetting(random_direction(rng), rng.uniform(0.05, 1.0))
            for c in (0, 1):
                closed = sqrt_effect(setting, c)
                np.testing.assert_allclose(
                    closed, psd_sqrt(effect(setting, c)), atol=1e-10
                )
                np.testing.assert_allclose(
                    closed @ closed, effect(setting, c), atol=1e-10
                )

    def test_lueders_update_preserves_trace(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            setting = UnsharpSetting(random_direction(rng), rng.uniform(0.05, 1.0))
            rho = random_qubit_density(rng)
            total = sum(
                sqrt_effect(setting, c) @ rho @ sqrt_effect(setting, c)
                for c in (0, 1)
            )
            assert np.trace(total).real == pytest.approx(1.0, abs=1e-12)
            assert np.min(np.linalg.eigvalsh(total)) > -1e-12


class TestWeakKraus:
    def test_balanced_case_is_scaled_identity(self):
        got = weak_kraus(WeakKrausSetting(math.pi / 4), 0)
        np.testing.assert_allclose(got, ID2 / math.sqrt(2.0), atol=1e-12)

    def test_projective_limit(self):
        got = weak_kraus(WeakKrausSetting(1e-9), 0)
        plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(got, plus, atol=2e-9)

    def test_computational_basis_matrix(self):
        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
        expected = 0.5 * (c + s) * ID2 + 0.5 * (c - s) * PAULI_X
        got = weak_kraus(WeakKrausSetting(math.pi / 6), 0)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert got[0, 0].real == pytest.approx(0.683, abs=5e-4)
        assert got[0, 1].real == pytest.approx(0.183, abs=5e-4)

    def test_povm_completeness(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            setting = WeakKrausSetting(rng.uniform(1e-3, math.pi / 4))
            m0 = weak_kraus(setting, 0)
            m1 = weak_kraus(setting, 1)
            np.testing.assert_allclose(
                m0.conj().T @ m0 + m1.conj().T @ m1, ID2, atol=1e-12
            )
            for m in (m0, m1):
                assert np.min(np.linalg.eigvalsh(m.conj().T @ m)) > -1e-12

    def test_angle_validation(self):
        for bad in (0.0, -0.5, math.pi / 4 + 0.01):
            with pytest.raises(ValueError, match="angle"):
                WeakKrausSetting(bad)


class TestTradeoff:
    def test_projective_endpoint(self):
        pair = tradeoff(1.0)
        assert pair.quality_factor == pytest.approx(0.0, abs=1e-12)
        assert pair.precision == pytest.approx(1.0, abs=1e-12)

    def test_direct_formula(self):
        pair = tradeoff(0.552)
        assert pair.precision == pytest.approx(0.552, abs=1e-12)
        assert pair.quality_factor == pytest.approx(math.sqrt(1 - 0.552**2), abs=1e-12)
        assert pair.quality_factor == pytest.approx(0.83385, abs=1e-5)

    def test_circle_identity_on_grid(self):
        for lam in np.linspace(1e-6, 1.0, 1000):
            pair = tradeoff(float(lam))
            assert pair.quality_factor**2 + pair.precision**2 == pytest.approx(
                1.0, abs=1e-12
            )

    def test_rejects_out_of_range(self):
        for bad in (0.0, 1.5):
            with pytest.raises(ValueError, match="sharpness"):
                tradeoff(bad)
