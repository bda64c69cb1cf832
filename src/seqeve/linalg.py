"""Fixed-dimension complex linear algebra for two-qubit simulations.

Everything here works on dense 2x2 and 4x4 complex numpy arrays; the
problem is fixed-dimension, so no general-N machinery is provided.
"""

from __future__ import annotations

import math

import numpy as np

from .value import Value

# Entrywise tolerance for invariants; composed results get one decade of
# slack per composition layer.
ATOL = 1e-12
COMPOSED_ATOL = 1e-10

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a (..., n, n) stack."""
    return m.conj().swapaxes(-1, -2)


def is_hermitian(m: np.ndarray, atol: float = ATOL) -> bool:
    """max |m - m^dag| <= atol; written as "<=" so that a NaN entry fails."""
    return bool(np.abs(m - dagger(m)).max() <= atol)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, used to lift single-qubit operators to two qubits."""
    return np.kron(a, b)


class BlochDirection(Value):
    """Measurement direction on the Bloch sphere, angles in radians."""

    __slots__ = ("theta", "phi")

    def __init__(self, theta: float, phi: float = 0.0) -> None:
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("direction angles must be finite")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi <= 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi], got {self.phi}")

    def components(self) -> tuple[float, float, float]:
        """Cartesian components (x, y, z) of the unit vector."""
        st = math.sin(self.theta)
        return (st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta))

    def unit_vector(self) -> np.ndarray:
        return np.array(self.components())


Z_DIR = BlochDirection(0.0, 0.0)
X_DIR = BlochDirection(math.pi / 2.0, 0.0)


def direction_operator(n: BlochDirection) -> np.ndarray:
    """Spin component observable n.sigma; Hermitian, traceless, eigenvalues +-1."""
    nx, ny, nz = n.unit_vector()
    return nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z
