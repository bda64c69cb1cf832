"""Two-qubit state representations with validated physical invariants."""

from __future__ import annotations

import math
import numpy as np

from .linalg import ATOL, is_hermitian
from .value import Value


class InvariantError(ValueError):
    """A computed object broke a physical invariant beyond its tolerance.

    Raised by the validation of internally built states and tables, so a
    failure of the program is not reported as a fault in the user's input.
    """


def check_tilt_angle(theta: float) -> float:
    """Return theta if it lies in (0, pi/4], else raise ValueError."""
    if not 0.0 < theta <= math.pi / 4.0:
        raise ValueError(f"tilt angle must lie in (0, pi/4], got {theta}")
    return theta


class TwoQubitState(Value):
    """4x4 density matrix; unit trace, Hermitian, positive semidefinite.

    ``rho`` may also be a (..., 4, 4) stack, validated as a whole by one
    trace, one Hermiticity and one ``eigvalsh`` check.  A failure names the
    first offending matrix's trace or lowest eigenvalue.
    """

    __slots__ = ("rho",)

    def __init__(self, rho: np.ndarray) -> None:
        object.__setattr__(self, "rho", rho)
        self.__post_init__()

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape[-2:] != (4, 4):
            raise InvariantError(f"density matrix must be 4x4, got shape {rho.shape}")
        traces = np.trace(rho, axis1=-2, axis2=-1)
        off = np.maximum(abs(traces.real - 1.0), abs(traces.imag))
        # Written as "not <=" so that a NaN trace fails too.
        if not off.max() <= ATOL:
            first = np.argmax(~(off <= ATOL))
            raise InvariantError(f"trace must be 1, got {traces.flat[first]}")
        if not is_hermitian(rho, atol=ATOL):
            raise InvariantError("density matrix must be Hermitian")
        eigs = np.linalg.eigvalsh(rho)
        if eigs.min() < -ATOL:
            lowest = eigs.min(axis=-1)
            first = np.argmax(lowest < -ATOL)
            raise InvariantError(
                f"density matrix has negative eigenvalue {lowest.flat[first]:.3e}"
            )
        object.__setattr__(self, "rho", rho)


class PureTwoQubitState(Value):
    """Length-4 amplitude vector in the |00>,|01>,|10>,|11> basis."""

    __slots__ = ("amp",)

    def __init__(self, amp: np.ndarray) -> None:
        object.__setattr__(self, "amp", amp)
        self.__post_init__()

    def __post_init__(self) -> None:
        amp = np.asarray(self.amp, dtype=complex).reshape(-1)
        if amp.shape != (4,):
            raise ValueError(f"amplitude vector must have length 4, got {amp.shape}")
        norm_sq = float(np.vdot(amp, amp).real)
        if abs(norm_sq - 1.0) > ATOL:
            raise ValueError(f"amplitudes must be normalized, |psi|^2 = {norm_sq}")
        object.__setattr__(self, "amp", amp)

    def to_density(self) -> TwoQubitState:
        return TwoQubitState(np.outer(self.amp, self.amp.conj()))

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amp, self.amp.conj())


def bell_state() -> PureTwoQubitState:
    """Maximally entangled state (|00> + |11>)/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return PureTwoQubitState(np.array([s, 0.0, 0.0, s], dtype=complex))


def tilted_state(theta: float) -> PureTwoQubitState:
    """Partially entangled state cos(theta)|00> + sin(theta)|11>.

    The tilt angle is restricted to (0, pi/4]; theta = pi/4 recovers the
    maximally entangled state.  Degenerate (product) inputs are rejected,
    tests that need them can build PureTwoQubitState directly.
    """
    check_tilt_angle(theta)
    return PureTwoQubitState(
        np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)], dtype=complex)
    )
