"""Sharp projectors, unsharp effect operators, and weak Kraus pairs.

An unsharp measurement mixes a projective measurement with white noise and
is parametrized by a sharpness in (0, 1].  The weak Kraus pair of the
branch strategy is parametrized by an angle instead (it enters through
cos/sin); the two live in distinct types so the units cannot be confused.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import ID2, direction_operator
from .value import Value

# sigma_x eigenstates in the computational basis.
_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
_MINUS = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
_PLUS_PROJ = np.outer(_PLUS, _PLUS.conj())
_MINUS_PROJ = np.outer(_MINUS, _MINUS.conj())


def _check_outcome(outcome: int) -> int:
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    return outcome


def check_sharpness(sharpness: float) -> None:
    """Raise ValueError unless sharpness lies in (0, 1]."""
    if not 0.0 < sharpness <= 1.0:
        raise ValueError(f"sharpness must lie in (0, 1], got {sharpness}")


class SharpSetting(Value):
    """Projective spin measurement along a Bloch direction."""

    __slots__ = ("direction",)


class UnsharpSetting(Value):
    """Noisy spin measurement: sharpness 1 is projective, 0 learns nothing."""

    __slots__ = ("direction", "sharpness")

    def __post_init__(self) -> None:
        check_sharpness(self.sharpness)


def check_weak_angle(angle: float) -> float:
    """Return the weak angle if it lies in (0, pi/4], else raise ValueError."""
    if not 0.0 < angle <= math.pi / 4.0:
        raise ValueError(f"weak angle must lie in (0, pi/4], got {angle}")
    return angle


class WeakKrausSetting(Value):
    """Weak measurement in the sigma_x eigenbasis, strength set by an angle.

    The angle lies in (0, pi/4]: pi/4 yields Kraus operators proportional
    to the identity (no information, no disturbance) and the limit 0 is
    projective.
    """

    __slots__ = ("angle",)

    def __post_init__(self) -> None:
        check_weak_angle(self.angle)


def projector(setting: SharpSetting, outcome: int) -> np.ndarray:
    """Rank-1 projector for the given outcome of a sharp spin measurement."""
    sign = -1.0 if _check_outcome(outcome) else 1.0
    return 0.5 * (ID2 + sign * direction_operator(setting.direction))


def effect(setting: UnsharpSetting, outcome: int) -> np.ndarray:
    """POVM element of the unsharp measurement; eigenvalues (1 +- sharpness)/2."""
    lam = setting.sharpness
    proj = projector(SharpSetting(setting.direction), outcome)
    return lam * proj + (1.0 - lam) * 0.5 * ID2


def sqrt_effect(setting: UnsharpSetting, outcome: int) -> np.ndarray:
    """Square root of the effect operator, used in the Lueders state update.

    Closed form: sqrt((1+lam)/2) on the outcome projector plus
    sqrt((1-lam)/2) on its complement, the spectral square root of effect(...).
    """
    lam = setting.sharpness
    outcome = _check_outcome(outcome)
    proj_c = projector(SharpSetting(setting.direction), outcome)
    proj_other = ID2 - proj_c
    return (
        math.sqrt((1.0 + lam) / 2.0) * proj_c
        + math.sqrt((1.0 - lam) / 2.0) * proj_other
    )


def weak_kraus(setting: WeakKrausSetting, outcome: int) -> np.ndarray:
    """Kraus operator of the weak sigma_x-basis measurement.

    Outcome 0 weights |+><+| by cos(angle) and |-><-| by sin(angle);
    outcome 1 swaps the weights, the minimal completion that keeps the same
    eigenbasis and satisfies M0^dag M0 + M1^dag M1 = I.  Returned in the
    computational basis.
    """
    c, s = math.cos(setting.angle), math.sin(setting.angle)
    if _check_outcome(outcome):
        c, s = s, c
    return c * _PLUS_PROJ + s * _MINUS_PROJ

