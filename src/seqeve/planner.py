"""Inverse problems for the eavesdropping chain.

Given a target key rate per Eve, find the minimal sharpness each Eve needs,
and the longest chain for which Bob still beats every Eve's rate.  With the
upstream assemblage and the directions fixed, every entry of the new Eve's
table is 1/2 +- lambda n.r / 2, so the steering-inequality value is affine
in her sharpness: lhs(lambda) = 1/2 + lambda C with C = lhs(1) - 1/2.  She
measures in Bob's bases, so Bob's table on the accepted prefix is hers at
lambda = 1 and gives the exact minimum lambda* = (1/4 + delta(target)) / C.
The solve snaps lambda* up to the 2^-20 grid and checks it against the
neighbouring grid point, so each Eve costs 2 grid tables plus Bob's table
with her in place.  The accepted prefix moves one Eve step per position.
A closed-form recursion valid for the maximally entangled state with
sigma_z/sigma_x settings and unbiased inputs serves as an independent
oracle for both searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import (
    BOB, DEFAULT_BIAS, MUB_DIRECTIONS, Assemblage, _eve_maps, mub_chain,
    mub_sharp_pair,
)
from .states import bell_state
from .steering import (
    SteeringReport, delta_for_rate, key_rate, report, report_from_table
)

# Sharpness grid of the solve: 2^-20 < 1e-6 is the documented tolerance.
_GRID = 2**20

# Reasons a chain cannot be extended by one more Eve.
EVE_UNREACHABLE = "eve-rate-unreachable"
BOB_SUPREMACY = "bob-supremacy"

# Alice's and Bob's settings in every planned chain, and the Eves' directions.
_MUB_SHARP = mub_sharp_pair()
_UNBIASED = np.array(DEFAULT_BIAS)


class InfeasibleError(RuntimeError):
    """A requested chain position admits no valid sharpness value."""

    def __init__(self, position: int, reason: str, detail: str):
        self.position = position
        self.reason = reason
        super().__init__(f"no valid sharpness for Eve {position} ({reason}): {detail}")


@dataclass(frozen=True)
class PlanResult:
    """Longest admissible chain for one target rate."""

    target_rate: float
    lambdas: tuple[float, ...]
    bob_rate: float
    max_eves: int


def check_target_rate(target_rate: float) -> None:
    """Raise ValueError unless the target rate lies in (0, 1)."""
    if not 0.0 < target_rate < 1.0:
        raise ValueError(f"target rate must lie in (0, 1), got {target_rate}")


def shrink_factor(sharpness: float) -> float:
    """Per-Eve damping of both matched-basis correlations, (1 + sqrt(1-l^2))/2.

    The measured-basis correlation survives intact while the transverse one
    shrinks by the quality factor; averaging the two equiprobable inputs
    gives this factor for both bases.
    """
    return 0.5 * (1.0 + math.sqrt(1.0 - sharpness * sharpness))


def rate_from_correlation(corr: float) -> float:
    """Key rate implied by a matched-basis correlation value."""
    delta = max(0.5 * (1.0 + corr) - 0.75, 0.0)
    return key_rate(min(delta, 0.25))


def _score(state: Assemblage, sharpness: float) -> SteeringReport:
    """Report of a party measuring ``state`` in Bob's bases at ``sharpness``."""
    return report_from_table(state.table(MUB_DIRECTIONS, np.full(2, sharpness)))


def _eve_step(state: Assemblage, sharpness: float) -> Assemblage:
    """``state`` after an unbiased Eve in Bob's bases at ``sharpness``."""
    return state.after(_eve_maps(MUB_DIRECTIONS, np.full(2, sharpness), _UNBIASED))


def bob_rate(lambdas: tuple[float, ...] | list[float]) -> float:
    """Bob's key rate when every listed Eve measures at the given sharpness."""
    return report(mub_chain(tuple(lambdas)), BOB).key_rate


def _min_sharpness(upstream: Assemblage, sharp_lhs: float, target_rate: float) -> float:
    """Smallest grid sharpness at ``upstream``, where lhs(1) = ``sharp_lhs``."""
    # lhs(lambda) = 1/2 + lambda (lhs(1) - 1/2) must reach 3/4 + delta(target).
    exact = (0.25 + delta_for_rate(target_rate)) / (sharp_lhs - 0.5)

    def reaches(k: int) -> bool:
        return _score(upstream, k / _GRID).key_rate >= target_rate

    # Roundoff can put the exact minimum on either side of a grid point.
    k = min(max(math.ceil(exact * _GRID), 1), _GRID)
    while not reaches(k):
        k += 1
    while k > 1 and reaches(k - 1):
        k -= 1
    return k / _GRID


def lambda_min_for_rate(prefix: tuple[float, ...], target_rate: float) -> float:
    """Smallest sharpness giving Eve ``len(prefix)+1`` at least the target rate.

    The steering value is affine in the new Eve's sharpness, so Bob's table
    on the prefix, hers at sharpness 1, gives the exact minimum.  It is
    snapped up to the 2^-20 grid (within 1e-6 of the minimum) and checked
    against the neighbouring grid point on the monotone sharpness-to-rate
    map.  The returned sharpness reaches the target rate.  Raises
    InfeasibleError when even a projective measurement cannot reach it.
    """
    check_target_rate(target_rate)
    prefix = tuple(prefix)
    upstream = Assemblage.of(bell_state(), _MUB_SHARP)
    for lam in prefix:
        upstream = _eve_step(upstream, lam)
    sharp = _score(upstream, 1.0)
    if sharp.key_rate < target_rate:
        raise InfeasibleError(
            len(prefix) + 1,
            EVE_UNREACHABLE,
            f"rate at sharpness 1 is below target {target_rate}",
        )
    return _min_sharpness(upstream, sharp.lhs, target_rate)


def max_eves(target_rate: float) -> PlanResult:
    """Longest minimal-sharpness chain with Bob's rate above the target.

    Extends greedily: each new Eve takes her minimal sharpness given the
    accepted prefix, and the extension is kept only while Bob (with all
    listed Eves in place) still exceeds the target rate.
    """
    check_target_rate(target_rate)
    accepted: tuple[float, ...] = ()
    upstream = Assemblage.of(bell_state(), _MUB_SHARP)
    bob = _score(upstream, 1.0)
    # Bob's table is a projective next Eve's, and its rate stays above the target.
    while True:
        lam = _min_sharpness(upstream, bob.lhs, target_rate)
        candidate = _eve_step(upstream, lam)
        after = _score(candidate, 1.0)
        if after.key_rate <= target_rate:
            break
        accepted += (lam,)
        upstream, bob = candidate, after
    return PlanResult(
        target_rate=target_rate,
        lambdas=accepted,
        bob_rate=bob.key_rate,
        max_eves=len(accepted),
    )


def closed_form_chain(target_rate: float, n: int) -> tuple[float, ...]:
    """Analytic minimal-sharpness sequence; oracle for the simulator planner.

    Valid only for the maximally entangled state, sigma_z/sigma_x settings
    and unbiased inputs.  Eve m needs matched-basis correlation
    2*delta(target) + 1/2, and each upstream Eve damps it by her shrink
    factor, so lambda_m = needed / prod(shrink_factor(lambda_i), i < m).
    Raises InfeasibleError at the first position where either the required
    sharpness exceeds 1 or Bob's closed-form rate stops exceeding the target.
    """
    check_target_rate(target_rate)
    if n < 1:
        raise ValueError(f"chain length must be at least 1, got {n}")
    needed = 2.0 * delta_for_rate(target_rate) + 0.5
    lambdas: list[float] = []
    damping = 1.0
    for m in range(1, n + 1):
        lam = needed / damping
        if lam > 1.0:
            raise InfeasibleError(
                m, EVE_UNREACHABLE, f"required sharpness {lam:.6f} exceeds 1"
            )
        damping *= shrink_factor(lam)
        bob = rate_from_correlation(damping)
        if bob <= target_rate:
            raise InfeasibleError(
                m,
                BOB_SUPREMACY,
                f"Bob rate {bob:.6f} would not exceed target {target_rate}",
            )
        lambdas.append(lam)
    return tuple(lambdas)
