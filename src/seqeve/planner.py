"""Inverse problems for the eavesdropping chain.

Given a target key rate per Eve, find the minimal sharpness each Eve needs,
and the longest chain for which Bob still beats every Eve's rate.  With the
upstream assemblage and the directions fixed, every entry of the new Eve's
table is 1/2 +- lambda n.r / 2, so the steering-inequality value is affine
in her sharpness: lhs(lambda) = 1/2 + lambda C with C = lhs(1) - 1/2.  She
measures in Bob's bases, so Bob's table on the accepted prefix is hers at
lambda = 1 and gives the exact minimum lambda* = (1/4 + delta(target)) / C.
The solve snaps lambda* up to the 2^-20 grid and checks it against the
neighbouring grid point below.  ``plan_chains`` plans every target of a
request in lockstep, one target per row of an assemblage stack, so the cost
is per chain position and shared by all targets: one stacked table of both
grid points (and another for each row whose grid point must move), one
stacked Eve step and one stacked Bob table with the new Eves in place,
which is also the next Eve's table at lambda = 1.  Targets in (0, 1) need
at most 6 positions.  A closed-form recursion valid for the maximally
entangled state with sigma_z/sigma_x settings and unbiased inputs serves as
an independent oracle for both searches.
"""

from __future__ import annotations

import math

import numpy as np

from .chain import (
    BOB, DEFAULT_BIAS, MUB_DIRECTIONS, Assemblage, _eve_maps, mub_chain,
    mub_sharp_pair,
)
from .states import bell_state
from .steering import (
    THRESHOLD, SteeringReport, delta_for_rate, fgi_lhs, key_rate, report,
    table_reports,
)
from .value import Value

# Sharpness grid of the solve: 2^-20 < 1e-6 is the documented tolerance.
_GRID = 2**20

# Reasons a chain cannot be extended by one more Eve.
EVE_UNREACHABLE = "eve-rate-unreachable"
BOB_SUPREMACY = "bob-supremacy"

# Alice's and Bob's settings in every planned chain, and the Eves' directions.
_MUB_SHARP = mub_sharp_pair()
_UNBIASED = np.array(DEFAULT_BIAS)
# Bob's sharpness, broadcast onto both inputs, which is also a projective Eve's.
_SHARP = np.ones(1)


class InfeasibleError(RuntimeError):
    """A requested chain position admits no valid sharpness value."""

    def __init__(self, position: int, reason: str, detail: str):
        self.position = position
        self.reason = reason
        super().__init__(f"no valid sharpness for Eve {position} ({reason}): {detail}")


class PlanResult(Value):
    """Longest admissible chain for one target rate."""

    __slots__ = ("target_rate", "lambdas", "bob_rate", "max_eves")

    def __init__(
        self, target_rate: float, lambdas: tuple[float, ...], bob_rate: float,
        max_eves: int,
    ) -> None:
        object.__setattr__(self, "target_rate", target_rate)
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "bob_rate", bob_rate)
        object.__setattr__(self, "max_eves", max_eves)


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


def _both(sharpness: np.ndarray) -> np.ndarray:
    """Settings array (..., 1): each sharpness, broadcast onto both of Bob's bases."""
    return sharpness[..., None]


def _eve_step(state: Assemblage, sharpness: np.ndarray) -> Assemblage:
    """``state`` after an unbiased Eve in Bob's bases, one per ``sharpness``.

    A (T,) array of sharpnesses moves row r of a (T, 4, 3) stack, or the
    one shared assemblage, by the map at sharpness[r]; sharpness 0 is the
    identity.
    """
    return state.after(_eve_maps(MUB_DIRECTIONS, _both(sharpness), _UNBIASED))


def _bob_reports(state: Assemblage) -> list[SteeringReport]:
    """Bob's report on each row of ``state``."""
    return table_reports(state.table(MUB_DIRECTIONS, _SHARP))


def bob_rate(lambdas: tuple[float, ...] | list[float]) -> float:
    """Bob's key rate when every listed Eve measures at the given sharpness."""
    return report(mub_chain(tuple(lambdas)), BOB).key_rate


def _grid_solve(
    state: Assemblage, rows: int, solves: dict[int, tuple[float, float]], position: int
) -> dict[int, float]:
    """Smallest grid sharpness k / 2^20 reaching its target, for each row solved.

    ``solves`` maps a row of ``state`` (a stack of ``rows`` assemblages, or
    one shared by all rows) to its target and lhs(1) there.  Each round
    scores k and k - 1 of every row in one stacked table: a row that misses
    its target at k moves up, a row that also reaches it at k - 1 moves
    down, and the others are solved.  A row that misses its target at
    k = 2^20, sharpness 1, raises InfeasibleError.
    """
    walking = {}
    for row, (target, sharp_lhs) in solves.items():
        # lhs(lambda) = 1/2 + lambda (lhs(1) - 1/2) must reach 3/4 + delta(target).
        slope = sharp_lhs - 0.5
        exact = (0.25 + delta_for_rate(target)) / slope if slope > 0.0 else math.inf
        # Roundoff can put the exact minimum on either side of a grid point.
        walking[row] = max(math.ceil(exact * _GRID), 1) if exact < 1.0 else _GRID
    solved = {}
    while walking:
        grid = np.zeros((2, rows))
        for row, k in walking.items():
            grid[:, row] = k, k - 1
        sharpness = _both(grid / _GRID)
        at_k, below = fgi_lhs(state.table(MUB_DIRECTIONS, sharpness)).tolist()
        for row, k in list(walking.items()):
            target = solves[row][0]
            if not key_rate(max(at_k[row] - THRESHOLD, 0.0)) >= target:
                if k == _GRID:
                    raise InfeasibleError(
                        position,
                        EVE_UNREACHABLE,
                        f"rate at sharpness 1 is below target {target}",
                    )
                walking[row] = k + 1
            elif k > 1 and key_rate(max(below[row] - THRESHOLD, 0.0)) >= target:
                walking[row] = k - 1
            else:
                solved[row] = walking.pop(row) / _GRID
    return solved


def plan_chains(targets: tuple[float, ...] | list[float]) -> tuple[PlanResult, ...]:
    """The ``max_eves`` plan of each target, all planned in lockstep.

    Each distinct target is one row of a (T, 4, 3) assemblage stack that
    starts from the Bell state's.  At each chain position one stacked solve
    finds the grid sharpness of every row still planning, one stacked Eve
    step moves every row, and one stacked Bob table decides which rows keep
    their new Eve.  A row stops when Bob's rate with her in place no longer
    exceeds its target, and rides along at sharpness 0, the identity, from
    then on.  Each row's arithmetic is that of a batch of one, so a plan
    does not depend on the other targets of its batch.
    """
    for target in targets:
        check_target_rate(target)
    distinct = list(dict.fromkeys(targets))
    rows = len(distinct)
    state = Assemblage.of(bell_state(), _MUB_SHARP)
    # Bob's table is a projective next Eve's, and its rate stays above the target.
    bob = _bob_reports(state) * rows
    lambdas: list[tuple[float, ...]] = [()] * rows
    planning = range(rows)
    position = 1
    while planning:
        solves = {row: (distinct[row], bob[row].lhs) for row in planning}
        solved = _grid_solve(state, rows, solves, position)
        sharpness = np.zeros(rows)
        sharpness[list(solved)] = list(solved.values())
        state = _eve_step(state, sharpness)
        after = _bob_reports(state)
        planning = [row for row in planning if after[row].key_rate > distinct[row]]
        for row in planning:
            lambdas[row] += (solved[row],)
            bob[row] = after[row]
        position += 1
    plans = {
        target: PlanResult(target, lams, rep.key_rate, len(lams))
        for target, lams, rep in zip(distinct, lambdas, bob)
    }
    return tuple(plans[target] for target in targets)


def max_eves(target_rate: float) -> PlanResult:
    """Longest minimal-sharpness chain with Bob's rate above the target.

    Extends greedily: each new Eve takes her minimal sharpness given the
    accepted prefix, and the extension is kept only while Bob (with all
    listed Eves in place) still exceeds the target rate.

    No chain of grid sharpnesses is longer.  Behind Eves of sharpness
    s_1..s_m both matched-basis correlations are D_m = prod_j f(s_j), where
    f = ``shrink_factor`` falls as s rises.  Eve m + 1 reaches the target
    iff s_{m+1} D_m >= c for one fixed c, and Bob's rate rises with D.  So
    if every Eve of another chain reaches the target and D'_m <= D_m, then
    s'_{m+1} >= the greedy s_{m+1} and D'_{m+1} <= D_{m+1}: by induction,
    Bob beats the target behind the greedy n Eves wherever he does behind
    any n.
    """
    return plan_chains((target_rate,))[0]


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
