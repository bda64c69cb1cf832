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
is per chain position and shared by all targets: one round per position
(and one more for each row whose grid point must move) stacks the upstream
assemblage twice and once moved by the new Eves at their grid points, and
one table of that stack holds both grid points of every row and Bob's table
behind the new Eves, which is also the next Eve's table at lambda = 1.
Targets in (0, 1) need at most 6 positions, and the Bell start is built
once per process.  A closed-form recursion valid for the maximally
entangled state with sigma_z/sigma_x settings and unbiased inputs serves as
an independent oracle for both searches.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .chain import (
    BOB, DEFAULT_BIAS, MUB_ANGLES, MUB_DIRECTIONS, Assemblage, _eve_maps, mub_chain,
)
from .states import bell_state
from .steering import delta_for_rate, key_rate, report, scores
from .value import Value

# Sharpness grid of the solve: 2^-20 < 1e-6 is the documented tolerance.
_GRID = 2**20

# Reasons a chain cannot be extended by one more Eve.
EVE_UNREACHABLE = "eve-rate-unreachable"
BOB_SUPREMACY = "bob-supremacy"

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


@functools.cache
def _bell_start() -> tuple[Assemblage, float, float]:
    """The Bell state's assemblage in Bob's bases, and Bob's lhs and rate there.

    Built on the first plan of a process and shared by every later one, so
    its arrays are read-only.
    """
    start = Assemblage.start(bell_state().amp.reshape(2, 2).tolist(), MUB_ANGLES)
    start.p_alice.flags.writeable = start.bloch.flags.writeable = False
    (lhs,), _, (rate,) = scores(start.table(MUB_DIRECTIONS, _SHARP))
    return start, lhs, rate


def bob_rate(lambdas: tuple[float, ...] | list[float]) -> float:
    """Bob's key rate when every listed Eve measures at the given sharpness."""
    return report(mub_chain(tuple(lambdas)), BOB).key_rate


def _grid_solve(
    p_alice: np.ndarray, upstream: np.ndarray, solves: dict, position: int
) -> tuple[dict[int, float], np.ndarray, tuple[list, list]]:
    """Smallest grid sharpness k / 2^20 reaching its target, for each row solved.

    ``upstream`` is the (T, 4, 3) stack of conditional Bloch vectors, with
    Alice's marginals ``p_alice``, and ``solves`` maps a row to its target
    and lhs(1) there.  Each round stacks the upstream twice and once moved
    by an Eve at each such row's current k (the other rows ride along at
    sharpness 0, the identity), and scores one table of that stack at
    sharpness (k, k - 1, 1): a row that misses its target at k moves up, a
    row that also reaches it at k - 1 moves down, and the others are
    solved.  Returns the solved sharpnesses, and the moved stack and Bob's
    (lhs, key_rate) columns behind it, both of the last round.  A row that
    misses its target at k = 2^20, sharpness 1, raises InfeasibleError.
    """
    walking = {}
    for row, (target, sharp_lhs) in solves.items():
        # lhs(lambda) = 1/2 + lambda (lhs(1) - 1/2) must reach 3/4 + delta(target).
        slope = sharp_lhs - 0.5
        exact = (0.25 + delta_for_rate(target)) / slope if slope > 0.0 else math.inf
        # Roundoff can put the exact minimum on either side of a grid point.
        walking[row] = max(math.ceil(exact * _GRID), 1) if exact < 1.0 else _GRID
    rows = len(upstream)
    stack = np.empty((3, rows, 4, 3))
    stack[:2] = upstream
    grid = np.zeros((3, rows))
    grid[2] = _GRID  # Bob, sharpness 1
    solved = {}
    while walking:
        for row, k in walking.items():
            grid[:2, row] = k, k - 1
        sharpness = _both(grid / _GRID)
        maps = _eve_maps(MUB_DIRECTIONS, sharpness[0], _UNBIASED)
        np.matmul(stack[0], maps.swapaxes(-1, -2), out=stack[2])
        table = Assemblage(p_alice, stack).table(MUB_DIRECTIONS, sharpness)
        lhs, _, rates = scores(table)
        at_k, below = rates[:rows], rates[rows:2 * rows]
        for row, k in list(walking.items()):
            target = solves[row][0]
            if not at_k[row] >= target:
                if k == _GRID:
                    raise InfeasibleError(
                        position,
                        EVE_UNREACHABLE,
                        f"rate at sharpness 1 is below target {target}",
                    )
                walking[row] = k + 1
            elif k > 1 and below[row] >= target:
                walking[row] = k - 1
            else:
                solved[row] = walking.pop(row) / _GRID
    return solved, stack[2], (lhs[2 * rows:], rates[2 * rows:])


def plan_chains(targets: tuple[float, ...] | list[float]) -> tuple[PlanResult, ...]:
    """The ``max_eves`` plan of each target, all planned in lockstep.

    Each distinct target is one row of a (T, 4, 3) assemblage stack that
    starts from the Bell state's.  At each chain position one stacked solve
    finds the grid sharpness of every row still planning, moves every row
    by its new Eve and scores Bob behind her, which decides which rows keep
    her.  A row stops when Bob's rate with her in place no longer exceeds
    its target, and rides along at sharpness 0, the identity, from then on.
    Each row's arithmetic is that of a batch of one, so a plan does not
    depend on the other targets of its batch.
    """
    for target in targets:
        check_target_rate(target)
    distinct = list(dict.fromkeys(targets))
    rows = len(distinct)
    # Bob's table is a projective next Eve's, and its rate stays above the target.
    start, lhs, rate = _bell_start()
    upstream = np.broadcast_to(start.bloch, (rows, 4, 3))
    bob_lhs, bob_rates = [lhs] * rows, [rate] * rows
    lambdas: list[tuple[float, ...]] = [()] * rows
    planning = range(rows)
    position = 1
    while planning:
        solves = {row: (distinct[row], bob_lhs[row]) for row in planning}
        solved, upstream, (after_lhs, after_rate) = _grid_solve(
            start.p_alice, upstream, solves, position
        )
        planning = [row for row in planning if after_rate[row] > distinct[row]]
        for row in planning:
            lambdas[row] += (solved[row],)
            bob_lhs[row], bob_rates[row] = after_lhs[row], after_rate[row]
        position += 1
    plans = {
        target: PlanResult(target, lams, rate, len(lams))
        for target, lams, rate in zip(distinct, lambdas, bob_rates)
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
