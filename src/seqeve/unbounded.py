"""Branching strategy that lets arbitrarily many Eves keep a positive rate.

Each Eve applies a weak Kraus measurement in the sigma_x eigenbasis to the
second qubit and then undoes her side's Schmidt unitary, so the forwarded
state is always of the form (U_alice x I)(cos t |00> + sin t |11>).  The
whole binary tree of outcome histories is therefore precomputable from the
initial tilt angle and the list of weak angles alone.  For every leaf,
Alice can evaluate the steering inequality with either the tilt-matched
("canonical") second setting or the sine-adapted ("adapted") one; the
leaf's tables are the no-Eve case of ``chain.Assemblage``, both strategies
stacked in one start.
"""

from __future__ import annotations

import math

import numpy as np

from .chain import MUB_DIRECTIONS, Assemblage, ConditionalTable
from .linalg import ATOL, ID2
from .measurement import WeakKrausSetting, check_weak_angle, weak_kraus
from .states import PureTwoQubitState, check_tilt_angle, tilted_state
from .steering import SteeringReport, table_reports
from .value import Value

DEGENERATE_THETA = 1e-8

CANONICAL = "canonical"
ADAPTED = "adapted"
ALICE_STRATEGIES = (CANONICAL, ADAPTED)


class DegenerateStateError(ValueError):
    """The state is (numerically) a product state; no Schmidt angle exists."""


class ZeroProbabilityOutcome(ValueError):
    """A weak-measurement outcome of probability zero was requested."""


class SchmidtForm(Value):
    """Canonical form (u x v)(cos(theta)|00> + sin(theta)|11>) of a pure state.

    theta lies in (0, pi/4] (coefficients ordered, strictly entangled) and
    the phase convention makes u and v deterministic: the dominant entry of
    each column of u is real nonnegative, likewise the first column of v,
    with the residual phase stored separately.
    """

    __slots__ = ("theta", "u_alice", "v_other", "global_phase")

    def __init__(
        self, theta: float, u_alice: np.ndarray, v_other: np.ndarray,
        global_phase: float,
    ) -> None:
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "u_alice", u_alice)
        object.__setattr__(self, "v_other", v_other)
        object.__setattr__(self, "global_phase", global_phase)


class BranchNode(Value):
    """One leaf of the outcome-history tree.

    Carries the history of weak-measurement outcomes, the Schmidt angle of
    the state Alice now shares, the accumulated Alice-side unitary, and the
    branch weight.  Degenerate leaves mark pruned subtrees.
    """

    __slots__ = ("outcomes", "theta", "u_alice", "probability", "degenerate")

    def __init__(
        self, outcomes: tuple[int, ...], theta: float, u_alice: np.ndarray,
        probability: float, degenerate: bool = False,
    ) -> None:
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "u_alice", u_alice)
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "degenerate", degenerate)


def _fix_column_phases(u: np.ndarray, vt: np.ndarray) -> None:
    """Make each column of u real-nonnegative at its dominant entry (in place)."""
    for k in range(2):
        col = u[:, k]
        j = int(np.argmax(np.abs(col)))
        mag = abs(col[j])
        if mag < ATOL:
            continue
        phase = col[j] / mag
        u[:, k] = col / phase
        vt[k, :] = vt[k, :] * phase


def schmidt_decompose(psi: PureTwoQubitState) -> SchmidtForm:
    """Schmidt normal form of a pure two-qubit state.

    Raises DegenerateStateError when the smaller Schmidt coefficient is
    below the product-state threshold (theta < 1e-8), so callers can flag
    and prune degenerate branches instead of dividing by zero.
    """
    mat = psi.amp.reshape(2, 2)
    u, sv, vh = np.linalg.svd(mat)
    theta = math.atan2(sv[1], sv[0])  # singular values are ordered, in [0, pi/4]
    if theta < DEGENERATE_THETA:
        raise DegenerateStateError(
            f"Schmidt angle {theta:.3e} is below the product-state threshold"
        )
    u = u.astype(complex).copy()
    vh = vh.astype(complex).copy()
    _fix_column_phases(u, vh)
    # Right Schmidt vectors as columns: psi = sum_k s_k u[:,k] (x) v[:,k].
    v = vh.T.copy()
    lead = v[int(np.argmax(np.abs(v[:, 0]))), 0]
    phase = lead / abs(lead)
    v /= phase
    return SchmidtForm(
        theta=theta,
        u_alice=u,
        v_other=v,
        global_phase=float(np.angle(phase)),
    )


def _apply_weak(
    psi: PureTwoQubitState, setting: WeakKrausSetting, outcome: int
) -> tuple[PureTwoQubitState, float]:
    """Apply one weak Kraus operator to the second qubit and renormalize."""
    kraus = weak_kraus(setting, outcome)
    mat = psi.amp.reshape(2, 2) @ kraus.T
    prob = float(np.vdot(mat, mat).real)
    if prob < 1e-14:
        raise ZeroProbabilityOutcome(
            f"weak measurement outcome {outcome} has probability {prob:.3e}"
        )
    return PureTwoQubitState(mat.reshape(4) / math.sqrt(prob)), prob


def branch_state(theta: float, u_alice: np.ndarray) -> PureTwoQubitState:
    """(u_alice x I)(cos(theta)|00> + sin(theta)|11>)."""
    coeffs = np.diag([math.cos(theta), math.sin(theta)]).astype(complex)
    return PureTwoQubitState((u_alice @ coeffs).reshape(4))


def branch_tree(
    theta1: float, weak_angles: tuple[float, ...] | list[float]
) -> list[BranchNode]:
    """All 2^n outcome-history leaves for n weak measurements in order.

    Output depends only on (theta1, weak_angles); no randomness is drawn,
    so repeated invocations are bit-identical.  Leaves are ordered by their
    outcome bitstrings.  A branch that collapses to a product state is
    flagged degenerate and its subtree pruned; this happens even with tilt
    and weak angles in (0, pi/4], as for theta1 = 0.3 and two weak angles
    of 1e-5.  Each Eve undoes the second qubit's
    Schmidt unitary before forwarding, so the next party sees
    ``branch_state(theta, u_alice)`` and can reuse fixed measurement
    settings whatever the outcome was.
    """
    angles = tuple(weak_angles)
    if not angles:
        raise ValueError("at least one weak measurement is required")
    settings = [WeakKrausSetting(a) for a in angles]
    leaves: list[BranchNode] = []

    def descend(
        psi: PureTwoQubitState,
        depth: int,
        outcomes: tuple[int, ...],
        prob: float,
        theta: float,
        u_alice: np.ndarray,
    ) -> None:
        if depth == len(settings):
            leaves.append(
                BranchNode(
                    outcomes=outcomes,
                    theta=theta,
                    u_alice=u_alice,
                    probability=prob,
                )
            )
            return
        for c in (0, 1):
            post, p = _apply_weak(psi, settings[depth], c)
            try:
                sf = schmidt_decompose(post)
            except DegenerateStateError:
                leaves.append(
                    BranchNode(
                        outcomes=outcomes + (c,),
                        theta=0.0,
                        u_alice=ID2.copy(),
                        probability=prob * p,
                        degenerate=True,
                    )
                )
                continue
            descend(
                branch_state(sf.theta, sf.u_alice),
                depth + 1,
                outcomes + (c,),
                prob * p,
                sf.theta,
                sf.u_alice,
            )

    descend(tilted_state(theta1), 0, (), 1.0, theta1, ID2.copy())
    return leaves


def leaf_theta(theta1: float, weak_angles: tuple[float, ...] | list[float]) -> float:
    """Schmidt angle shared by every leaf of ``branch_tree(theta1, weak_angles)``.

    A weak step of angle a on cos(t)|00> + sin(t)|11> gives either outcome
    with probability 1/2 and maps sin(2t) to sin(2t) sin(2a), so all 2^n
    leaves carry one angle and the weight 2^-n.  The new angle is taken as
    an atan2 of sin(2t') and cos(2t') = hypot(cos(2t), sin(2t) cos(2a));
    asin(sin(2t')) would lose about half the digits near pi/4.

    Inputs are validated as in branch_tree.  Raises DegenerateStateError as
    soon as an angle falls below the product-state threshold.
    """
    angles = [check_weak_angle(a) for a in weak_angles]
    if not angles:
        raise ValueError("at least one weak measurement is required")
    theta = check_tilt_angle(theta1)
    for depth, angle in enumerate(angles, start=1):
        sin_t, cos_t = math.sin(2.0 * theta), math.cos(2.0 * theta)
        sin_a, cos_a = math.sin(2.0 * angle), math.cos(2.0 * angle)
        theta = 0.5 * math.atan2(sin_t * sin_a, math.hypot(cos_t, sin_t * cos_a))
        if theta < DEGENERATE_THETA:
            raise DegenerateStateError(
                f"Schmidt angle {theta:.3e} after weak measurement {depth} is "
                "below the product-state threshold"
            )
    return theta


def _strategy_row(alice_choice: str) -> int:
    """Row of an Alice strategy in the stacked leaf tables and reports."""
    if alice_choice not in ALICE_STRATEGIES:
        raise ValueError(
            f"alice_choice must be one of {ALICE_STRATEGIES}, got {alice_choice!r}"
        )
    return ALICE_STRATEGIES.index(alice_choice)


def _leaf_tables(theta: float) -> ConditionalTable:
    """Alice/Bob tables of a branch of Schmidt angle theta, one per Alice strategy.

    Alice's unitary cancels (it conjugates her observables and the state
    alike), so each table is the no-Eve ``Assemblage`` of
    cos(t)|00> + sin(t)|11>.  Alice measures cos(phi) sz + sin(phi) sx with
    phi = 0 for input 0 and, for input 1, phi = 2t (canonical) or
    atan(sin 2t) (adapted); Bob measures sz and sx.  Both strategies come
    from one stacked start and one table, (2, 2, 2, 2, 2) in the order of
    ``ALICE_STRATEGIES``.
    """
    check_tilt_angle(theta)
    amp = ((math.cos(theta), 0.0), (0.0, math.sin(theta)))
    seconds = (2.0 * theta, math.atan(math.sin(2.0 * theta)))
    leaf = Assemblage.start(amp, [((0.0, 0.0), (second, 0.0)) for second in seconds])
    return leaf.table(MUB_DIRECTIONS, np.ones(2))  # Bob's sharp sz and sx


def leaf_reports(theta: float) -> list[SteeringReport]:
    """Steering reports of a branch of Schmidt angle theta, [canonical, adapted]."""
    return table_reports(_leaf_tables(theta))


def leaf_report(theta: float, alice_choice: str) -> SteeringReport:
    """Steering report of a branch of Schmidt angle theta for an Alice strategy."""
    row = _strategy_row(alice_choice)
    return leaf_reports(theta)[row]


def evaluate_branch(node: BranchNode, alice_choice: str) -> SteeringReport:
    """Steering report of one tree leaf; degenerate leaves have none."""
    if node.degenerate:
        raise DegenerateStateError("cannot evaluate a degenerate branch")
    return leaf_report(node.theta, alice_choice)
