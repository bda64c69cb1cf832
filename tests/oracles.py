"""Slow general routes: oracles for the closed forms in ``seqeve``.

The chain is propagated with each Eve's Lueders channel, Kraus operators
lifted to two qubits, and the branch tables of the weak strategy are taken
with Alice's observables conjugated by each leaf's own unitary.  Every table
comes from operator traces (``chain.table_from_operators``), so none of the
closed-form propagation or table arithmetic checked here is shared.  The
stacked chain pass is also checked, bit for bit, against the per-Eve loop of
4x4 Pauli-coordinate products and scalar steering values it replaced.  The
planner's exact sharpness solve is checked against plain bisection, and the
closed-form square root of an effect against a spectral one.  The command
line's row writer is checked against a renderer that formats every cell of
every row.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from seqeve.chain import (
    ZERO_PROB_ATOL,
    ChainSpec,
    ConditionalTable,
    PartySettings,
    PauliState,
    UnsharpSetting,
    ZeroProbabilityError,
    mub_sharp_pair,
    mub_unsharp_pair,
    table_from_operators,
)
from seqeve.linalg import (
    ATOL,
    ID2,
    PAULI_X,
    PAULI_Z,
    dagger,
    is_hermitian,
    kron,
)
from seqeve.measurement import SharpSetting, effect, projector, sqrt_effect
from seqeve.planner import EVE_UNREACHABLE, InfeasibleError
from seqeve.states import TwoQubitState, check_tilt_angle
from seqeve.steering import report_from_table
from seqeve.unbounded import (
    ALICE_STRATEGIES,
    CANONICAL,
    BranchNode,
    DegenerateStateError,
    SchmidtForm,
    _apply_weak,
    branch_state,
    schmidt_decompose,
)


ID4 = np.eye(4, dtype=complex)


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Trace a 4x4 two-qubit operator down to the kept subsystem.

    ``keep`` is ``"A"`` (first qubit) or ``"B"`` (second qubit).  Works for
    any matrix, not only density operators, so it can absorb projected
    states as well.
    """
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("ajbj->ab", r)
    if keep == "B":
        return np.einsum("iaib->ab", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def _outcome_effect(setting, outcome: int) -> np.ndarray:
    """POVM element for a party's outcome (projector in the sharp case)."""
    if isinstance(setting, UnsharpSetting):
        return effect(setting, outcome)
    return projector(setting, outcome)


def nonselective_step(rho: np.ndarray, eve: PartySettings, bias: float) -> np.ndarray:
    """Average the Eve's Lueders channel over her inputs and outcomes."""
    out = np.zeros_like(rho)
    for k, setting in enumerate(eve.settings):
        weight = bias if k == 0 else 1.0 - bias
        if weight == 0.0:
            continue
        for c in (0, 1):
            op = kron(ID2, sqrt_effect(setting, c))
            out += weight * (op @ rho @ dagger(op))
    return out


def chain_rhos(spec: ChainSpec) -> list[np.ndarray]:
    """Density matrix seen by Eve 1..N and then by Bob, in one pass."""
    rho = spec.initial.density_matrix()
    rhos = [rho]
    for eve, bias in zip(spec.eves, spec.input_bias):
        rho = nonselective_step(rho, eve, bias)
        rhos.append(rho)
    return rhos


def table(alice: PartySettings, party: PartySettings, rho: np.ndarray) -> ConditionalTable:
    """Conditional table of ``party`` versus Alice from operator traces."""
    alice_projs = [[projector(s, a) for a in (0, 1)] for s in alice.settings]
    party_ops = [[_outcome_effect(s, c) for c in (0, 1)] for s in party.settings]
    return table_from_operators(rho, alice_projs, party_ops)


def assemblage(
    state: TwoQubitState, alice_setting: SharpSetting, a: int
) -> np.ndarray:
    """Unnormalized conditional state on the second qubit given Alice's outcome.

    Trace equals Alice's outcome probability.
    """
    proj = projector(alice_setting, a)
    return partial_trace(kron(proj, ID2) @ state.rho, keep="B")


def eve1_conditional(
    state: TwoQubitState,
    alice_setting: SharpSetting,
    a: int,
    eve_setting: UnsharpSetting,
    c: int,
) -> float:
    """P(first Eve sees c | Alice measured alice_setting and saw a)."""
    proj = projector(alice_setting, a)
    p_alice = float(np.trace(kron(proj, ID2) @ state.rho).real)
    if p_alice < ZERO_PROB_ATOL:
        raise ZeroProbabilityError(
            f"Alice outcome {a} has probability {p_alice:.3e}"
        )
    joint = float(
        np.trace(kron(proj, effect(eve_setting, c)) @ state.rho).real
    )
    return joint / p_alice


def post_measurement_state(
    state: TwoQubitState,
    alice_setting: SharpSetting,
    a: int,
    eve_setting: UnsharpSetting,
    c: int,
) -> np.ndarray:
    """Unnormalized reduced state forwarded to the next party.

    Applies Alice's projector and the Eve's Lueders update, then traces out
    Alice.  The trace equals the joint probability of (a, c).
    """
    op = kron(projector(alice_setting, a), sqrt_effect(eve_setting, c))
    return partial_trace(op @ state.rho @ dagger(op), keep="B")


def weak_step(psi, setting, outcome: int) -> tuple[SchmidtForm, float]:
    """One weak measurement step: apply, renormalize, Schmidt-decompose.

    The returned probability is the pre-normalization squared norm.
    """
    post, prob = _apply_weak(psi, setting, outcome)
    return schmidt_decompose(post), prob


@dataclass(frozen=True)
class AdaptedMeasurement:
    """Alice's outcome-adapted second observable for one branch."""

    mu: float
    operator: np.ndarray


def canonical_settings(
    theta: float,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Tilt-matched observables: Alice (sz, cos2t*sz + sin2t*sx), Bob (sz, sx)."""
    check_tilt_angle(theta)
    a2 = math.cos(2.0 * theta) * PAULI_Z + math.sin(2.0 * theta) * PAULI_X
    return (PAULI_Z.copy(), a2), (PAULI_Z.copy(), PAULI_X.copy())


def adapted_alice_measurement(node: BranchNode) -> AdaptedMeasurement:
    """Alice's second observable for a branch.

    mu satisfies tan(mu) = sin(2*theta) and the observable is the branch
    unitary conjugation of cos(mu)*sz + sin(mu)*sx.
    """
    if node.degenerate:
        raise DegenerateStateError("cannot adapt measurements to a product branch")
    mu = math.atan(math.sin(2.0 * node.theta))
    base = math.cos(mu) * PAULI_Z + math.sin(mu) * PAULI_X
    return AdaptedMeasurement(
        mu=mu, operator=node.u_alice @ base @ dagger(node.u_alice)
    )


def alice_facing_count(leaves: list[BranchNode]) -> int:
    """Distinct outcome histories with the last outcome marginalized."""
    return len({leaf.outcomes[:-1] for leaf in leaves})


def _observable_projectors(op: np.ndarray) -> list[np.ndarray]:
    """Outcome projectors (I +- op)/2 of a Hermitian involution."""
    return [0.5 * (ID2 + op), 0.5 * (ID2 - op)]


def branch_operators(node: BranchNode, alice_choice: str):
    """(rho, Alice's projector grid, Bob's) of a leaf, indexed [input][outcome].

    rho is (u_alice x I)(cos t|00> + sin t|11>) and both of Alice's
    observables are conjugated by the same unitary; Bob's are the fixed
    sigma_z and sigma_x.
    """
    if alice_choice not in ALICE_STRATEGIES:
        raise ValueError(f"unknown alice_choice {alice_choice!r}")
    u = node.u_alice
    a1 = u @ PAULI_Z @ dagger(u)
    if alice_choice == CANONICAL:
        (_, a2_base), _ = canonical_settings(node.theta)
        a2 = u @ a2_base @ dagger(u)
    else:
        a2 = adapted_alice_measurement(node).operator
    rho = branch_state(node.theta, u).density_matrix()
    alice_grid = [_observable_projectors(a1), _observable_projectors(a2)]
    bob_grid = [_observable_projectors(PAULI_Z), _observable_projectors(PAULI_X)]
    return rho, alice_grid, bob_grid


def branch_table(node: BranchNode, alice_choice: str) -> ConditionalTable:
    """Branch table from operator traces, with the leaf's own Alice unitary."""
    return table_from_operators(*branch_operators(node, alice_choice))


def alice_marginals(node: BranchNode, alice_choice: str) -> np.ndarray:
    """P(a | i) of a leaf from operator traces, indexed [input i, outcome a]."""
    rho, alice_grid, _ = branch_operators(node, alice_choice)
    return np.array(
        [[np.trace(kron(proj, ID2) @ rho).real for proj in row] for row in alice_grid]
    )


def pauli_effect_rows(party: PartySettings) -> np.ndarray:
    """Rows (1, +-lambda n) of 2E, one per (input, outcome), built setting by setting."""
    rows = np.ones((4, 4))
    for k, setting in enumerate(party.settings):
        lam = setting.sharpness if isinstance(setting, UnsharpSetting) else 1.0
        vec = lam * setting.direction.unit_vector()
        rows[2 * k, 1:] = vec
        rows[2 * k + 1, 1:] = -vec
    return rows


def pauli_eve_map(eve: PartySettings, bias: float) -> np.ndarray:
    """One Eve's input-averaged Lueders channel on Pauli coordinates, 4x4."""
    out = np.zeros((4, 4))
    out[0, 0] = 1.0
    for weight, setting in zip((bias, 1.0 - bias), eve.settings):
        n = setting.direction.unit_vector()
        along = np.outer(n, n)
        quality = math.sqrt(1.0 - setting.sharpness * setting.sharpness)
        out[1:, 1:] += weight * (along + quality * (np.eye(3) - along))
    return out


def pauli_table(coords: np.ndarray, alice: PartySettings, party: PartySettings):
    """probs[k, i, a, c] of one state's Pauli coordinates, in closed form."""
    alice_rows = pauli_effect_rows(alice)
    p_alice = 0.5 * (alice_rows @ coords[:, 0])
    joint = 0.25 * (alice_rows @ coords @ pauli_effect_rows(party).T)
    return (joint / p_alice[:, None]).reshape(2, 2, 2, 2).transpose(2, 0, 1, 3)


def pauli_tables(spec: ChainSpec) -> list[np.ndarray]:
    """Tables of Eve 1..N and then Bob, one 4x4 state and one Eve map at a time."""
    coords = PauliState.of(spec.initial).coords
    out = []
    for eve, bias in zip(spec.eves, spec.input_bias):
        out.append(pauli_table(coords, spec.alice, eve))
        coords = coords @ pauli_eve_map(eve, bias).T
    out.append(pauli_table(coords, spec.alice, spec.bob))
    return out


def scalar_fgi_lhs(probs: np.ndarray) -> float:
    """Steering value of one table, cell by cell with Python min and max."""
    total = 0.0
    for k in (0, 1):
        cells = probs[k, k]  # indexed [alice outcome a, party outcome c]
        keep = min(cells[0, 0], cells[1, 1])
        flip = min(cells[0, 1], cells[1, 0])
        total += max(keep, flip)
    return 0.5 * total


BISECTION_TOL = 1e-6
BISECTION_MAX_ITER = 50


def _mub_rate(state: PauliState, party: PartySettings) -> float:
    """Key rate of ``party`` measuring the second qubit of ``state``."""
    return report_from_table(state.table(mub_sharp_pair(), party)).key_rate


def bisect_min_sharpness(
    upstream: PauliState, position: int, target_rate: float
) -> float:
    """Bisection for the Eve at ``position`` who sees the state ``upstream``."""
    if _mub_rate(upstream, mub_unsharp_pair(1.0)) < target_rate:
        raise InfeasibleError(
            position,
            EVE_UNREACHABLE,
            f"rate at sharpness 1 is below target {target_rate}",
        )
    lo, hi = 0.0, 1.0  # rate(lo) < target <= rate(hi) throughout
    for _ in range(BISECTION_MAX_ITER):
        if hi - lo < BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        if _mub_rate(upstream, mub_unsharp_pair(mid)) >= target_rate:
            hi = mid
        else:
            lo = mid
    return hi


# Negative eigenvalues above this magnitude signal a corrupted state rather
# than roundoff.
NEG_EIG_LIMIT = 1e-9


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD 2x2 matrix via closed-form spectra.

    Eigenvalues follow from trace and determinant, so no iteration is
    involved.  Eigenvalues in [-1e-9, 0) are clamped to zero; anything more
    negative is rejected as a corrupted input.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not is_hermitian(m, atol=NEG_EIG_LIMIT):
        raise ValueError("psd_sqrt requires a Hermitian matrix")
    half_tr = 0.5 * (m[0, 0].real + m[1, 1].real)
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    gap = math.sqrt(max(half_tr * half_tr - det, 0.0))
    lo = half_tr - gap
    hi = half_tr + gap
    if lo < -NEG_EIG_LIMIT:
        raise ValueError(f"matrix has negative eigenvalue {lo:.3e}")
    lo = max(lo, 0.0)
    hi = max(hi, 0.0)
    if gap < ATOL:
        # Scalar multiple of the identity.
        return math.sqrt(hi) * ID2
    proj_hi = (m - lo * ID2) / (hi - lo)
    proj_lo = (m - hi * ID2) / (lo - hi)
    return math.sqrt(hi) * proj_hi + math.sqrt(lo) * proj_lo


@dataclass(frozen=True)
class TradeoffPair:
    """Quality factor / precision pair on the optimal trade-off circle."""

    quality_factor: float
    precision: float


def tradeoff(sharpness: float) -> TradeoffPair:
    """Information-gain / disturbance pair for a given sharpness.

    Precision equals the sharpness and the quality factor is
    sqrt(1 - sharpness^2), saturating quality^2 + precision^2 = 1.
    """
    if not 0.0 < sharpness <= 1.0:
        raise ValueError(f"sharpness must lie in (0, 1], got {sharpness}")
    return TradeoffPair(
        quality_factor=math.sqrt(1.0 - sharpness * sharpness), precision=sharpness
    )


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _json_cell(value: object) -> object:
    if isinstance(value, float):
        return float(f"{value:.6g}")
    return value


def render_rows(
    rows: list[dict], columns: list[str], header_lines: list[str], fmt: str
) -> str:
    """The text ``cli._write_rows`` writes, rendered cell by cell."""
    if fmt == "json":
        text = json.dumps(
            [{k: _json_cell(row.get(k)) for k in columns} for row in rows],
            indent=2,
        )
        return text + "\n"
    lines = [f"# {line}" for line in header_lines]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"
