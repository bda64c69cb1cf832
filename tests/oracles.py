"""Slow general routes: oracles for the assemblage kernel in ``seqeve``.

The chain is propagated with each Eve's Lueders channel, Kraus operators
lifted to two qubits, and the branch tables of the weak strategy are taken
with Alice's observables conjugated by each leaf's own unitary.  Every table
comes from operator traces, so none of the kernel's amplitudes, Bloch maps or
table arithmetic checked here is shared.  The Choi state of an Eve's Bloch
map shows that the map is completely positive, which no check on the
conditional states can see.  The stacked chain pass is also checked, bit for
bit, against a per-Eve loop of the kernel with maps and settings arrays built
setting by setting and scalar steering values.  The planner's exact
sharpness solve is checked against plain bisection, its lockstep plans
against a one-target loop that scores one grid point per table and
against the same greedy chain in 60-digit decimal arithmetic, its
one-Eve solve behind a given prefix is kept here for the tests, the
steering value against a formula with one minimum per relabeling term, and
the closed-form square root of an effect against a spectral one.  The command
line's row writer is checked against a renderer that formats every cell of
every row.  The Schmidt form is checked by reassembling the state from it.
The chain is given party by party (``Chain``) to the slow routes, and the
scenario reader's arrays are checked against those that ``ChainSpec.of``
fills from the library's setting classes for the same document.
"""

import json
import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, Decimal, localcontext
from typing import NamedTuple

import numpy as np
import yaml

from seqeve.chain import (
    DEFAULT_BIAS,
    MUB_DIRECTIONS,
    ZERO_PROB_ATOL,
    Assemblage,
    ChainSpec,
    ConditionalTable,
    PartySettings,
    UnsharpSetting,
    ZeroProbabilityError,
    _eve_maps,
    mub_sharp_pair,
    mub_unsharp_pair,
    table_from_operators,
)
from seqeve.linalg import (
    ATOL,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    X_DIR,
    Z_DIR,
    BlochDirection,
    dagger,
    is_hermitian,
    kron,
)
from seqeve.measurement import SharpSetting, effect, projector, sqrt_effect
from seqeve.scenario import Scenario
from seqeve.planner import (
    EVE_UNREACHABLE,
    InfeasibleError,
    PlanResult,
    _grid_solve,
    check_target_rate,
)
from seqeve.states import (
    PureTwoQubitState,
    TwoQubitState,
    bell_state,
    check_tilt_angle,
    tilted_state,
)
from seqeve.steering import delta_for_rate, report_from_table
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


class Chain(NamedTuple):
    """A chain party by party, as the slow routes read it; ``spec`` is the
    kernel's input that ``ChainSpec.of`` fills from it."""

    initial: PureTwoQubitState
    alice: PartySettings
    eves: tuple[PartySettings, ...]
    bob: PartySettings
    input_bias: tuple[float, ...]

    @property
    def n_eves(self) -> int:
        return len(self.eves)

    def spec(self) -> ChainSpec:
        return ChainSpec.of(*self)


def chain(initial, alice, eves, bob, input_bias=()) -> Chain:
    """A ``Chain``, each Eve unbiased unless ``input_bias`` is given."""
    eves = tuple(eves)
    bias = tuple(input_bias) or (DEFAULT_BIAS,) * len(eves)
    return Chain(initial, alice, eves, bob, bias)


def mub(lambdas, initial=None) -> Chain:
    """The ``Chain`` of ``mub_chain``: every party in the sigma_z/sigma_x bases."""
    eves = [mub_unsharp_pair(lam) for lam in lambdas]
    pair = mub_sharp_pair()
    return chain(initial or bell_state(), pair, eves, pair)


def chain_rhos(spec: Chain) -> list[np.ndarray]:
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


def schmidt_state(sf: SchmidtForm) -> PureTwoQubitState:
    """Reassemble the decomposed state, including the global phase."""
    coeffs = np.diag([math.cos(sf.theta), math.sin(sf.theta)]).astype(complex)
    mat = sf.u_alice @ coeffs @ sf.v_other.T
    return PureTwoQubitState(np.exp(1j * sf.global_phase) * mat.reshape(4))


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


def branch_tables(leaves: list[BranchNode], alice_choice: str):
    """Tables and Alice's marginals of many leaves, from operator traces, stacked.

    Each leaf's state and operator grids are those of ``branch_operators``;
    the traces of all leaves are taken together.  Returns probs[leaf, k, i,
    a, c] and P(a | i) as marginals[leaf, i, a].
    """
    grids = [branch_operators(leaf, alice_choice) for leaf in leaves]
    rho = np.array([g[0] for g in grids]).reshape(-1, 2, 2, 2, 2)
    alice = np.array([g[1] for g in grids])  # [leaf, i, a, row, column]
    bob = np.array(grids[0][2])  # [k, c, row, column], the same for every leaf
    # Tr((A x B) rho) = sum A[x, y] B[u, v] rho[(y, v), (x, u)].
    joint = np.einsum("liaxy,kcuv,lyvxu->lkiac", alice, bob, rho).real
    marginals = np.einsum("liaxy,lyuxu->lia", alice, rho).real
    return joint / marginals[:, None, :, :, None], marginals


def joint_table(alice: PartySettings, party: PartySettings, rho: np.ndarray):
    """(P(a | i), P(a, c | i, k)) of ``party`` versus Alice from operator traces.

    Indexed [i, a] and [k, i, a, c]; nothing is divided by Alice's marginal.
    """
    alice_projs = [kron(projector(s, a), ID2) for s in alice.settings for a in (0, 1)]
    party_ops = [
        kron(ID2, _outcome_effect(s, c)) for s in party.settings for c in (0, 1)
    ]
    p_alice = np.array([np.trace(p @ rho).real for p in alice_projs])
    joint = np.array(
        [[np.trace(p @ e @ rho).real for e in party_ops] for p in alice_projs]
    )
    return p_alice.reshape(2, 2), joint.reshape(2, 2, 2, 2).transpose(2, 0, 1, 3)


def party_arrays(party: PartySettings) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (2, 3) and sharpnesses (2,) of a party, setting by setting."""
    directions = np.array([s.direction.unit_vector() for s in party.settings])
    sharpness = np.array(
        [s.sharpness if isinstance(s, UnsharpSetting) else 1.0 for s in party.settings]
    )
    return directions, sharpness


def eve_map(eve: PartySettings, bias: float) -> np.ndarray:
    """One Eve's input-averaged Lueders channel on the Bloch ball, 3x3."""
    out = np.zeros((3, 3))
    for weight, setting in zip((bias, 1.0 - bias), eve.settings):
        n = setting.direction.unit_vector()
        along = np.outer(n, n)
        quality = math.sqrt(1.0 - setting.sharpness * setting.sharpness)
        out += weight * (along + quality * (np.eye(3) - along))
    return out


def eve_step(state: Assemblage, eve: PartySettings, bias: float) -> Assemblage:
    step = eve_map(eve, bias)
    return Assemblage(state.p_alice, state.bloch @ step.swapaxes(-1, -2))


def kernel_positions(spec: Chain) -> list[Assemblage]:
    """Assemblage seen by Eve 1..N and then by Bob, one Eve step at a time."""
    state = Assemblage.of(spec.initial, spec.alice)
    out = [state]
    for eve, bias in zip(spec.eves, spec.input_bias):
        state = eve_step(state, eve, bias)
        out.append(state)
    return out


def kernel_tables(spec: Chain) -> list[np.ndarray]:
    """Tables of Eve 1..N and then Bob, one position and one party at a time."""
    measured = list(spec.eves) + [spec.bob]
    return [
        state.table(*party_arrays(party)).probs
        for state, party in zip(kernel_positions(spec), measured)
    ]


def choi_state(bloch_map: np.ndarray) -> np.ndarray:
    """(I x Phi)(|Phi+><Phi+|) of the unital qubit channel r <- bloch_map r.

    The channel is completely positive exactly when this is a state.  Bell
    coordinates R = diag(1, 1, -1, 1) in the Pauli basis go through the map
    on their second-qubit columns.
    """
    coords = np.diag([1.0, 1.0, -1.0, 1.0])
    coords[:, 1:] = coords[:, 1:] @ bloch_map.T
    paulis = (ID2, PAULI_X, PAULI_Y, PAULI_Z)
    return sum(
        coords[m, n] * kron(paulis[m], paulis[n]) for m in range(4) for n in range(4)
    ) / 4.0


def scalar_fgi_lhs(probs: np.ndarray) -> float:
    """Steering value of one table, cell by cell with Python min and max."""
    total = 0.0
    for k in (0, 1):
        cells = probs[k, k]  # indexed [alice outcome a, party outcome c]
        keep = min(cells[0, 0], cells[1, 1])
        flip = min(cells[0, 1], cells[1, 0])
        total += max(keep, flip)
    return 0.5 * total


def four_min_fgi_lhs(probs: np.ndarray) -> np.ndarray:
    """Steering values of a (..., 2, 2, 2, 2) stack, one minimum per relabeling term."""
    cells = probs.reshape(probs.shape[:-4] + (4, 4))[..., ::3, :]
    keep = np.minimum(cells[..., 0], cells[..., 3])
    flip = np.minimum(cells[..., 1], cells[..., 2])
    best = np.maximum(keep, flip)
    return 0.5 * (best[..., 0] + best[..., 1])


BISECTION_TOL = 1e-6
BISECTION_MAX_ITER = 50


def _mub_rate(state: Assemblage, sharpness: float) -> float:
    """Key rate of a party measuring ``state`` in the sigma_z/sigma_x bases."""
    party = party_arrays(mub_unsharp_pair(sharpness))
    return report_from_table(state.table(*party)).key_rate


def bisect_min_sharpness(
    upstream: Assemblage, position: int, target_rate: float
) -> float:
    """Bisection for the Eve at ``position`` who sees the assemblage ``upstream``."""
    if _mub_rate(upstream, 1.0) < target_rate:
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
        if _mub_rate(upstream, mid) >= target_rate:
            hi = mid
        else:
            lo = mid
    return hi


# Sharpness grid of the planner's solve.
GRID = 2**20


def _mub_score(state: Assemblage, sharpness: float):
    """Report of a party measuring ``state`` in Bob's bases at ``sharpness``."""
    return report_from_table(state.table(MUB_DIRECTIONS, np.full(2, sharpness)))


def _eve_step(state: Assemblage, sharpness: float) -> Assemblage:
    """``state`` after an unbiased Eve in Bob's bases at ``sharpness``."""
    step = _eve_maps(MUB_DIRECTIONS, np.full(2, sharpness), np.array(DEFAULT_BIAS))
    return Assemblage(state.p_alice, state.bloch @ step.swapaxes(-1, -2))


def _min_sharpness(upstream: Assemblage, sharp_lhs: float, target_rate: float) -> float:
    """Smallest grid sharpness at ``upstream``, where lhs(1) = ``sharp_lhs``."""
    exact = (0.25 + delta_for_rate(target_rate)) / (sharp_lhs - 0.5)

    def reaches(k: int) -> bool:
        return _mub_score(upstream, k / GRID).key_rate >= target_rate

    k = min(max(math.ceil(exact * GRID), 1), GRID)
    while not reaches(k):
        k += 1
    while k > 1 and reaches(k - 1):
        k -= 1
    return k / GRID


def sequential_plan(target_rate: float) -> PlanResult:
    """The planner's greedy chain for one target, one Eve and one table at a time.

    Each Eve takes her minimal grid sharpness given the accepted prefix,
    walked from the exact solve one grid point and one table at a time,
    and is kept while Bob's rate with her in place still exceeds the
    target.
    """
    accepted: tuple[float, ...] = ()
    upstream = Assemblage.of(bell_state(), mub_sharp_pair())
    bob = _mub_score(upstream, 1.0)
    while True:
        lam = _min_sharpness(upstream, bob.lhs, target_rate)
        candidate = _eve_step(upstream, lam)
        after = _mub_score(candidate, 1.0)
        if after.key_rate <= target_rate:
            break
        accepted += (lam,)
        upstream, bob = candidate, after
    return PlanResult(target_rate, accepted, bob.key_rate, len(accepted))


def longest_chain(target_rate: float, points: int = 4) -> int:
    """Length of the longest chain that a depth-first search finds.

    At each position the new Eve takes her least grid sharpness given the
    chain so far, or one of ``points`` sharpnesses spaced evenly from it
    to 1, and the chain goes on while Bob's rate with her in place still
    exceeds the target.
    """

    def longest(upstream: Assemblage, bob_lhs: float) -> int:
        least = _min_sharpness(upstream, bob_lhs, target_rate)
        depth = 0
        for lam in np.linspace(least, 1.0, points).tolist():
            candidate = _eve_step(upstream, lam)
            bob = _mub_score(candidate, 1.0)
            if bob.key_rate > target_rate:
                depth = max(depth, 1 + longest(candidate, bob.lhs))
        return depth

    start = Assemblage.of(bell_state(), mub_sharp_pair())
    return longest(start, _mub_score(start, 1.0).lhs)


class ExactPlan(NamedTuple):
    """A plan in exact arithmetic: the grid index k of each kept Eve (her
    sharpness is k / GRID), and each decision with its margin, how far the
    value it compares lies from the threshold."""

    grid: tuple[int, ...]
    margins: tuple[tuple[str, Decimal], ...]


def exact_plan(target_rate: float) -> ExactPlan:
    """The planner's greedy chain for one target, in 60-digit ``decimal``.

    Behind Eves of sharpness s_1..s_m both matched-basis correlations are
    D = prod (1 + sqrt(1 - s_j^2)) / 2, so an Eve of sharpness s scores
    lhs = (1 + s D) / 2, and Bob, behind her, (1 + D') / 2 with her factor
    in D'.  A rate reaches the target t iff its lhs reaches 3/4 + delta,
    with delta = 3/4 (2^t - 1) / (2^t + 1).  Each Eve takes the least grid
    point that reaches it, and is kept while Bob's lhs exceeds it; Bob's
    lhs is hers at s = 1, so the next Eve can always reach it.
    """
    with localcontext() as context:
        context.prec = 60
        scale = (Decimal(target_rate) * Decimal(2).ln()).exp()
        threshold = Decimal("0.75") + Decimal("0.75") * (scale - 1) / (scale + 1)
        damping, grid, margins = Decimal(1), [], []
        while True:
            eve = f"Eve {len(grid) + 1}"
            least = GRID * (2 * threshold - 1) / damping
            k = max(int(least.to_integral_value(ROUND_CEILING)), 1)
            at_k, below = ((1 + j * damping / GRID) / 2 for j in (k, k - 1))
            margins.append((f"{eve} reaches it at k = {k}", at_k - threshold))
            if k > 1:
                margins.append((f"{eve} misses it at k - 1", threshold - below))
            sharpness = Decimal(k) / GRID
            behind = damping * (1 + (1 - sharpness * sharpness).sqrt()) / 2
            bob = (1 + behind) / 2
            margins.append((f"Bob behind {eve}", abs(bob - threshold)))
            if bob <= threshold:
                return ExactPlan(tuple(grid), tuple(margins))
            grid.append(k)
            damping = behind


def lambda_min_for_rate(prefix: tuple[float, ...], target_rate: float) -> float:
    """Smallest sharpness giving Eve ``len(prefix)+1`` at least the target rate.

    The planner's solve for one Eve behind a given prefix.  The steering
    value is affine in the new Eve's sharpness, so Bob's table on the
    prefix, hers at sharpness 1, gives the exact minimum.  It is snapped up
    to the 2^-20 grid (within 1e-6 of the minimum) and checked against the
    neighbouring grid point on the monotone sharpness-to-rate map.  The
    returned sharpness reaches the target rate.  Raises InfeasibleError when
    even a projective measurement cannot reach it.
    """
    check_target_rate(target_rate)
    prefix = tuple(prefix)
    upstream = Assemblage.of(bell_state(), mub_sharp_pair())
    for lam in prefix:
        upstream = _eve_step(upstream, lam)
    solves = {0: (target_rate, _mub_score(upstream, 1.0).lhs)}
    position = len(prefix) + 1
    solved, _, _ = _grid_solve(upstream.p_alice, upstream.bloch[None], solves, position)
    return solved[0]


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
    rows: list[tuple[object, tuple]],
    columns: list[str],
    header_lines: list[str],
    fmt: str,
) -> str:
    """The text ``cli._write_rows`` writes for (label, values) rows, cell by cell."""
    cells = [(label, *values) for label, values in rows]
    if fmt == "json":
        objects = [dict(zip(columns, map(_json_cell, row))) for row in cells]
        return json.dumps(objects, indent=2) + "\n"
    lines = [f"# {line}" for line in header_lines]
    lines.append(",".join(columns))
    lines.extend(",".join(map(_csv_cell, row)) for row in cells)
    return "\n".join(lines) + "\n"


def _settings(entry: dict, kind, *args) -> PartySettings:
    """The settings of a party's document ``entry``, as ``kind`` settings."""
    if entry.get("settings", "mub") == "mub":
        directions = (Z_DIR, X_DIR)
    else:
        directions = [
            BlochDirection(d["theta"], d.get("phi", 0.0)) for d in entry["directions"]
        ]
    return PartySettings(*(kind(d, *args) for d in directions))


def read_document(doc: dict) -> tuple[ChainSpec, Scenario]:
    """What ``loads_scenario`` reads from a document of plain radians, built
    party by party with the library's setting classes and ``ChainSpec.of``."""
    sections = {key: value for key, value in doc.items() if value is not None}
    state = sections.get("state", {"kind": "bell"})
    alice, bob = (sections.get(name, {}) for name in ("alice", "bob"))
    eves = sections.get("eves", [])
    spec = ChainSpec.of(
        bell_state() if state["kind"] == "bell" else tilted_state(state["theta"]),
        _settings(alice, SharpSetting),
        [_settings(eve, UnsharpSetting, eve["lambda"]) for eve in eves],
        _settings(bob, SharpSetting),
        [eve.get("bias", DEFAULT_BIAS) for eve in eves],
    )
    output = sections.get("output", {})
    scenario = Scenario(
        state["kind"],
        alice.get("settings", "mub"),
        bob.get("settings", "mub"),
        tuple(eve.get("settings", "mub") for eve in eves),
        output.get("format", "csv"),
        output.get("path"),
    )
    return spec, scenario


def scenario_values(scenario: tuple[ChainSpec, Scenario]) -> tuple:
    """A ``loads_scenario`` result as values that compare with ==."""
    spec, labels = scenario
    arrays = (spec.initial.amp, spec.alice, spec.directions, spec.sharpness, spec.bias)
    return tuple(array.tolist() for array in arrays) + (labels,)


def dumps_scenario(doc: dict) -> str:
    """A scenario document as YAML text, keys sorted and in block style."""
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)
