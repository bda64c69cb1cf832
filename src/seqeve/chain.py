"""Propagation of a shared two-qubit state through a chain of unsharp-measuring Eves.

Alice holds the first qubit throughout; the second qubit passes through an
ordered list of eavesdroppers before reaching Bob.  Each Eve measures
unsharply along one of two directions chosen at random (input bias is a
parameter, 1/2 by default) and updates the state with the Lueders rule.
Earlier Eves are always marginalized non-selectively (summed over outcomes,
averaged over inputs) when a later party's statistics are computed.

Alice's projector is never folded into the propagated state: her sharp
measurement commutes with every operation on the other qubit, so it is
applied lazily when a conditional table is built.  The explicit per-outcome
forking route exists as ``post_measurement_state`` and the equivalence of
the two routes is covered by tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import COMPOSED_ATOL, ID2, X_DIR, Z_DIR, dagger, kron, partial_trace
from .measurement import SharpSetting, UnsharpSetting, effect, projector, sqrt_effect
from .states import InvariantError, PureTwoQubitState, TwoQubitState, bell_state

BOB = "bob"

# Alice marginals below this are treated as zero-probability conditioning.
ZERO_PROB_ATOL = 1e-12

Setting = SharpSetting | UnsharpSetting


class ZeroProbabilityError(ValueError):
    """Raised when conditioning on an Alice outcome of probability zero."""


def _outcome_effect(setting: Setting, outcome: int) -> np.ndarray:
    """POVM element for a party's outcome (projector in the sharp case)."""
    if isinstance(setting, UnsharpSetting):
        return effect(setting, outcome)
    return projector(setting, outcome)


def _update_kraus(setting: Setting, outcome: int) -> np.ndarray:
    """Lueders update operator (sqrt of the effect)."""
    if isinstance(setting, UnsharpSetting):
        return sqrt_effect(setting, outcome)
    return projector(setting, outcome)


@dataclass(frozen=True)
class PartySettings:
    """The two measurement settings (inputs 0 and 1) of one party."""

    input0: Setting
    input1: Setting

    def __post_init__(self) -> None:
        if type(self.input0) is not type(self.input1):
            raise ValueError("both inputs of a party must be the same setting kind")

    @property
    def settings(self) -> tuple[Setting, Setting]:
        return (self.input0, self.input1)


def mub_sharp_pair() -> PartySettings:
    """Sharp sigma_z / sigma_x pair (the two mutually unbiased bases)."""
    return PartySettings(SharpSetting(Z_DIR), SharpSetting(X_DIR))


def mub_unsharp_pair(sharpness: float) -> PartySettings:
    """Unsharp sigma_z / sigma_x pair sharing one sharpness parameter."""
    return PartySettings(
        UnsharpSetting(Z_DIR, sharpness), UnsharpSetting(X_DIR, sharpness)
    )


@dataclass(frozen=True)
class ChainSpec:
    """Full scenario description: initial state, Alice, ordered Eves, Bob."""

    initial: PureTwoQubitState
    alice: PartySettings
    eves: tuple[PartySettings, ...]
    bob: PartySettings
    input_bias: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        eves = tuple(self.eves)
        bias = tuple(self.input_bias) if self.input_bias else (0.5,) * len(eves)
        if len(bias) != len(eves):
            raise ValueError("input_bias must carry one probability per Eve")
        for b in bias:
            if not 0.0 <= b <= 1.0:
                raise ValueError(f"input bias must lie in [0, 1], got {b}")
        for party in (self.alice, self.bob):
            if isinstance(party.input0, UnsharpSetting):
                raise ValueError("Alice and Bob perform sharp measurements")
        for eve in eves:
            if not isinstance(eve.input0, UnsharpSetting):
                raise ValueError("every Eve performs unsharp measurements")
        object.__setattr__(self, "eves", eves)
        object.__setattr__(self, "input_bias", bias)

    @property
    def n_eves(self) -> int:
        return len(self.eves)


def mub_chain(
    lambdas: tuple[float, ...] | list[float],
    initial: PureTwoQubitState | None = None,
    bias: float = 0.5,
) -> ChainSpec:
    """Convenience constructor: all parties in the sigma_z/sigma_x bases."""
    return ChainSpec(
        initial=initial if initial is not None else bell_state(),
        alice=mub_sharp_pair(),
        eves=tuple(mub_unsharp_pair(lam) for lam in lambdas),
        bob=mub_sharp_pair(),
        input_bias=(bias,) * len(lambdas),
    )


@dataclass(frozen=True)
class ConditionalTable:
    """P(party outcome c | party input k, Alice input i, Alice outcome a).

    ``probs[k, i, a, c]`` with every (k, i, a) row normalized to 1.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (2, 2, 2, 2):
            raise InvariantError(f"table must have shape (2,2,2,2), got {probs.shape}")
        if probs.min() < -COMPOSED_ATOL or probs.max() > 1.0 + COMPOSED_ATOL:
            raise InvariantError("conditional probabilities must lie in [0, 1]")
        row_sums = probs.sum(axis=-1)
        if not np.allclose(row_sums, 1.0, rtol=0.0, atol=COMPOSED_ATOL):
            raise InvariantError("each conditioning cell must sum to 1")
        object.__setattr__(self, "probs", probs)


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


def _nonselective_step(
    rho: np.ndarray, eve: PartySettings, bias: float
) -> np.ndarray:
    """Average the Eve's Lueders channel over her inputs and outcomes."""
    out = np.zeros_like(rho)
    for k, setting in enumerate(eve.settings):
        weight = bias if k == 0 else 1.0 - bias
        if weight == 0.0:
            continue
        for c in (0, 1):
            op = kron(ID2, _update_kraus(setting, c))
            out += weight * (op @ rho @ dagger(op))
    return out


def _party_index(spec: ChainSpec, party: int | str) -> int:
    """Number of Eves acting before the queried party."""
    if party == BOB:
        return spec.n_eves
    if isinstance(party, int) and 1 <= party <= spec.n_eves:
        return party - 1
    raise ValueError(f"party must be an Eve index in 1..{spec.n_eves} or BOB")


def propagate(spec: ChainSpec, party: int | str) -> TwoQubitState:
    """Joint Alice/party state after all earlier Eves measured non-selectively.

    ``party`` is a 1-based Eve index or ``BOB``.  Alice's qubit is untouched;
    her projectors are applied later, at table-construction time.
    """
    upstream = _party_index(spec, party)
    rho = spec.initial.density_matrix()
    for eve, bias in zip(spec.eves[:upstream], spec.input_bias[:upstream]):
        rho = _nonselective_step(rho, eve, bias)
    return TwoQubitState(rho)


def table_from_operators(
    rho: np.ndarray,
    alice_projectors: list[list[np.ndarray]],
    party_effects: list[list[np.ndarray]],
) -> ConditionalTable:
    """Conditional table from explicit operator grids indexed [input][outcome]."""
    probs = np.empty((2, 2, 2, 2))
    for i in (0, 1):
        for a in (0, 1):
            p_alice = float(np.trace(kron(alice_projectors[i][a], ID2) @ rho).real)
            if p_alice < ZERO_PROB_ATOL:
                raise ZeroProbabilityError(
                    f"Alice input {i} outcome {a} has probability {p_alice:.3e}"
                )
            for k in (0, 1):
                for c in (0, 1):
                    joint = float(
                        np.trace(
                            kron(alice_projectors[i][a], party_effects[k][c]) @ rho
                        ).real
                    )
                    probs[k, i, a, c] = joint / p_alice
    return ConditionalTable(probs)


def conditional_table(spec: ChainSpec, party: int | str) -> ConditionalTable:
    """Conditional outcome table of one party versus Alice.

    Earlier Eves are marginalized over inputs (with their biases) and
    outcomes; the party's own statistics use its effect operators on the
    propagated state.
    """
    rho = propagate(spec, party).rho
    settings = spec.bob if party == BOB else spec.eves[_party_index(spec, party)]
    alice_projs = [
        [projector(s, a) for a in (0, 1)] for s in spec.alice.settings
    ]
    party_ops = [
        [_outcome_effect(s, c) for c in (0, 1)] for s in settings.settings
    ]
    return table_from_operators(rho, alice_projs, party_ops)
