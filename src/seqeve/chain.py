"""Propagation of a shared two-qubit state through a chain of unsharp-measuring Eves.

Alice holds the first qubit throughout; the second qubit passes through an
ordered list of eavesdroppers before reaching Bob.  Each Eve measures
unsharply along one of two directions chosen at random (input bias is a
parameter, 1/2 by default) and updates the state with the Lueders rule.
Earlier Eves are always marginalized non-selectively (summed over outcomes,
averaged over inputs) when a later party's statistics are computed.

The state is carried in Pauli coordinates (Horodecki & Horodecki, PRA 54,
1838 (1996)): Alice's Bloch vector a, the second qubit's Bloch vector b and
the 3x3 correlation matrix T.  A non-selective Eve acts on the second qubit
only, as a real 3x3 map M (b <- M b, T <- T M^T), and every conditional
table is a closed form in (a, b, T).  Each state a table is built from is
rebuilt as a 4x4 density matrix and validated.

Alice's projector is never folded into the propagated state: her sharp
measurement commutes with every operation on the other qubit, so it is
applied lazily when a conditional table is built.  The tests check this
against an explicit per-outcome forking route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import COMPOSED_ATOL, ID2, PAULI_X, PAULI_Y, PAULI_Z, X_DIR, Z_DIR, kron
from .measurement import SharpSetting, UnsharpSetting
from .states import InvariantError, PureTwoQubitState, TwoQubitState, bell_state

BOB = "bob"

# Alice marginals below this are treated as zero-probability conditioning.
ZERO_PROB_ATOL = 1e-12

Setting = SharpSetting | UnsharpSetting

# _PAULI_BASIS[mu, nu] = sigma_mu (x) sigma_nu with sigma_0 = I, built once so
# that rebuilding a density matrix from Pauli coordinates needs no kron.
_PAULIS = (ID2, PAULI_X, PAULI_Y, PAULI_Z)
_PAULI_BASIS = np.array([[kron(p, q) for q in _PAULIS] for p in _PAULIS])
# The same basis as one (16, 16) matrix: row 4 mu + nu holds the flattened
# sigma_mu (x) sigma_nu, so rho.ravel() = R.ravel() @ _PAULI_ROWS / 4.
_PAULI_ROWS = _PAULI_BASIS.reshape(16, 16)


class ZeroProbabilityError(ValueError):
    """Raised when conditioning on an Alice outcome of probability zero."""


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

    @cached_property
    def effect_rows(self) -> np.ndarray:
        """Pauli coordinates (1, +-lambda n) of 2E, one row per (input, outcome).

        The effect of outcome 0 (1) is E = (I +- lambda n.sigma)/2, with
        lambda = 1 for a sharp setting, so its rows pair with a state's
        coordinates in the closed-form probabilities of ``PauliState.table``.
        Built once per settings object and read-only.
        """
        rows = np.ones((4, 4))
        for k, setting in enumerate(self.settings):
            lam = setting.sharpness if isinstance(setting, UnsharpSetting) else 1.0
            vec = lam * setting.direction.unit_vector()
            rows[2 * k, 1:] = vec
            rows[2 * k + 1, 1:] = -vec
        rows.flags.writeable = False
        return rows


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
        # Written as "not <=" so that a NaN sum fails too.
        if not np.abs(probs.sum(axis=-1) - 1.0).max() <= COMPOSED_ATOL:
            raise InvariantError("each conditioning cell must sum to 1")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def conditioned(cls, joint: np.ndarray, p_alice: np.ndarray) -> ConditionalTable:
        """Table from joint probabilities divided by Alice's marginal.

        ``joint[2i + a, 2k + c]`` is P(a, c | i, k) and ``p_alice[2i + a]`` is
        P(a | i).  Raises ZeroProbabilityError when an Alice outcome has
        probability below ZERO_PROB_ATOL.
        """
        low = np.flatnonzero(p_alice < ZERO_PROB_ATOL)
        if low.size:
            i, a = divmod(int(low[0]), 2)
            raise ZeroProbabilityError(
                f"Alice input {i} outcome {a} has probability {p_alice[low[0]]:.3e}"
            )
        probs = (joint / p_alice[:, None]).reshape(2, 2, 2, 2)
        return cls(probs.transpose(2, 0, 1, 3))


def _party_index(spec: ChainSpec, party: int | str) -> int:
    """Number of Eves acting before the queried party."""
    if party == BOB:
        return spec.n_eves
    if isinstance(party, int) and 1 <= party <= spec.n_eves:
        return party - 1
    raise ValueError(f"party must be an Eve index in 1..{spec.n_eves} or BOB")


def _eve_map(eve: PartySettings, bias: float) -> np.ndarray:
    """An Eve's input-averaged non-selective Lueders channel on Pauli coordinates.

    Sharpness lambda along n keeps the Bloch component along n and shrinks
    the transverse ones by sqrt(1 - lambda^2); the channel is unital.  The
    4x4 map acts as coords <- coords @ map.T.
    """
    out = np.zeros((4, 4))
    out[0, 0] = 1.0
    for weight, setting in zip((bias, 1.0 - bias), eve.settings):
        n = setting.direction.unit_vector()
        along = np.outer(n, n)
        quality = math.sqrt(1.0 - setting.sharpness * setting.sharpness)
        out[1:, 1:] += weight * (along + quality * (np.eye(3) - along))
    return out


@dataclass(frozen=True)
class PauliState:
    """Two-qubit state as its Pauli coordinates R[mu, nu] = Tr(rho sigma_mu (x) sigma_nu).

    R = [[1, b^T], [a, T]] with Alice's Bloch vector a, the second qubit's
    Bloch vector b and the correlation matrix T.
    """

    coords: np.ndarray

    @cached_property
    def state(self) -> TwoQubitState:
        """rho = sum R[mu, nu] sigma_mu (x) sigma_nu / 4, validated on first use."""
        flat = self.coords.reshape(16) @ _PAULI_ROWS
        return TwoQubitState(flat.reshape(4, 4) / 4.0)

    @classmethod
    def of(cls, initial: PureTwoQubitState) -> PauliState:
        rho = initial.density_matrix()
        return cls(np.einsum("mnij,ji->mn", _PAULI_BASIS, rho).real)

    def after(self, eve: PartySettings, bias: float) -> PauliState:
        """State after one Eve measured non-selectively on the second qubit."""
        return PauliState(self.coords @ _eve_map(eve, bias).T)

    def table(self, alice: PartySettings, party: PartySettings) -> ConditionalTable:
        """Closed-form conditional table of ``party`` (second qubit) versus Alice.

        P(c | k, i, a) = (1 + s_a a.m_i + s_c lambda_k (b.n_k + s_a m_i^T T n_k))
        / (4 p_alice), with p_alice = (1 + s_a a.m_i) / 2 and s = +1 (-1) for
        outcome 0 (1).
        """
        self.state  # validates every state a table is built from, once
        alice_rows = alice.effect_rows  # rows (i, a)
        party_rows = party.effect_rows  # rows (k, c)
        p_alice = 0.5 * (alice_rows @ self.coords[:, 0])
        joint = 0.25 * (alice_rows @ self.coords @ party_rows.T)
        return ConditionalTable.conditioned(joint, p_alice)


def pauli_state(spec: ChainSpec, party: int | str) -> PauliState:
    """Joint Alice/party state after all earlier Eves measured non-selectively.

    ``party`` is a 1-based Eve index or ``BOB``.
    """
    upstream = _party_index(spec, party)
    current = PauliState.of(spec.initial)
    for eve, bias in zip(spec.eves[:upstream], spec.input_bias[:upstream]):
        current = current.after(eve, bias)
    return current


def propagate(spec: ChainSpec, party: int | str) -> TwoQubitState:
    """Density matrix of ``pauli_state(spec, party)``.

    Alice's qubit is untouched; her projectors are applied later, at
    table-construction time.
    """
    return pauli_state(spec, party).state


def table_from_operators(
    rho: np.ndarray,
    alice_projectors: list[list[np.ndarray]],
    party_effects: list[list[np.ndarray]],
) -> ConditionalTable:
    """Conditional table from explicit operator grids indexed [input][outcome]."""
    alice = [proj for row in alice_projectors for proj in row]  # row 2i + a
    party = [eff for row in party_effects for eff in row]  # column 2k + c
    p_alice = np.array([np.trace(kron(p, ID2) @ rho).real for p in alice])
    joint = np.array([[np.trace(kron(p, e) @ rho).real for e in party] for p in alice])
    return ConditionalTable.conditioned(joint, p_alice)


def conditional_table(spec: ChainSpec, party: int | str) -> ConditionalTable:
    """Conditional outcome table of one party versus Alice.

    Earlier Eves are marginalized over inputs (with their biases) and
    outcomes; the party's own statistics use its effects on the propagated
    state.
    """
    settings = spec.bob if party == BOB else spec.eves[_party_index(spec, party)]
    return pauli_state(spec, party).table(spec.alice, settings)


def tables(spec: ChainSpec) -> list[ConditionalTable]:
    """Conditional tables of Eve 1..N and then Bob, from one propagation pass."""
    current = PauliState.of(spec.initial)
    out = []
    for eve, bias in zip(spec.eves, spec.input_bias):
        out.append(current.table(spec.alice, eve))
        current = current.after(eve, bias)
    out.append(current.table(spec.alice, spec.bob))
    return out
