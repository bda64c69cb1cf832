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

``tables`` evaluates a whole chain in one stacked pass: the N Eve maps are
built from (N, 2, 3) direction and (N, 2) sharpness arrays, the N+1 states
are carried as one (N+1, 4, 4) stack (the N sequential 4x4 products are the
only loop), and the stack of density matrices, Alice's marginals and the
tables are each computed and validated by one array operation.  Since no
Eve touches Alice's qubit, column 0 of R and so Alice's marginal is the
same for every party.  The per-party functions are the one-party case of
the same code and agree with the stack bit for bit.

Alice's projector is never folded into the propagated state: her sharp
measurement commutes with every operation on the other qubit, so it is
applied lazily when a conditional table is built.  The tests check this
against an explicit per-outcome forking route.
"""

from __future__ import annotations

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
_EYE3 = np.eye(3)


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
        rows = _effect_rows(*_setting_arrays((self,)))[0]
        rows.flags.writeable = False
        return rows


def _setting_arrays(
    parties: tuple[PartySettings, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (n, 2, 3) and sharpnesses (n, 2) of the parties' inputs.

    A sharp setting has sharpness 1.
    """
    per_setting = np.array(
        [
            (
                *setting.direction.components(),
                setting.sharpness if isinstance(setting, UnsharpSetting) else 1.0,
            )
            for party in parties
            for setting in party.settings
        ],
        dtype=float,
    ).reshape(-1, 2, 4)
    return per_setting[..., :3], per_setting[..., 3]


def _effect_rows(directions: np.ndarray, sharpness: np.ndarray) -> np.ndarray:
    """(n, 4, 4) effect rows of ``PartySettings.effect_rows``, row 2k + c."""
    vec = sharpness[..., None] * directions
    rows = np.ones(directions.shape[:-2] + (4, 4))
    rows[..., 0::2, 1:] = vec
    rows[..., 1::2, 1:] = -vec
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

    ``probs[k, i, a, c]`` with every (k, i, a) row normalized to 1.  A
    (..., 2, 2, 2, 2) stack of tables is validated as a whole.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape[-4:] != (2, 2, 2, 2):
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

        ``joint[..., 2i + a, 2k + c]`` is P(a, c | i, k) and
        ``p_alice[..., 2i + a]`` is P(a | i); both may carry the same leading
        stack axes.  Raises ZeroProbabilityError, naming the first of them,
        when an Alice outcome has probability below ZERO_PROB_ATOL.
        """
        if p_alice.min() < ZERO_PROB_ATOL:
            first = int(np.argmax(p_alice < ZERO_PROB_ATOL))
            i, a = divmod(first % 4, 2)
            raise ZeroProbabilityError(
                f"Alice input {i} outcome {a} has probability "
                f"{p_alice.flat[first]:.3e}"
            )
        probs = (joint / p_alice[..., :, None]).reshape(joint.shape[:-2] + (2,) * 4)
        # Axes (..., i, a, k, c) to (..., k, i, a, c).
        return cls(probs.swapaxes(-4, -2).swapaxes(-3, -2))


def _party_index(spec: ChainSpec, party: int | str) -> int:
    """Number of Eves acting before the queried party."""
    if party == BOB:
        return spec.n_eves
    if isinstance(party, int) and 1 <= party <= spec.n_eves:
        return party - 1
    raise ValueError(f"party must be an Eve index in 1..{spec.n_eves} or BOB")


def _eve_maps(
    directions: np.ndarray, sharpness: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Each Eve's input-averaged non-selective Lueders channel on Pauli coordinates.

    Sharpness lambda along n keeps the Bloch component along n and shrinks
    the transverse ones by sqrt(1 - lambda^2); the channel is unital.  Takes
    the (N, 2, 3) directions and (N, 2) sharpnesses of ``_setting_arrays``
    and the (N,) input biases; map j acts as coords <- coords @ maps[j].T.
    """
    along = directions[..., :, None] * directions[..., None, :]
    quality = np.sqrt(1.0 - sharpness * sharpness)[..., None, None]
    terms = along + quality * (_EYE3 - along)
    weight = bias[..., None, None]
    out = np.zeros(bias.shape + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., 1:, 1:] = (
        weight * terms[..., 0, :, :] + (1.0 - weight) * terms[..., 1, :, :]
    )
    return out


def _propagate_all(start: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Coordinates ``start`` and after each of the N maps in turn, (N+1, 4, 4)."""
    out = np.empty((len(maps) + 1, 4, 4))
    out[0] = start
    for j, step in enumerate(maps):
        out[j + 1] = out[j] @ step.T
    return out


@dataclass(frozen=True)
class PauliState:
    """Two-qubit state as its Pauli coordinates R[mu, nu] = Tr(rho sigma_mu (x) sigma_nu).

    R = [[1, b^T], [a, T]] with Alice's Bloch vector a, the second qubit's
    Bloch vector b and the correlation matrix T.  ``coords`` may also be a
    (..., 4, 4) stack of states, such as the N+1 states of a chain.
    """

    coords: np.ndarray

    @cached_property
    def state(self) -> TwoQubitState:
        """rho = sum R[mu, nu] sigma_mu (x) sigma_nu / 4, validated on first use."""
        shape = self.coords.shape
        flat = self.coords.reshape(shape[:-2] + (16,)) @ _PAULI_ROWS
        return TwoQubitState(flat.reshape(shape) / 4.0)

    @classmethod
    def of(cls, initial: PureTwoQubitState) -> PauliState:
        rho = initial.density_matrix()
        return cls(np.einsum("mnij,ji->mn", _PAULI_BASIS, rho).real)

    def after(self, eve: PartySettings, bias: float) -> PauliState:
        """State after one Eve measured non-selectively on the second qubit."""
        step = _eve_maps(*_setting_arrays((eve,)), np.array([bias]))[0]
        return PauliState(self.coords @ step.T)

    def table(self, alice: PartySettings, party: PartySettings) -> ConditionalTable:
        """Closed-form conditional table of ``party`` (second qubit) versus Alice."""
        return self.tables(alice.effect_rows, party.effect_rows)

    def tables(self, alice_rows: np.ndarray, party_rows: np.ndarray) -> ConditionalTable:
        """Closed-form conditional tables, one per state of the stack.

        P(c | k, i, a) = (1 + s_a a.m_i + s_c lambda_k (b.n_k + s_a m_i^T T n_k))
        / (4 p_alice), with p_alice = (1 + s_a a.m_i) / 2 and s = +1 (-1) for
        outcome 0 (1).  ``party_rows`` holds the (..., 4, 4) effect rows of
        the party measuring each state.  Column 0 of R, and so Alice's
        marginal, is the same for every state of a chain; it is still taken
        from each state, in one product, and checked once for the stack.
        """
        self.state  # validates every state a table is built from, once
        p_alice = 0.5 * (alice_rows @ self.coords[..., :1])[..., 0]
        joint = 0.25 * (alice_rows @ self.coords @ party_rows.swapaxes(-1, -2))
        return ConditionalTable.conditioned(joint, p_alice)


def _chain_states(
    spec: ChainSpec, directions: np.ndarray, sharpness: np.ndarray
) -> PauliState:
    """Initial state, then the state after each of the first n Eves, stacked.

    ``directions`` and ``sharpness`` are the ``_setting_arrays`` of those n.
    """
    bias = np.array(spec.input_bias[: len(directions)])
    maps = _eve_maps(directions, sharpness, bias)
    return PauliState(_propagate_all(PauliState.of(spec.initial).coords, maps))


def pauli_state(spec: ChainSpec, party: int | str) -> PauliState:
    """Joint Alice/party state after all earlier Eves measured non-selectively.

    ``party`` is a 1-based Eve index or ``BOB``.
    """
    upstream = spec.eves[: _party_index(spec, party)]
    if not upstream:  # no Eve before the party: no arrays to build
        return PauliState.of(spec.initial)
    return PauliState(_chain_states(spec, *_setting_arrays(upstream)).coords[-1])


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


def tables(spec: ChainSpec) -> ConditionalTable:
    """Conditional tables of Eve 1..N and then Bob, stacked (N+1, 2, 2, 2, 2).

    One pass: the N Eve maps and effect rows are built as arrays, the N+1
    states are propagated as one (N+1, 4, 4) stack and validated together,
    and every table comes from one stacked product.  Entry j equals
    ``conditional_table`` of party j+1 bit for bit.
    """
    directions, sharpness = _setting_arrays(spec.eves)
    states = _chain_states(spec, directions, sharpness)
    rows = np.concatenate(
        (_effect_rows(directions, sharpness), spec.bob.effect_rows[None])
    )
    return states.tables(spec.alice.effect_rows, rows)
