"""Propagation of a shared two-qubit state through a chain of unsharp-measuring Eves.

Alice holds the first qubit throughout; the second qubit passes through an
ordered list of eavesdroppers before reaching Bob.  Each Eve measures
unsharply along one of two directions chosen at random (input bias is a
parameter, 1/2 by default) and updates the state with the Lueders rule.
Earlier Eves are always marginalized non-selectively (summed over outcomes,
averaged over inputs) when a later party's statistics are computed.

The steering test reads only the assemblage (Wiseman, Jones & Doherty, PRL
98, 140402 (2007)): Alice's marginals p(a|i) and the Bloch vectors r_{ia} of
the second qubit conditioned on her input i and outcome a.  The initial
state is pure, so with Alice's outcome eigenvector e_{ia},
v = (<e_{ia}| x I)|psi> gives p(a|i) = |v|^2 and r_{ia} = v^dag sigma v / |v|^2.
Her measurement commutes with everything done to the other qubit, so it is
applied first and p(a|i) is computed once per chain.  A non-selective Eve
is a unital channel, a real 3x3 map M (r <- M r), and a party measuring
with sharpness lambda_k along n_k has the table
P(c | k, i, a) = (1 + s_c lambda_k n_k.r_{ia}) / 2, with s = +1 (-1) for
outcome 0 (1), normalized by construction.

``tables`` evaluates a whole chain in one stacked pass: the N Eve maps are
built from (N, 2, 3) direction and (N, 2) sharpness arrays, the N+1
assemblages are carried as one (N+1, 4, 3) stack (the N sequential 3x3
products are the only loop), and all N+1 tables come from one product and
are validated together.  ``conditional_table`` is one row of that stack,
and the planner the one-position case of ``Assemblage``; the ``unbounded``
leaf stacks Alice's two strategies instead, one start on a stack of her
settings.
``propagate`` rebuilds the 4x4 density matrix a party sees.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .linalg import (
    ATOL, COMPOSED_ATOL, ID2, PAULI_X, PAULI_Y, PAULI_Z, X_DIR, Z_DIR, kron
)
from .measurement import SharpSetting, UnsharpSetting
from .states import InvariantError, PureTwoQubitState, TwoQubitState, bell_state
from .value import Value

BOB = "bob"
# Probability of input 0 for an Eve whose bias is not given.
DEFAULT_BIAS = 0.5

# Alice marginals below this are treated as zero-probability conditioning.
ZERO_PROB_ATOL = 1e-12

Setting = SharpSetting | UnsharpSetting

_PAULIS = np.array((ID2, PAULI_X, PAULI_Y, PAULI_Z))
_EYE3 = np.eye(3)
# The sign s of outcome 0 and 1, and the sign of input 0 and 1 in rows 2i + a.
_OUTCOME_SIGN = np.array([1.0, -1.0])
_INPUT_SIGN = np.array([1.0, 1.0, -1.0, -1.0])


class ZeroProbabilityError(ValueError):
    """Raised when conditioning on an Alice outcome of probability zero."""


class PartySettings(Value):
    """The two measurement settings (inputs 0 and 1) of one party."""

    __slots__ = ("input0", "input1")

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


# The sigma_z / sigma_x pair, input 0 first: its (theta, phi) angles (2, 2)
# and its unit directions (2, 3).
MUB_ANGLES = np.array([(Z_DIR.theta, Z_DIR.phi), (X_DIR.theta, X_DIR.phi)])
MUB_DIRECTIONS = np.array([Z_DIR.components(), X_DIR.components()])


def check_bias(bias: float) -> None:
    """Raise ValueError unless an Eve's input bias lies in [0, 1]."""
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"input bias must lie in [0, 1], got {bias}")


class ChainSpec(Value):
    """The kernel's input: the initial state, Alice's angles and the arrays of
    the parties measuring the second qubit.

    ``alice[i]`` is (theta, phi) of Alice's sharp input i.  ``directions``
    (N+1, 2, 3) and ``sharpness`` (N+1, 2) hold the unit directions and
    sharpnesses per input of Eve 1..N and then Bob, whose sharpness is 1;
    ``bias`` (N,) is each Eve's probability of input 0, DEFAULT_BIAS for
    every Eve when it is None.  The scenario reader writes each Eve straight
    into her rows, and ``of`` fills them from ``PartySettings``.
    """

    __slots__ = ("initial", "alice", "directions", "sharpness", "bias")
    _defaults = {"bias": None}

    def __post_init__(self) -> None:
        if self.bias is None:
            bias = np.full(len(self.directions) - 1, DEFAULT_BIAS)
            object.__setattr__(self, "bias", bias)

    @classmethod
    def of(
        cls, initial: PureTwoQubitState, alice: PartySettings,
        eves: tuple[PartySettings, ...], bob: PartySettings,
        input_bias: tuple[float, ...] = (),
    ) -> ChainSpec:
        """The spec of parties given as settings, each Eve unbiased by default.

        Raises ValueError unless Alice and Bob measure sharply, every Eve
        unsharply, and each Eve has one input bias in [0, 1].
        """
        eves = tuple(eves)
        bias = tuple(input_bias) or (DEFAULT_BIAS,) * len(eves)
        if len(bias) != len(eves):
            raise ValueError("input_bias must carry one probability per Eve")
        for b in bias:
            check_bias(b)
        for party in (alice, bob):
            if isinstance(party.input0, UnsharpSetting):
                raise ValueError("Alice and Bob perform sharp measurements")
        for eve in eves:
            if not isinstance(eve.input0, UnsharpSetting):
                raise ValueError("every Eve performs unsharp measurements")
        measured = [s for party in eves + (bob,) for s in party.settings]
        sharpness = [getattr(s, "sharpness", 1.0) for s in measured]  # sharp is 1
        return cls(
            initial,
            np.array([(s.direction.theta, s.direction.phi) for s in alice.settings]),
            np.array([s.direction.components() for s in measured]).reshape(-1, 2, 3),
            np.array(sharpness).reshape(-1, 2),
            np.array(bias, dtype=float),
        )

    @property
    def n_eves(self) -> int:
        return len(self.bias)


def mub_chain(
    lambdas: tuple[float, ...] | list[float],
    initial: PureTwoQubitState | None = None,
) -> ChainSpec:
    """Convenience constructor: all parties in the sigma_z/sigma_x bases."""
    return ChainSpec.of(
        initial=initial if initial is not None else bell_state(),
        alice=mub_sharp_pair(),
        eves=tuple(mub_unsharp_pair(lam) for lam in lambdas),
        bob=mub_sharp_pair(),
    )


class ConditionalTable(Value):
    """P(party outcome c | party input k, Alice input i, Alice outcome a).

    ``probs[k, i, a, c]`` with every (k, i, a) row normalized to 1.  A
    (..., 2, 2, 2, 2) stack of tables is validated as a whole.
    """

    __slots__ = ("probs",)

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


def check_marginals(p_alice: np.ndarray) -> None:
    """Raise ZeroProbabilityError at the first p(a|i) = p_alice[..., 2i + a] too small.

    A (..., 4) stack is read in row-major order, so the first stacked
    assemblage with a marginal below ZERO_PROB_ATOL names it.
    """
    if p_alice.min() < ZERO_PROB_ATOL:
        first = int(np.argmax(p_alice < ZERO_PROB_ATOL))
        i, a = divmod(first % 4, 2)
        raise ZeroProbabilityError(
            f"Alice input {i} outcome {a} has probability {p_alice.flat[first]:.3e}"
        )


class Assemblage(Value):
    """Alice's marginals and the second qubit's Bloch vectors conditioned on them.

    ``p_alice[..., 2i + a]`` is p(a|i) and ``bloch[..., 2i + a, :]`` is
    r_{ia}.  ``bloch`` may carry leading stack axes.  ``p_alice`` is either
    shared by the stacked positions, as the N+1 positions of a chain share
    Alice's one (4,) marginals, or stacked with them, (..., 4), as when
    ``start`` is given a stack of Alice settings.  Raises InvariantError
    unless every r_{ia} lies in the Bloch ball and sum_a p(a|i) r_{ia}, the
    second qubit's reduced state, is the same for both inputs, within ATOL.
    """

    __slots__ = ("p_alice", "bloch")

    def __post_init__(self) -> None:
        length = np.sqrt((self.bloch * self.bloch).sum(axis=-1)).max()
        if not length <= 1.0 + ATOL:  # "not <=" so that NaN fails too
            raise InvariantError(f"conditional Bloch vector has length {length:.3e}")
        # sum_a p(a|0) r_{0a} - sum_a p(a|1) r_{1a}
        drift = (self.p_alice * _INPUT_SIGN)[..., None, :] @ self.bloch
        if not np.abs(drift).max() <= ATOL:
            raise InvariantError("Alice's input signals to the second qubit")

    @classmethod
    def start(cls, amp, angles) -> Assemblage:
        """Assemblage of the pure state sum amp[j][l] |j>|l> for Alice's directions.

        ``angles[..., i, :]`` is (theta, phi) of her input i.  Her outcome-0
        and outcome-1 bras (x, y) are (cos, e^{-i phi} sin) and
        (-e^{i phi} sin, cos) of theta/2, and v = x amp[0] + y amp[1] gives
        p(a|i) = |v|^2 and r_{ia} = (2 Re v0* v1, 2 Im v0* v1,
        |v0|^2 - |v1|^2) / |v|^2.  Leading axes of ``angles`` stack Alice
        settings: they become stack axes of both ``p_alice`` (..., 4) and
        ``bloch`` (..., 4, 3), each row computed as an unstacked start would.
        Raises ZeroProbabilityError when some p(a|i) is below ZERO_PROB_ATOL.
        """
        (a00, a01), (a10, a11) = amp
        angles = np.asarray(angles, dtype=float)
        stack = angles.shape[:-2]
        p_alice, bloch = [], []  # row 2i + a of each stacked setting pair
        for theta, phi in angles.reshape(-1, 2).tolist():
            cos_h, sin_h = math.cos(0.5 * theta), math.sin(0.5 * theta)
            phase = cmath.exp(1j * phi) * sin_h
            for x, y in ((cos_h, phase.conjugate()), (-phase, cos_h)):
                v0, v1 = x * a00 + y * a10, x * a01 + y * a11
                sq0 = v0.real * v0.real + v0.imag * v0.imag
                sq1 = v1.real * v1.real + v1.imag * v1.imag
                cross = 2.0 * v0.conjugate() * v1
                p_alice.append(sq0 + sq1)
                bloch.append((cross.real, cross.imag, sq0 - sq1))
        p_alice = np.array(p_alice).reshape(stack + (4,))
        check_marginals(p_alice)
        bloch = np.array(bloch).reshape(stack + (4, 3))
        return cls(p_alice, bloch / p_alice[..., None])

    @classmethod
    def of(cls, initial: PureTwoQubitState, alice: PartySettings) -> Assemblage:
        angles = [(s.direction.theta, s.direction.phi) for s in alice.settings]
        return cls.start(initial.amp.reshape(2, 2).tolist(), angles)

    def after(self, step: np.ndarray) -> Assemblage:
        """The assemblage after one Eve, whose 3x3 map is ``step``.

        A (T, 3, 3) stack of maps moves row r of a (T, 4, 3) stack, or the
        one unstacked assemblage, by map r.
        """
        return Assemblage(self.p_alice, self.bloch @ step.swapaxes(-1, -2))

    def through(self, maps: np.ndarray) -> Assemblage:
        """This assemblage and the one after each of the N maps, stacked (N+1, 4, 3)."""
        out = np.empty((len(maps) + 1,) + self.bloch.shape)
        out[0] = self.bloch
        for j, step in enumerate(maps):
            out[j + 1] = out[j] @ step.T
        return Assemblage(self.p_alice, out)

    def table(self, directions: np.ndarray, sharpness: np.ndarray) -> ConditionalTable:
        """Table of the party measuring the second qubit, one per stacked position.

        ``directions`` (..., 2, 3) and ``sharpness`` (..., 2) are the party's
        per input, as in a ``ChainSpec``.  A (..., 1) ``sharpness``
        broadcasts one sharpness onto both inputs' directions.
        """
        half = (0.5 * sharpness)[..., None] * directions
        dots = (half @ self.bloch.swapaxes(-1, -2))[..., None]  # [k, 2i + a]
        probs = 0.5 + dots * _OUTCOME_SIGN
        return ConditionalTable(probs.reshape(probs.shape[:-2] + (2, 2, 2)))


def _party_index(spec: ChainSpec, party: int | str) -> int:
    """Number of Eves acting before the queried party; a bool is no Eve index."""
    if party == BOB:
        return spec.n_eves
    if type(party) is int and 1 <= party <= spec.n_eves:
        return party - 1
    raise ValueError(f"party must be an Eve index in 1..{spec.n_eves} or BOB")


def _eve_maps(
    directions: np.ndarray, sharpness: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Each Eve's input-averaged non-selective Lueders channel on the Bloch ball.

    Sharpness lambda along n keeps the Bloch component along n and shrinks
    the transverse ones by sqrt(1 - lambda^2); the channel is unital.  Takes
    the (N, 2, 3) directions and (N, 2) sharpnesses of a ``ChainSpec``
    and the (N,) input biases; map j is the 3x3 matrix of r <- maps[j] r.
    A (N, 1) ``sharpness`` broadcasts one sharpness onto both directions.
    """
    along = directions[..., :, None] * directions[..., None, :]
    quality = np.sqrt(1.0 - sharpness * sharpness)[..., None, None]
    terms = along + quality * (_EYE3 - along)
    weight = bias[..., None, None]
    return weight * terms[..., 0, :, :] + (1.0 - weight) * terms[..., 1, :, :]


def propagate(spec: ChainSpec, party: int | str) -> TwoQubitState:
    """Joint Alice/party density matrix after all earlier Eves measured non-selectively.

    ``party`` is a 1-based Eve index or ``BOB``.  Carried in Pauli
    coordinates R[mu, nu] = <psi| sigma_mu (x) sigma_nu |psi>: each earlier
    Eve maps the second qubit's columns, R[:, 1:] <- R[:, 1:] M^T, and
    rho = sum R[mu, nu] sigma_mu (x) sigma_nu / 4.
    """
    n = _party_index(spec, party)
    amp = spec.initial.amp.reshape(2, 2)
    coords = np.einsum("jl,mjk,nlp,kp->mn", amp.conj(), _PAULIS, _PAULIS, amp).real
    for step in _eve_maps(spec.directions[:n], spec.sharpness[:n], spec.bias[:n]):
        coords[:, 1:] = coords[:, 1:] @ step.T
    rho = np.einsum("mn,mjk,nlp->jlkp", coords, _PAULIS, _PAULIS).reshape(4, 4)
    return TwoQubitState(rho / 4.0)


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
    check_marginals(p_alice)
    # Axes (i, a, k, c) to (k, i, a, c).
    probs = (joint / p_alice[:, None]).reshape(2, 2, 2, 2)
    return ConditionalTable(probs.transpose(2, 0, 1, 3))


def tables(spec: ChainSpec) -> ConditionalTable:
    """Conditional tables of Eve 1..N and then Bob, stacked (N+1, 2, 2, 2, 2).

    One pass: the N Eve maps are built as arrays, the N+1 assemblages are
    propagated as one (N+1, 4, 3) stack, and every table comes from one
    stacked product, validated together.
    """
    directions, sharpness = spec.directions, spec.sharpness
    maps = _eve_maps(directions[:-1], sharpness[:-1], spec.bias)
    amp = spec.initial.amp.reshape(2, 2).tolist()
    return Assemblage.start(amp, spec.alice).through(maps).table(directions, sharpness)


def conditional_table(spec: ChainSpec, party: int | str) -> ConditionalTable:
    """Conditional outcome table of one party versus Alice, its row of ``tables``."""
    row = _party_index(spec, party)  # checked first: 0 or -1 must not wrap to Bob
    return ConditionalTable(tables(spec).probs[row])
