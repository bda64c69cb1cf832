"""The 4x4 density-matrix route of the chain: oracle for the Pauli-coordinate kernel.

Each Eve is applied as her Lueders channel with explicit Kraus operators
lifted to two qubits, and tables come from operator traces, so no
propagation or table arithmetic is shared with ``seqeve.chain``.
"""

import numpy as np

from seqeve.chain import (
    ChainSpec,
    ConditionalTable,
    PartySettings,
    UnsharpSetting,
    table_from_operators,
)
from seqeve.linalg import ID2, dagger, kron
from seqeve.measurement import effect, projector, sqrt_effect


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
