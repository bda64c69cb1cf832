"""Names that code outside the package binds must resolve.

``perfbench/tracing.py`` patches seqeve functions by module and attribute
name, and only a traced benchmark run would notice one that has gone.
The package's ``__all__`` is its public surface.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import seqeve

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"

# Bound by name outside SPAN_FUNCTIONS: counters, patches and output gates.
OTHER_BINDINGS = [
    ("seqeve.linalg", "kron"),
    ("seqeve.planner", "report"),
    ("seqeve.chain", "BOB"),
    ("seqeve.planner", "closed_form_chain"),
    ("seqeve.planner", "InfeasibleError"),
    ("seqeve.states", "TwoQubitState"),
]


def span_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted(tracing.SPAN_FUNCTIONS.values())


@pytest.mark.parametrize("module, name", span_functions() + OTHER_BINDINGS)
def test_benchmark_binding_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_every_public_name_resolves():
    assert len(set(seqeve.__all__)) == len(seqeve.__all__)
    assert [name for name in seqeve.__all__ if not hasattr(seqeve, name)] == []
