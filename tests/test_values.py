"""The contract of the value classes: immutable records, compared, hashed,
printed and pickled by their fields, as ``dataclass(frozen=True)`` had them,
and defined without generating code when the package is imported."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqeve
from seqeve.chain import (
    DEFAULT_BIAS, Assemblage, ChainSpec, ConditionalTable, PartySettings,
)
from seqeve.linalg import BlochDirection
from seqeve.measurement import SharpSetting, UnsharpSetting, WeakKrausSetting
from seqeve.planner import PlanResult
from seqeve.scenario import OutputSpec, PartySpec, Scenario, StateSpec
from seqeve.states import PureTwoQubitState, TwoQubitState, bell_state
from seqeve.steering import SteeringReport
from seqeve.unbounded import BranchNode, SchmidtForm
from seqeve.value import Value

D = BlochDirection(0.5, 1.25)
Z = BlochDirection(0.0)
X = BlochDirection(1.5)
# Alice's angles, and the directions and sharpnesses of one Eve and Bob.
ANGLES = np.array([[0.0, 0.0], [1.5, 0.0]])
DIRECTIONS = np.array([[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]] * 2)
SHARPNESS = np.array([[0.5, 0.5], [1.0, 1.0]])

# Each class, a function giving fresh arguments (fields without a default
# first), and the repr that the dataclass version of the class gave.
VALUES = [
    pytest.param(
        BlochDirection,
        lambda: (0.5,),
        "BlochDirection(theta=0.5, phi=0.0)",
        id="direction-default",
    ),
    pytest.param(
        BlochDirection,
        lambda: (0.5, 1.25),
        "BlochDirection(theta=0.5, phi=1.25)",
        id="direction",
    ),
    pytest.param(
        SharpSetting,
        lambda: (D,),
        "SharpSetting(direction=BlochDirection(theta=0.5, phi=1.25))",
        id="sharp",
    ),
    pytest.param(
        UnsharpSetting,
        lambda: (D, 0.5),
        (
            "UnsharpSetting(direction=BlochDirection(theta=0.5, phi=1.25), "
            "sharpness=0.5)"
        ),
        id="unsharp",
    ),
    pytest.param(
        WeakKrausSetting,
        lambda: (0.5,),
        "WeakKrausSetting(angle=0.5)",
        id="weak",
    ),
    pytest.param(
        TwoQubitState,
        lambda: (np.eye(4) / 4,),
        (
            "TwoQubitState(rho=array([[0.25+0.j, 0.  +0.j, 0.  +0.j, "
            "0.  +0.j],\n       [0.  +0.j, 0.25+0.j, 0.  +0.j, 0.  +0.j],\n"
            "       [0.  +0.j, 0.  +0.j, 0.25+0.j, 0.  +0.j],\n"
            "       [0.  +0.j, 0.  +0.j, 0.  +0.j, 0.25+0.j]]))"
        ),
        id="mixed",
    ),
    pytest.param(
        PureTwoQubitState,
        lambda: (np.array([1.0, 0.0, 0.0, 0.0]),),
        "PureTwoQubitState(amp=array([1.+0.j, 0.+0.j, 0.+0.j, 0.+0.j]))",
        id="pure",
    ),
    pytest.param(
        PartySettings,
        lambda: (SharpSetting(Z), SharpSetting(X)),
        (
            "PartySettings(input0=SharpSetting(direction=BlochDirection("
            "theta=0.0, phi=0.0)), input1=SharpSetting("
            "direction=BlochDirection(theta=1.5, phi=0.0)))"
        ),
        id="party",
    ),
    pytest.param(
        ChainSpec,
        lambda: (bell_state(), ANGLES, DIRECTIONS, SHARPNESS),
        (
            "ChainSpec(initial=PureTwoQubitState(amp=array([0.70710678+0.j, "
            "0.        +0.j, 0.        +0.j, 0.70710678+0.j])), "
            "alice=array([[0. , 0. ],\n       [1.5, 0. ]]), "
            "directions=array([[[0., 0., 1.],\n        [1., 0., 0.]],\n\n"
            "       [[0., 0., 1.],\n        [1., 0., 0.]]]), "
            "sharpness=array([[0.5, 0.5],\n       [1. , 1. ]]), "
            "bias=array([0.5]))"
        ),
        id="chain-default",
    ),
    pytest.param(
        ChainSpec,
        lambda: (bell_state(), ANGLES, DIRECTIONS, SHARPNESS, np.array([0.25])),
        (
            "ChainSpec(initial=PureTwoQubitState(amp=array([0.70710678+0.j, "
            "0.        +0.j, 0.        +0.j, 0.70710678+0.j])), "
            "alice=array([[0. , 0. ],\n       [1.5, 0. ]]), "
            "directions=array([[[0., 0., 1.],\n        [1., 0., 0.]],\n\n"
            "       [[0., 0., 1.],\n        [1., 0., 0.]]]), "
            "sharpness=array([[0.5, 0.5],\n       [1. , 1. ]]), "
            "bias=array([0.25]))"
        ),
        id="chain",
    ),
    pytest.param(
        ConditionalTable,
        lambda: (np.full((2, 2, 2, 2), 0.5),),
        (
            "ConditionalTable(probs=array([[[[0.5, 0.5],\n         [0.5, "
            "0.5]],\n\n        [[0.5, 0.5],\n         [0.5, 0.5]]],\n\n\n"
            "       [[[0.5, 0.5],\n         [0.5, 0.5]],\n\n        [[0.5, "
            "0.5],\n         [0.5, 0.5]]]]))"
        ),
        id="table",
    ),
    pytest.param(
        Assemblage,
        lambda: (np.full(4, 0.5), np.zeros((4, 3))),
        (
            "Assemblage(p_alice=array([0.5, 0.5, 0.5, 0.5]), bloch=array("
            "[[0., 0., 0.],\n       [0., 0., 0.],\n       [0., 0., 0.],\n"
            "       [0., 0., 0.]]))"
        ),
        id="assemblage",
    ),
    pytest.param(
        SteeringReport,
        lambda: (0.8, 0.05, 0.125, True),
        (
            "SteeringReport(lhs=0.8, delta=0.05, key_rate=0.125, "
            "violated=True)"
        ),
        id="report",
    ),
    pytest.param(
        PlanResult,
        lambda: (0.1, (0.5, 0.25), 0.3, 2),
        (
            "PlanResult(target_rate=0.1, lambdas=(0.5, 0.25), bob_rate=0.3, "
            "max_eves=2)"
        ),
        id="plan",
    ),
    pytest.param(
        StateSpec,
        lambda: (),
        "StateSpec(theta=None)",
        id="state-default",
    ),
    pytest.param(
        StateSpec,
        lambda: (0.5,),
        "StateSpec(theta=0.5)",
        id="state",
    ),
    pytest.param(
        PartySpec,
        lambda: (),
        "PartySpec(settings='mub')",
        id="party-spec-default",
    ),
    pytest.param(
        PartySpec,
        lambda: ("explicit",),
        "PartySpec(settings='explicit')",
        id="party-spec",
    ),
    pytest.param(
        OutputSpec,
        lambda: (),
        "OutputSpec(format='csv', path=None)",
        id="output-default",
    ),
    pytest.param(
        OutputSpec,
        lambda: ("json", "out.json"),
        "OutputSpec(format='json', path='out.json')",
        id="output",
    ),
    pytest.param(
        Scenario,
        lambda: (),
        (
            "Scenario(state=StateSpec(theta=None), alice=PartySpec("
            "settings='mub'), bob=PartySpec(settings='mub'), eves=(), "
            "output=OutputSpec(format='csv', path=None))"
        ),
        id="scenario-default",
    ),
    pytest.param(
        Scenario,
        lambda: (
            StateSpec(0.5), PartySpec("explicit"), PartySpec(), ("mub",),
            OutputSpec("json"),
        ),
        (
            "Scenario(state=StateSpec(theta=0.5), alice=PartySpec("
            "settings='explicit'), bob=PartySpec(settings='mub'), eves=("
            "'mub',), output=OutputSpec(format='json', path=None))"
        ),
        id="scenario",
    ),
    pytest.param(
        SchmidtForm,
        lambda: (0.5, np.eye(2), np.eye(2), 0.25),
        (
            "SchmidtForm(theta=0.5, u_alice=array([[1., 0.],\n       [0., "
            "1.]]), v_other=array([[1., 0.],\n       [0., 1.]]), "
            "global_phase=0.25)"
        ),
        id="schmidt",
    ),
    pytest.param(
        BranchNode,
        lambda: ((0, 1), 0.5, np.eye(2), 0.25),
        (
            "BranchNode(outcomes=(0, 1), theta=0.5, u_alice=array([[1., "
            "0.],\n       [0., 1.]]), probability=0.25, degenerate=False)"
        ),
        id="branch-default",
    ),
    pytest.param(
        BranchNode,
        lambda: ((0, 1), 0.5, np.eye(2), 0.25, True),
        (
            "BranchNode(outcomes=(0, 1), theta=0.5, u_alice=array([[1., "
            "0.],\n       [0., 1.]]), probability=0.25, degenerate=True)"
        ),
        id="branch",
    ),
]
# Classes with an array among their fields, or in a field's value: two of
# them with equal but distinct arrays have no truth value, and none is
# hashable.
ARRAY_HOLDERS = (
    TwoQubitState, PureTwoQubitState, ChainSpec, ConditionalTable, Assemblage,
    SchmidtForm, BranchNode,
)


def _builds(cls, args):
    """Two values built from fresh ``args()``: positionally and by keyword."""
    return cls(*args()), cls(**dict(zip(cls.__slots__, args())))


def test_every_value_class_is_covered():
    covered = {param.values[0] for param in VALUES}
    assert covered == set(Value.__subclasses__())
    assert len(covered) == 18


@pytest.mark.parametrize("cls, args, text", VALUES)
def test_repr_is_the_dataclass_repr(cls, args, text):
    positional, keyword = _builds(cls, args)
    assert repr(positional) == text
    assert repr(keyword) == text


@pytest.mark.parametrize("cls, args, text", VALUES)
def test_equality_and_hash_go_by_the_fields(cls, args, text):
    value, other = _builds(cls, args)
    assert value == value and not value != value
    assert value.__eq__(object()) is NotImplemented
    assert value != object()
    if cls in ARRAY_HOLDERS:
        with pytest.raises(ValueError, match="ambiguous"):
            value == other
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert value == other and not value != other
        assert hash(value) == hash(other)


def test_hashable_values_are_equal_exactly_when_their_reprs_are():
    values = [
        cls(*args()) for cls, args, _ in (param.values for param in VALUES)
        if cls not in ARRAY_HOLDERS
    ]
    for value in values:
        for other in values:
            assert (value == other) is (repr(value) == repr(other))
            assert (value != other) is (repr(value) != repr(other))


@pytest.mark.parametrize("cls, args, text", VALUES)
def test_fields_cannot_be_set_or_deleted(cls, args, text):
    value = cls(*args())
    for name in cls.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0.5)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("cls, args, text", VALUES)
def test_copies_and_pickles_round_trip(cls, args, text, clone):
    value = cls(*args())
    twin = clone(value)
    assert type(twin) is cls
    assert repr(twin) == text
    if cls not in ARRAY_HOLDERS:
        assert twin == value and hash(twin) == hash(value)


@pytest.mark.parametrize("cls, args, text", VALUES)
def test_keyword_and_mixed_construction_equal_positional(cls, args, text):
    fields = cls(*args())._fields()
    for split in range(len(fields) + 1):
        keywords = dict(zip(cls.__slots__[split:], fields[split:]))
        assert repr(cls(*fields[:split], **keywords)) == text


@pytest.mark.parametrize("cls, args, text", VALUES)
def test_a_bad_call_raises_type_error(cls, args, text):
    fields = cls(*args())._fields()
    first = cls.__slots__[0]
    with pytest.raises(TypeError, match=f"takes {len(fields)} fields"):
        cls(*fields, None)
    with pytest.raises(TypeError, match="unexpected field 'extra'"):
        cls(*fields, extra=None)
    with pytest.raises(TypeError, match=f"multiple values for field '{first}'"):
        cls(*fields, **{first: fields[0]})
    required = [name for name in cls.__slots__ if name not in cls._defaults]
    for name in required:
        given = {k: v for k, v in zip(cls.__slots__, fields) if k != name}
        with pytest.raises(TypeError, match=f"missing field '{name}'"):
            cls(**given)
    if not required:
        assert repr(cls()) == repr(cls(*(cls._defaults[k] for k in cls.__slots__)))


def test_post_init_runs_on_the_keyword_path():
    with pytest.raises(ValueError, match="sharpness"):
        UnsharpSetting(direction=D, sharpness=0.0)
    with pytest.raises(ValueError, match="theta"):
        BlochDirection(theta=4.0)


def test_a_chain_without_bias_is_unbiased():
    directions = np.concatenate([DIRECTIONS, DIRECTIONS])
    sharpness = np.concatenate([SHARPNESS[:1]] * 3 + [SHARPNESS[1:]])
    for spec in (
        ChainSpec(bell_state(), ANGLES, directions, sharpness),
        ChainSpec(
            initial=bell_state(), alice=ANGLES, directions=directions,
            sharpness=sharpness,
        ),
    ):
        assert spec.bias.tolist() == [DEFAULT_BIAS] * 3
        assert spec.n_eves == 3


# Prints whether the import loaded ``dataclasses``, and every seqeve module
# attribute that is a dataclass or one of its instances.
DATACLASS_CENSUS = """\
import sys
import seqeve.cli

modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "seqeve"]
print("dataclasses" in sys.modules, sorted(
    f"{m.__name__}.{name}" for m in modules for name, value in vars(m).items()
    if hasattr(value, "__dataclass_fields__")
))
"""


def test_cli_import_generates_no_code():
    """No dataclass is defined, so the import compiles no generated method."""
    src = str(Path(seqeve.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", DATACLASS_CENSUS],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False []"
