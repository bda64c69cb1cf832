"""Simulator and planner for sequential unsharp-measurement eavesdropping
of a steering-based QKD link."""

__version__ = "0.1.0"

from .chain import (
    BOB,
    ChainSpec,
    PartySettings,
    ZeroProbabilityError,
    mub_chain,
    mub_sharp_pair,
    mub_unsharp_pair,
)
from .linalg import BlochDirection
from .measurement import SharpSetting, UnsharpSetting
from .planner import PlanResult, max_eves
from .scenario import Scenario, ScenarioError, load_scenario, loads_scenario
from .states import InvariantError, PureTwoQubitState, bell_state, tilted_state
from .steering import SteeringReport, report, reports
from .unbounded import ADAPTED, CANONICAL, DegenerateStateError, leaf_report, leaf_theta

__all__ = [
    "ADAPTED",
    "BOB",
    "CANONICAL",
    "BlochDirection",
    "ChainSpec",
    "DegenerateStateError",
    "InvariantError",
    "PartySettings",
    "PlanResult",
    "PureTwoQubitState",
    "Scenario",
    "ScenarioError",
    "SharpSetting",
    "SteeringReport",
    "UnsharpSetting",
    "ZeroProbabilityError",
    "bell_state",
    "leaf_report",
    "leaf_theta",
    "load_scenario",
    "loads_scenario",
    "max_eves",
    "mub_chain",
    "mub_sharp_pair",
    "mub_unsharp_pair",
    "report",
    "reports",
    "tilted_state",
]
