"""Simulator and planner for sequential unsharp-measurement eavesdropping
of a steering-based QKD link."""

__version__ = "0.1.0"

from .chain import (
    BOB,
    ChainSpec,
    ConditionalTable,
    PartySettings,
    ZeroProbabilityError,
    conditional_table,
    mub_chain,
    mub_sharp_pair,
    mub_unsharp_pair,
    propagate,
)
from .linalg import ATOL, COMPOSED_ATOL, X_DIR, Z_DIR, BlochDirection
from .measurement import SharpSetting, UnsharpSetting, WeakKrausSetting
from .planner import (
    InfeasibleError,
    PlanResult,
    bob_rate,
    closed_form_chain,
    lambda_min_for_rate,
    max_eves,
    shrink_factor,
)
from .scenario import Scenario, ScenarioError, load_scenario, loads_scenario
from .states import (
    InvariantError,
    PureTwoQubitState,
    TwoQubitState,
    bell_state,
    tilted_state,
)
from .steering import (
    SteeringReport,
    delta_for_rate,
    fgi_lhs,
    key_rate,
    report,
    report_from_table,
)
from .unbounded import ADAPTED, CANONICAL, DegenerateStateError, leaf_report, leaf_theta

__all__ = [
    "ADAPTED",
    "ATOL",
    "BOB",
    "CANONICAL",
    "COMPOSED_ATOL",
    "BlochDirection",
    "ChainSpec",
    "ConditionalTable",
    "DegenerateStateError",
    "InfeasibleError",
    "InvariantError",
    "PartySettings",
    "PlanResult",
    "PureTwoQubitState",
    "Scenario",
    "ScenarioError",
    "SharpSetting",
    "SteeringReport",
    "TwoQubitState",
    "UnsharpSetting",
    "WeakKrausSetting",
    "X_DIR",
    "Z_DIR",
    "ZeroProbabilityError",
    "bell_state",
    "bob_rate",
    "closed_form_chain",
    "conditional_table",
    "delta_for_rate",
    "fgi_lhs",
    "key_rate",
    "lambda_min_for_rate",
    "leaf_report",
    "leaf_theta",
    "load_scenario",
    "loads_scenario",
    "max_eves",
    "mub_chain",
    "mub_sharp_pair",
    "mub_unsharp_pair",
    "propagate",
    "report",
    "report_from_table",
    "shrink_factor",
    "tilted_state",
]
