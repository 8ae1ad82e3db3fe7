"""Fault injection, robustness evaluation and supervised execution."""

from .chaos import ChaosError, ChaosPlan, ChaosSpec
from .faults import (
    IntermittentShading,
    PanelDegradation,
    SupplyGlitches,
    TraceFault,
    age_capacitor,
)
from .harness import FaultScenario, RobustnessRow, robustness_report
from .runtime import (
    FAULT_KINDS,
    RUNTIME_SCENARIOS,
    FaultInjector,
    FaultPlan,
    FaultWindow,
    runtime_scenario,
)
from .supervisor import (
    SupervisedResult,
    SupervisorError,
    SupervisorPolicy,
    TaskFailure,
    backoff_delay,
    supervised_map,
)

__all__ = [
    "TraceFault",
    "PanelDegradation",
    "IntermittentShading",
    "SupplyGlitches",
    "age_capacitor",
    "FaultScenario",
    "RobustnessRow",
    "robustness_report",
    "FAULT_KINDS",
    "RUNTIME_SCENARIOS",
    "FaultWindow",
    "FaultPlan",
    "FaultInjector",
    "runtime_scenario",
    "ChaosError",
    "ChaosPlan",
    "ChaosSpec",
    "SupervisorPolicy",
    "SupervisedResult",
    "SupervisorError",
    "TaskFailure",
    "backoff_delay",
    "supervised_map",
]
