"""Discrete-time simulator: runtime state, engine, records, metrics."""

from .state import COMPLETION_EPS, PeriodRuntime
from .views import (
    BankView,
    PeriodEndView,
    PeriodFaultFlags,
    PeriodStartView,
    SlotView,
)
from .recorder import PeriodRecord, PeriodTable, SimulationResult, SlotArrays
from .checkpoint import (
    CheckpointConfig,
    CheckpointError,
    SimulationInterrupted,
    latest_checkpoint,
    result_fingerprint,
    run_fingerprint,
)
from .engine import InvalidDecisionError, SimulationEngine, simulate

__all__ = [
    "PeriodRuntime",
    "COMPLETION_EPS",
    "BankView",
    "PeriodStartView",
    "SlotView",
    "PeriodEndView",
    "PeriodFaultFlags",
    "PeriodRecord",
    "PeriodTable",
    "SlotArrays",
    "SimulationResult",
    "SimulationEngine",
    "simulate",
    "InvalidDecisionError",
    "CheckpointConfig",
    "CheckpointError",
    "SimulationInterrupted",
    "latest_checkpoint",
    "result_fingerprint",
    "run_fingerprint",
]
