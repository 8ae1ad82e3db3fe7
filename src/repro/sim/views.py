"""Read-only views the engine hands to schedulers.

Schedulers are *causal*: they see the current slot's measured solar
power, the node's storage state, task progress, and anything they
observed earlier — never the future of the trace.  Oracle policies
(the static-optimal :class:`~repro.core.optimal.PlanPolicy`) receive a
plan of the full trace at construction instead.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Tuple

import numpy as np

from ..tasks.graph import TaskGraph
from ..timeline import Timeline

__all__ = [
    "PeriodStartView",
    "SlotView",
    "PeriodEndView",
    "BankView",
    "PeriodFaultFlags",
]


@dataclasses.dataclass(frozen=True)
class PeriodFaultFlags:
    """Runtime faults injected into the coarse stage this period.

    ``corrupted_features`` records that ``last_period_powers`` was
    already tampered with by the injector (informational — the
    corruption happened upstream); ``fail_inference`` instructs
    inference-based coarse policies to fail this period, exercising
    their degradation path.  Schedulers without an inference stage
    ignore these flags.
    """

    corrupted_features: bool = False
    fail_inference: bool = False


@dataclasses.dataclass(frozen=True)
class BankView:
    """Snapshot of the capacitor bank."""

    capacitances: np.ndarray
    voltages: np.ndarray
    usable_energies: np.ndarray
    active_index: int

    @property
    def active_usable_energy(self) -> float:
        return float(self.usable_energies[self.active_index])


@dataclasses.dataclass(frozen=True)
class PeriodStartView:
    """Context for coarse, once-per-period decisions.

    ``request_capacitor`` routes through the PMU's Eq. (22) threshold
    rule and returns whether the requested capacitor is now active;
    ``force_capacitor`` bypasses the rule (offline/oracle plans only).
    ``last_period_powers`` holds the measured per-slot solar power of
    the previous period (the DBN's main input), None for the first.
    """

    timeline: Timeline
    graph: TaskGraph
    day: int
    period: int
    bank: BankView
    accumulated_dmr: float
    last_period_energy: Optional[float]
    last_period_powers: Optional[np.ndarray]
    request_capacitor: Callable[[int], bool]
    force_capacitor: Callable[[int], None]
    faults: Optional[PeriodFaultFlags] = None


@dataclasses.dataclass(frozen=True)
class SlotView:
    """Context for the per-slot (fine-grained) decision.

    The returned decision is a sequence of task indices to execute in
    this slot; the engine enforces readiness and the one-task-per-NVP
    constraint (Eq. 9).  Per-task fields are tuples indexed by task, so
    a scheduler cannot write into the engine's state.
    """

    timeline: Timeline
    graph: TaskGraph
    day: int
    period: int
    slot: int
    solar_power: float
    slot_seconds: float
    remaining: Tuple[float, ...]
    completed: Tuple[bool, ...]
    missed: Tuple[bool, ...]
    deadline_slots: Tuple[int, ...]
    ready: Tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class PeriodEndView:
    """Feedback after a period finished (for predictor updates)."""

    day: int
    period: int
    observed_energy: float
