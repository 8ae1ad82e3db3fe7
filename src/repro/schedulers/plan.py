"""Replay of precomputed schedules.

The long-term DP's static plan (Section 4.2) and the offline training
sample generator both produce explicit scheduling plans — per-period
slot×task execution matrices plus a per-day capacitor choice.
:class:`PlanScheduler` replays such a plan through the engine so the
plan's DMR and energy flows are measured under exactly the same
physics as the online policies.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..sim.views import PeriodStartView, SlotView
from .base import Scheduler

__all__ = ["SchedulePlan", "PlanScheduler"]


@dataclasses.dataclass
class SchedulePlan:
    """Explicit long-horizon schedule.

    Attributes
    ----------
    assignments:
        ``(day, period) -> bool matrix [slots_per_period, num_tasks]``
        — the paper's ``x_{i,j,m}(n)``.
    capacitor_by_day:
        ``day -> capacitor index`` (``C_{h,i}``); optional.
    """

    assignments: Dict[Tuple[int, int], np.ndarray] = dataclasses.field(
        default_factory=dict
    )
    capacitor_by_day: Dict[int, int] = dataclasses.field(default_factory=dict)

    def set_period(
        self, day: int, period: int, matrix: np.ndarray
    ) -> None:
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise ValueError(
                f"assignment matrix must be 2-D, got shape {matrix.shape}"
            )
        self.assignments[(day, period)] = matrix

    def period_matrix(
        self, day: int, period: int, slots: int, tasks: int
    ) -> np.ndarray:
        """The stored matrix, or all-idle when the period has no plan."""
        matrix = self.assignments.get((day, period))
        if matrix is None:
            return np.zeros((slots, tasks), dtype=bool)
        if matrix.shape != (slots, tasks):
            raise ValueError(
                f"plan for ({day}, {period}) has shape {matrix.shape}, "
                f"expected {(slots, tasks)}"
            )
        return matrix


class PlanScheduler(Scheduler):
    """Execute a :class:`SchedulePlan` verbatim (modulo legality).

    Entries for tasks that are not ready (dependence violations caused
    by earlier brownouts, already-finished work) are dropped rather
    than raised, because a plan computed under ideal energy assumptions
    may become partially infeasible when the physics disagrees.
    """

    name = "plan"

    def __init__(
        self,
        plan: SchedulePlan,
        name: Optional[str] = None,
        force_capacitor: bool = True,
    ) -> None:
        """``force_capacitor=True`` (default) bypasses the Eq. (22)
        threshold rule — offline plans already decided when to switch."""
        self.plan = plan
        self.force = force_capacitor
        if name is not None:
            self.name = name

    def on_period_start(self, view: PeriodStartView) -> None:
        cap = self.plan.capacitor_by_day.get(view.day)
        if cap is not None:
            if self.force:
                view.force_capacitor(cap)
            else:
                view.request_capacitor(cap)

    def on_slot(self, view: SlotView) -> Sequence[int]:
        matrix = self.plan.period_matrix(
            view.day,
            view.period,
            view.timeline.slots_per_period,
            len(view.graph),
        )
        wanted = np.flatnonzero(matrix[view.slot])
        ready = set(view.ready)
        return [int(t) for t in wanted if int(t) in ready]
