"""Greedy EDF / ASAP scheduling.

Runs every ready task as soon as possible; within one NVP, the ready
task with the earliest deadline wins (EDF).  Because each task is bound
to one NVP and one task per NVP runs per slot (Eq. 9), per-NVP EDF *is*
the as-soon-as-possible rule the paper uses to extract the migration
pattern for capacitor sizing (Section 4.1).

This policy ignores energy entirely: on a sunny noon it is optimal, at
night it browns out immediately.  It doubles as the most naive
baseline and, through :func:`asap_tasks`, as the load generator for
sizing (``core.offline.asap_load_profile``).
"""

from __future__ import annotations

from typing import List, Sequence

from ..sim.views import PeriodStartView, SlotView
from ..tasks.graph import TaskGraph
from .base import Scheduler, StaticLargestCapacitorMixin, nvp_filter

__all__ = ["GreedyEDFScheduler", "asap_tasks", "slack_slots", "must_run_now"]


def asap_tasks(
    graph: TaskGraph, ready: Sequence[int], deadline_slots: Sequence[int]
) -> List[int]:
    """The asap slot rule: ``ready`` tasks in EDF order, one per NVP.

    EDF order is ``(deadline_slot, index)``; the first task to claim an
    NVP runs on it.
    """
    candidates = sorted(ready, key=lambda i: (deadline_slots[i], i))
    return nvp_filter(graph, candidates)


def slack_slots(view: SlotView, task: int) -> int:
    """Whole slots of slack before ``task``'s deadline.

    Slack = slots remaining until the deadline minus slots of work
    left; 0 means the task must run every remaining slot to finish.
    """
    remaining_slots = view.deadline_slots[task] - view.slot
    work_slots = int(
        -(-view.remaining[task] // view.slot_seconds)
    )  # ceil division
    return int(remaining_slots - work_slots)


def must_run_now(view: SlotView, task: int) -> bool:
    """True when skipping this slot would make the deadline infeasible."""
    return slack_slots(view, task) <= 0


class GreedyEDFScheduler(StaticLargestCapacitorMixin, Scheduler):
    """Run everything ready, earliest deadline first per NVP."""

    name = "asap-edf"

    def on_period_start(self, view: PeriodStartView) -> None:
        self.pin_largest(view)

    def on_slot(self, view: SlotView) -> Sequence[int]:
        return asap_tasks(view.graph, view.ready, view.deadline_slots)
