"""Scheduler interface.

A scheduler makes two kinds of decisions, mirroring the paper's
coarse/fine split:

* **per period** (:meth:`on_period_start`) — which capacitor to request
  and any per-period planning (task subset, scheduling pattern);
* **per slot** (:meth:`on_slot`) — which ready tasks to execute in the
  current slot, at most one per NVP.

The engine enforces the hard constraints (readiness Eq. 7, one task per
NVP Eq. 9, no execution past the deadline) and realises the energy
consequences; schedulers only choose.  :meth:`on_period_end` feeds back
the observed solar energy so causal predictors can update.
"""

from __future__ import annotations

import abc
from typing import List, Sequence

from ..obs.events import NULL_OBSERVER, Observer
from ..sim.views import PeriodEndView, PeriodStartView, SlotView
from ..tasks.graph import TaskGraph
from ..timeline import Timeline

__all__ = ["Scheduler", "nvp_filter", "StaticLargestCapacitorMixin"]


class Scheduler(abc.ABC):
    """Base class for all scheduling policies."""

    #: Human-readable policy name used in reports and figures.
    name: str = "scheduler"

    #: Event/metrics emitter; the engine attaches its observer at run
    #: start, standalone schedulers keep the disabled default.
    observer: Observer = NULL_OBSERVER

    def bind(self, timeline: Timeline, graph: TaskGraph) -> None:
        """Called once before a run; default stores the references."""
        self.timeline = timeline
        self.graph = graph
        self._cap_pinned = False  # reset StaticLargestCapacitorMixin state

    def on_period_start(self, view: PeriodStartView) -> None:
        """Coarse-grained per-period decision hook (optional)."""

    @abc.abstractmethod
    def on_slot(self, view: SlotView) -> Sequence[int]:
        """Return the task indices to execute in this slot."""

    def on_period_end(self, view: PeriodEndView) -> None:
        """Feedback hook after each period (optional)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class StaticLargestCapacitorMixin:
    """Single-capacitor behaviour for baseline policies.

    The prior-work baselines have no capacitor-selection logic; on the
    dual-channel node they behave as if a single storage element were
    installed.  This mixin pins the largest-capacity capacitor at the
    first period (when everything is drained and the switch is free)
    and never touches the selection again.
    """

    _cap_pinned = False

    def pin_largest(self, view) -> None:
        if self._cap_pinned:
            return
        capacitances = view.bank.capacitances
        view.force_capacitor(int(capacitances.argmax()))
        self._cap_pinned = True


def nvp_filter(graph: TaskGraph, candidates: Sequence[int]) -> List[int]:
    """Keep at most one task per NVP, preserving candidate order.

    Helper for greedy schedulers: the first candidate claiming an NVP
    wins (so pass candidates in priority order).
    """
    chosen: List[int] = []
    used = set()
    for task in candidates:
        nvp = graph.nvp_of(task)
        if nvp not in used:
            used.add(nvp)
            chosen.append(task)
    return chosen
