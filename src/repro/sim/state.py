"""Mutable per-period runtime state of the task set.

Tracks the remaining execution time ``S'_{i,j,m}(n)`` (Eq. 4), the
deadline-miss flags ``θ`` (Eq. 5), and readiness under the dependence
constraint (Eq. 7).  A fresh :class:`PeriodRuntime` is created at every
period start: tasks executed in one period are independent of those in
other periods (Section 3.1).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..tasks.graph import TaskGraph
from ..timeline import Timeline

__all__ = ["PeriodRuntime", "COMPLETION_EPS"]

#: Remaining time below which a task counts as completed, seconds.
COMPLETION_EPS = 1e-6


class PeriodRuntime:
    """Task progress within one period.

    Parameters
    ----------
    graph:
        The task set and its dependences.
    timeline:
        Supplies the slot duration and the deadline-slot mapping.
    """

    def __init__(self, graph: TaskGraph, timeline: Timeline) -> None:
        self.graph = graph
        self.timeline = timeline
        n = len(graph)
        self.remaining = np.array(
            [t.execution_time for t in graph.tasks], dtype=float
        )
        self.missed = np.zeros(n, dtype=bool)
        self.started = np.zeros(n, dtype=bool)
        #: Slot index at whose *start* each task's deadline is checked.
        self.deadline_slots = np.array(
            [timeline.deadline_slot(t.deadline) for t in graph.tasks],
            dtype=int,
        )
        # Hot-loop accelerators: a boolean predecessor matrix so
        # readiness is one vectorized mask, and a slot -> tasks map so
        # the per-slot deadline check only touches tasks actually due.
        pred_mask = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for p in graph.predecessors(i):
                pred_mask[i, p] = True
        self._pred_mask = pred_mask
        self._deadline_map: dict = {}
        for i, s in enumerate(self.deadline_slots.tolist()):
            self._deadline_map.setdefault(s, []).append(i)

    # ------------------------------------------------------------------
    @property
    def completed(self) -> np.ndarray:
        return self.remaining <= COMPLETION_EPS

    def is_completed(self, task: int) -> bool:
        return bool(self.remaining[task] <= COMPLETION_EPS)

    def ready_tasks(self, slot: int) -> Tuple[int, ...]:
        """Tasks that may execute in ``slot``.

        Ready = not completed, not missed, deadline not yet reached,
        and every predecessor completed (Eq. 7).
        """
        done = self.remaining <= COMPLETION_EPS
        blocked = (self._pred_mask & ~done).any(axis=1)
        ready = ~done & ~self.missed & (slot < self.deadline_slots) & ~blocked
        return tuple(np.flatnonzero(ready).tolist())

    def advance_scaled(
        self, task_seconds: Sequence[Tuple[int, float]]
    ) -> None:
        """Progress each ``task`` by its ``seconds`` of execution."""
        for i, seconds in task_seconds:
            if seconds < 0:
                raise ValueError(f"seconds must be >= 0, got {seconds}")
            if self.missed[i]:
                continue
            self.started[i] = True
            self.remaining[i] = max(self.remaining[i] - seconds, 0.0)

    def check_deadlines(self, slot: int) -> Tuple[int, ...]:
        """Mark tasks whose deadline is at the start of ``slot`` and
        that still have remaining work (Eq. 5); returns the new misses.

        A miss also dooms every transitive dependent whose remaining
        work can no longer legally start; those are marked missed the
        moment their producer misses, so schedulers stop wasting energy
        on them.
        """
        candidates = self._deadline_map.get(slot)
        if not candidates:
            return ()
        newly_missed: List[int] = []
        for i in candidates:
            if self.missed[i] or self.is_completed(i):
                continue
            self.missed[i] = True
            newly_missed.append(i)
        # Cascade: dependents of an incomplete missed task cannot run.
        for i in list(newly_missed):
            for d in self.graph.descendants(i):
                if not self.missed[d] and not self.is_completed(d):
                    self.missed[d] = True
                    newly_missed.append(d)
        return tuple(newly_missed)

    def finalize(self) -> Tuple[int, ...]:
        """End-of-period sweep: any incomplete task is a miss."""
        newly = []
        for i in range(len(self.graph)):
            if not self.missed[i] and not self.is_completed(i):
                self.missed[i] = True
                newly.append(i)
        return tuple(newly)

    @property
    def miss_count(self) -> int:
        return int(self.missed.sum())

    @property
    def dmr(self) -> float:
        """Deadline miss rate of this period (Eq. 16)."""
        return self.miss_count / len(self.graph)
