"""Per-period runtime state of the task set, as plain Python lists.

Tracks the remaining execution time ``S'_{i,j,m}(n)`` (Eq. 4), the
deadline-miss flags ``θ`` (Eq. 5), and readiness under the dependence
constraint (Eq. 7).  The static tables are built once per run, and
:meth:`PeriodRuntime.reset` starts each period afresh: tasks executed
in one period are independent of those in other periods (Section 3.1).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

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
        #: Slot index at whose *start* each task's deadline is checked.
        self.deadline_slots: Tuple[int, ...] = tuple(
            timeline.deadline_slot(t.deadline) for t in graph.tasks
        )
        self._deadline_map: Dict[int, List[int]] = {}
        for i, s in enumerate(self.deadline_slots):
            self._deadline_map.setdefault(s, []).append(i)
        self._rows = tuple(
            (i, s, graph.predecessors(i))
            for i, s in enumerate(self.deadline_slots)
        )
        # In ``descendants``' set order, which orders cascaded misses.
        self._descendants = tuple(
            tuple(graph.descendants(i)) for i in range(len(graph))
        )
        self.reset()

    def reset(self) -> None:
        """Start a new period: full remaining work, no misses."""
        self.remaining = [t.execution_time for t in self.graph.tasks]
        self.missed = [False] * len(self.remaining)
        self.started = [False] * len(self.remaining)

    # ------------------------------------------------------------------
    @property
    def completed(self) -> Tuple[bool, ...]:
        return tuple(r <= COMPLETION_EPS for r in self.remaining)

    def is_completed(self, task: int) -> bool:
        return self.remaining[task] <= COMPLETION_EPS

    def ready_tasks(self, slot: int) -> Tuple[int, ...]:
        """Tasks that may execute in ``slot``.

        Ready = not completed, not missed, deadline not yet reached,
        and every predecessor completed (Eq. 7).
        """
        done = [r <= COMPLETION_EPS for r in self.remaining]
        missed = self.missed
        ready = []
        for i, deadline, preds in self._rows:
            if done[i] or missed[i] or slot >= deadline:
                continue
            for p in preds:
                if not done[p]:
                    break
            else:
                ready.append(i)
        return tuple(ready)

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
            for d in self._descendants[i]:
                if not self.missed[d] and not self.is_completed(d):
                    self.missed[d] = True
                    newly_missed.append(d)
        return tuple(newly_missed)

    def finalize(self) -> Tuple[int, ...]:
        """End-of-period sweep: any incomplete task is a miss."""
        newly = []
        for i in range(len(self.remaining)):
            if not self.missed[i] and not self.is_completed(i):
                self.missed[i] = True
                newly.append(i)
        return tuple(newly)

    @property
    def miss_count(self) -> int:
        return sum(self.missed)

    @property
    def dmr(self) -> float:
        """Deadline miss rate of this period (Eq. 16)."""
        return self.miss_count / len(self.remaining)
