"""Directed acyclic task graph ``G(V, W)``.

The paper models the per-period workload as a DAG: ``W_{n,l} = 1`` when
task ``τ_l`` depends on the result of ``τ_n`` (constraint (7): a task may
start only after all of its predecessors completed within the same
period).  :class:`TaskGraph` owns the task set, the dependence relation
and the NVP partition ``A_k``, validates acyclicity and per-NVP
feasibility, and provides the order/reachability queries the schedulers
need.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

import numpy as np

from .task import Task

__all__ = ["TaskGraph", "CycleError"]


class CycleError(ValueError):
    """Raised when the dependence relation contains a cycle."""


class TaskGraph:
    """Task set plus dependence edges and NVP partition.

    Parameters
    ----------
    tasks:
        The task set ``V``.  Task names must be unique; each task's
        ``nvp`` attribute defines the partition ``A_k``.
    edges:
        Dependence pairs ``(producer, consumer)`` by task name;
        ``consumer`` cannot start until ``producer`` has completed in
        the same period.
    name:
        Optional benchmark name, used in reports.
    """

    def __init__(
        self,
        tasks: Sequence[Task],
        edges: Iterable[Tuple[str, str]] = (),
        name: str = "taskset",
    ) -> None:
        if not tasks:
            raise ValueError("a task graph needs at least one task")
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate task names: {dupes}")
        self.name = name
        self._tasks: Tuple[Task, ...] = tuple(tasks)
        self._index: Dict[str, int] = {t.name: i for i, t in enumerate(tasks)}

        n = len(tasks)
        self._adj: np.ndarray = np.zeros((n, n), dtype=bool)
        for producer, consumer in edges:
            if producer not in self._index:
                raise KeyError(f"unknown producer task {producer!r}")
            if consumer not in self._index:
                raise KeyError(f"unknown consumer task {consumer!r}")
            if producer == consumer:
                raise CycleError(f"self-dependence on task {producer!r}")
            self._adj[self._index[producer], self._index[consumer]] = True

        self._topo: Tuple[int, ...] = tuple(self._topological_order())
        self._preds: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(np.flatnonzero(self._adj[:, i]).tolist()) for i in range(n)
        )
        self._succs: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(np.flatnonzero(self._adj[i, :]).tolist()) for i in range(n)
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self):
        return iter(self._tasks)

    @property
    def tasks(self) -> Tuple[Task, ...]:
        return self._tasks

    @property
    def num_edges(self) -> int:
        return int(self._adj.sum())

    def index(self, name: str) -> int:
        return self._index[name]

    def task(self, name: str) -> Task:
        return self._tasks[self._index[name]]

    def predecessors(self, task_index: int) -> Tuple[int, ...]:
        """Indices of tasks that must complete before ``task_index``."""
        return self._preds[task_index]

    def successors(self, task_index: int) -> Tuple[int, ...]:
        return self._succs[task_index]

    def topological_order(self) -> Tuple[int, ...]:
        """Task indices in a dependence-respecting order."""
        return self._topo

    # ------------------------------------------------------------------
    # NVP partition
    # ------------------------------------------------------------------
    @property
    def num_nvps(self) -> int:
        """Number of NVPs (``N_k``); NVP indices must be dense from 0."""
        return max(t.nvp for t in self._tasks) + 1

    def nvp_partition(self) -> Mapping[int, Tuple[int, ...]]:
        """The partition ``A_k``: task indices grouped by NVP."""
        groups: Dict[int, List[int]] = {}
        for i, task in enumerate(self._tasks):
            groups.setdefault(task.nvp, []).append(i)
        return {k: tuple(v) for k, v in groups.items()}

    def nvp_of(self, task_index: int) -> int:
        return self._tasks[task_index].nvp

    # ------------------------------------------------------------------
    # Aggregates used by schedulers
    # ------------------------------------------------------------------
    def total_energy(self) -> float:
        """Energy to complete every task once, joules."""
        return float(sum(t.energy for t in self._tasks))

    def max_power(self) -> float:
        """Largest possible instantaneous load: one task per NVP."""
        best: Dict[int, float] = {}
        for t in self._tasks:
            best[t.nvp] = max(best.get(t.nvp, 0.0), t.power)
        return float(sum(best.values()))

    def descendants(self, task_index: int) -> Set[int]:
        """All tasks transitively depending on ``task_index``."""
        seen: Set[int] = set()
        stack = list(self._succs[task_index])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._succs[node])
        return seen

    def feasible_in(self, period_seconds: float, slot_seconds: float) -> bool:
        """Whether every task *could* meet its deadline with full energy.

        Checks, per NVP, that the work of the tasks due by each deadline
        fits in the slots before that deadline (a necessary EDF-style
        demand-bound condition, ignoring dependences).
        """
        for nvp, members in self.nvp_partition().items():
            by_deadline = sorted(members, key=lambda i: self._tasks[i].deadline)
            demand_slots = 0
            for i in by_deadline:
                task = self._tasks[i]
                if task.deadline > period_seconds + 1e-9:
                    return False
                demand_slots += task.slots_needed(slot_seconds)
                available = int(task.deadline / slot_seconds + 1e-9)
                if demand_slots > available:
                    return False
        return True

    # ------------------------------------------------------------------
    def _topological_order(self) -> List[int]:
        n = len(self._tasks)
        in_degree = self._adj.sum(axis=0).astype(int)
        ready = sorted(np.flatnonzero(in_degree == 0).tolist())
        order: List[int] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in np.flatnonzero(self._adj[node]).tolist():
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != n:
            stuck = [self._tasks[i].name for i in range(n) if i not in order]
            raise CycleError(f"dependence cycle among tasks: {stuck}")
        return order

    def __repr__(self) -> str:
        return (
            f"TaskGraph(name={self.name!r}, tasks={len(self)}, "
            f"edges={self.num_edges}, nvps={self.num_nvps})"
        )
