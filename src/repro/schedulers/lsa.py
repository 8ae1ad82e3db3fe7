"""WCMA-based lazy scheduling (the paper's "Inter-task" baseline [3]).

Reimplementation of the HOLLOWS-style power-aware lazy scheduler of
Piorno et al. [3], the strongest prior inter-task policy the paper
compares against (Figure 8):

* at each period start a WCMA predictor estimates the harvestable
  energy of the period; together with the usable storage this gives
  the period's energy budget;
* an admission pass selects the task subset to attempt: tasks are
  admitted in deadline order, each dragging its not-yet-admitted
  ancestors along, while the (dependence-closed) cumulative energy
  fits the budget — the "best DMR in the present period" objective;
* per slot, admitted tasks run *lazily*: a task executes only when its
  slack is gone (it must run to meet the deadline) or when running it
  is free because solar power currently covers the whole chosen load.

The policy maximises single-period energy utilisation — and exhibits
exactly the long-term failure mode the paper targets: it spends the
whole afternoon surplus on the current queue and leaves nothing
migrated for the night.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from ..sim.views import PeriodStartView, PeriodEndView, SlotView
from ..solar.prediction import WCMAPredictor
from ..tasks.graph import TaskGraph
from ..timeline import Timeline
from .base import Scheduler, StaticLargestCapacitorMixin, nvp_filter
from .greedy import must_run_now

__all__ = ["InterTaskScheduler", "admit_by_energy"]


class _AdmissionTable:
    """A graph's admission inputs, fixed per graph: the deadline order,
    the task energies and each task's ancestor walk.

    ``walks[t]`` is ``t`` followed by its ancestors in the order a
    depth-first walk over predecessor edges (a stack, each task once)
    first reaches them.  Admission keeps the admitted set closed under
    predecessors — no unadmitted task lies behind an admitted one — so
    the walk :func:`admit_by_energy` specifies, which stops at admitted
    tasks, reaches exactly the unadmitted tasks of ``walks[t]``, in the
    same order.
    """

    def __init__(self, graph: TaskGraph) -> None:
        n = len(graph)
        self.order = sorted(
            range(n), key=lambda i: (graph.tasks[i].deadline, i)
        )
        self.energies = [t.energy for t in graph.tasks]
        self.walks: List[List[int]] = []
        for task in range(n):
            walk = [task]
            stack = list(graph.predecessors(task))
            while stack:
                p = stack.pop()
                if p in walk:
                    continue
                walk.append(p)
                stack.extend(graph.predecessors(p))
            self.walks.append(walk)

    def admit(self, budget: float) -> Set[int]:
        """:func:`admit_by_energy` of the table's graph."""
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        energies = self.energies
        admitted: Set[int] = set()
        spent = 0.0
        for task in self.order:
            if task in admitted:
                continue
            closure = [t for t in self.walks[task] if t not in admitted]
            cost = sum(map(energies.__getitem__, closure))
            if spent + cost <= budget:
                admitted.update(closure)
                spent += cost
        return admitted


def admit_by_energy(graph: TaskGraph, budget: float) -> Set[int]:
    """Deadline-ordered, dependence-closed greedy admission.

    Tasks are considered in deadline order; admitting a task also
    admits its not-yet-admitted ancestors, reached by a depth-first
    walk over predecessor edges.  A task (with its ancestors) enters
    iff the running energy total — the closure's energies summed in
    walk order — stays within ``budget``.
    """
    return _AdmissionTable(graph).admit(budget)


class InterTaskScheduler(StaticLargestCapacitorMixin, Scheduler):
    """Lazy inter-task scheduling with WCMA energy prediction."""

    name = "inter-task-lsa"

    #: Usable storage counts at this fraction in the period budget
    #: (round-trip losses mean a stored joule serves less than a
    #: direct one).
    STORAGE_DISCOUNT = 0.7

    def __init__(self) -> None:
        self.predictor: Optional[WCMAPredictor] = None
        self._admission: Optional[_AdmissionTable] = None
        self._admitted: Set[int] = set()
        self._observed_any = False

    def bind(self, timeline: Timeline, graph: TaskGraph) -> None:
        super().bind(timeline, graph)
        self.predictor = WCMAPredictor(timeline)
        self._admission = _AdmissionTable(graph)
        self._admitted = set()
        self._observed_any = False

    @property
    def selected(self) -> Set[int]:
        """This period's admitted task subset."""
        return self._admitted

    # ------------------------------------------------------------------
    def on_period_start(self, view: PeriodStartView) -> None:
        assert self.predictor is not None
        self.pin_largest(view)
        if not self._observed_any:
            # Cold start: no history yet, so attempt the full set.
            self._admitted = set(range(len(view.graph)))
            return
        predicted = self.predictor.predict(view.day, view.period)
        budget = (
            predicted
            + self.STORAGE_DISCOUNT * view.bank.active_usable_energy
        )
        self._admitted = self._admission.admit(budget)

    def on_slot(self, view: SlotView) -> Sequence[int]:
        ready = [t for t in view.ready if t in self._admitted]
        if not ready:
            return ()
        ready.sort(key=lambda i: (view.deadline_slots[i], i))
        per_nvp = nvp_filter(view.graph, ready)

        # Mandatory: tasks out of slack.
        chosen: List[int] = [t for t in per_nvp if must_run_now(view, t)]
        load = sum(view.graph.tasks[t].power for t in chosen)

        # Opportunistic, at inter-task granularity: the policy decides
        # per queue, not per slot/subset — when current solar covers
        # the whole candidate load the queue runs, otherwise only the
        # mandatory tasks do (lazy: let the capacitor charge).  The
        # finer per-subset matching is exactly what the intra-task
        # scheduler [9] adds over this baseline.
        total_load = sum(view.graph.tasks[t].power for t in per_nvp)
        if total_load <= view.solar_power + 1e-12:
            return per_nvp
        return chosen

    def on_period_end(self, view: PeriodEndView) -> None:
        assert self.predictor is not None
        self.predictor.observe(view.day, view.period, view.observed_energy)
        self._observed_any = True
