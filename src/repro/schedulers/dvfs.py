"""DVFS-aware load-matching scheduler (the [5]/[6] baseline family).

Combines intra-task load matching with frequency selection on a
DVFS-capable node:

* **urgent** tasks run at the *slowest* frequency that still meets
  their deadline — slack is spent on voltage reduction, which saves
  energy quadratically;
* **optional** tasks are added at the most energy-efficient frequency
  while the resulting load still fits under the current solar power.

Like the other baselines this optimises the current period only; its
role in the reproduction is the related-work category the paper lists
third (DVFS integrated into load matching).
"""

from __future__ import annotations

from math import inf
from typing import List, Sequence, Tuple

from ..node.dvfs import DVFSModel
from ..sim.views import PeriodStartView, SlotView
from .base import Scheduler, StaticLargestCapacitorMixin
from .greedy import asap_tasks

__all__ = ["DVFSLoadMatchingScheduler"]


class DVFSLoadMatchingScheduler(StaticLargestCapacitorMixin, Scheduler):
    """Slack-aware frequency scaling + solar load matching."""

    name = "dvfs-load-matching"

    def __init__(self, dvfs: DVFSModel | None = None) -> None:
        """``dvfs`` must match the node's model (defaults to the
        standard 4-level model)."""
        self.dvfs = dvfs or DVFSModel()

    def on_period_start(self, view: PeriodStartView) -> None:
        self.pin_largest(view)

    # ------------------------------------------------------------------
    def _chain_rates(self, view: SlotView, task: int) -> Tuple[float, float]:
        """Worst-case required rates for ``task``: run now, idle a slot.

        Slowing a producer eats its consumers' slack, so the required
        rate must consider every dependence path: for each descendant
        path the cumulative remaining work must finish before the
        path-end deadline.  Idling this slot takes one slot off every
        path's available time; both rates come from one walk.
        """
        successors = view.graph.successors
        remaining, deadline_slots = view.remaining, view.deadline_slots
        completed, missed = view.completed, view.missed
        slot, dt = view.slot, view.slot_seconds
        best_now = best_skip = 0.0

        def dfs(node: int, work_before: float) -> None:
            nonlocal best_now, best_skip
            work = work_before + remaining[node]
            t_now = (deadline_slots[node] - slot) * dt
            t_skip = t_now - dt
            best_now = max(best_now, work / t_now if t_now > 0 else inf)
            best_skip = max(best_skip, work / t_skip if t_skip > 0 else inf)
            for succ in successors(node):
                if not completed[succ] and not missed[succ]:
                    dfs(succ, work)

        dfs(task, 0.0)
        return best_now, best_skip

    def on_slot(self, view: SlotView) -> Sequence[Tuple[int, float]]:
        per_nvp = asap_tasks(view.graph, view.ready, view.deadline_slots)
        if not per_nvp:
            return ()

        chosen: List[Tuple[int, float]] = []
        load = 0.0
        optional: List[Tuple[int, float]] = []
        for task in per_nvp:
            rate_now, rate_if_skip = self._chain_rates(view, task)
            level_now = self.dvfs.slowest_meeting(rate_now)
            if self.dvfs.slowest_meeting(rate_if_skip) is None:
                # Skipping this slot would make the chain infeasible:
                # the task is urgent; run at the slowest safe level
                # (full speed if already doomed — salvage progress).
                level = level_now if level_now is not None else 1.0
                chosen.append((task, level))
                load += view.graph.tasks[task].power * self.dvfs.power_factor(
                    level
                )
            elif level_now is not None:
                # Optional: if run, never below the chain-safe level.
                floor_level = max(level_now, self.dvfs.most_efficient())
                optional.append((task, floor_level))

        # Optional tasks soak the remaining solar budget.
        budget = max(view.solar_power - load, 0.0)
        for task, level in optional:
            added = view.graph.tasks[task].power * self.dvfs.power_factor(
                level
            )
            if added <= budget + 1e-12:
                chosen.append((task, level))
                budget -= added
        return chosen
