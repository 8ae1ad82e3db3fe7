"""Intra-task fine-grained load matching (the paper's baseline [9]).

Reimplementation of the intra-task scheduling idea of Zhang et al.
(ICCD 2014): tasks are preemptible at slot granularity, and in every
slot the scheduler picks the subset of ready tasks whose summed power
*best matches* the currently available solar power — executing exactly
when energy is free, idling when it is not, and overriding the match
only for tasks that have run out of slack.

Like the inter-task baseline it optimises the current period only: it
is even better than LSA at soaking up the solar curve (finer-grained
matching), and even more exposed at night when there is nothing to
match against.
"""

from __future__ import annotations

from itertools import combinations
from typing import Container, List, Sequence, Tuple

from ..sim.views import PeriodStartView, SlotView
from .base import Scheduler, StaticLargestCapacitorMixin, nvp_filter
from .greedy import must_run_now

__all__ = ["IntraTaskScheduler", "best_power_match", "fine_grained_decision"]


def best_power_match(
    powers: Sequence[float],
    budget: float,
    max_exact: int = 12,
) -> Tuple[int, ...]:
    """Subset of ``powers`` with the largest sum not exceeding ``budget``.

    Exact subset enumeration up to ``max_exact`` items (the paper's
    task sets have at most 8 tasks), greedy descending fill beyond.
    Returns the chosen indices.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    n = len(powers)
    if n == 0:
        return ()
    if n <= max_exact:
        best: Tuple[int, ...] = ()
        best_sum = 0.0
        for r in range(1, n + 1):
            for combo in combinations(range(n), r):
                total = sum(powers[i] for i in combo)
                if total <= budget + 1e-12 and total > best_sum:
                    best, best_sum = combo, total
        return best
    order = sorted(range(n), key=lambda i: -powers[i])
    chosen: List[int] = []
    total = 0.0
    for i in order:
        if total + powers[i] <= budget + 1e-12:
            chosen.append(i)
            total += powers[i]
    return tuple(sorted(chosen))


def fine_grained_decision(
    view: SlotView, selected: Container[int], intra_mode: bool
) -> List[int]:
    """The per-slot fine pass of every per-node load-matching policy.

    ``intra_mode=True`` runs the load-matching pass of [9] restricted
    to the ``selected`` tasks; ``False`` runs the cheap lazy inter-task
    pass (urgent tasks plus whatever current solar fully covers).
    Urgent (slack-exhausted) tasks always run.
    """
    ready = [t for t in view.ready if t in selected]
    if not ready:
        return []
    ready.sort(key=lambda i: (view.deadline_slots[i], i))
    per_nvp = nvp_filter(view.graph, ready)

    urgent = [t for t in per_nvp if must_run_now(view, t)]
    chosen = list(urgent)
    load = sum(view.graph.tasks[t].power for t in chosen)
    optional = [t for t in per_nvp if t not in urgent]

    if intra_mode:
        budget = max(view.solar_power - load, 0.0)
        powers = [view.graph.tasks[t].power for t in optional]
        for idx in best_power_match(powers, budget):
            chosen.append(optional[idx])
    else:
        for t in optional:
            extra = view.graph.tasks[t].power
            if load + extra <= view.solar_power + 1e-12:
                chosen.append(t)
                load += extra
    return chosen


class IntraTaskScheduler(StaticLargestCapacitorMixin, Scheduler):
    """Per-slot best load matching against the measured solar power:
    the intra-mode :func:`fine_grained_decision` over every task."""

    name = "intra-task"

    def on_period_start(self, view: PeriodStartView) -> None:
        self.pin_largest(view)

    def on_slot(self, view: SlotView) -> Sequence[int]:
        return fine_grained_decision(
            view, range(len(view.graph)), intra_mode=True
        )
