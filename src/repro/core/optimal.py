"""The DP-planned "Optimal" column (Section 4.2 / Figure 8 "Optimal").

The paper's "Optimal" is the offline long-term optimisation evaluated
with the *given* (true) solar power.  Two replay styles are offered:

* :class:`~repro.schedulers.plan.PlanScheduler` executes the DP's
  explicit slot matrices verbatim — faithful to the formulation but
  brittle when the engine's physics deviates from the fluid planning
  model mid-period;
* :class:`StaticOptimalScheduler` (this module, used in the figures)
  takes the DP's *coarse* decisions — the per-period task subset
  ``te``, the pattern index α, and the per-day capacitor — and runs
  the same adaptive fine-grained pass as the proposed scheduler: a
  DP-planned coarse stage replayed through the adaptive fine pass.

It is not a bound.  The DP plans on a fluid model with bucketed
storage, and the fine pass then runs under the engine's physics, so
the proposed scheduler can beat it: in the committed
``benchmarks/results/fig8.txt`` ``proposed`` is below
``optimal`` in 9 of 24 cells (worst: SHM day 4, 0.751 vs 0.892).
Making the column a true bound is ROADMAP item 3.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

import numpy as np

from ..schedulers.base import Scheduler
from ..schedulers.intratask import fine_grained_decision
from ..sim.views import PeriodStartView, SlotView
from .longterm import LongTermPlan
from .online import close_subset

__all__ = ["StaticOptimalScheduler"]


class StaticOptimalScheduler(Scheduler):
    """Replay DP coarse decisions with the adaptive fine pass."""

    name = "optimal"

    def __init__(
        self,
        plan: LongTermPlan,
        delta: float = 0.5,
        name: Optional[str] = None,
    ) -> None:
        if plan.te_by_period.size == 0:
            raise ValueError(
                "plan has no per-period subsets; run LongTermOptimizer."
                "optimize on the evaluation trace first"
            )
        self.plan = plan
        self.delta = delta
        if name is not None:
            self.name = name
        self._selected: Set[int] = set()
        self._intra_mode = True

    def on_period_start(self, view: PeriodStartView) -> None:
        t = view.timeline.flat_period(view.day, view.period)
        if t >= len(self.plan.te_by_period):
            self._selected = set(range(len(view.graph)))
            self._intra_mode = True
            return
        te = close_subset(view.graph, self.plan.te_by_period[t])
        self._selected = set(np.flatnonzero(te).tolist())
        alpha = float(self.plan.alpha_by_period[t])
        self._intra_mode = abs(1.0 - alpha) <= self.delta
        if view.day < len(self.plan.capacitor_by_day):
            view.force_capacitor(int(self.plan.capacitor_by_day[view.day]))

    def on_slot(self, view: SlotView) -> Sequence[int]:
        return fine_grained_decision(view, self._selected, self._intra_mode)
