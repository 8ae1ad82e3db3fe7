"""The DP-planned "Optimal" column (Section 4.2 / Figure 8 "Optimal").

The paper's "Optimal" is the offline long-term optimisation evaluated
with the *given* (true) solar power.  The DP produces coarse
decisions, not slot matrices, so the column replays them through the
online scheduler:

* :class:`PlanPolicy` (this module, used in the figures) is a coarse
  policy of :class:`~repro.core.online.ProposedScheduler`: it looks up
  the DP's per-period task subset ``te``, pattern index α and per-day
  capacitor, and the scheduler runs the same adaptive fine-grained
  pass as for the DBN.  Build the column as
  ``ProposedScheduler(PlanPolicy(plan), name="optimal")``;
* :class:`~repro.schedulers.plan.PlanScheduler` executes an explicit
  :class:`~repro.schedulers.plan.SchedulePlan` slot table verbatim.
  Only the brute-force oracle (:mod:`repro.verify.oracles`) builds
  one, for the per-slot schedules it enumerates.

It is not a bound.  The DP plans on a fluid model with bucketed
storage, and the fine pass then runs under the engine's physics, so
the proposed scheduler can beat it: in the committed
``benchmarks/results/fig8.txt`` ``proposed`` is below
``optimal`` in 9 of 24 cells (worst: SHM day 4, 0.751 vs 0.892).
Making the column a true bound is ROADMAP item 4.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sim.views import PeriodStartView
from .longterm import LongTermPlan
from .online import CoarseDecision, CoarsePolicy

__all__ = ["PlanPolicy"]


class PlanPolicy(CoarsePolicy):
    """The DP's coarse decisions, looked up per period and per day.

    The plan's capacitor is forced (it bypasses Eq. 22 and a stuck
    mux), and no runtime inference fault reaches a lookup.  Past the
    plan's periods there is no decision; past its days, no capacitor
    call.
    """

    forces_capacitor = True
    inferred = False

    def __init__(self, plan: LongTermPlan) -> None:
        if plan.te_by_period.size == 0:
            raise ValueError(
                "plan has no per-period subsets; run LongTermOptimizer."
                "optimize on the evaluation trace first"
            )
        self.plan = plan

    def decide(
        self, view: PeriodStartView, prev_solar: np.ndarray
    ) -> Optional[CoarseDecision]:
        plan = self.plan
        t = view.timeline.flat_period(view.day, view.period)
        if t >= len(plan.te_by_period):
            return None
        cap = (
            int(plan.capacitor_by_day[view.day])
            if view.day < len(plan.capacitor_by_day)
            else None
        )
        return cap, float(plan.alpha_by_period[t]), plan.te_by_period[t]
