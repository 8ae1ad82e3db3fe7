"""Receding-horizon long-term scheduling with predicted solar.

Figure 10(a) of the paper studies DMR and complexity as a function of
the *solar prediction length*.  :class:`HorizonPolicy` makes that
experiment concrete as a coarse policy of
:class:`~repro.core.online.ProposedScheduler`: every ``replan_every``
periods it predicts the next ``horizon_periods`` of solar energy with a
causal predictor, runs the long-term DP
(:class:`~repro.core.longterm.LongTermOptimizer`) on the predicted
window starting from the node's *actual* storage state, and hands the
scheduler the head of the plan, which it executes with the same
fine-grained pass as for the DBN.  Build it as
``ProposedScheduler(HorizonPolicy(...), name="receding-horizon")``.

Longer horizons see further (better night coverage) but lean on
increasingly wrong predictions — reproducing the paper's balance
point — and the number of DP transitions evaluated grows with the
horizon, reproducing the complexity axis.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..energy.capacitor import SuperCapacitor
from ..sim.views import PeriodEndView, PeriodStartView
from ..solar.prediction import SolarPredictor, WCMAPredictor
from ..tasks.graph import TaskGraph
from ..timeline import Timeline
from .longterm import DPConfig, LongTermOptimizer, LongTermPlan
from .online import CoarseDecision, CoarsePolicy

__all__ = ["HorizonPolicy"]


class HorizonPolicy(CoarsePolicy):
    """Plan with the long-term DP over a predicted solar window.

    The plan's capacitor goes through the Eq. (22) request rule, and no
    runtime inference fault reaches a plan lookup.
    """

    inferred = False

    def __init__(
        self,
        capacitors: Sequence[SuperCapacitor],
        horizon_periods: int,
        replan_every: int = 6,
        predictor: Optional[SolarPredictor] = None,
        config: Optional[DPConfig] = None,
    ) -> None:
        """
        Parameters
        ----------
        capacitors:
            Must match the node's bank (order included).
        horizon_periods:
            Prediction length in periods (the Figure 10(a) x-axis).
        replan_every:
            Re-run the DP every this many periods; in between, the
            cached plan head is executed.
        predictor:
            Causal per-period energy predictor (WCMA by default).
        """
        if horizon_periods < 1:
            raise ValueError(
                f"horizon_periods must be >= 1, got {horizon_periods}"
            )
        if replan_every < 1:
            raise ValueError(f"replan_every must be >= 1, got {replan_every}")
        self.capacitors = tuple(capacitors)
        self.horizon_periods = horizon_periods
        self.replan_every = replan_every
        self.config = config or DPConfig(energy_buckets=61)
        self._predictor_arg = predictor

        self.predictor: Optional[SolarPredictor] = None
        self.optimizer: Optional[LongTermOptimizer] = None
        self.transitions_evaluated = 0
        self._since_replan = 0
        self._plan: Optional[LongTermPlan] = None

    # ------------------------------------------------------------------
    def bind(self, timeline: Timeline, graph: TaskGraph) -> None:
        self.predictor = self._predictor_arg or WCMAPredictor(timeline)
        self.optimizer = LongTermOptimizer(
            graph, timeline, self.capacitors, config=self.config
        )
        self.transitions_evaluated = 0
        self._since_replan = 0
        self._plan = None

    # ------------------------------------------------------------------
    def _replan(self, view: PeriodStartView) -> None:
        assert self.predictor is not None and self.optimizer is not None
        tl = view.timeline
        energies = self.predictor.predict_horizon(
            view.day, view.period, self.horizon_periods
        )
        if len(energies) == 0:
            self._plan = None
            return
        # Spread each predicted period energy uniformly over its slots.
        per_slot = energies / (tl.slots_per_period * tl.slot_seconds)
        matrix = np.repeat(
            per_slot[:, None], tl.slots_per_period, axis=1
        )
        start_cap = view.bank.active_index
        start_usable = view.bank.active_usable_energy
        plan = self.optimizer.optimize(
            matrix,
            start_cap=start_cap,
            start_usable=start_usable,
            periods_per_day=self.replan_every,
        )
        self.transitions_evaluated += plan.transitions_evaluated
        self._plan = plan

    def decide(
        self, view: PeriodStartView, prev_solar: np.ndarray
    ) -> Optional[CoarseDecision]:
        if self._since_replan % self.replan_every == 0 or self._plan is None:
            self._replan(view)
            self._since_replan = 0
        offset = self._since_replan
        self._since_replan += 1
        plan = self._plan
        if plan is None:
            return None
        # The head of the plan: its first day's capacitor, and the
        # period's subset and α, held at the last period once the plan
        # runs out before the next replan.
        t = min(offset, len(plan.te_by_period) - 1)
        return (
            int(plan.capacitor_by_day[0]),
            float(plan.alpha_by_period[t]),
            plan.te_by_period[t],
        )

    def observe(self, view: PeriodEndView) -> None:
        assert self.predictor is not None
        self.predictor.observe(view.day, view.period, view.observed_energy)
