"""Receding-horizon long-term scheduling with predicted solar.

Figure 10(a) of the paper studies DMR and complexity as a function of
the *solar prediction length*.  This scheduler makes that experiment
concrete: every ``replan_every`` periods it predicts the next
``horizon_periods`` of solar energy with a causal predictor, runs the
long-term DP (:class:`~repro.core.longterm.LongTermOptimizer`) on the
predicted window starting from the node's *actual* storage state, and
executes the head of the plan with the same fine-grained pass as the
proposed scheduler.

Longer horizons see further (better night coverage) but lean on
increasingly wrong predictions — reproducing the paper's balance
point — and the number of DP transitions evaluated grows with the
horizon, reproducing the complexity axis.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

import numpy as np

from ..energy.capacitor import SuperCapacitor
from ..schedulers.base import Scheduler
from ..schedulers.intratask import fine_grained_decision
from ..sim.views import PeriodEndView, PeriodStartView, SlotView
from ..solar.prediction import SolarPredictor, WCMAPredictor
from ..tasks.graph import TaskGraph
from ..timeline import Timeline
from .longterm import DPConfig, LongTermOptimizer
from .online import close_subset

__all__ = ["RecedingHorizonScheduler"]


class RecedingHorizonScheduler(Scheduler):
    """Plan with the long-term DP over a predicted solar window."""

    name = "receding-horizon"

    def __init__(
        self,
        capacitors: Sequence[SuperCapacitor],
        horizon_periods: int,
        replan_every: int = 6,
        predictor: Optional[SolarPredictor] = None,
        delta: float = 0.5,
        config: Optional[DPConfig] = None,
        name: Optional[str] = None,
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
        delta:
            δ for the intra/inter fine-pass selection.
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
        self.delta = delta
        self.config = config or DPConfig(energy_buckets=61)
        self._predictor_arg = predictor
        if name is not None:
            self.name = name

        self.predictor: Optional[SolarPredictor] = None
        self.optimizer: Optional[LongTermOptimizer] = None
        self.transitions_evaluated = 0
        self._since_replan = 0
        self._plan_k: List[np.ndarray] = []
        self._plan_alpha: List[float] = []
        self._plan_cap = 0
        self._selected: Set[int] = set()
        self._intra_mode = True

    # ------------------------------------------------------------------
    def bind(self, timeline: Timeline, graph: TaskGraph) -> None:
        super().bind(timeline, graph)
        self.predictor = self._predictor_arg or WCMAPredictor(timeline)
        self.optimizer = LongTermOptimizer(
            graph, timeline, self.capacitors, config=self.config
        )
        self.transitions_evaluated = 0
        self._since_replan = 0
        self._plan_k = []
        self._plan_alpha = []

    # ------------------------------------------------------------------
    def _replan(self, view: PeriodStartView) -> None:
        assert self.predictor is not None and self.optimizer is not None
        tl = view.timeline
        energies = self.predictor.predict_horizon(
            view.day, view.period, self.horizon_periods
        )
        if len(energies) == 0:
            self._plan_k = []
            self._plan_alpha = []
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
            extract_matrices=False,
        )
        self.transitions_evaluated += plan.transitions_evaluated
        profiles = self.optimizer.profiler.profile_many(matrix)
        self._plan_k = [
            profiles[t].subsets[plan.chosen_k[t]]
            for t in range(len(plan.chosen_k))
        ]
        self._plan_alpha = [
            float(
                np.clip(
                    profiles[t].alpha[plan.chosen_k[t]]
                    if plan.chosen_k[t] > 0
                    else 0.0,
                    0.0,
                    LongTermOptimizer.ALPHA_CLIP,
                )
            )
            for t in range(len(plan.chosen_k))
        ]
        self._plan_cap = int(plan.capacitor_by_day[0])

    def on_period_start(self, view: PeriodStartView) -> None:
        if self._since_replan % self.replan_every == 0 or not self._plan_k:
            self._replan(view)
            self._since_replan = 0
        offset = self._since_replan
        self._since_replan += 1
        if not self._plan_k:
            self._selected = set(range(len(view.graph)))
            self._intra_mode = True
            return
        offset = min(offset, len(self._plan_k) - 1)
        te = close_subset(view.graph, self._plan_k[offset])
        self._selected = set(np.flatnonzero(te).tolist())
        alpha = self._plan_alpha[offset]
        self._intra_mode = abs(1.0 - alpha) <= self.delta
        view.request_capacitor(self._plan_cap)

    def on_slot(self, view: SlotView) -> Sequence[int]:
        return fine_grained_decision(view, self._selected, self._intra_mode)

    def on_period_end(self, view: PeriodEndView) -> None:
        assert self.predictor is not None
        self.predictor.observe(view.day, view.period, view.observed_energy)
