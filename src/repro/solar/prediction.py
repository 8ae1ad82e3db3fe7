"""Solar energy predictors.

The inter-task baseline [3] is a WCMA-based lazy scheduler, and the
paper's Figure 10(a) studies how the DMR of long-term scheduling
depends on the solar prediction length.  This module provides the three
predictors those experiments need, all working at period granularity
(the energy harvestable in each task period):

* :class:`WCMAPredictor` — Weather-Conditioned Moving Average
  (Piorno et al., the predictor inside HOLLOWS [3]);
* :class:`EWMAPredictor` — the classical per-slot-of-day exponential
  moving average (Kansal et al.), a simpler baseline;
* :class:`PerfectPredictor` — an oracle reading the true trace, used
  for upper bounds and for isolating prediction error in ablations.

Predictors are *causal*: they may only use energies passed to
:meth:`observe` for periods strictly before the one being predicted,
plus the current day index.
"""

from __future__ import annotations

import abc
import math
from typing import List, Optional

import numpy as np

from ..timeline import Timeline
from .trace import SolarTrace

__all__ = [
    "SolarPredictor",
    "WCMAPredictor",
    "EWMAPredictor",
    "PerfectPredictor",
]


class SolarPredictor(abc.ABC):
    """Causal per-period solar energy predictor."""

    def __init__(self, timeline: Timeline) -> None:
        self.timeline = timeline

    @abc.abstractmethod
    def observe(self, day: int, period: int, energy: float) -> None:
        """Record the measured harvestable energy of a finished period."""

    @abc.abstractmethod
    def predict(self, day: int, period: int) -> float:
        """Predicted harvestable energy (J) of the given period."""

    def predict_horizon(self, day: int, period: int, count: int) -> np.ndarray:
        """Predicted energies for ``count`` periods starting at
        ``(day, period)``; clipped at the end of the horizon."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        out = []
        flat = self.timeline.flat_period(day, period)
        last = self.timeline.total_periods
        for offset in range(count):
            if flat + offset >= last:
                break
            d, p = self.timeline.unflatten_period(flat + offset)
            out.append(self.predict(d, p))
        return np.array(out)


class _HistoryMatrix:
    """Observed per-period energies, indexed ``[day][period]``.

    Plain Python floats (NaN where unobserved): the predictor reads a
    handful of cells per call, where numpy's per-call overhead would
    dominate.
    """

    def __init__(self, timeline: Timeline) -> None:
        self.timeline = timeline
        self._data = [
            [math.nan] * timeline.periods_per_day
            for _ in range(timeline.num_days)
        ]

    def store(self, day: int, period: int, energy: float) -> None:
        if energy < 0:
            raise ValueError(f"energy must be >= 0, got {energy}")
        self._data[day][period] = float(energy)

    def get(self, day: int, period: int) -> float:
        if day < 0:
            return math.nan
        return self._data[day][period]

    def past_days_at(self, day: int, period: int, depth: int) -> List[float]:
        """Observed energies of ``period`` on the previous ``depth`` days
        (most recent first), NaNs dropped."""
        data = self._data
        values = (
            data[d][period]
            for d in range(day - 1, max(day - 1 - depth, -1), -1)
        )
        return [value for value in values if not math.isnan(value)]


class WCMAPredictor(SolarPredictor):
    """Weather-Conditioned Moving Average.

    For the next period the prediction combines the energy of the
    current period with the mean of the same period over the previous
    ``depth_days`` days, scaled by a GAP factor that measures how
    today's recent periods compare to their historical means:

    ``E(d, p+1) = alpha * E(d, p) + (1 - alpha) * GAP * M(p+1)``

    Before any history exists the predictor falls back to the last
    observation (persistence).
    """

    def __init__(
        self,
        timeline: Timeline,
        alpha: float = 0.7,
        depth_days: int = 4,
        gap_window: int = 3,
    ) -> None:
        super().__init__(timeline)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if depth_days < 1:
            raise ValueError(f"depth_days must be >= 1, got {depth_days}")
        if gap_window < 1:
            raise ValueError(f"gap_window must be >= 1, got {gap_window}")
        self.alpha = alpha
        self.depth_days = depth_days
        self.gap_window = gap_window
        self._history = _HistoryMatrix(timeline)
        self._last_observation: float = 0.0
        self._last_flat: int = -1

    def observe(self, day: int, period: int, energy: float) -> None:
        self._history.store(day, period, energy)
        self._last_observation = energy
        self._last_flat = self.timeline.flat_period(day, period)

    def _mean_at(self, day: int, period: int) -> Optional[float]:
        past = self._history.past_days_at(day, period, self.depth_days)
        if not past:
            return None
        # numpy's mean of at most a few values: a left-to-right sum
        # from 0.0, divided by the count.
        total = 0.0
        for value in past:
            total += value
        return total / len(past)

    def _gap(self, day: int, period: int) -> float:
        """Weighted ratio of today's recent energies to their means."""
        # Left-to-right sums from 0.0, as numpy sums so few terms.
        weighted = 0.0
        weight_sum = 0.0
        for k in range(1, self.gap_window + 1):
            p = period - k
            if p < 0:
                break
            observed = self._history.get(day, p)
            mean = self._mean_at(day, p)
            if math.isnan(observed) or mean is None:
                continue
            if mean < 1e-9:
                continue  # night periods carry no weather information
            weight = float(self.gap_window + 1 - k)
            weighted += observed / mean * weight
            weight_sum += weight
        if not weight_sum:
            return 1.0
        return weighted / weight_sum

    def predict(self, day: int, period: int) -> float:
        flat = self.timeline.flat_period(day, period)
        mean = self._mean_at(day, period)
        if mean is None:
            # No same-period history yet: persistence.
            return max(self._last_observation, 0.0)
        conditioned = self._gap(day, period) * mean
        if flat == self._last_flat + 1:
            # One-step-ahead: blend with the just-finished period.
            return max(
                self.alpha * self._last_observation
                + (1.0 - self.alpha) * conditioned,
                0.0,
            )
        return max(conditioned, 0.0)


class EWMAPredictor(SolarPredictor):
    """Per-period-of-day exponential moving average."""

    def __init__(self, timeline: Timeline, alpha: float = 0.5) -> None:
        super().__init__(timeline)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self._estimate = np.full(timeline.periods_per_day, np.nan)
        self._last_observation = 0.0

    def observe(self, day: int, period: int, energy: float) -> None:
        if energy < 0:
            raise ValueError(f"energy must be >= 0, got {energy}")
        if np.isnan(self._estimate[period]):
            self._estimate[period] = energy
        else:
            self._estimate[period] = (
                self.alpha * energy
                + (1.0 - self.alpha) * self._estimate[period]
            )
        self._last_observation = energy

    def predict(self, day: int, period: int) -> float:
        value = self._estimate[period]
        if np.isnan(value):
            return self._last_observation
        return float(value)


class PerfectPredictor(SolarPredictor):
    """Oracle predictor reading the true trace (upper bound)."""

    def __init__(self, timeline: Timeline, trace: SolarTrace) -> None:
        super().__init__(timeline)
        if trace.timeline != timeline:
            raise ValueError("trace timeline does not match predictor timeline")
        self.trace = trace

    def observe(self, day: int, period: int, energy: float) -> None:
        pass  # the oracle needs no history

    def predict(self, day: int, period: int) -> float:
        return self.trace.period_energy(day, period)
