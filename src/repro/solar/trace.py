"""Slot-resampled solar power traces.

The schedulers and the simulator consume solar power as the per-slot
average ``P^s_{i,j,m}`` (Table 1).  :class:`SolarTrace` stores that
three-dimensional array aligned to a :class:`~repro.timeline.Timeline`
and provides energy aggregation helpers.  Traces are built from a
power-density function of wall-clock time via :meth:`from_function`,
which integrates the function over each slot with sub-sampling.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..timeline import SlotIndex, Timeline

__all__ = ["SolarTrace"]


class SolarTrace:
    """Per-slot average solar power over a scheduling horizon.

    Parameters
    ----------
    timeline:
        The time structure the trace is aligned to.
    power:
        Array of shape ``(num_days, periods_per_day, slots_per_period)``
        holding the average electrical power (W) in each slot.
    """

    def __init__(self, timeline: Timeline, power: np.ndarray) -> None:
        expected = (
            timeline.num_days,
            timeline.periods_per_day,
            timeline.slots_per_period,
        )
        power = np.asarray(power, dtype=float)
        if power.shape != expected:
            raise ValueError(
                f"power shape {power.shape} does not match timeline "
                f"{expected}"
            )
        if np.any(power < 0):
            raise ValueError("solar power must be >= 0 everywhere")
        if not np.all(np.isfinite(power)):
            raise ValueError("solar power must be finite everywhere")
        self.timeline = timeline
        self._power = power
        self._power.setflags(write=False)

    # ------------------------------------------------------------------
    @classmethod
    def from_function(
        cls,
        timeline: Timeline,
        power_fn: Callable[[int, np.ndarray], np.ndarray],
        subsamples: int = 4,
    ) -> "SolarTrace":
        """Build a trace by averaging a continuous power function.

        Parameters
        ----------
        power_fn:
            ``power_fn(day, times)`` returns electrical power (W) at
            each of ``times`` (seconds since that day's midnight).
        subsamples:
            Sub-samples per slot used for the average.
        """
        if subsamples < 1:
            raise ValueError(f"subsamples must be >= 1, got {subsamples}")
        tl = timeline
        power = np.zeros(
            (tl.num_days, tl.periods_per_day, tl.slots_per_period)
        )
        offsets = (np.arange(subsamples) + 0.5) / subsamples * tl.slot_seconds
        for day in range(tl.num_days):
            starts = np.array(
                [
                    tl.slot_time_of_day(SlotIndex(day, j, m))
                    for j in range(tl.periods_per_day)
                    for m in range(tl.slots_per_period)
                ]
            )
            sample_times = (starts[:, None] + offsets[None, :]).ravel()
            values = np.asarray(power_fn(day, sample_times), dtype=float)
            means = values.reshape(len(starts), subsamples).mean(axis=1)
            power[day] = means.reshape(
                tl.periods_per_day, tl.slots_per_period
            )
        return cls(timeline, power)

    # ------------------------------------------------------------------
    @property
    def power(self) -> np.ndarray:
        """Read-only array of shape ``(N_d, N_p, N_s)``, watts."""
        return self._power

    def period_energy(self, day: int, period: int) -> float:
        """Harvestable energy in one period, joules."""
        return float(
            self._power[day, period].sum() * self.timeline.slot_seconds
        )

    def daily_energy(self, day: int) -> float:
        """Harvestable energy in one day, joules."""
        return float(self._power[day].sum() * self.timeline.slot_seconds)

    def total_energy(self) -> float:
        """Harvestable energy over the whole horizon, joules."""
        return float(self._power.sum() * self.timeline.slot_seconds)

    def day_slice(self, day: int) -> "SolarTrace":
        """A one-day trace containing only ``day``."""
        if not 0 <= day < self.timeline.num_days:
            raise IndexError(f"day {day} out of range")
        return SolarTrace(
            self.timeline.with_days(1), self._power[day : day + 1].copy()
        )

    def __repr__(self) -> str:
        return (
            f"SolarTrace(days={self.timeline.num_days}, "
            f"total={self.total_energy():.1f} J)"
        )
