"""Discrete time structure for long-term scheduling.

The paper divides the scheduling horizon into three nested levels
(Table 1 of the paper):

* ``N_d`` days;
* ``N_p`` periods per day, each lasting ``period_seconds`` (ΔT).  A period
  is the hyper-period of the real-time task set: every task releases once
  per period and must finish before its per-period deadline;
* ``N_s`` slots per period, each lasting ``slot_seconds`` (Δt).  A slot is
  the preemption granularity: tasks may be preempted only at slot
  boundaries, and the solar supply is averaged per slot.

:class:`Timeline` provides index arithmetic between the flat slot index
used by the simulator and the hierarchical ``(day, period, slot)`` triple
used by the formulation.  All instants are
expressed in seconds from local midnight of day 0.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

__all__ = ["Timeline", "SlotIndex"]

_SECONDS_PER_DAY = 86_400.0


@dataclasses.dataclass(frozen=True)
class SlotIndex:
    """Hierarchical address of one time slot.

    Attributes mirror the paper's subscripts: ``day`` is ``i`` (0-based
    here), ``period`` is ``j`` and ``slot`` is ``m``.
    """

    day: int
    period: int
    slot: int


@dataclasses.dataclass(frozen=True)
class Timeline:
    """Nested day/period/slot time structure.

    Parameters
    ----------
    num_days:
        ``N_d``, number of days in the scheduling horizon.
    periods_per_day:
        ``N_p``, number of task periods per day.
    slots_per_period:
        ``N_s``, number of scheduling slots per period.
    slot_seconds:
        ``Δt``, duration of one slot in seconds.

    The period duration ``ΔT`` is derived as
    ``slots_per_period * slot_seconds``; the product
    ``periods_per_day * ΔT`` does not need to equal 86 400 s (the paper
    schedules the task hyper-period back to back), but
    :meth:`slot_time_of_day` maps slots onto the solar day by spreading
    the ``N_p`` periods uniformly over 24 h, which keeps the solar trace
    aligned with wall-clock time even when the hyper-period does not
    divide the day exactly.
    """

    num_days: int
    periods_per_day: int
    slots_per_period: int
    slot_seconds: float

    def __post_init__(self) -> None:
        if self.num_days < 1:
            raise ValueError(f"num_days must be >= 1, got {self.num_days}")
        if self.periods_per_day < 1:
            raise ValueError(
                f"periods_per_day must be >= 1, got {self.periods_per_day}"
            )
        if self.slots_per_period < 1:
            raise ValueError(
                f"slots_per_period must be >= 1, got {self.slots_per_period}"
            )
        if not self.slot_seconds > 0:
            raise ValueError(f"slot_seconds must be > 0, got {self.slot_seconds}")

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def period_seconds(self) -> float:
        """``ΔT``: duration of one period in seconds."""
        return self.slots_per_period * self.slot_seconds

    @property
    def slots_per_day(self) -> int:
        return self.periods_per_day * self.slots_per_period

    @property
    def total_periods(self) -> int:
        return self.num_days * self.periods_per_day

    @property
    def total_slots(self) -> int:
        return self.num_days * self.slots_per_day

    # ------------------------------------------------------------------
    # Index arithmetic
    # ------------------------------------------------------------------
    def flat_slot(self, index: SlotIndex) -> int:
        """Map a hierarchical slot address to a flat slot index."""
        self._check(index)
        return (
            index.day * self.slots_per_day
            + index.period * self.slots_per_period
            + index.slot
        )

    def unflatten(self, flat: int) -> SlotIndex:
        """Inverse of :meth:`flat_slot`."""
        if not 0 <= flat < self.total_slots:
            raise IndexError(
                f"flat slot {flat} out of range [0, {self.total_slots})"
            )
        day, rem = divmod(flat, self.slots_per_day)
        period, slot = divmod(rem, self.slots_per_period)
        return SlotIndex(day=day, period=period, slot=slot)

    def flat_period(self, day: int, period: int) -> int:
        """Flat index of a period across the whole horizon."""
        if not 0 <= day < self.num_days:
            raise IndexError(f"day {day} out of range [0, {self.num_days})")
        if not 0 <= period < self.periods_per_day:
            raise IndexError(
                f"period {period} out of range [0, {self.periods_per_day})"
            )
        return day * self.periods_per_day + period

    def unflatten_period(self, flat: int) -> Tuple[int, int]:
        if not 0 <= flat < self.total_periods:
            raise IndexError(
                f"flat period {flat} out of range [0, {self.total_periods})"
            )
        return divmod(flat, self.periods_per_day)

    # ------------------------------------------------------------------
    # Wall-clock mapping
    # ------------------------------------------------------------------
    def slot_time_of_day(self, index: SlotIndex) -> float:
        """Seconds since midnight at the *start* of the given slot.

        Periods are spread uniformly over the 24 h solar day so that a
        task hyper-period that does not divide the day still sees a
        consistent diurnal solar pattern.
        """
        self._check(index)
        period_start = index.period * (_SECONDS_PER_DAY / self.periods_per_day)
        return period_start + index.slot * self.slot_seconds

    def deadline_slot(self, deadline_seconds: float) -> int:
        """Slot index (within the period) at which a deadline is checked.

        Per Section 3.2 of the paper, when a deadline ``D_n`` does not
        fall on a slot boundary, the miss test uses the beginning of the
        next slot after ``D_n``.  The returned value is the number of
        whole slots available before the deadline, clamped to
        ``[0, N_s]``: a task checked at slot ``m`` may use slots
        ``0 .. m-1``.
        """
        if deadline_seconds < 0:
            raise ValueError(f"deadline must be >= 0, got {deadline_seconds}")
        slot = int(math.ceil(deadline_seconds / self.slot_seconds - 1e-12))
        return min(slot, self.slots_per_period)

    # ------------------------------------------------------------------
    def with_days(self, num_days: int) -> "Timeline":
        """A copy of this timeline with a different horizon length."""
        return dataclasses.replace(self, num_days=num_days)

    def _check(self, index: SlotIndex) -> None:
        if not 0 <= index.day < self.num_days:
            raise IndexError(f"day {index.day} out of range [0, {self.num_days})")
        if not 0 <= index.period < self.periods_per_day:
            raise IndexError(
                f"period {index.period} out of range [0, {self.periods_per_day})"
            )
        if not 0 <= index.slot < self.slots_per_period:
            raise IndexError(
                f"slot {index.slot} out of range [0, {self.slots_per_period})"
            )
