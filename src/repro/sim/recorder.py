"""Simulation records and results.

The engine produces one :class:`PeriodRecord` per period (always) and,
when asked, dense per-slot arrays.  :class:`SimulationResult` is the
analysis-facing container: long-term DMR (Eq. 6), energy utilisation,
per-day breakdowns, and migration statistics — everything the paper's
figures aggregate.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

import numpy as np

from ..timeline import Timeline

__all__ = ["PeriodRecord", "SlotArrays", "SimulationResult"]


@dataclasses.dataclass(frozen=True)
class PeriodRecord:
    """Aggregate outcome of one period."""

    day: int
    period: int
    dmr: float
    miss_count: int
    executed: np.ndarray  # te_{i,j}(n): ran at all this period
    solar_energy: float  # harvestable energy at the panel output, J
    load_energy: float  # energy consumed by tasks, J
    direct_energy: float  # part of load served by the direct channel, J
    storage_energy: float  # part of load served from capacitors, J
    charged_energy: float  # energy stored into capacitors, J
    offered_surplus: float  # surplus presented to storage, J
    leakage_energy: float  # capacitor self-discharge, J
    brownout_slots: int
    start_voltages: np.ndarray
    active_index: int


@dataclasses.dataclass
class SlotArrays:
    """Dense per-slot series (optional, shape = total slots)."""

    solar_power: np.ndarray
    load_power: np.ndarray
    run_fraction: np.ndarray
    active_voltage: np.ndarray
    active_index: np.ndarray


class SimulationResult:
    """All records of one simulation run plus derived metrics."""

    def __init__(
        self,
        timeline: Timeline,
        scheduler_name: str,
        periods: Sequence[PeriodRecord],
        slots: Optional[SlotArrays] = None,
    ) -> None:
        if len(periods) != timeline.total_periods:
            raise ValueError(
                f"expected {timeline.total_periods} period records, "
                f"got {len(periods)}"
            )
        self.timeline = timeline
        self.scheduler_name = scheduler_name
        self.periods = periods
        self.slots = slots

    # ------------------------------------------------------------------
    # DMR metrics
    # ------------------------------------------------------------------
    @property
    def dmr(self) -> float:
        """Long-term deadline miss rate (objective (6))."""
        return float(np.mean([p.dmr for p in self.periods]))

    def dmr_series(self) -> np.ndarray:
        """Per-period DMR in chronological order."""
        return np.array([p.dmr for p in self.periods])

    def dmr_by_day(self) -> np.ndarray:
        """Mean DMR of each day."""
        series = self.dmr_series().reshape(
            self.timeline.num_days, self.timeline.periods_per_day
        )
        return series.mean(axis=1)

    def accumulated_dmr(self) -> np.ndarray:
        """Running mean of the per-period DMR (Eq. 19)."""
        series = self.dmr_series()
        return np.cumsum(series) / np.arange(1, len(series) + 1)

    # ------------------------------------------------------------------
    # Energy metrics
    # ------------------------------------------------------------------
    @property
    def total_solar_energy(self) -> float:
        return float(sum(p.solar_energy for p in self.periods))

    @property
    def total_load_energy(self) -> float:
        return float(sum(p.load_energy for p in self.periods))

    @property
    def total_storage_energy(self) -> float:
        """Energy delivered to the load from capacitors, joules."""
        return float(sum(p.storage_energy for p in self.periods))

    @property
    def total_leakage_energy(self) -> float:
        return float(sum(p.leakage_energy for p in self.periods))

    @property
    def energy_utilization(self) -> float:
        """Fraction of harvestable solar energy consumed by tasks.

        The quantity plotted in Figure 9(b): higher means less solar
        energy wasted, but — the paper's point — not necessarily a
        better DMR, because migration through capacitors loses energy
        on purpose to serve the night.
        """
        total = self.total_solar_energy
        return self.total_load_energy / total if total > 0 else 0.0

    def energy_utilization_by_day(self) -> np.ndarray:
        solar = np.zeros(self.timeline.num_days)
        load = np.zeros(self.timeline.num_days)
        for p in self.periods:
            solar[p.day] += p.solar_energy
            load[p.day] += p.load_energy
        return np.divide(
            load, solar, out=np.zeros_like(load), where=solar > 0
        )

    @property
    def migration_efficiency(self) -> float:
        """Delivered-from-storage / offered-to-storage energy ratio."""
        offered = float(sum(p.offered_surplus for p in self.periods))
        if offered <= 0:
            return 0.0
        return self.total_storage_energy / offered

    @property
    def total_brownout_slots(self) -> int:
        return int(sum(p.brownout_slots for p in self.periods))

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Headline numbers as a plain dict (report-friendly)."""
        return {
            "dmr": self.dmr,
            "energy_utilization": self.energy_utilization,
            "migration_efficiency": self.migration_efficiency,
            "total_solar_J": self.total_solar_energy,
            "total_load_J": self.total_load_energy,
            "storage_served_J": self.total_storage_energy,
            "leakage_J": self.total_leakage_energy,
            "brownout_slots": float(self.total_brownout_slots),
        }

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.scheduler_name!r}, "
            f"DMR={self.dmr:.3f}, util={self.energy_utilization:.3f})"
        )
