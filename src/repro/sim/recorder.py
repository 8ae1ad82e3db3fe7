"""Simulation records and results.

Both engines write each period's outcome into one node-major
:class:`PeriodTable`: ``(rows, periods)`` columns for the miss count,
the seven energy terms, brownouts and the active capacitor, and
``(rows, periods, tasks)`` / ``(rows, periods, capacitors)`` blocks for
the executed sets and start voltages.  The per-node engine fills a
one-row table; the batched engine one row per node.  Dense per-slot
arrays are kept only when asked.  :class:`SimulationResult` is one
row's analysis-facing view: long-term DMR (Eq. 6), energy utilisation,
per-day breakdowns, and migration statistics — everything the paper's
figures aggregate — read straight from the columns.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence as SequenceABC
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..timeline import Timeline

__all__ = [
    "ENERGY_TERMS",
    "PeriodRecord",
    "PeriodTable",
    "SlotArrays",
    "SimulationResult",
]

#: The seven per-period energy terms, in :class:`PeriodRecord` order.
ENERGY_TERMS = (
    "solar_energy",
    "load_energy",
    "direct_energy",
    "storage_energy",
    "charged_energy",
    "offered_surplus",
    "leakage_energy",
)


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


class PeriodTable(SequenceABC):
    """Per-period outcomes of one or more runs on one timeline, node-major.

    Row ``i`` is one run (named ``names[i]``, with ``t_ns[i]`` tasks and
    ``c_ns[i]`` capacitors); column ``flat_p`` is one period.  Narrower
    rows leave their padded task and capacitor cells at zero.  The
    table is a sequence of :class:`SimulationResult` views:
    ``table[i]`` reads row ``i``.
    """

    def __init__(
        self,
        timeline: Timeline,
        names: Sequence[str],
        t_ns: Sequence[int],
        c_ns: Sequence[int],
    ) -> None:
        n, p = len(names), timeline.total_periods
        self.timeline = timeline
        self.names = list(names)
        self.t_ns = list(t_ns)
        self.c_ns = list(c_ns)
        # Counts fit small ints: misses <= tasks, brownouts <= slots
        # per period, active index < bank size.
        self.miss_count = np.zeros((n, p), dtype=np.int16)
        self.energy: Dict[str, np.ndarray] = {
            name: np.zeros((n, p)) for name in ENERGY_TERMS
        }
        self.brownout_slots = np.zeros((n, p), dtype=np.int32)
        self.active_index = np.zeros((n, p), dtype=np.int16)
        self.executed = np.zeros((n, p, max(self.t_ns)), dtype=bool)
        self.start_voltages = np.zeros((n, p, max(self.c_ns)))

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        row = range(len(self))[index]
        return SimulationResult(self.timeline, self.names[row], self, row)


class SimulationResult:
    """One run's row of a :class:`PeriodTable`, plus derived metrics."""

    def __init__(
        self,
        timeline: Timeline,
        scheduler_name: str,
        table: PeriodTable,
        row: int = 0,
        slots: Optional[SlotArrays] = None,
    ) -> None:
        if table.timeline.total_periods != timeline.total_periods:
            raise ValueError(
                f"expected {timeline.total_periods} periods, the table "
                f"has {table.timeline.total_periods}"
            )
        self.timeline = timeline
        self.scheduler_name = scheduler_name
        self.table = table
        self.row = range(len(table))[row]
        self.slots = slots

    def _column(self, name: str) -> np.ndarray:
        return self.table.energy[name][self.row]

    def _total(self, name: str) -> float:
        """Left-to-right sum of an energy column, like ``sum(...)``."""
        return float(sum(self._column(name).tolist()))

    @property
    def periods(self) -> List[PeriodRecord]:
        """The row's periods as records (:class:`PeriodRecord`), built
        from the columns on each read."""
        table, row = self.table, self.row
        t_n, c_n = table.t_ns[row], table.c_ns[row]
        columns = zip(
            table.miss_count[row].tolist(),
            table.executed[row, :, :t_n].copy(),
            *(table.energy[name][row].tolist() for name in ENERGY_TERMS),
            table.brownout_slots[row].tolist(),
            table.start_voltages[row, :, :c_n].copy(),
            table.active_index[row].tolist(),
        )
        unflatten = self.timeline.unflatten_period
        return [
            PeriodRecord(*unflatten(flat_p), miss / t_n, miss, *rest)
            for flat_p, (miss, *rest) in enumerate(columns)
        ]

    # ------------------------------------------------------------------
    # DMR metrics
    # ------------------------------------------------------------------
    @property
    def dmr(self) -> float:
        """Long-term deadline miss rate (objective (6))."""
        return float(np.mean(self.dmr_series()))

    def dmr_series(self) -> np.ndarray:
        """Per-period DMR (Eq. 16) in chronological order."""
        return self.table.miss_count[self.row] / self.table.t_ns[self.row]

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
        return self._total("solar_energy")

    @property
    def total_load_energy(self) -> float:
        return self._total("load_energy")

    @property
    def total_storage_energy(self) -> float:
        """Energy delivered to the load from capacitors, joules."""
        return self._total("storage_energy")

    @property
    def total_leakage_energy(self) -> float:
        return self._total("leakage_energy")

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

    @property
    def migration_efficiency(self) -> float:
        """Delivered-from-storage / offered-to-storage energy ratio."""
        offered = self._total("offered_surplus")
        if offered <= 0:
            return 0.0
        return self.total_storage_energy / offered

    @property
    def total_brownout_slots(self) -> int:
        return int(sum(self.table.brownout_slots[self.row].tolist()))

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
