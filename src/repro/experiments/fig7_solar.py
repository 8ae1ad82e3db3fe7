"""Figure 7: solar power of four individual days.

The paper plots the panel-output power over four days representing
different weather patterns in a year.  ``run`` reproduces the series:
hourly average power per day plus the daily energy, decreasing from
Day 1 (clear summer) to Day 4 (overcast winter).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..solar import FOUR_DAYS, four_day_trace
from .common import Check, ExperimentTable, default_timeline

__all__ = ["run", "checks"]


def run(seed: int = 7) -> ExperimentTable:
    """Hourly power and daily energy of the four canonical days."""
    timeline = default_timeline(4)
    trace = four_day_trace(timeline, seed=seed)
    periods_per_hour = timeline.periods_per_day // 24

    headers = ["hour"] + [f"day{d + 1} (mW)" for d in range(4)]
    rows = []
    for hour in range(24):
        row = [str(hour)]
        for day in range(4):
            sel = trace.power[
                day, hour * periods_per_hour : (hour + 1) * periods_per_hour
            ]
            row.append(f"{sel.mean() * 1e3:.2f}")
        rows.append(row)

    energies = [trace.daily_energy(d) for d in range(4)]
    rows.append(
        ["total J"] + [f"{e:.0f}" for e in energies]
    )
    notes = [
        f"day {d + 1}: {arch.name}" for d, arch in enumerate(FOUR_DAYS)
    ]
    notes.append(
        "shape target: daily energy strictly decreasing day1 -> day4 "
        f"({'OK' if all(np.diff(energies) < 0) else 'VIOLATED'})"
    )
    return ExperimentTable(
        title="Figure 7: solar power of four individual days",
        headers=headers,
        rows=rows,
        notes=notes,
    )


def checks(table: ExperimentTable) -> List[Check]:
    """Daily energy decreases from day 1 to day 4."""
    energies = [float(c) for c in table.rows[-1][1:]]
    return [
        (
            "daily_energy_decreasing",
            energies == sorted(energies, reverse=True),
            f"daily energies {energies}",
        )
    ]
