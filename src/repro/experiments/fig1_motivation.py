"""Figure 1 (motivation): long-term vs single-period scheduling.

The traditional scheduler wins (slightly) while the sun shines and
collapses at night; the long-term scheduler sacrifices a little during
the day to migrate energy into the night.  ``run`` reproduces the
figure's day/night DMR split on one clear day for the WAM benchmark.
"""

from __future__ import annotations

from typing import List

from ..solar import four_day_trace
from .common import (
    Check,
    ExperimentTable,
    default_timeline,
    evaluation_suite,
    train_policy,
)
from ..tasks import wam

__all__ = ["run", "checks"]


def run(bucket_hours: int = 3) -> ExperimentTable:
    """Time-of-day DMR of inter-task vs proposed (four-day average)."""
    graph = wam()
    trace = four_day_trace(default_timeline(4))
    policy = train_policy(graph)
    results = evaluation_suite(
        graph, trace, policy, include=("inter-task", "proposed")
    )

    timeline = trace.timeline
    per_bucket = timeline.periods_per_day * bucket_hours // 24
    headers = ["window"] + list(results)
    rows = []
    # Average each time-of-day window across the four days: the
    # motivation figure's contrast (fine by day, collapse at night) is
    # a property of the diurnal cycle, not of one particular day.
    series = {
        name: r.dmr_series().reshape(
            timeline.num_days, timeline.periods_per_day
        )
        for name, r in results.items()
    }
    for b in range(24 // bucket_hours):
        row = [f"{b * bucket_hours:02d}-{(b + 1) * bucket_hours:02d}h"]
        for name in results:
            window = series[name][:, b * per_bucket : (b + 1) * per_bucket]
            row.append(f"{window.mean():.3f}")
        rows.append(row)

    # Day/night aggregate: day = periods with solar, night = without.
    solar = trace.power.sum(axis=2)  # (days, periods)
    night = solar <= 1e-9
    notes = []
    aggregates = {}
    for name in results:
        d = series[name][~night].mean() if (~night).any() else 0.0
        n = series[name][night].mean() if night.any() else 0.0
        aggregates[name] = (d, n)
        notes.append(f"{name}: day DMR {d:.3f}, night DMR {n:.3f}")
    inter_night = aggregates["inter-task"][1]
    prop_night = aggregates["proposed"][1]
    notes.append(
        "shape target: proposed clearly better at night "
        f"({'OK' if prop_night < inter_night else 'VIOLATED'})"
    )
    return ExperimentTable(
        title="Figure 1: DMR by time of day, traditional vs long-term "
        "(four-day average)",
        headers=headers,
        rows=rows,
        notes=notes,
    )


def checks(table: ExperimentTable) -> List[Check]:
    """The long-term scheduler is clearly better at night."""
    night_note = [n for n in table.notes if n.startswith("shape target")][0]
    return [("night_better", "OK" in night_note, night_note)]
