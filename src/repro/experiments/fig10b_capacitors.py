"""Figure 10(b): migration efficiency and DMR vs number of capacitors.

The paper sizes the distributed bank with 1–8 super capacitors for
random case 1 and evaluates Day 2: migration efficiency rises (67.5% →
87.1% in the paper's normalisation) and DMR falls (46.8% → 33.7%),
saturating at five or more capacitors.  ``run`` re-runs the Section 4.1
sizing with each bank cardinality and measures the static optimal on
the four-day trace, reporting Day 2.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core import (
    LongTermOptimizer,
    PlanPolicy,
    ProposedScheduler,
    trace_period_matrix,
)
from ..node import SensorNode
from ..sim.engine import simulate
from ..solar import four_day_trace
from ..tasks import random_case
from .common import Check, ExperimentTable, default_timeline, sized_capacitors

__all__ = ["run", "checks"]


def run(
    counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 8),
    day: int = 1,
) -> ExperimentTable:
    graph = random_case(1)
    trace = four_day_trace(default_timeline(4))

    rows = []
    dmrs, effs = [], []
    for h in counts:
        capacitors = list(sized_capacitors(graph, num_capacitors=h))
        optimizer = LongTermOptimizer(graph, trace.timeline, capacitors)
        plan = optimizer.optimize(trace_period_matrix(trace))
        node = SensorNode(capacitors, num_nvps=graph.num_nvps)
        scheduler = ProposedScheduler(PlanPolicy(plan), name="optimal")
        result = simulate(node, graph, trace, scheduler, strict=False)
        day_dmr = float(result.dmr_by_day()[day])
        eff = result.migration_efficiency
        dmrs.append(day_dmr)
        effs.append(eff)
        sizes = "/".join(f"{c.capacitance:g}" for c in capacitors)
        rows.append(
            [
                str(h),
                sizes + "F",
                f"{eff * 100:.1f}%",
                f"{day_dmr:.3f}",
                f"{result.dmr:.3f}",
            ]
        )

    notes = [
        f"migration efficiency: {effs[0] * 100:.1f}% -> {max(effs) * 100:.1f}% "
        "as the bank grows (paper: 67.5% -> 87.1%)",
        f"day-2 DMR: {dmrs[0]:.3f} -> {min(dmrs):.3f} "
        "(paper: 46.8% -> 33.7%)",
        "shape target: DMR non-increasing then flat "
        f"({'OK' if dmrs[-1] <= dmrs[0] + 1e-9 else 'VIOLATED'})",
    ]
    return ExperimentTable(
        title="Figure 10(b): effect of the number of super capacitors "
        "(random case 1, day 2)",
        headers=["#caps", "sizes", "migration eff", "day2 DMR", "4-day DMR"],
        rows=rows,
        notes=notes,
    )


def checks(table: ExperimentTable) -> List[Check]:
    """Distributed sizing helps and saturates: the best bank beats the
    single capacitor, and more capacitors never hurt much."""
    day2 = [float(r[3]) for r in table.rows]
    return [
        (
            "best_beats_single",
            min(day2) <= day2[0],
            f"best DMR {min(day2)} vs single {day2[0]}",
        ),
        (
            "more_never_hurts",
            day2[-1] <= day2[0] + 0.02,
            f"largest bank DMR {day2[-1]} vs single {day2[0]}",
        ),
    ]
