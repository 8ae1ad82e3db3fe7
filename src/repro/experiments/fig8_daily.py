"""Figure 8: DMR in four individual days with six benchmarks.

The paper's headline comparison: Inter-task [3], Intra-task [9], the
proposed algorithm and the static optimal on three random benchmarks
plus WAM / ECG / SHM over the four representative days.  Shape
targets: optimal <= proposed < intra <= inter on average, proposed up
to ~28% better than inter-task, and the proposed advantage growing as
solar energy decreases (Day 1 -> Day 4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..solar import four_day_trace
from ..tasks import paper_benchmarks
from .common import (
    Check,
    ExperimentTable,
    default_timeline,
    evaluation_suite,
    train_policy,
)

__all__ = ["run", "checks"]


def run(
    benchmarks: Optional[Sequence[str]] = None,
    finetune_epochs: int = 300,
    n_workers: Optional[int] = None,
) -> ExperimentTable:
    registry = paper_benchmarks()
    names = list(benchmarks) if benchmarks else list(registry)
    trace = four_day_trace(default_timeline(4))

    headers = ["benchmark", "day", "inter-task", "intra-task", "proposed", "optimal"]
    rows = []
    averages: Dict[str, list] = {k: [] for k in headers[2:]}
    improvements = []
    gap_by_day: Dict[int, list] = {d: [] for d in range(4)}

    for name in names:
        graph = registry[name]
        policy = train_policy(graph, finetune_epochs=finetune_epochs)
        results = evaluation_suite(graph, trace, policy, n_workers=n_workers)
        by_day = {k: r.dmr_by_day() for k, r in results.items()}
        for day in range(4):
            rows.append(
                [name, f"day{day + 1}"]
                + [f"{by_day[k][day]:.3f}" for k in headers[2:]]
            )
            inter = by_day["inter-task"][day]
            prop = by_day["proposed"][day]
            if inter > 0:
                gap_by_day[day].append((inter - prop) / inter)
        for k in headers[2:]:
            averages[k].append(results[k].dmr)
        if results["inter-task"].dmr > 0:
            improvements.append(
                (results["inter-task"].dmr - results["proposed"].dmr)
                / results["inter-task"].dmr
            )

    rows.append(
        ["average", "-"]
        + [f"{np.mean(averages[k]):.3f}" for k in headers[2:]]
    )

    mean_inter = float(np.mean(averages["inter-task"]))
    mean_prop = float(np.mean(averages["proposed"]))
    mean_opt = float(np.mean(averages["optimal"]))
    notes = [
        f"proposed vs inter-task: {100 * (mean_inter - mean_prop) / mean_inter:.1f}% "
        f"lower DMR on average, best benchmark "
        f"{100 * max(improvements):.1f}% (paper: up to 27.8%)",
        f"proposed vs optimal: {100 * abs(mean_prop - mean_opt):.2f} points "
        "apart (paper: 3.69%)",
    ]
    day_gaps = [np.mean(gap_by_day[d]) if gap_by_day[d] else 0.0 for d in range(4)]
    notes.append(
        "relative proposed-vs-inter gap by day: "
        + ", ".join(f"day{d + 1} {g * 100:.1f}%" for d, g in enumerate(day_gaps))
        + " (paper: gap grows as solar decreases)"
    )
    return ExperimentTable(
        title="Figure 8: DMR in four individual days, six benchmarks",
        headers=headers,
        rows=rows,
        notes=notes,
    )


def checks(table: ExperimentTable) -> List[Check]:
    """On average, proposed beats both single-period baselines and sits
    close to the static optimal."""
    inter = float(table.cell(-1, "inter-task"))
    intra = float(table.cell(-1, "intra-task"))
    proposed = float(table.cell(-1, "proposed"))
    optimal = float(table.cell(-1, "optimal"))
    return [
        (
            "proposed_below_inter",
            proposed < inter,
            f"proposed {proposed} vs inter-task {inter}",
        ),
        (
            "proposed_below_intra",
            proposed < intra,
            f"proposed {proposed} vs intra-task {intra}",
        ),
        (
            "proposed_near_optimal",
            abs(proposed - optimal) < 0.08,
            f"proposed {proposed} vs optimal {optimal}",
        ),
    ]
