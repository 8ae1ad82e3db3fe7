"""Extension: when does long-term scheduling pay?

The paper evaluates fixed benchmarks; this sweep varies the workload's
power utilisation (demand as a fraction of the panel's peak output)
with the UUniFast generator and measures the gap between the
single-period baselines and the long-term optimal.  The expected
shape: at very low utilisation everything trivially fits (no gap), at
very high utilisation nothing fits (no gap), and in between — where
night service depends on *rationed* migration — the long-term planner
pulls ahead.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core import (
    LongTermOptimizer,
    PlanPolicy,
    ProposedScheduler,
    trace_period_matrix,
)
from ..energy import SuperCapacitor
from ..node import SensorNode
from ..schedulers import InterTaskScheduler, IntraTaskScheduler
from ..sim.engine import simulate
from ..solar import four_day_trace
from ..tasks import WorkloadSpec, generate_workload
from .common import Check, ExperimentTable, default_timeline

__all__ = ["run", "checks"]

BANK = (1.0, 10.0, 47.0)


def run(
    utilizations: Sequence[float] = (0.1, 0.3, 0.5, 0.8, 1.2, 2.0),
    num_tasks: int = 6,
    structure: str = "layered",
    seed: int = 17,
) -> ExperimentTable:
    """DMR of inter/intra/optimal across workload utilisations."""
    trace = four_day_trace(default_timeline(4))
    rows = []
    gaps = []
    for util in utilizations:
        spec = WorkloadSpec(
            num_tasks=num_tasks,
            utilization=util,
            structure=structure,
            num_nvps=2,
        )
        graph = generate_workload(spec, seed=seed)
        caps = [SuperCapacitor(capacitance=c) for c in BANK]

        optimizer = LongTermOptimizer(graph, trace.timeline, caps)
        plan = optimizer.optimize(trace_period_matrix(trace))
        dmr = {}
        for name, sched in (
            ("inter", InterTaskScheduler()),
            ("intra", IntraTaskScheduler()),
            ("optimal", ProposedScheduler(PlanPolicy(plan), name="optimal")),
        ):
            node = SensorNode(
                [SuperCapacitor(capacitance=c) for c in BANK],
                num_nvps=graph.num_nvps,
            )
            dmr[name] = simulate(node, graph, trace, sched, strict=False).dmr
        gap = dmr["inter"] - dmr["optimal"]
        gaps.append(gap)
        rows.append(
            [
                f"{util:g}",
                f"{dmr['inter']:.3f}",
                f"{dmr['intra']:.3f}",
                f"{dmr['optimal']:.3f}",
                f"{gap:+.3f}",
            ]
        )
    peak = int(np.argmax(gaps))
    notes = [
        f"the long-term advantage peaks at utilisation "
        f"{utilizations[peak]:g} ({gaps[peak]:+.3f} DMR) and shrinks at "
        "both extremes — long-term migration matters exactly when the "
        "night is contestable",
    ]
    return ExperimentTable(
        title="Extension: single-period vs long-term gap across workload "
        "utilisation",
        headers=["utilisation", "inter-task", "intra-task", "optimal", "gap"],
        rows=rows,
        notes=notes,
    )


def checks(table: ExperimentTable) -> List[Check]:
    """The optimal never loses to the baselines beyond noise, and
    somewhere in the middle the long-term advantage is real."""
    gaps = [float(r[4]) for r in table.rows]
    return [
        ("optimal_never_loses", min(gaps) > -0.03, f"gaps {gaps}"),
        ("long_term_advantage", max(gaps) > 0.03, f"gaps {gaps}"),
    ]
