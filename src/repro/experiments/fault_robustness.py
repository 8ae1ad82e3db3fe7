"""Extension: scheduler robustness under injected faults.

Not in the paper — a downstream-adoption question: how much of the
proposed scheduler's margin over the baselines survives panel dust,
intermittent shading and supply glitches?
"""

from __future__ import annotations

from typing import List

from ..reliability import (
    FaultScenario,
    IntermittentShading,
    PanelDegradation,
    SupplyGlitches,
    robustness_report,
)
from ..schedulers import InterTaskScheduler, IntraTaskScheduler
from ..solar import four_day_trace
from ..tasks import wam
from .common import Check, ExperimentTable, default_timeline, train_policy

__all__ = ["run", "checks"]


def run() -> ExperimentTable:
    """DMR of inter/intra/proposed on WAM under four fault scenarios."""
    graph = wam()
    trace = four_day_trace(default_timeline(4))
    policy = train_policy(graph)
    scenarios = [
        FaultScenario("dust (1%/day)", [PanelDegradation(rate_per_day=0.01)]),
        FaultScenario(
            "shading",
            [IntermittentShading(episodes_per_day=4.0, depth=0.7)],
            seed=5,
        ),
        FaultScenario("glitches (2%)", [SupplyGlitches(probability=0.02)],
                      seed=9),
        FaultScenario(
            "all",
            [
                PanelDegradation(rate_per_day=0.01),
                IntermittentShading(episodes_per_day=4.0, depth=0.7),
                SupplyGlitches(probability=0.02),
            ],
            seed=13,
        ),
    ]
    rows_raw = robustness_report(
        graph,
        trace,
        node_factory=policy.make_node,
        scheduler_factories={
            "inter-task": InterTaskScheduler,
            "intra-task": IntraTaskScheduler,
            "proposed": policy.make_scheduler,
        },
        scenarios=scenarios,
    )
    table_rows = [
        [
            r.scheduler,
            r.scenario,
            f"{r.dmr:.3f}",
            f"{r.dmr_increase:+.3f}",
            f"{r.lost_energy_fraction * 100:.1f}%",
        ]
        for r in rows_raw
    ]
    return ExperimentTable(
        title="Extension: DMR under injected faults (WAM, four days)",
        headers=["scheduler", "scenario", "DMR", "vs clean", "energy lost"],
        rows=table_rows,
        notes=["faults degrade the trace; schedulers are retrained on "
               "clean history (realistic: faults are not in the training "
               "data)"],
    )


def checks(table: ExperimentTable) -> List[Check]:
    """The proposed scheduler keeps beating the baselines under the
    combined fault scenario, and faults never help."""
    dmr = {(r[0], r[1]): float(r[2]) for r in table.rows}
    helped = [
        f"{sched}/{scen} {value} < clean {dmr[(sched, 'clean')]}"
        for (sched, scen), value in dmr.items()
        if value < dmr[(sched, "clean")] - 0.02
    ]
    return [
        (
            "proposed_beats_inter_all",
            dmr[("proposed", "all")] <= dmr[("inter-task", "all")] + 0.03,
            f"proposed {dmr[('proposed', 'all')]} vs inter-task "
            f"{dmr[('inter-task', 'all')]} under all faults",
        ),
        ("faults_never_help", not helped, "; ".join(helped)),
    ]
