"""Ablations of the design choices DESIGN.md calls out.

* ``run_eth`` — the Eq. (22) capacitor-switch threshold (never switch /
  threshold / always switch);
* ``run_delta`` — the δ intra/inter fine-pass selection (always intra /
  threshold / always inter);
* ``run_coarse_model`` — DBN vs LUT-nearest-neighbour vs hand-written
  heuristic for the coarse per-period stage;
* ``run_dvfs`` — DVFS-enabled load matching (the paper's category-[5,6]
  related work) against the fixed-frequency baselines.

Each ``run_*`` has a ``check_*`` beside it that states the table's
expected shape.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core import (
    DBNPolicy,
    HeuristicPolicy,
    NearestSamplePolicy,
    ProposedScheduler,
)
from ..energy import SuperCapacitor
from ..node import DVFSModel, SensorNode
from ..schedulers import (
    DVFSLoadMatchingScheduler,
    InterTaskScheduler,
    IntraTaskScheduler,
)
from ..sim.engine import simulate
from ..solar import four_day_trace, synthetic_trace
from ..tasks import wam
from .common import Check, ExperimentTable, default_timeline, train_policy

__all__ = [
    "run_eth",
    "run_delta",
    "run_coarse_model",
    "run_dvfs",
    "check_eth",
    "check_delta",
    "check_coarse_model",
    "check_dvfs",
]

EVAL_SEED = 2016


def _eval_trace(num_days: int):
    return synthetic_trace(default_timeline(num_days), seed=EVAL_SEED)


def run_eth(
    thresholds: Sequence[float] = (0.0, 0.5, 2.0, 8.0, 1e9),
    num_days: int = 14,
) -> ExperimentTable:
    """Sweep E_th; 0 = always honour switches, huge = never block."""
    graph = wam()
    policy = train_policy(graph)
    trace = _eval_trace(num_days)
    rows = []
    for eth in thresholds:
        node = policy.make_node(switch_threshold=eth)
        result = simulate(
            node, graph, trace, policy.make_scheduler(), strict=False
        )
        label = "always-switch" if eth >= 1e8 else f"{eth:g}J"
        rows.append(
            [
                label,
                f"{result.dmr:.3f}",
                f"{result.energy_utilization:.3f}",
                str(node.bank.switch_count),
            ]
        )
    return ExperimentTable(
        title="Ablation: capacitor switch threshold E_th (Eq. 22)",
        headers=["E_th", "DMR", "utilisation", "switches"],
        rows=rows,
        notes=[
            "0J never switches once charged; a huge threshold switches on "
            "every DBN request, stranding charged capacitors"
        ],
    )


def check_eth(table: ExperimentTable) -> List[Check]:
    """A larger threshold can only allow more switches."""
    switches = [int(r[3]) for r in table.rows]
    return [
        (
            "switches_monotone",
            switches == sorted(switches),
            f"switches {switches} are not non-decreasing in E_th",
        )
    ]


def run_delta(
    deltas: Sequence[float] = (0.0, 0.25, 0.5, 1.0, 1e9),
    num_days: int = 14,
) -> ExperimentTable:
    """Sweep δ; 0 = (almost) always inter, huge = always intra."""
    graph = wam()
    policy = train_policy(graph)
    trace = _eval_trace(num_days)
    rows = []
    for delta in deltas:
        scheduler = ProposedScheduler(
            DBNPolicy(policy.dbn, policy.codec), delta=delta
        )
        result = simulate(
            policy.make_node(), graph, trace, scheduler, strict=False
        )
        label = "always-intra" if delta >= 1e8 else f"{delta:g}"
        rows.append(
            [label, f"{result.dmr:.3f}", f"{result.energy_utilization:.3f}"]
        )
    return ExperimentTable(
        title="Ablation: intra/inter selection threshold delta (Sec. 5.2)",
        headers=["delta", "DMR", "utilisation"],
        rows=rows,
        notes=["delta controls when the cheap inter-task pass replaces "
               "the intra-task load matching"],
    )


def check_delta(table: ExperimentTable) -> List[Check]:
    """Every DMR is a ratio."""
    dmrs = [float(r[1]) for r in table.rows]
    return [
        ("dmr_in_range", all(0.0 <= d <= 1.0 for d in dmrs), f"DMRs {dmrs}")
    ]


def run_coarse_model(num_days: int = 14) -> ExperimentTable:
    """DBN vs LUT nearest-neighbour vs heuristic coarse stage."""
    graph = wam()
    policy = train_policy(graph)
    trace = _eval_trace(num_days)
    policies = {
        "DBN (paper)": DBNPolicy(policy.dbn, policy.codec),
        "LUT nearest": NearestSamplePolicy(policy.samples, policy.codec),
        "heuristic": HeuristicPolicy(
            graph,
            policy.capacitors,
            period_seconds=trace.timeline.period_seconds,
        ),
    }
    rows = []
    for name, coarse in policies.items():
        result = simulate(
            policy.make_node(),
            graph,
            trace,
            ProposedScheduler(coarse, delta=policy.delta, name=name),
            strict=False,
        )
        rows.append(
            [name, f"{result.dmr:.3f}", f"{result.energy_utilization:.3f}"]
        )
    return ExperimentTable(
        title="Ablation: coarse per-period decision model",
        headers=["coarse model", "DMR", "utilisation"],
        rows=rows,
        notes=[
            "the DBN approximates the LUT with O(kB) of weights instead of "
            "the full sample table (Sec. 5.1)"
        ],
    )


def check_coarse_model(table: ExperimentTable) -> List[Check]:
    """Both offline-informed policies beat the hand-written heuristic."""
    dmr = {r[0]: float(r[1]) for r in table.rows}
    return [
        (
            "dbn_beats_heuristic",
            dmr["DBN (paper)"] <= dmr["heuristic"],
            f"DBN {dmr['DBN (paper)']} vs heuristic {dmr['heuristic']}",
        ),
        (
            "lut_beats_heuristic",
            dmr["LUT nearest"] <= dmr["heuristic"],
            f"LUT {dmr['LUT nearest']} vs heuristic {dmr['heuristic']}",
        ),
    ]


def run_dvfs() -> ExperimentTable:
    """DVFS load matching vs the fixed-frequency baselines (WAM, four
    days)."""
    graph = wam()
    trace = four_day_trace(default_timeline(4))

    def node():
        return SensorNode(
            [SuperCapacitor(capacitance=c) for c in (1.0, 10.0, 47.0)],
            num_nvps=graph.num_nvps,
            dvfs=DVFSModel(),
        )

    rows = []
    for sched in (
        InterTaskScheduler(),
        IntraTaskScheduler(),
        DVFSLoadMatchingScheduler(),
    ):
        result = simulate(node(), graph, trace, sched, strict=False)
        rows.append(
            [
                sched.name,
                f"{result.dmr:.3f}",
                f"{result.energy_utilization:.3f}",
                f"{result.total_load_energy:.0f}",
            ]
        )
    return ExperimentTable(
        title="Extension: DVFS load matching vs fixed-frequency baselines",
        headers=["scheduler", "DMR", "utilisation", "load J"],
        rows=rows,
        notes=["DVFS trades slack for voltage: same or better DMR with "
               "less energy per completed task"],
    )


def check_dvfs(table: ExperimentTable) -> List[Check]:
    """DVFS completes at least as much as intra-task for less energy."""
    dmr = {r[0]: float(r[1]) for r in table.rows}
    load = {r[0]: float(r[3]) for r in table.rows}
    dvfs, intra = "dvfs-load-matching", "intra-task"
    return [
        (
            "dvfs_dmr",
            dmr[dvfs] <= dmr[intra] + 0.03,
            f"DMR dvfs {dmr[dvfs]} vs intra-task {dmr[intra]}",
        ),
        (
            "dvfs_energy",
            load[dvfs] <= load[intra] * 1.05,
            f"load dvfs {load[dvfs]} J vs intra-task {load[intra]} J",
        ),
    ]
