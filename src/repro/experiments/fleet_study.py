"""Fleet study: policy comparison across a heterogeneous population.

The paper compares schedulers on one node; deployments compare them
across a *population* — hundreds of nodes with different panels,
micro-climates, capacitor banks and workloads.  This study runs one
seeded heterogeneous fleet in which every scheduler in the pool is
assigned to a random cohort, then reports the per-policy DMR
distribution (mean/p50/p95), energy utilization and brownout pressure
side by side, plus the fleet's aggregate fingerprint (the determinism
witness: same seed → same table, any worker count).

The fleet has a fixed ``FLEET_NODES`` = 120 nodes, so the committed
table does not depend on the environment; ``REPRO_WORKERS`` changes
only how fast it is produced.
"""

from __future__ import annotations

from typing import List

from ..fleet import FleetRunner, FleetSpec
from .common import Check, ExperimentTable

__all__ = ["run", "checks", "FLEET_NODES"]

FLEET_NODES = 120


def run() -> ExperimentTable:
    """Per-policy population comparison on one seeded fleet."""
    spec = FleetSpec(
        n_nodes=FLEET_NODES,
        seed=0,
        policies=("asap", "inter-task", "intra-task", "dvfs", "random"),
    )
    result = FleetRunner(spec).run()

    rows = []
    for policy, stats in result.by_policy().items():
        rows.append(
            [
                policy,
                f"{int(stats['nodes'])}",
                f"{stats['mean_dmr']:.4f}",
                f"{stats['p50_dmr']:.3f}",
                f"{stats['p95_dmr']:.3f}",
                f"{stats['mean_utilization']:.3f}",
                f"{int(stats['brownout_slots'])}",
            ]
        )
    pct = result.dmr_percentiles()
    notes = [
        f"fleet: {len(result)} nodes, seed {spec.seed}, "
        f"{spec.days} day(s) of {spec.periods_per_day} periods",
        "fleet DMR percentiles: "
        + "  ".join(f"{k} {v:.3f}" for k, v in pct.items()),
        f"brownout pressure: {result.total_brownout_slots} slots across "
        f"{result.brownout_node_fraction * 100:.1f}% of nodes",
        f"aggregate fingerprint: {result.fingerprint()}",
    ]
    return ExperimentTable(
        title="Fleet study: policies across a heterogeneous population",
        headers=[
            "policy", "nodes", "mean DMR", "p50", "p95", "util",
            "brownouts",
        ],
        rows=rows,
        notes=notes,
    )


def checks(table: ExperimentTable) -> List[Check]:
    """Every node of the fleet is reported in some policy cohort."""
    nodes = sum(int(r[1]) for r in table.rows)
    return [
        (
            "all_nodes_reported",
            nodes == FLEET_NODES,
            f"{nodes} of {FLEET_NODES} nodes in the cohort rows",
        )
    ]
