"""Fleet-scale simulation: populations of heterogeneous sensor nodes.

The paper evaluates one node; this package runs hundreds to thousands
of them — sharing one base solar trace with seeded per-node variation
(panel scale, cloud jitter, workload mix, scheduler/policy assignment,
heterogeneous capacitor banks) — and aggregates the population view:
DMR distribution percentiles, brownout counts, energy-utilization
histograms and per-policy comparison.

Quickstart::

    from repro.fleet import FleetRunner, FleetSpec

    result = FleetRunner(FleetSpec(n_nodes=200, seed=0), workers=4).run()
    print(result.render())
    print(result.fingerprint())   # bit-identical for any worker count

CLI: ``repro fleet run --nodes 200 --seed 0 --workers 4``.
"""

from .result import (
    FLEET_RESULT_SCHEMA,
    FailedNode,
    FleetAggregate,
    FleetResult,
    NodeSummary,
)
from .runner import (
    MAX_SHARD_SIZE,
    MIN_SHARD_SIZE,
    FleetRunner,
    default_shard_size,
    node_spec_digest,
    simulate_node,
    simulate_shard_batch,
)
from .spec import FLEET_POLICIES, FleetSpec, NodeSpec, node_trace

__all__ = [
    "FLEET_POLICIES",
    "FLEET_RESULT_SCHEMA",
    "FailedNode",
    "FleetAggregate",
    "FleetResult",
    "FleetRunner",
    "FleetSpec",
    "MAX_SHARD_SIZE",
    "MIN_SHARD_SIZE",
    "NodeSpec",
    "NodeSummary",
    "default_shard_size",
    "node_spec_digest",
    "node_trace",
    "simulate_node",
    "simulate_shard_batch",
]
