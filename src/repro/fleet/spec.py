"""Fleet specification: N heterogeneous nodes over one base solar trace.

A :class:`FleetSpec` pins everything about a multi-node simulation —
node count, fleet seed, timeline shape, the shared weather, and the
per-node variation ranges (workload mix, scheduler/policy assignment,
capacitor-bank heterogeneity, panel scale and cloud jitter).  Each
node's concrete configuration is a :class:`NodeSpec` derived *only*
from ``(fleet seed, node index)`` through the shared generators in
:mod:`repro.verify.strategies`, so the same spec always expands to the
same fleet regardless of how the nodes are later sharded across
workers.

All nodes share one base solar trace (the deployment-site weather);
per-node traces apply a panel scale (different panel areas and tilts)
and multiplicative cloud jitter (micro-climate) on top of it, which is
orders of magnitude cheaper than synthesising per-node weather from
scratch.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from ..schedulers import SCHEDULER_FACTORIES
from ..solar.days import synthetic_trace
from ..solar.trace import SolarTrace
from ..timeline import Timeline
from ..verify.strategies import (
    FLEET_BANK_CHOICES,
    FLEET_TASK_MIX,
    fleet_variation,
)

__all__ = [
    "FLEET_POLICIES",
    "FleetSpec",
    "NodeSpec",
    "node_trace",
]

#: Scheduler/policy names a fleet node may be assigned, in the policy
#: table's order.  ``proposed`` trains the paper's DBN pipeline per
#: distinct workload (shared through the offline-artifact disk cache);
#: the rest are the cheap baseline schedulers.
FLEET_POLICIES: Tuple[str, ...] = tuple(SCHEDULER_FACTORIES)


@dataclasses.dataclass(frozen=True)
class NodeSpec:
    """Concrete configuration of one fleet node (picklable, tiny).

    ``graph_kind`` is a workload name resolvable by
    :func:`repro.verify.strategies.build_graph`; storing the name
    instead of the graph keeps shard work items small and lets worker
    processes rebuild the graph deterministically.
    """

    node_id: int
    graph_kind: str
    policy: str
    bank_farads: Tuple[float, ...]
    panel_scale: float
    jitter_sigma: float
    jitter_seed: int
    scheduler_seed: int


@dataclasses.dataclass(frozen=True)
class FleetSpec:
    """Deterministic description of a whole fleet run.

    Parameters
    ----------
    n_nodes:
        Fleet size.
    seed:
        Fleet seed: drives the shared base weather and every per-node
        variation draw.
    days, periods_per_day, slots_per_period, slot_seconds:
        Timeline of every node.  The default (24 ten-minute-spread
        periods of 20 x 30 s slots per day) is deliberately lighter
        than the single-node experiments' 144 periods: fleets trade
        per-node resolution for population size.
    policies:
        Scheduler/policy pool nodes are assigned from (see
        :data:`FLEET_POLICIES`).
    task_mix:
        Workload pool (:data:`~repro.verify.strategies.FLEET_TASK_MIX`
        names; ``random`` draws a seeded random benchmark per node).
    bank_choices, bank_size:
        Capacitance candidates and ``(min, max)`` bank cardinality of
        the heterogeneous capacitor banks.
    panel_scale:
        ``(low, high)`` uniform range of the per-node panel scale.
    cloud_jitter:
        ``(low, high)`` uniform range of the per-node multiplicative
        cloud-jitter sigma.
    proposed_train_days, proposed_epochs:
        Offline-stage budget used when ``proposed`` is in the policy
        pool (kept small; artifacts are shared through the disk cache).
    """

    n_nodes: int
    seed: int = 0
    days: int = 1
    periods_per_day: int = 24
    slots_per_period: int = 20
    slot_seconds: float = 30.0
    policies: Tuple[str, ...] = ("asap", "inter-task", "intra-task", "random")
    task_mix: Tuple[str, ...] = FLEET_TASK_MIX
    bank_choices: Tuple[float, ...] = FLEET_BANK_CHOICES
    bank_size: Tuple[int, int] = (2, 4)
    panel_scale: Tuple[float, float] = (0.6, 1.4)
    cloud_jitter: Tuple[float, float] = (0.0, 0.25)
    proposed_train_days: int = 2
    proposed_epochs: int = 5

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not self.policies:
            raise ValueError("policies must not be empty")
        for policy in self.policies:
            if policy not in FLEET_POLICIES:
                raise ValueError(
                    f"unknown policy {policy!r}; expected one of "
                    f"{FLEET_POLICIES}"
                )
        if not self.task_mix:
            raise ValueError("task_mix must not be empty")
        for kind in self.task_mix:
            if kind not in FLEET_TASK_MIX and not kind.startswith("random:"):
                raise ValueError(
                    f"unknown task kind {kind!r}; expected one of "
                    f"{FLEET_TASK_MIX} or 'random:<seed>'"
                )
        if not 1 <= self.bank_size[0] <= self.bank_size[1]:
            raise ValueError(f"bad bank_size range {self.bank_size}")
        if not 0 < self.panel_scale[0] <= self.panel_scale[1]:
            raise ValueError(f"bad panel_scale range {self.panel_scale}")
        if not 0 <= self.cloud_jitter[0] <= self.cloud_jitter[1]:
            raise ValueError(f"bad cloud_jitter range {self.cloud_jitter}")

    # ------------------------------------------------------------------
    def timeline(self) -> Timeline:
        return Timeline(
            num_days=self.days,
            periods_per_day=self.periods_per_day,
            slots_per_period=self.slots_per_period,
            slot_seconds=self.slot_seconds,
        )

    def base_trace(self) -> SolarTrace:
        """The shared deployment-site weather (seeded by the fleet)."""
        return synthetic_trace(self.timeline(), seed=self.seed)

    def describe(self) -> Dict[str, object]:
        """Canonical dict of every field (cache/checkpoint keying)."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }

    # ------------------------------------------------------------------
    def node_spec(self, node_index: int) -> NodeSpec:
        """The concrete configuration of one node.

        Pure function of ``(self.seed, node_index)`` and the variation
        ranges — never of shard layout or worker count.
        """
        if not 0 <= node_index < self.n_nodes:
            raise IndexError(
                f"node {node_index} out of range [0, {self.n_nodes})"
            )
        var = fleet_variation(
            self.seed,
            node_index,
            task_mix=self.task_mix,
            policies=self.policies,
            bank_choices=self.bank_choices,
            bank_size=self.bank_size,
            panel_scale=self.panel_scale,
            cloud_jitter=self.cloud_jitter,
        )
        return NodeSpec(
            node_id=var["node_id"],
            graph_kind=var["graph_kind"],
            policy=var["policy"],
            bank_farads=var["bank_farads"],
            panel_scale=var["panel_scale"],
            jitter_sigma=var["jitter_sigma"],
            jitter_seed=var["jitter_seed"],
            scheduler_seed=var["scheduler_seed"],
        )

    def node_specs(self) -> List[NodeSpec]:
        return [self.node_spec(i) for i in range(self.n_nodes)]


def node_trace(base: SolarTrace, spec: NodeSpec) -> SolarTrace:
    """Per-node weather: base trace x panel scale x cloud jitter.

    The jitter is multiplicative log-free noise seeded by the node
    (clipped at zero so power stays physical); sigma 0 short-circuits
    to a plain scale so homogeneous fleets pay nothing extra.
    """
    power = base.power * spec.panel_scale
    if spec.jitter_sigma > 0:
        rng = np.random.default_rng(spec.jitter_seed)
        factors = 1.0 + rng.normal(0.0, spec.jitter_sigma, size=power.shape)
        power = power * np.clip(factors, 0.0, None)
    return SolarTrace(base.timeline, power)
