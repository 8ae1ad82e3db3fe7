"""Fleet aggregates: per-node summaries and the population view.

The fleet runner streams one :class:`NodeSummary` per simulated node —
the headline numbers of a :class:`~repro.sim.recorder.SimulationResult`
plus the node's configuration and its full result fingerprint — into a
:class:`FleetResult`.  The aggregate answers the population questions
the single-node experiments cannot: DMR distribution percentiles,
brownout counts, energy-utilization histograms and per-policy
comparisons across heterogeneous hardware and workloads.

``FleetResult.fingerprint()`` digests every node summary in node-id
order, so it is bit-identical for any worker count or shard size and
serves as the determinism contract of a fleet run.

:class:`FleetAggregate` holds the two histograms the report reads its
DMR percentiles and utilization bar from.  The runner builds one per
shard and folds them as shards land; bin counts are integers and
min/max are order-free, so the landing order changes no number.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs.sketch import FixedHistogram

__all__ = ["NodeSummary", "FailedNode", "FleetResult", "FleetAggregate"]

#: Bump when the summary layout changes; saved results are rejected.
FLEET_RESULT_SCHEMA = 1

__all__.append("FLEET_RESULT_SCHEMA")

#: Histogram resolutions: DMR quantiles are read off a 256-bin histogram
#: (error ≤ 1/256), utilization histograms from a 100-bin one so every
#: divisor view (2/4/5/10/20/25/50 bins) downsamples exactly.
DMR_SKETCH_BINS = 256
UTIL_SKETCH_BINS = 100


@dataclasses.dataclass(frozen=True)
class NodeSummary:
    """Headline outcome of one fleet node (picklable, JSON-able)."""

    node_id: int
    graph_kind: str
    policy: str
    num_tasks: int
    panel_scale: float
    bank_farads: Tuple[float, ...]
    dmr: float
    energy_utilization: float
    migration_efficiency: float
    brownout_slots: int
    solar_energy: float
    load_energy: float
    fingerprint: str

    def to_dict(self) -> Dict[str, object]:
        rec = dataclasses.asdict(self)
        rec["bank_farads"] = list(self.bank_farads)
        return rec

    @classmethod
    def from_dict(cls, rec: Dict[str, object]) -> "NodeSummary":
        rec = dict(rec)
        rec["bank_farads"] = tuple(rec["bank_farads"])
        return cls(**rec)


@dataclasses.dataclass(frozen=True)
class FailedNode:
    """A node quarantined by the supervised fleet runner.

    Structured postmortem of one node whose simulation raised on every
    allowed attempt: enough to reproduce it in isolation
    (``spec_digest`` pins the exact :class:`~repro.fleet.spec.NodeSpec`)
    without holding the exception object.  Picklable and JSON-able, so
    failed nodes survive shard checkpoints and saved fleet results.
    """

    node_id: int
    policy: str
    graph_kind: str
    error_type: str
    message: str
    spec_digest: str
    retries: int

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, rec: Dict[str, object]) -> "FailedNode":
        return cls(**rec)


class FleetAggregate:
    """The population histograms of one fleet (or one shard of it).

    ``dmr`` (:data:`DMR_SKETCH_BINS` bins) serves the DMR percentiles
    and ``util`` (:data:`UTIL_SKETCH_BINS` bins) the utilization
    histogram.  Built per shard by :meth:`from_nodes` and folded with
    :meth:`merge`, which is exact in any grouping or order.
    """

    def __init__(
        self,
        dmr: Optional[FixedHistogram] = None,
        util: Optional[FixedHistogram] = None,
    ) -> None:
        self.dmr = dmr or FixedHistogram.linear(0.0, 1.0, DMR_SKETCH_BINS)
        self.util = util or FixedHistogram.linear(
            0.0, 1.0, UTIL_SKETCH_BINS
        )

    @classmethod
    def from_nodes(cls, nodes: Iterable["NodeSummary"]) -> "FleetAggregate":
        """Histograms of one shard's healthy node summaries."""
        nodes = list(nodes)
        agg = cls()
        agg.dmr.add_many([n.dmr for n in nodes])
        agg.util.add_many(
            np.clip([n.energy_utilization for n in nodes], 0.0, 1.0)
        )
        return agg

    @property
    def n_nodes(self) -> int:
        return self.dmr.count

    def merge(self, other: "FleetAggregate") -> "FleetAggregate":
        """Associative, commutative fold of two disjoint aggregates."""
        return FleetAggregate(
            dmr=self.dmr.merge(other.dmr), util=self.util.merge(other.util)
        )


class FleetResult:
    """All node summaries of one fleet run plus derived aggregates."""

    def __init__(
        self,
        nodes: Sequence[NodeSummary],
        config: Optional[Dict[str, object]] = None,
        aggregate: Optional[FleetAggregate] = None,
        failed_nodes: Sequence[FailedNode] = (),
    ) -> None:
        nodes = sorted(nodes, key=lambda n: n.node_id)
        failed = sorted(failed_nodes, key=lambda f: f.node_id)
        ids = [n.node_id for n in nodes] + [f.node_id for f in failed]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids in fleet result")
        if not nodes:
            raise ValueError(
                "fleet result needs at least one healthy node"
            )
        self.nodes: List[NodeSummary] = list(nodes)
        self.failed_nodes: List[FailedNode] = list(failed)
        self.config: Dict[str, object] = dict(config or {})
        if aggregate is not None and aggregate.n_nodes != len(nodes):
            raise ValueError(
                f"aggregate covers {aggregate.n_nodes} node(s), result "
                f"has {len(nodes)}"
            )
        self._aggregate = aggregate

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def degraded(self) -> bool:
        """True when any node was quarantined: the population numbers
        and :meth:`fingerprint` then describe the healthy subset."""
        return bool(self.failed_nodes)

    @property
    def aggregate(self) -> FleetAggregate:
        """The population histograms (built on demand if not supplied)."""
        if self._aggregate is None:
            self._aggregate = FleetAggregate.from_nodes(self.nodes)
        return self._aggregate

    # ------------------------------------------------------------------
    # Distribution metrics
    # ------------------------------------------------------------------
    def dmr_values(self) -> np.ndarray:
        return np.array([n.dmr for n in self.nodes])

    @property
    def mean_dmr(self) -> float:
        return float(self.dmr_values().mean())

    def dmr_percentiles(
        self, percentiles: Sequence[float] = (5, 25, 50, 75, 95, 99)
    ) -> Dict[str, float]:
        """Population DMR quantiles, read off the aggregate's histogram:
        within one bin (1/:data:`DMR_SKETCH_BINS`) of the nearest-rank
        sample.
        """
        return self.aggregate.dmr.percentiles(percentiles)

    @property
    def total_brownout_slots(self) -> int:
        return int(sum(n.brownout_slots for n in self.nodes))

    @property
    def brownout_node_fraction(self) -> float:
        """Fraction of nodes that browned out at least once."""
        return float(
            np.mean([n.brownout_slots > 0 for n in self.nodes])
        )

    def utilization_histogram(
        self, bins: int = 10
    ) -> Tuple[List[int], List[float]]:
        """Energy-utilization counts over ``bins`` equal bins on [0, 1].

        Served by downsampling the aggregate's fixed 100-bin histogram
        (bit-identical to ``np.histogram`` for any divisor of 100);
        other bin counts fall back to the exact per-node computation.
        """
        try:
            return self.aggregate.util.downsample(bins)
        except ValueError:
            values = np.clip(
                [n.energy_utilization for n in self.nodes], 0.0, 1.0
            )
            counts, edges = np.histogram(
                values, bins=bins, range=(0.0, 1.0)
            )
            return counts.astype(int).tolist(), edges.tolist()

    # ------------------------------------------------------------------
    # Cohort views
    # ------------------------------------------------------------------
    def _cohorts(self, key) -> Dict[str, List[NodeSummary]]:
        groups: Dict[str, List[NodeSummary]] = {}
        for node in self.nodes:
            groups.setdefault(key(node), []).append(node)
        return groups

    def by_policy(self) -> Dict[str, Dict[str, float]]:
        """Per-policy cohort aggregates (the fleet-level comparison)."""
        out: Dict[str, Dict[str, float]] = {}
        for policy, members in sorted(
            self._cohorts(lambda n: n.policy).items()
        ):
            dmrs = np.array([n.dmr for n in members])
            out[policy] = {
                "nodes": float(len(members)),
                "mean_dmr": float(dmrs.mean()),
                "p50_dmr": float(np.percentile(dmrs, 50)),
                "p95_dmr": float(np.percentile(dmrs, 95)),
                "mean_utilization": float(
                    np.mean([n.energy_utilization for n in members])
                ),
                "brownout_slots": float(
                    sum(n.brownout_slots for n in members)
                ),
            }
        return out

    def by_graph(self) -> Dict[str, Dict[str, float]]:
        """Per-workload cohort aggregates (random graphs pooled)."""
        def kind(node: NodeSummary) -> str:
            return node.graph_kind.split(":", 1)[0]

        out: Dict[str, Dict[str, float]] = {}
        for graph, members in sorted(self._cohorts(kind).items()):
            out[graph] = {
                "nodes": float(len(members)),
                "mean_dmr": float(np.mean([n.dmr for n in members])),
                "mean_utilization": float(
                    np.mean([n.energy_utilization for n in members])
                ),
            }
        return out

    # ------------------------------------------------------------------
    # Determinism contract
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Digest of every node summary in node-id order.

        Bit-identical across worker counts and shard sizes: the only
        inputs are the per-node summaries, which are pure functions of
        ``(fleet seed, node id)`` and the fleet configuration.
        """
        h = hashlib.sha256()
        h.update(repr(len(self.nodes)).encode())
        for n in self.nodes:
            h.update(
                repr(
                    (
                        n.node_id,
                        n.graph_kind,
                        n.policy,
                        n.num_tasks,
                        n.panel_scale,
                        tuple(n.bank_farads),
                        n.dmr,
                        n.energy_utilization,
                        n.migration_efficiency,
                        n.brownout_slots,
                        n.solar_energy,
                        n.load_energy,
                        n.fingerprint,
                    )
                ).encode()
            )
        return h.hexdigest()

    # ------------------------------------------------------------------
    # Reporting / persistence
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Headline aggregates as a plain dict (manifest-friendly)."""
        return {
            "nodes": len(self.nodes),
            "failed_nodes": len(self.failed_nodes),
            "degraded": self.degraded,
            "mean_dmr": self.mean_dmr,
            "dmr_percentiles": self.dmr_percentiles(),
            "brownout_slots": self.total_brownout_slots,
            "brownout_node_fraction": self.brownout_node_fraction,
            "mean_utilization": float(
                np.mean([n.energy_utilization for n in self.nodes])
            ),
            "fingerprint": self.fingerprint(),
        }

    def render(self) -> str:
        """Human-readable fleet report (the ``fleet report`` output)."""
        lines = [f"fleet of {len(self.nodes)} node(s)"]
        if self.degraded:
            ids = ",".join(str(f.node_id) for f in self.failed_nodes)
            lines[0] += (
                f" — DEGRADED: {len(self.failed_nodes)} quarantined "
                f"({ids})"
            )
        pct = self.dmr_percentiles()
        lines.append(
            "DMR:          mean {:.4f}   ".format(self.mean_dmr)
            + "  ".join(f"{k} {v:.3f}" for k, v in pct.items())
        )
        lines.append(
            f"brownouts:    {self.total_brownout_slots} slot(s) across "
            f"{self.brownout_node_fraction * 100:.1f}% of nodes"
        )
        counts, edges = self.utilization_histogram()
        total = max(sum(counts), 1)
        bar_cells = []
        for count, lo in zip(counts, edges[:-1]):
            bar_cells.append(
                f"{lo:.1f}:{'#' * max(1, round(10 * count / total)) if count else '.'}"
            )
        lines.append("utilization:  " + " ".join(bar_cells))
        lines.append("")
        lines.append(
            f"{'policy':12s} {'nodes':>5s} {'mean DMR':>9s} {'p50':>7s} "
            f"{'p95':>7s} {'util':>6s} {'brownouts':>9s}"
        )
        for policy, stats in self.by_policy().items():
            lines.append(
                f"{policy:12s} {int(stats['nodes']):5d} "
                f"{stats['mean_dmr']:9.4f} {stats['p50_dmr']:7.3f} "
                f"{stats['p95_dmr']:7.3f} {stats['mean_utilization']:6.3f} "
                f"{int(stats['brownout_slots']):9d}"
            )
        lines.append("")
        lines.append(
            f"{'workload':12s} {'nodes':>5s} {'mean DMR':>9s} {'util':>6s}"
        )
        for graph, stats in self.by_graph().items():
            lines.append(
                f"{graph:12s} {int(stats['nodes']):5d} "
                f"{stats['mean_dmr']:9.4f} {stats['mean_utilization']:6.3f}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": FLEET_RESULT_SCHEMA,
            "config": self.config,
            "fingerprint": self.fingerprint(),
            "summary": self.summary(),
            "nodes": [n.to_dict() for n in self.nodes],
            "failed_nodes": [f.to_dict() for f in self.failed_nodes],
        }

    def write_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path

    @classmethod
    def load_json(cls, path: Union[str, Path]) -> "FleetResult":
        path = Path(path)
        if not path.is_file():
            raise ValueError(f"no fleet result file at {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path} is not a fleet result file ({exc})"
            ) from None
        if not isinstance(data, dict) or "nodes" not in data:
            raise ValueError(f"{path} is not a fleet result file")
        if data.get("schema") != FLEET_RESULT_SCHEMA:
            raise ValueError(
                f"{path} has fleet-result schema {data.get('schema')}; "
                f"this build reads {FLEET_RESULT_SCHEMA}"
            )
        return cls(
            [NodeSummary.from_dict(rec) for rec in data["nodes"]],
            config=data.get("config"),
            failed_nodes=[
                FailedNode.from_dict(rec)
                for rec in data.get("failed_nodes") or []
            ],
        )
