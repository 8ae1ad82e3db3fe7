"""The offline stage (Figure 4, left): sizing → DP → DBN training.

:class:`OfflinePipeline` runs the paper's three offline steps on a
*training* solar trace (historical data in deployment):

1. **capacitor sizing** (Section 4.1) — per-day migration profiles
   under an ASAP schedule, per-day optimal capacities, clustering into
   ``H`` bank values;
2. **long-term DMR optimisation** (Section 4.2) — the DP of
   :class:`~repro.core.longterm.LongTermOptimizer` over the training
   trace, producing the optimal per-period DMR / per-day capacitor
   samples;
3. **DBN training** — greedy RBM pretraining plus supervised
   fine-tuning on those samples.

The result is a :class:`TrainedPolicy` that can build matching nodes
and online schedulers for deployment traces.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..energy.capacitor import SuperCapacitor
from ..energy.sizing import DEFAULT_CANDIDATES, migration_series, size_bank
from ..node.node import SensorNode
from ..schedulers.greedy import asap_tasks
from ..sim.state import PeriodRuntime
from ..solar.panel import SolarPanel
from ..solar.trace import SolarTrace
from ..tasks.graph import TaskGraph
from ..timeline import Timeline
from .ann.dbn import DBN
from .ann.network import HeadSpec
from .features import FeatureCodec
from .longterm import (
    DPConfig,
    LongTermOptimizer,
    LongTermPlan,
    TrainingSample,
    trace_period_matrix,
)
from .online import DBNPolicy, ProposedScheduler

__all__ = ["OfflinePipeline", "TrainedPolicy", "asap_load_profile"]


def asap_load_profile(graph: TaskGraph, timeline: Timeline) -> np.ndarray:
    """Per-slot load power (W) of one period under the ASAP rule.

    Section 4.1 extracts the migration pattern from an ASAP schedule;
    this is that schedule's load, assuming energy is never the
    constraint: every slot runs :func:`asap_tasks` on the engine's own
    period state for one whole slot.
    """
    runtime = PeriodRuntime(graph, timeline)
    dt = timeline.slot_seconds
    matrix = np.zeros((timeline.slots_per_period, len(graph)), dtype=bool)
    for slot in range(timeline.slots_per_period):
        runtime.check_deadlines(slot)
        chosen = asap_tasks(
            graph, runtime.ready_tasks(slot), runtime.deadline_slots
        )
        matrix[slot, chosen] = True
        runtime.advance_scaled([(i, dt) for i in chosen])
    powers = np.array([t.power for t in graph.tasks])
    return matrix @ powers


@dataclasses.dataclass
class TrainedPolicy:
    """Everything the deployed node needs from the offline stage."""

    graph: TaskGraph
    timeline: Timeline
    capacitors: Tuple[SuperCapacitor, ...]
    dbn: DBN
    codec: FeatureCodec
    samples: List[TrainingSample]
    training_plan: Optional[LongTermPlan]
    delta: float = 0.5
    switch_threshold: float = 2.0

    def deployed(self) -> "TrainedPolicy":
        """A copy without the training artifacts (samples, DP plan).

        The online stage needs only the DBN, its codec, the sized bank
        and the thresholds, so nodes and schedulers built from the copy
        equal those built from this policy.  Callers that hold many
        policies for a whole run keep this lighter copy.
        """
        return dataclasses.replace(self, samples=[], training_plan=None)

    def make_scheduler(self, name: str = "proposed") -> ProposedScheduler:
        """The online scheduler backed by the trained DBN."""
        return ProposedScheduler(
            DBNPolicy(self.dbn, self.codec), delta=self.delta, name=name
        )

    def make_node(
        self, panel: Optional[SolarPanel] = None, **node_kwargs
    ) -> SensorNode:
        """A node with the sized bank and the trained ``E_th``."""
        node_kwargs.setdefault("switch_threshold", self.switch_threshold)
        return SensorNode(
            list(self.capacitors),
            num_nvps=self.graph.num_nvps,
            panel=panel,
            **node_kwargs,
        )


class OfflinePipeline:
    """Run sizing + long-term optimisation + DBN training."""

    def __init__(
        self,
        graph: TaskGraph,
        num_capacitors: int = 4,
        candidates: Sequence[float] = DEFAULT_CANDIDATES,
        hidden_sizes: Sequence[int] = (64, 32),
        dp_config: Optional[DPConfig] = None,
        delta: float = 0.5,
        switch_threshold: float = 2.0,
        pretrain_epochs: int = 10,
        finetune_epochs: int = 300,
        augment_per_period: int = 2,
        seed: int = 0,
    ) -> None:
        if num_capacitors < 1:
            raise ValueError(
                f"num_capacitors must be >= 1, got {num_capacitors}"
            )
        self.graph = graph
        self.num_capacitors = num_capacitors
        self.candidates = tuple(candidates)
        self.hidden_sizes = tuple(hidden_sizes)
        self.dp_config = dp_config or DPConfig()
        self.delta = delta
        self.switch_threshold = switch_threshold
        self.pretrain_epochs = pretrain_epochs
        self.finetune_epochs = finetune_epochs
        self.augment_per_period = augment_per_period
        self.seed = seed

    # ------------------------------------------------------------------
    def size_capacitors(self, trace: SolarTrace) -> List[SuperCapacitor]:
        """Section 4.1 on the training trace."""
        tl = trace.timeline
        load_one_period = asap_load_profile(self.graph, tl)
        load_day = np.tile(load_one_period, tl.periods_per_day)
        daily_delta_e = []
        weights = []
        for day in range(tl.num_days):
            solar_day = trace.power[day].reshape(-1)
            daily_delta_e.append(
                migration_series(solar_day, load_day, tl.slot_seconds)
            )
            weights.append(trace.daily_energy(day))
        return size_bank(
            daily_delta_e,
            tl.slot_seconds,
            num_capacitors=self.num_capacitors,
            candidates=self.candidates,
            daily_weights=weights,
        )

    # ------------------------------------------------------------------
    def cache_key(
        self, training_trace: SolarTrace, panel: Optional[SolarPanel] = None
    ) -> str:
        """Content digest of everything :meth:`run`'s output depends on."""
        from ..perf.cache import describe_graph, hash_key, trace_digest

        panel = panel or SolarPanel()
        cfg = self.dp_config
        return hash_key(
            {
                "artifact": "trained-policy",
                "graph": describe_graph(self.graph),
                "num_capacitors": self.num_capacitors,
                "candidates": list(self.candidates),
                "hidden_sizes": list(self.hidden_sizes),
                "dp_config": [
                    cfg.energy_buckets,
                    cfg.switch_threshold,
                    cfg.energy_tiebreak,
                ],
                "delta": self.delta,
                "switch_threshold": self.switch_threshold,
                "pretrain_epochs": self.pretrain_epochs,
                "finetune_epochs": self.finetune_epochs,
                "augment_per_period": self.augment_per_period,
                "seed": self.seed,
                "panel_peak_power": panel.peak_power,
                "trace": trace_digest(training_trace),
            }
        )

    # ------------------------------------------------------------------
    def run(
        self,
        training_trace: SolarTrace,
        panel: Optional[SolarPanel] = None,
        cache=None,
    ) -> TrainedPolicy:
        """Full offline stage; returns the deployable policy.

        When an :class:`~repro.perf.cache.ArtifactCache` is supplied,
        the trained policy is loaded from (or stored into) the cache
        under :meth:`cache_key`, skipping sizing, the DP and DBN
        training entirely on a hit.  With an ambient tracer active
        the three stages get ``sizing`` / ``longterm_dp`` /
        ``dbn_train`` spans under one ``offline_pipeline`` parent.
        """
        from ..obs.trace import current_tracer

        tracer = current_tracer()
        with tracer.span(
            "offline_pipeline",
            attrs={
                "graph": self.graph.name,
                "train_days": training_trace.timeline.num_days,
            },
        ) as root:
            digest = None
            if cache is not None:
                digest = self.cache_key(training_trace, panel)
                cached = cache.get("policy", digest)
                if cached is not None:
                    root.annotate(cache_hit=True)
                    return cached
            tl = training_trace.timeline
            with tracer.span("sizing"):
                capacitors = self.size_capacitors(training_trace)

            optimizer = LongTermOptimizer(
                self.graph,
                tl,
                capacitors,
                config=dataclasses.replace(
                    self.dp_config, switch_threshold=self.switch_threshold
                ),
            )
            with tracer.span("longterm_dp"):
                plan = optimizer.optimize(
                    trace_period_matrix(training_trace),
                    augment_per_period=self.augment_per_period,
                    augment_seed=self.seed + 1,
                )

            panel = panel or SolarPanel()
            codec = FeatureCodec(
                slots_per_period=tl.slots_per_period,
                capacitors=tuple(capacitors),
                solar_scale=max(panel.peak_power, 1e-9),
            )
            x, caps, alphas, tes = codec.encode_samples(plan.samples)
            heads = HeadSpec(
                num_capacitors=len(capacitors), num_tasks=len(self.graph)
            )
            dbn = DBN(
                input_size=codec.input_size,
                hidden_sizes=self.hidden_sizes,
                heads=heads,
                seed=self.seed,
            )
            with tracer.span(
                "dbn_train",
                attrs={
                    "samples": len(plan.samples),
                    "pretrain_epochs": self.pretrain_epochs,
                    "finetune_epochs": self.finetune_epochs,
                },
            ):
                dbn.fit(
                    x,
                    caps,
                    alphas,
                    tes,
                    pretrain_epochs=self.pretrain_epochs,
                    finetune_epochs=self.finetune_epochs,
                )

        policy = TrainedPolicy(
            graph=self.graph,
            timeline=tl,
            capacitors=tuple(capacitors),
            dbn=dbn,
            codec=codec,
            samples=plan.samples,
            training_plan=plan,
            delta=self.delta,
            switch_threshold=self.switch_threshold,
        )
        if cache is not None and digest is not None:
            cache.put("policy", digest, policy)
        return policy
