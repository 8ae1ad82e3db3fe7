"""Fleet execution: shard nodes over the process pool, checkpoint shards.

A :class:`FleetRunner` expands a :class:`~repro.fleet.spec.FleetSpec`
into shards of node ids and fans them out over the supervised pool,
:func:`repro.reliability.supervisor.supervised_map`.  Each shard is a
tiny picklable work item ``(spec, node_ids, shard_index,
span_context, ...)``; the worker rebuilds the base trace (and, when a
``proposed`` node needs it, the DBN training trace) once, derives
every node's configuration from ``(fleet seed, node id)``, simulates
it inside ``shard``/``node`` spans and returns one
:class:`~repro.fleet.result.NodeSummary` per node plus its collected
span records.

Shards are sized for the batched engine (:func:`default_shard_size`):
its per-slot numpy dispatch amortizes over the shard width, so the
default is as wide as load balance allows, capped where the width
sweep flattens.

Two layers of reuse ride on the existing artifact cache:

- *shard checkpoints* (kind ``fleet-shard``): every finished shard is
  written under a digest of the fleet spec and its node ids, so a
  killed or re-invoked fleet run only recomputes the missing shards —
  and re-aggregation (``repro fleet report`` from cache, changed
  worker counts) is free;
- *shared offline stages* (kind ``policy``): when the ``proposed``
  policy is in the pool, the DBN pipeline trains once per distinct
  workload and each shard loads the artifact once per workload.

Determinism contract: node summaries are pure functions of ``(fleet
seed, node id)``; shards are combined in node-id order; therefore
``FleetResult.fingerprint()`` is bit-identical for any worker count,
shard size or shard executor — the default node-major batched engine
(:mod:`repro.sim.batch`) and the scalar per-node engine produce the
same bytes (guarded by tests, the batched-vs-per-node oracle and the
``repro fleet`` acceptance check).

Execution is *supervised* (:mod:`repro.reliability.supervisor`): a
raising node is retried in its worker and then quarantined into a
:class:`~repro.fleet.result.FailedNode` record instead of aborting the
run (``on_node_error="quarantine"``, the default; ``"fail"`` restores
abort-on-first-error), hung shards are re-dispatched under
``task_timeout``, and dead workers rebuild the pool.  A degraded run
keeps the determinism contract over the *healthy subset*: the
fingerprint equals a fault-free run of the same fleet restricted to
the same healthy node ids (``exclude_nodes``), whatever the worker
count.  The :class:`~repro.reliability.chaos.ChaosSpec` hook injects
worker kills, hangs and poison nodes deterministically to prove it.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..energy.capacitor import SuperCapacitor
from ..node.node import SensorNode
from ..obs.events import (
    NULL_OBSERVER,
    FleetShardEvent,
    NodeQuarantinedEvent,
    Observer,
)
from ..obs.sketch import P2Quantile
from ..obs.trace import NULL_TRACER, activate, collecting_tracer
from ..perf.cache import ArtifactCache, cache_enabled, default_cache, hash_key
from ..reliability.chaos import ChaosPlan, ChaosSpec
from ..reliability.supervisor import (
    SupervisorError,
    SupervisorPolicy,
    TaskFailure,
    resolve_workers,
    supervised_map,
)
from ..schedulers import make_scheduler
from ..sim.checkpoint import result_fingerprint
from ..sim.engine import simulate
from ..verify.strategies import build_graph
from .result import FailedNode, FleetAggregate, FleetResult, NodeSummary
from .spec import FleetSpec, NodeSpec, node_trace

__all__ = [
    "MAX_SHARD_SIZE",
    "MIN_SHARD_SIZE",
    "FleetRunner",
    "default_shard_size",
    "node_spec_digest",
    "run_fleet",
    "simulate_node",
    "simulate_shard_batch",
]

#: Shard executors: ``batch`` advances every eligible node of a shard
#: through one node-major :mod:`repro.sim.batch` engine (per-node
#: fallback for ineligible configs); ``per-node`` steps one scalar
#: engine per node.  Bit-identical by contract — guarded by the
#: batched-vs-per-node oracle and the conformance test wall.
ENGINES = ("batch", "per-node")

#: Bounds of the default shard size.  Below 32 nodes the batched
#: engine's per-slot numpy dispatch dominates; past 128 its wall time
#: flattens while its heap (per-row period records, intra-task subset
#: temporaries) keeps growing with the width, and checkpoints coarsen.
MIN_SHARD_SIZE = 32
MAX_SHARD_SIZE = 128


def default_shard_size(n_nodes: int, workers: int) -> int:
    """Nodes per work item when the caller does not choose.

    As wide as possible for the batched engine while every worker
    still gets at least two shards (load balance), clamped to
    ``[MIN_SHARD_SIZE, MAX_SHARD_SIZE]``.  ``n_nodes`` counts only the
    nodes that run.  Never affects results, only wall-clock.
    """
    per_worker = math.ceil(n_nodes / (2 * max(workers, 1)))
    return min(MAX_SHARD_SIZE, max(MIN_SHARD_SIZE, per_worker))

#: Artifact-cache namespace of shard checkpoints.
SHARD_KIND = "fleet-shard"


# ----------------------------------------------------------------------
# Per-node simulation (runs inside worker processes)
# ----------------------------------------------------------------------
def training_trace(fleet: FleetSpec):
    """The synthetic weather every ``proposed`` node trains on.

    Depends only on the fleet spec, so a shard builds it once, for its
    first ``proposed`` workload (see :func:`_shard_policies`).
    """
    from ..solar.days import synthetic_trace
    from ..timeline import Timeline

    train_tl = Timeline(
        num_days=fleet.proposed_train_days,
        periods_per_day=fleet.periods_per_day,
        slots_per_period=fleet.slots_per_period,
        slot_seconds=fleet.slot_seconds,
    )
    return synthetic_trace(train_tl, seed=fleet.seed)


def _proposed_policy(fleet: FleetSpec, graph_kind: str, train_trace=None):
    """Train (or cache-load) the paper's pipeline for one workload.

    The training budget is the fleet's small ``proposed_*`` knobs; the
    artifact is shared through the ``policy`` disk cache, so a fleet
    with 50 ``proposed``/``wam`` nodes trains once, not 50 times, and
    a shard loads it once per workload (:func:`_shard_policies`).
    ``train_trace`` defaults to :func:`training_trace` of the fleet.
    """
    from ..core.offline import OfflinePipeline

    graph = build_graph(graph_kind)
    if train_trace is None:
        train_trace = training_trace(fleet)
    pipeline = OfflinePipeline(
        graph,
        pretrain_epochs=fleet.proposed_epochs,
        finetune_epochs=fleet.proposed_epochs,
        augment_per_period=1,
        seed=fleet.seed,
    )
    cache = default_cache() if cache_enabled() else None
    return pipeline.run(train_trace, cache=cache)


def _summarize(spec: NodeSpec, graph, result) -> NodeSummary:
    """Reduce one node's :class:`SimulationResult` to its summary.

    Shared by the per-node and batched executors so both paths derive
    the fingerprint (and every aggregate input) identically.
    """
    return NodeSummary(
        node_id=spec.node_id,
        graph_kind=spec.graph_kind,
        policy=spec.policy,
        num_tasks=len(graph),
        panel_scale=spec.panel_scale,
        bank_farads=tuple(spec.bank_farads),
        dmr=result.dmr,
        energy_utilization=result.energy_utilization,
        migration_efficiency=result.migration_efficiency,
        brownout_slots=result.total_brownout_slots,
        solar_energy=result.total_solar_energy,
        load_energy=result.total_load_energy,
        fingerprint=result_fingerprint(result),
    )


def simulate_node(
    fleet: FleetSpec, base_trace, spec: NodeSpec, trained=None
) -> NodeSummary:
    """Simulate one fleet node and reduce it to a :class:`NodeSummary`.

    Pure function of the fleet spec, the shared base trace and the
    node spec — no global state, safe in any worker process.  This is
    the per-node reference every batched summary must equal.
    ``trained`` lets a caller that simulates many ``proposed`` nodes
    pass the workload's :class:`~repro.core.offline.TrainedPolicy` in
    instead of loading it per node; it never changes the summary.
    """
    graph = build_graph(spec.graph_kind)
    trace = node_trace(base_trace, spec)
    if spec.policy == "proposed":
        if trained is None:
            trained = _proposed_policy(fleet, spec.graph_kind)
        node = trained.make_node()
    else:
        node = SensorNode(
            [SuperCapacitor(capacitance=c) for c in spec.bank_farads],
            num_nvps=graph.num_nvps,
        )
    scheduler = make_scheduler(spec.policy, spec.scheduler_seed, trained)
    result = simulate(node, graph, trace, scheduler, strict=False)
    return _summarize(spec, graph, result)


def _shard_policies(fleet: FleetSpec):
    """A shard's ``spec -> TrainedPolicy`` loader (``None`` unless proposed).

    The training trace is built for the shard's first ``proposed``
    node and each workload's policy is loaded (one artifact-cache get,
    or trained) on first use, kept without its training artifacts.
    Every node still gets its own scheduler from it: the degradation
    ladder's state is per node.
    """
    train = functools.lru_cache(maxsize=None)(lambda: training_trace(fleet))

    @functools.lru_cache(maxsize=None)
    def load(graph_kind: str):
        return _proposed_policy(fleet, graph_kind, train()).deployed()

    return lambda spec: (
        load(spec.graph_kind) if spec.policy == "proposed" else None
    )


def _batch_case(spec: NodeSpec, graph, base_trace, trained=None):
    """Build the :class:`~repro.sim.batch.BatchCase` for one node."""
    from ..sim.batch import BatchCase

    if trained is not None:
        capacitors = trained.capacitors
    else:
        capacitors = tuple(
            SuperCapacitor(capacitance=c) for c in spec.bank_farads
        )
    return BatchCase(
        graph=graph,
        trace=node_trace(base_trace, spec),
        capacitors=capacitors,
        policy=spec.policy,
        scheduler_seed=spec.scheduler_seed,
        trained=trained,
    )


def simulate_shard_batch(
    fleet: FleetSpec, base_trace, specs: Sequence[NodeSpec]
) -> List[NodeSummary]:
    """Batched counterpart of mapping :func:`simulate_node` over specs.

    Eligible nodes (policy in :data:`~repro.sim.batch.BATCH_POLICIES`,
    task count within the batch width) advance together through one
    node-major engine; the rest — ``dvfs`` nodes, oversized graphs —
    run through :func:`simulate_node`.  Summaries come back in input
    order and are bit-identical to the per-node path (the
    batched-vs-per-node oracle holds this contract).
    """
    from ..sim.batch import batch_ineligibility, simulate_batch

    specs = list(specs)
    policy_of = _shard_policies(fleet)
    graphs = [build_graph(s.graph_kind) for s in specs]
    eligible = [
        i
        for i, (s, g) in enumerate(zip(specs, graphs))
        if batch_ineligibility(s.policy, g) is None
    ]
    summaries: List[Optional[NodeSummary]] = [None] * len(specs)
    if eligible:
        cases = [
            _batch_case(
                specs[i], graphs[i], base_trace, policy_of(specs[i])
            )
            for i in eligible
        ]
        for i, result in zip(eligible, simulate_batch(cases)):
            summaries[i] = _summarize(specs[i], graphs[i], result)
    for i, spec in enumerate(specs):
        if summaries[i] is None:
            summaries[i] = simulate_node(
                fleet, base_trace, spec, policy_of(spec)
            )
    return [s for s in summaries if s is not None]


def node_spec_digest(spec: NodeSpec) -> str:
    """Content digest of one node's exact configuration.

    Recorded on every :class:`~repro.fleet.result.FailedNode` so a
    quarantined node can be reproduced in isolation from its fleet.
    """
    import dataclasses

    return hash_key(
        {"artifact": "node-spec", **dataclasses.asdict(spec)}
    )


def _run_shard(item):
    """Worker entry point: simulate one shard of node ids, supervised.

    Module-level (picklable) on purpose; rebuilds the shared base trace
    (and the training trace, if a ``proposed`` node needs it) once per
    shard rather than shipping the power arrays per item.

    The work item is ``(spec, node_ids, shard_index, ctx_wire,
    chaos_plan, node_retries, on_node_error, engine, attempt)``:
    ``ctx_wire`` is the parent's serialized span context (or ``None``
    when untraced) and ``attempt`` is the supervisor's re-dispatch
    count (chaos keys first-attempt-only faults off it).  The worker
    opens a ``shard`` span keyed by the shard index and one ``node``
    span per per-node-simulated id — explicit keys, so the span ids
    are identical whichever process (or attempt) runs the shard — and
    returns the collected span records with the summaries for the
    parent to re-emit.

    With ``engine="batch"`` (and no chaos plan — chaos faults are
    keyed per node, so chaos runs always step per node) the shard's
    batch-eligible nodes advance together through one
    :mod:`repro.sim.batch` engine under a single ``batch`` child span
    instead of per-node ``node`` spans; ineligible nodes — and, if the
    batched engine itself raises, every node it covered — fall back to
    the per-node loop below, which keeps its retry/quarantine
    semantics.  Summaries are reassembled in ``node_ids`` order either
    way, so the executor never shows through the fingerprint.

    A node whose simulation raises is retried up to ``node_retries``
    times in place (immediately — the engine is deterministic, the
    retries absorb environmental interference) and then either
    quarantined into a :class:`~repro.fleet.result.FailedNode`
    (``on_node_error="quarantine"``) or re-raised to the supervisor
    (``"fail"``).  Returns ``(summaries, failed, seconds, records)``.
    """
    (
        fleet, node_ids, shard_index, ctx_wire,
        chaos, node_retries, on_node_error, engine, attempt,
    ) = item
    if chaos is not None:
        chaos.on_shard_start(shard_index, attempt)
    start = time.perf_counter()
    tracer, records = collecting_tracer(ctx_wire)
    base = fleet.base_trace()
    specs = {node_id: fleet.node_spec(node_id) for node_id in node_ids}
    policy_of = _shard_policies(fleet)
    done: Dict[int, NodeSummary] = {}
    failed: List[FailedNode] = []
    with activate(tracer):
        with tracer.span(
            "shard",
            key=shard_index,
            attrs={
                "shard_index": shard_index,
                "n_nodes": len(node_ids),
                "engine": engine,
            },
        ):
            if engine == "batch" and chaos is None:
                from ..sim.batch import batch_ineligibility, simulate_batch

                eligible = []
                for node_id, spec in specs.items():
                    graph = build_graph(spec.graph_kind)
                    if batch_ineligibility(spec.policy, graph) is None:
                        eligible.append((node_id, spec, graph))
                if eligible:
                    with tracer.span(
                        "batch",
                        key=shard_index,
                        attrs={
                            "shard_index": shard_index,
                            "n_nodes": len(eligible),
                        },
                    ) as span:
                        try:
                            results = simulate_batch(
                                [
                                    _batch_case(
                                        spec, graph, base, policy_of(spec)
                                    )
                                    for _, spec, graph in eligible
                                ]
                            )
                        except KeyboardInterrupt:
                            raise
                        except Exception as exc:
                            # Whole-batch failure: annotate and let the
                            # per-node loop (with its retry/quarantine
                            # machinery) re-run every covered node.
                            span.annotate(
                                failed=True,
                                error_type=type(exc).__name__,
                            )
                        else:
                            for (node_id, spec, graph), result in zip(
                                eligible, results
                            ):
                                done[node_id] = _summarize(
                                    spec, graph, result
                                )
                            span.annotate(n_batched=len(results))
            for node_id in node_ids:
                if node_id in done:
                    continue
                spec = specs[node_id]
                with tracer.span(
                    "node",
                    key=node_id,
                    attrs={"node_id": node_id, "policy": spec.policy},
                ) as span:
                    retries = 0
                    while True:
                        try:
                            if chaos is not None:
                                chaos.on_node_start(node_id, attempt)
                            summary = simulate_node(
                                fleet, base, spec, policy_of(spec)
                            )
                        except KeyboardInterrupt:
                            raise
                        except Exception as exc:
                            if retries < node_retries:
                                retries += 1
                                continue
                            if on_node_error == "fail":
                                raise
                            span.annotate(
                                failed=True,
                                error_type=type(exc).__name__,
                            )
                            failed.append(
                                FailedNode(
                                    node_id=node_id,
                                    policy=spec.policy,
                                    graph_kind=spec.graph_kind,
                                    error_type=type(exc).__name__,
                                    message=str(exc),
                                    spec_digest=node_spec_digest(spec),
                                    retries=retries,
                                )
                            )
                            break
                        else:
                            span.annotate(dmr=summary.dmr)
                            done[node_id] = summary
                            break
    summaries = [done[i] for i in node_ids if i in done]
    return summaries, failed, time.perf_counter() - start, records


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class FleetRunner:
    """Shard a fleet across the process pool and aggregate the results.

    Parameters
    ----------
    spec:
        The fleet to run.
    workers:
        Process count (``None`` → ``$REPRO_WORKERS`` → serial).  Never
        affects results, only wall-clock.
    shard_size:
        Nodes per work item (default :func:`default_shard_size` of the
        nodes that run and the worker count).  Never affects results.
    engine:
        Shard executor (:data:`ENGINES`): ``"batch"`` (default)
        advances every batch-eligible node of a shard through one
        node-major :mod:`repro.sim.batch` engine and steps the rest
        per node; ``"per-node"`` forces the scalar engine everywhere.
        Bit-identical by contract, so it never affects results — only
        nodes/s — and shard checkpoints are shared across engines.
        Chaos runs always execute per node (faults key on node ids).
    cache:
        Shard-checkpoint store.  ``None`` uses the default artifact
        cache when caching is enabled (``REPRO_NO_CACHE`` unset);
        ``False`` disables shard checkpointing outright.
    observer:
        Receives one ``fleet_shard`` event per shard, supervisor
        events (``task_retry``/``worker_lost``/``shard_timeout``/
        ``node_quarantined``) plus the run trailer via
        :meth:`Observer.finish`.
    max_retries:
        Supervisor re-dispatches per shard (and in-worker retries per
        node) beyond the first attempt.
    task_timeout:
        Per-shard wall-clock budget in seconds (``None`` disables).
        Forces pool mode: a hung shard can only be abandoned from
        another process.
    on_node_error:
        ``"quarantine"`` (default) records a raising node as a
        :class:`~repro.fleet.result.FailedNode` and completes the run
        degraded; ``"fail"`` aborts on the first permanent failure
        with :class:`~repro.reliability.supervisor.SupervisorError`.
    chaos:
        Optional :class:`~repro.reliability.chaos.ChaosSpec` injecting
        deterministic worker kills, hangs, and poison nodes.  Forces
        pool mode while active.  The chaos descriptor is mixed into
        shard-checkpoint digests so chaos runs never pollute the
        clean-run cache.
    exclude_nodes:
        Node ids to skip entirely — the tool for reproducing a
        degraded run's healthy subset fault-free.  Never affects the
        summaries of the nodes that do run.
    """

    def __init__(
        self,
        spec: FleetSpec,
        workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        cache=None,
        observer: Optional[Observer] = None,
        max_retries: int = 2,
        task_timeout: Optional[float] = None,
        on_node_error: str = "quarantine",
        chaos: Optional[ChaosSpec] = None,
        exclude_nodes: Optional[Sequence[int]] = None,
        engine: str = "batch",
    ) -> None:
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        if on_node_error not in ("quarantine", "fail"):
            raise ValueError(
                "on_node_error must be 'quarantine' or 'fail', got "
                f"{on_node_error!r}"
            )
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.spec = spec
        self.workers = resolve_workers(workers)
        if cache is False:
            self.cache: Optional[ArtifactCache] = None
        elif cache is None:
            self.cache = default_cache() if cache_enabled() else None
        else:
            self.cache = cache
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.max_retries = int(max_retries)
        self.task_timeout = task_timeout
        self.on_node_error = on_node_error
        self.chaos = chaos if chaos is not None and chaos.active else None
        self.exclude_nodes: FrozenSet[int] = frozenset(
            exclude_nodes or ()
        )
        self.shard_size = (
            int(shard_size)
            if shard_size is not None
            else default_shard_size(len(self._run_ids()), self.workers)
        )
        self.engine = engine

    # ------------------------------------------------------------------
    def shards(self) -> List[Tuple[int, ...]]:
        """Node ids partitioned into contiguous shards.

        Excluded nodes are dropped *before* sharding, so an
        ``--exclude-nodes`` re-run packs the surviving ids into a
        different shard layout — which the determinism contract says
        must not matter.
        """
        ids = self._run_ids()
        return [
            tuple(ids[lo : lo + self.shard_size])
            for lo in range(0, len(ids), self.shard_size)
        ]

    def _run_ids(self) -> List[int]:
        return [
            i for i in range(self.spec.n_nodes)
            if i not in self.exclude_nodes
        ]

    def _shard_digest(self, node_ids: Sequence[int]) -> str:
        # Deliberately engine-independent: both executors are
        # bit-identical (oracle-guarded), so a checkpoint written by
        # either serves both.
        key = {
            "artifact": SHARD_KIND,
            "fleet": self.spec.describe(),
            "shard": list(node_ids),
        }
        if self.chaos is not None:
            # Chaos mutates outcomes (quarantines, retry counts):
            # never share checkpoints with clean runs.
            key["chaos"] = self.chaos.describe()
        return hash_key(key)

    # ------------------------------------------------------------------
    def _quarantine_shard(
        self, node_ids: Sequence[int], failure: TaskFailure
    ) -> List[FailedNode]:
        """Turn a permanently-failed *shard* into per-node records.

        Reached only under ``on_node_error="quarantine"`` when the
        supervisor gave up on the whole work item (timeout exhausted,
        worker died in isolation): blame cannot be pinned on one node,
        so every node of the shard is quarantined with the shard's
        failure reason.
        """
        return [
            FailedNode(
                node_id=node_id,
                policy=self.spec.node_spec(node_id).policy,
                graph_kind=self.spec.node_spec(node_id).graph_kind,
                error_type=failure.error_type,
                message=f"shard failed: {failure.message}",
                spec_digest=node_spec_digest(self.spec.node_spec(node_id)),
                retries=failure.retries,
            )
            for node_id in node_ids
        ]

    def _emit_quarantines(self, failed: Sequence[FailedNode]) -> None:
        if not self.observer.enabled:
            return
        for f in failed:
            self.observer.emit(NodeQuarantinedEvent(
                node_id=f.node_id,
                node_policy=f.policy,
                error_type=f.error_type,
                spec_digest=f.spec_digest,
                retries=f.retries,
                reason=(
                    f"{f.error_type} on every allowed attempt: "
                    f"{f.message}"
                ),
            ))

    @staticmethod
    def _load_checkpoint(cached):
        """Tolerant shard-checkpoint read.

        Pre-supervision checkpoints stored a bare summary list; the
        supervised format is ``(summaries, failed)``.  Anything else
        is a corrupt entry — reported as ``None`` (recompute).
        """
        if isinstance(cached, list):
            return cached, []
        if (
            isinstance(cached, tuple)
            and len(cached) == 2
            and isinstance(cached[0], list)
            and isinstance(cached[1], list)
        ):
            return cached
        return None

    def run(self) -> FleetResult:
        """Simulate every node; returns the aggregate.

        Checkpointed shards are loaded instead of recomputed; pending
        shards fan out over the supervised process pool, are
        checkpointed as they land, and emit their ``fleet_shard``
        event *at completion* (in completion order — this is the
        live-progress pulse).  Summaries always combine in node-id
        order, so the aggregate fingerprint is independent of all of
        this — including retries, quarantines and pool rebuilds.

        When the observer is enabled the run is traced: a ``fleet_run``
        root span whose context rides inside each worker payload, so
        shard/node spans from every process reassemble under one root.
        """
        shards = self.shards()
        if not shards:
            raise ValueError(
                "fleet has no nodes to run (everything excluded?)"
            )
        start = time.perf_counter()
        obs = self.observer
        if self.cache is not None:
            # Route this run's cache-write failures through the bus.
            self.cache.observer = obs
        tracer = getattr(obs, "tracer", None)
        if tracer is None:
            tracer = (
                obs.start_trace("fleet", self.spec.seed, self.spec.n_nodes)
                if obs.enabled
                else NULL_TRACER
            )
        plan: Optional[ChaosPlan] = (
            self.chaos.plan(
                [i for ids in shards for i in ids], len(shards)
            )
            if self.chaos is not None
            else None
        )
        ready: Dict[int, List[NodeSummary]] = {}
        failed_by_shard: Dict[int, List[FailedNode]] = {}
        pending: List[int] = []
        shard_aggs: dict = {}
        dmr_stream = P2Quantile(0.5)

        with tracer.span(
            "fleet_run",
            attrs={
                "n_nodes": self.spec.n_nodes,
                "num_shards": len(shards),
                "workers": self.workers,
            },
        ):
            for index, node_ids in enumerate(shards):
                cached = (
                    self._load_checkpoint(
                        self.cache.get(
                            SHARD_KIND, self._shard_digest(node_ids)
                        )
                    )
                    if self.cache is not None
                    else None
                )
                if cached is not None:
                    summaries, failed = cached
                    ready[index] = summaries
                    if failed:
                        failed_by_shard[index] = failed
                        self._emit_quarantines(failed)
                    with tracer.span(
                        "shard",
                        key=index,
                        attrs={
                            "shard_index": index,
                            "n_nodes": len(node_ids),
                            "cached": True,
                        },
                    ):
                        pass
                    for summary in summaries:
                        dmr_stream.add(summary.dmr)
                    if obs.enabled:
                        obs.emit(FleetShardEvent(
                            index, len(shards), node_ids, cached=True,
                            seconds=0.0,
                            p50_dmr_est=dmr_stream.estimate(-1.0),
                        ))
                else:
                    pending.append(index)

            wire = (
                tracer.context().to_wire() if tracer.enabled else None
            )

            def _landed(position: int, out) -> None:
                summaries, failed, seconds, records = out
                index = pending[position]
                ready[index] = summaries
                if failed:
                    failed_by_shard[index] = failed
                    self._emit_quarantines(failed)
                for record in records:
                    obs.emit_record(record)
                if self.cache is not None:
                    self.cache.put(
                        SHARD_KIND,
                        self._shard_digest(shards[index]),
                        (summaries, failed),
                    )
                for summary in summaries:
                    dmr_stream.add(summary.dmr)
                if obs.enabled:
                    obs.emit(FleetShardEvent(
                        index, len(shards), shards[index], cached=False,
                        seconds=seconds,
                        p50_dmr_est=dmr_stream.estimate(-1.0),
                    ))

            policy = SupervisorPolicy(
                max_retries=self.max_retries,
                task_timeout=self.task_timeout,
                backoff_seed=self.spec.seed,
                on_error=(
                    "fail" if self.on_node_error == "fail"
                    else "quarantine"
                ),
            )

            def _payload(item, attempt):
                # The supervisor re-dispatches with a fresh attempt
                # number; chaos keys first-attempt-only faults off it.
                return item[:-1] + (attempt,)

            base_items = [
                (
                    self.spec, shards[i], i, wire,
                    plan, self.max_retries, self.on_node_error,
                    self.engine, 0,
                )
                for i in pending
            ]
            sup = supervised_map(
                _run_shard,
                base_items,
                policy=policy,
                n_workers=self.workers,
                observer=obs,
                on_result=_landed,
                prepare=_payload,
                labels=[f"shard-{i}" for i in pending],
                # Chaos kills call os._exit in the worker: never run
                # them in this process.
                force_pool=plan is not None,
            )
            for failure in sup.failures:
                index = pending[failure.index]
                ready[index] = []
                failed = self._quarantine_shard(shards[index], failure)
                failed_by_shard[index] = failed
                self._emit_quarantines(failed)

        for index in sorted(ready):
            shard_aggs[index] = FleetAggregate.from_nodes(
                ready[index], failed_by_shard.get(index, ())
            )
        aggregate: Optional[FleetAggregate] = None
        for index in sorted(shard_aggs):
            aggregate = (
                shard_aggs[index]
                if aggregate is None
                else aggregate.merge(shard_aggs[index])
            )

        nodes = [s for index in sorted(ready) for s in ready[index]]
        failed_nodes = [
            f for index in sorted(failed_by_shard)
            for f in failed_by_shard[index]
        ]
        if not nodes:
            raise SupervisorError(
                [
                    TaskFailure(
                        index=f.node_id,
                        label=f"node-{f.node_id}",
                        error_type=f.error_type,
                        message=f.message,
                        retries=f.retries,
                    )
                    for f in failed_nodes
                ]
                or [
                    TaskFailure(
                        index=-1, label="fleet",
                        error_type="RuntimeError",
                        message="no healthy nodes", retries=0,
                    )
                ]
            )
        wall = time.perf_counter() - start
        result = FleetResult(
            nodes,
            config={
                **self.spec.describe(),
                "workers": self.workers,
                "shard_size": self.shard_size,
                "engine": self.engine,
                "shards": len(shards),
                "wall_time_s": wall,
                "nodes_per_s": len(nodes) / wall if wall > 0 else 0.0,
                "max_retries": self.max_retries,
                "task_timeout": self.task_timeout,
                "on_node_error": self.on_node_error,
                "supervisor": {
                    "retries": sup.retries,
                    "timeouts": sup.timeouts,
                    "pool_rebuilds": sup.pool_rebuilds,
                },
                **(
                    {"chaos": self.chaos.describe()}
                    if self.chaos is not None
                    else {}
                ),
                **(
                    {"exclude_nodes": sorted(self.exclude_nodes)}
                    if self.exclude_nodes
                    else {}
                ),
            },
            aggregate=aggregate,
            failed_nodes=failed_nodes,
        )
        self.observer.finish(
            result_summary=result.summary(), scheduler="fleet"
        )
        return result


def run_fleet(
    spec: FleetSpec,
    workers: Optional[int] = None,
    shard_size: Optional[int] = None,
    cache=None,
    observer: Optional[Observer] = None,
    max_retries: int = 2,
    task_timeout: Optional[float] = None,
    on_node_error: str = "quarantine",
    chaos: Optional[ChaosSpec] = None,
    exclude_nodes: Optional[Sequence[int]] = None,
    engine: str = "batch",
) -> FleetResult:
    """One-call convenience wrapper around :class:`FleetRunner`."""
    return FleetRunner(
        spec,
        workers=workers,
        shard_size=shard_size,
        cache=cache,
        observer=observer,
        max_retries=max_retries,
        task_timeout=task_timeout,
        on_node_error=on_node_error,
        chaos=chaos,
        exclude_nodes=exclude_nodes,
        engine=engine,
    ).run()
