"""Fleet execution: shard nodes over the process pool, checkpoint shards.

A :class:`FleetRunner` expands a :class:`~repro.fleet.spec.FleetSpec`
into shards of node ids and fans them out over the supervised pool,
:func:`repro.reliability.supervisor.supervised_map`.  The parent expands
every running node's :class:`~repro.fleet.spec.NodeSpec` once, from
``(fleet seed, node id)``, and each shard is a small picklable work
item ``(spec, node_specs, shard_index, span_context, ...)``; the
worker rebuilds the base trace (and, when a ``proposed`` node needs
it, the DBN training trace) once, simulates every node inside
``shard``/``batch`` spans and returns one
:class:`~repro.fleet.result.NodeSummary` per node plus its collected
span records.

Shards are planned for the batched engine, whose per-slot numpy
dispatch amortizes over the shard width (:func:`default_shard_size`):
a serial run is one shard, a pool one shard per worker (a multiple of
the worker count once :data:`MAX_SHARD_SIZE` caps the width), cut
from the ascending node ids by :func:`plan_shards`.

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
seed, node id)``; summaries are combined in node-id order, whatever
the shard layout; therefore ``FleetResult.fingerprint()`` is
bit-identical for any worker count or shard size.  Every node
advances through the node-major batched engine (:mod:`repro.sim.batch`)
via :func:`simulate_shard_batch`.  The per-node engine runs a fleet
node only as the reference every batched summary must equal (guarded
by tests and by the batched-vs-per-node oracle, which calls the
executor and that reference).

Execution is *supervised* (:mod:`repro.reliability.supervisor`): a
node whose case build raises, or whose batch still raises once
bisection has isolated it, is retried in its worker and then
quarantined into a :class:`~repro.fleet.result.FailedNode` record
instead of aborting the run (``on_node_error="quarantine"``, the
default; ``"fail"`` restores abort-on-first-error), hung shards are
re-dispatched under ``task_timeout``, and dead workers rebuild the
pool.  A degraded run keeps the determinism contract over the
*healthy subset*: the fingerprint equals a fault-free run of the same
fleet restricted to the same healthy node ids (``exclude_nodes``),
whatever the worker count.  The
:class:`~repro.reliability.chaos.ChaosSpec` hook injects worker kills,
hangs and poison nodes deterministically to prove it.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..energy.capacitor import SuperCapacitor
from ..node.node import SensorNode
from ..obs.events import (
    NULL_OBSERVER,
    FleetShardEvent,
    NodeQuarantinedEvent,
    Observer,
)
from ..obs.trace import (
    NULL_TRACER,
    activate,
    collecting_tracer,
    current_tracer,
)
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
from ..sim.recorder import SimulationResult
from ..verify.strategies import build_graph
from .result import FailedNode, FleetAggregate, FleetResult, NodeSummary
from .spec import FleetSpec, NodeSpec, node_trace

__all__ = [
    "MAX_SHARD_SIZE",
    "MIN_SHARD_SIZE",
    "FleetRunner",
    "default_shard_size",
    "node_spec_digest",
    "plan_shards",
    "simulate_node",
    "simulate_shard_batch",
]

#: Bounds of the default shard size.  Below 32 nodes the batched
#: engine's per-slot numpy dispatch dominates.  Its cost per node-slot,
#: engine plus summaries, keeps falling with the width: 9.86, 6.17,
#: 4.25, 3.32, 2.82 and 2.54 us at 32, 64, 128, 256, 512 and 1024 nodes
#: (1024-node fleet, seed 0, best of 3, 2-vCPU VM).  A batched run keeps
#: its period outcomes in one node-major table and a row is summarized
#: straight from its columns, so a wider shard adds no per-row heap.
#: The cap is 256 because checkpoints and load balance coarsen with the
#: width.
MIN_SHARD_SIZE = 32
MAX_SHARD_SIZE = 256


def default_shard_size(n_nodes: int, workers: int) -> int:
    """Nodes per work item when the caller does not choose.

    A serial run (``workers <= 1``) takes every node in one shard.  A
    pool takes ``workers * ceil(n_nodes / (workers * MAX_SHARD_SIZE))``
    shards of ``ceil(n_nodes / shards)`` nodes: one shard per worker,
    each as wide as the batched engine can make it, unless the cap
    forces a multiple of the worker count (600 nodes on 2 workers are
    4 shards of 150).  Either way the size is clamped to
    ``[MIN_SHARD_SIZE, MAX_SHARD_SIZE]``, so a small pool fleet may get
    fewer shards than workers.  ``n_nodes`` counts only the nodes that
    run.  Never affects results, only wall-clock.
    """
    if workers <= 1:
        per_shard = n_nodes
    else:
        shards = workers * math.ceil(n_nodes / (workers * MAX_SHARD_SIZE))
        per_shard = math.ceil(n_nodes / shards)
    return min(MAX_SHARD_SIZE, max(MIN_SHARD_SIZE, per_shard))


def plan_shards(
    specs: Sequence[NodeSpec], shard_size: int
) -> List[Tuple[NodeSpec, ...]]:
    """Cut ascending node specs into contiguous shards of ``shard_size``.

    The remainder goes last.  Never affects results, only wall-clock.
    """
    return [
        tuple(specs[lo : lo + shard_size])
        for lo in range(0, len(specs), shard_size)
    ]


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

    Shared by the batched executor and the per-node reference so both
    derive the fingerprint (and every aggregate input) identically.  Every
    number is read from the row's period-table columns; no
    :class:`~repro.sim.recorder.PeriodRecord` is built.
    """
    fingerprint = result_fingerprint(result)
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
        fingerprint=fingerprint,
    )


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
    """Build the :class:`~repro.sim.batch.BatchCase` for one node.

    The one place a node's bank is derived: a ``proposed`` node runs on
    its trained policy's sized bank (and, through ``trained``, its
    ``E_th``), every other node on ``spec.bank_farads``.  Both engines
    run this case.  No node gets a DVFS model, so a ``dvfs`` node runs
    the levels its scheduler picks at 1.0 (ROADMAP item 1).
    """
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


def _simulate_case(case) -> SimulationResult:
    """Run one :class:`~repro.sim.batch.BatchCase` on the per-node engine.

    The scalar reference of :func:`~repro.sim.batch.simulate_batch`:
    a :class:`SensorNode` with the case's bank (and its trained
    ``E_th``, if any), a fresh scheduler, non-strict validation.
    """
    node_kwargs = {}
    if case.trained is not None:
        node_kwargs["switch_threshold"] = case.trained.switch_threshold
    node = SensorNode(
        list(case.capacitors), num_nvps=case.graph.num_nvps, **node_kwargs
    )
    scheduler = make_scheduler(
        case.policy, case.scheduler_seed, case.trained
    )
    return simulate(node, case.graph, case.trace, scheduler, strict=False)


def simulate_node(
    fleet: FleetSpec, base_trace, spec: NodeSpec, trained=None
) -> NodeSummary:
    """Simulate one fleet node on the per-node engine; its summary.

    Pure function of the fleet spec, the shared base trace and the
    node spec — no global state, safe in any worker process.  This is
    the per-node reference every batched summary must equal.
    ``trained`` lets a caller that simulates many ``proposed`` nodes
    pass the workload's :class:`~repro.core.offline.TrainedPolicy` in
    instead of loading it per node; it never changes the summary.
    """
    graph = build_graph(spec.graph_kind)
    if spec.policy == "proposed" and trained is None:
        trained = _proposed_policy(fleet, spec.graph_kind)
    case = _batch_case(spec, graph, base_trace, trained)
    return _summarize(spec, graph, _simulate_case(case))


def node_spec_digest(spec: NodeSpec) -> str:
    """Content digest of one node's exact configuration.

    Recorded on every :class:`~repro.fleet.result.FailedNode` so a
    quarantined node can be reproduced in isolation from its fleet.
    """
    import dataclasses

    return hash_key(
        {"artifact": "node-spec", **dataclasses.asdict(spec)}
    )


def _failed_node(
    spec: NodeSpec, error_type: str, message: str, retries: int
) -> FailedNode:
    return FailedNode(
        node_id=spec.node_id,
        policy=spec.policy,
        graph_kind=spec.graph_kind,
        error_type=error_type,
        message=message,
        spec_digest=node_spec_digest(spec),
        retries=retries,
    )


def _attempt(step, retries: int):
    """Call ``step()`` up to ``1 + retries`` times; ``(value, error)``.

    ``error`` is ``None`` on success, else the last attempt's
    exception.  Retries are immediate: the engine is deterministic,
    they absorb environmental interference.
    """
    error = None
    for _ in range(retries + 1):
        try:
            return step(), None
        except Exception as exc:
            error = exc
    return None, error


def simulate_shard_batch(
    fleet: FleetSpec,
    base_trace,
    specs: Iterable[NodeSpec],
    shard_index: Optional[int] = None,
    chaos: Optional[ChaosPlan] = None,
    attempt: int = 0,
    node_retries: int = 0,
    on_node_error: str = "fail",
) -> Tuple[Dict[int, NodeSummary], List[FailedNode]]:
    """Run a shard's nodes through the batched engine, isolating failures.

    The fleet's one executor.  Each node's case is built in its own
    guarded step (``chaos.on_node_start(node_id, attempt)``, its policy
    load, :func:`_batch_case`) under a ``batch_cases`` span; the cases
    then advance through :func:`_run_batch` under a ``batch`` span of
    the ambient tracer keyed by ``shard_index``.  A build, or a batch
    of one, that raises is retried ``node_retries`` times and then
    quarantined (``on_node_error="quarantine"``) or re-raised
    (``"fail"``).

    Returns ``(summaries, failed)``: the healthy nodes' summaries by
    node id, in ``specs`` order, each bit-identical to the per-node
    reference's (the batched-vs-per-node oracle holds this contract),
    and one :class:`~repro.fleet.result.FailedNode` per quarantined
    node.
    """
    specs = list(specs)
    policy_of = _shard_policies(fleet)
    tracer = current_tracer()
    done: Dict[int, NodeSummary] = {}
    failed: List[FailedNode] = []

    def give_up(spec: NodeSpec, exc: Exception) -> None:
        if on_node_error == "fail":
            raise exc
        failed.append(
            _failed_node(spec, type(exc).__name__, str(exc), node_retries)
        )

    def build(spec: NodeSpec, graph):
        if chaos is not None:
            chaos.on_node_start(spec.node_id, attempt)
        return _batch_case(spec, graph, base_trace, policy_of(spec))

    with tracer.span(
        "batch",
        key=shard_index,
        attrs={"shard_index": shard_index, "n_nodes": len(specs)},
    ) as span:
        rows = []
        with tracer.span("batch_cases"):
            for spec in specs:
                graph = build_graph(spec.graph_kind)
                case, exc = _attempt(
                    functools.partial(build, spec, graph), node_retries
                )
                if exc is None:
                    rows.append((spec, graph, case))
                else:
                    give_up(spec, exc)
        _run_batch(rows, span, node_retries, give_up, done)
    return done, failed


def _run_batch(rows, span, node_retries: int, give_up, done) -> None:
    """Advance ``(spec, graph, case)`` rows through one batch, bisecting.

    Summaries land in ``done`` in row order.  If
    :func:`~repro.sim.batch.simulate_batch` raises, ``span`` is
    annotated ``failed`` and the two halves re-run, recursively, each
    in a child ``batch`` span keyed ``(first node id, width)``.  This is
    exact: a row's result does not depend on its neighbours.  A lone
    row gets ``node_retries`` re-runs before ``give_up(spec, error)``.
    """
    from ..sim.batch import simulate_batch

    results, exc = _attempt(
        functools.partial(simulate_batch, [case for _, _, case in rows]),
        node_retries if len(rows) == 1 else 0,
    )
    if exc is None:
        span.annotate(n_batched=len(results))
        for (spec, graph, _), result in zip(rows, results):
            done[spec.node_id] = _summarize(spec, graph, result)
        return
    span.annotate(failed=True, error_type=type(exc).__name__)
    if len(rows) == 1:
        give_up(rows[0][0], exc)
        return
    half = len(rows) // 2
    for part in (rows[:half], rows[half:]):
        with current_tracer().span(
            "batch",
            key=(part[0][0].node_id, len(part)),
            attrs={"n_nodes": len(part)},
        ) as child:
            _run_batch(part, child, node_retries, give_up, done)


def _run_shard(item):
    """Worker entry point: simulate one shard of nodes, supervised.

    Module-level (picklable) on purpose; rebuilds the shared base trace
    (and the training trace, if a ``proposed`` node needs it) once per
    shard rather than shipping the power arrays per item.

    The work item is ``(spec, node_specs, shard_index, ctx_wire,
    chaos_plan, node_retries, on_node_error, attempt)``: ``node_specs``
    are the shard's :class:`~repro.fleet.spec.NodeSpec`, expanded once
    by the parent and ascending by node id; ``ctx_wire``
    is the parent's serialized span context (or ``None`` when
    untraced) and ``attempt`` is the supervisor's re-dispatch count
    (chaos keys first-attempt-only faults off it).  The worker opens a
    ``shard`` span keyed by the shard index — explicit keys, so the
    span ids are identical whichever process (or attempt) runs the
    shard — and returns the collected span records with the summaries
    for the parent to re-emit.

    Every node runs through :func:`simulate_shard_batch`, chaos runs
    included: a chaos hook fires while its node's case is built, so a
    poisoned node is quarantined there and a hung one trips the
    supervisor's ``task_timeout`` before the batch starts.  Returns
    ``(summaries, failed, seconds, records)``, the summaries in
    ``node_specs`` order.
    """
    (
        fleet, specs, shard_index, ctx_wire,
        chaos, node_retries, on_node_error, attempt,
    ) = item
    if chaos is not None:
        chaos.on_shard_start(shard_index, attempt)
    start = time.perf_counter()
    tracer, records = collecting_tracer(ctx_wire)
    with activate(tracer):
        with tracer.span(
            "shard",
            key=shard_index,
            attrs={"shard_index": shard_index, "n_nodes": len(specs)},
        ):
            # Inside the span, so the weather is attributed in every
            # worker.
            done, failed = simulate_shard_batch(
                fleet, fleet.base_trace(), specs,
                shard_index=shard_index, chaos=chaos, attempt=attempt,
                node_retries=node_retries, on_node_error=on_node_error,
            )
    seconds = time.perf_counter() - start
    return list(done.values()), failed, seconds, records


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
        nodes that run and the worker count); :func:`plan_shards` lays
        the nodes out.  Never affects results.
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
        Supervisor re-dispatches per shard (and in-worker retries of a
        node's case build or of its isolated batch) beyond the first
        attempt.
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
        summaries of the nodes that do run.  An id outside
        ``[0, spec.n_nodes)`` is a ``ValueError``: a mistyped subset
        would otherwise run a different fleet without a word.
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
    ) -> None:
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
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
        outside = sorted(
            i for i in self.exclude_nodes if not 0 <= i < spec.n_nodes
        )
        if outside:
            raise ValueError(
                f"exclude_nodes {outside} outside the fleet's node ids "
                f"0..{spec.n_nodes - 1}"
            )
        self.shard_size = (
            int(shard_size)
            if shard_size is not None
            else default_shard_size(len(self._run_ids()), self.workers)
        )

    # ------------------------------------------------------------------
    def shards(self) -> List[Tuple[int, ...]]:
        """Each shard's node ids, as :func:`plan_shards` lays them out.

        Excluded nodes are dropped *before* sharding, so an
        ``--exclude-nodes`` re-run packs the surviving ids into a
        different shard layout — which the determinism contract says
        must not matter.
        """
        return [self._ids(shard) for shard in self._plan()]

    def _plan(self) -> List[Tuple[NodeSpec, ...]]:
        """Every running node's spec, expanded once, in its shard."""
        return plan_shards(
            [self.spec.node_spec(i) for i in self._run_ids()],
            self.shard_size,
        )

    @staticmethod
    def _ids(specs: Sequence[NodeSpec]) -> Tuple[int, ...]:
        return tuple(spec.node_id for spec in specs)

    def _run_ids(self) -> List[int]:
        return [
            i for i in range(self.spec.n_nodes)
            if i not in self.exclude_nodes
        ]

    def _shard_digest(self, node_ids: Sequence[int]) -> str:
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
    @staticmethod
    def _quarantine_shard(
        specs: Sequence[NodeSpec], failure: TaskFailure
    ) -> List[FailedNode]:
        """Turn a permanently-failed *shard* into per-node records.

        Reached only under ``on_node_error="quarantine"`` when the
        supervisor gave up on the whole work item (timeout exhausted,
        worker died in isolation): blame cannot be pinned on one node,
        so every node of the shard is quarantined with the shard's
        failure reason.
        """
        return [
            _failed_node(
                spec, failure.error_type,
                f"shard failed: {failure.message}", failure.retries,
            )
            for spec in specs
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

        A checkpoint is ``(summaries, failed)``.  Anything else is a
        corrupt entry — reported as ``None`` (recompute and rewrite).
        """
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
        live-progress pulse) with the running DMR median of every shard
        folded so far.  Summaries always combine in node-id order, so
        the fingerprint is independent of all of this — including
        retries, quarantines and pool rebuilds — and the population
        histograms fold exactly in any order.

        When the observer is enabled the run is traced: a ``fleet_run``
        root span whose context rides inside each worker payload, so
        shard/batch spans from every process reassemble under one root.
        """
        planned = self._plan()
        shards = [self._ids(shard) for shard in planned]
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
        aggregate = FleetAggregate()

        def _fold(summaries: List[NodeSummary]) -> float:
            """Merge one landed shard; return the running DMR median."""
            nonlocal aggregate
            aggregate = aggregate.merge(FleetAggregate.from_nodes(summaries))
            return (
                aggregate.dmr.quantile(0.5) if aggregate.n_nodes else -1.0
            )

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
                    p50 = _fold(summaries)
                    if obs.enabled:
                        obs.emit(FleetShardEvent(
                            index, len(shards), node_ids, cached=True,
                            seconds=0.0, p50_dmr_est=p50,
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
                p50 = _fold(summaries)
                if obs.enabled:
                    obs.emit(FleetShardEvent(
                        index, len(shards), shards[index], cached=False,
                        seconds=seconds, p50_dmr_est=p50,
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
                    self.spec, planned[i], i, wire,
                    plan, self.max_retries, self.on_node_error, 0,
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
                failed = self._quarantine_shard(planned[index], failure)
                failed_by_shard[index] = failed
                self._emit_quarantines(failed)

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
        if obs.enabled:
            obs.finish(result_summary=result.summary(), scheduler="fleet")
        return result

