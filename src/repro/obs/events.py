"""Structured event bus for the simulator.

Every consequential moment of a run has a typed event: the per-slot
scheduling decision, a deadline miss, a brownout, a capacitor-switch
attempt (accepted *or* rejected by the Eq. 22 threshold), the coarse
stage's per-period output, and the δ-rule fallback to the cheap
inter-task pass.  Emitters build the event and hand it to
:meth:`Observer.emit`, which stamps it with the simulation clock,
bumps the counters the event class names, and fans the record out to
sinks.  A new kind of event is one dataclass: its fields are the
record schema, its class attributes say which counter it bumps and
how it is stamped.

The default observer is :data:`NULL_OBSERVER`: disabled, no sinks.
Emitters on a hot path guard with ``if observer.enabled:`` so a
disabled observer costs one boolean check and builds no event — the
instrumented engine with observability off is behaviourally and
numerically identical to an uninstrumented one (guarded by test).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .sketch import CounterBag

__all__ = [
    "Event",
    "SlotDecisionEvent",
    "DeadlineMissEvent",
    "BrownoutEvent",
    "CapacitorSwitchEvent",
    "CoarseDecisionEvent",
    "DeltaFallbackEvent",
    "PeriodEndEvent",
    "FaultInjectionEvent",
    "PolicyFallbackEvent",
    "FaultScenarioEvent",
    "CheckpointEvent",
    "FleetShardEvent",
    "PoolDecisionEvent",
    "TaskRetryEvent",
    "WorkerLostEvent",
    "ShardTimeoutEvent",
    "NodeQuarantinedEvent",
    "CacheWriteFailedEvent",
    "KNOWN_RECORD_KINDS",
    "Observer",
    "NULL_OBSERVER",
]


def _json_safe(value):
    """Coerce numpy scalars / tuples to plain JSON types."""
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


#: Field annotation -> JSON coercion applied when a record is built, so
#: a numpy scalar or an ``int`` passed for a ``float`` field serialises
#: exactly as the schema says (``1.0``, never ``1``).
_COERCE: Dict[str, Callable] = {
    "int": int,
    "float": float,
    "bool": bool,
    "str": str,
    "Tuple[int, ...]": lambda v: [int(x) for x in v],
    "Tuple[str, ...]": lambda v: [str(x) for x in v],
}


@functools.lru_cache(maxsize=None)
def _layout(cls) -> Tuple[Tuple[str, Callable], ...]:
    """``(field name, coercion)`` of an event class, in schema order."""
    return tuple((f.name, _COERCE[f.type]) for f in dataclasses.fields(cls))


def _flush(sinks: Iterable) -> None:
    for sink in sinks:
        flush = getattr(sink, "flush", None)
        if flush is not None:
            flush()


@dataclasses.dataclass(frozen=True)
class Event:
    """Base of every typed event; subclasses add the payload fields.

    A record is ``kind``, then the clock stamp ``day``/``period``/
    ``slot``, then the payload fields in declaration order.  ``clock``
    says how :meth:`Observer.emit` stamps it: ``"slot"`` with the
    observer's full clock, ``"period"`` with ``slot = -1``, ``None``
    with ``-1, -1, -1`` (fleet, pool and cache events happen outside
    any simulated run).  A slot equal to the timeline's
    ``slots_per_period`` marks the end-of-period boundary (where final
    deadline checks run).
    """

    kind = "event"
    #: Counter bumped by one per emitted event (see :meth:`counts`).
    counter = ""
    clock = "slot"
    #: Flush every sink after writing this event.
    flushes = False

    def counts(self) -> Optional[Tuple[Tuple[str, int], ...]]:
        """``(counter, increment)`` pairs; ``None`` drops the event."""
        return ((self.counter, 1),)

    def record(self, day: int, period: int, slot: int) -> Dict[str, object]:
        """The JSON-ready record, stamped with the given clock."""
        rec: Dict[str, object] = {
            "kind": self.kind, "day": day, "period": period, "slot": slot,
        }
        for name, coerce in _layout(type(self)):
            rec[name] = coerce(getattr(self, name))
        return rec


@dataclasses.dataclass(frozen=True)
class SlotDecisionEvent(Event):
    """One per simulated slot: what ran and how the slot went."""

    kind = "slot_decision"
    counter = "slots_simulated_total"

    ready: Tuple[int, ...]
    chosen: Tuple[int, ...]
    solar_power: float
    load_power: float
    run_fraction: float


@dataclasses.dataclass(frozen=True)
class DeadlineMissEvent(Event):
    """Tasks newly marked missed at this slot boundary (Eq. 5)."""

    kind = "deadline_miss"
    counter = "deadline_misses_total"

    tasks: Tuple[int, ...]
    final: bool = False  # True for the end-of-period sweep

    def counts(self):
        # One count per missed task; a sweep that found none is no event.
        return ((self.counter, len(self.tasks)),) if self.tasks else None


@dataclasses.dataclass(frozen=True)
class BrownoutEvent(Event):
    """Storage could not cover the deficit; the load ran partially."""

    kind = "brownout"
    counter = "brownout_slots_total"

    run_fraction: float
    needed_energy: float
    delivered_energy: float
    active_index: int
    active_voltage: float


@dataclasses.dataclass(frozen=True)
class CapacitorSwitchEvent(Event):
    """A capacitor selection attempt at the PMU.

    ``accepted`` is the Eq. (22) outcome; ``forced`` marks the
    unconditional path used by offline/oracle schedulers.
    """

    kind = "capacitor_switch"
    counter = "capacitor_switch_attempts_total"

    previous: int
    requested: int
    accepted: bool
    forced: bool
    active_usable_energy: float
    threshold: float

    def counts(self):
        accepted = (("capacitor_switches_accepted_total", 1),)
        return ((self.counter, 1),) + (accepted if self.accepted else ())


@dataclasses.dataclass(frozen=True)
class CoarseDecisionEvent(Event):
    """Per-period coarse output: capacitor, α, task subset, fine mode."""

    kind = "coarse_decision"
    counter = "coarse_decisions_total"
    clock = "period"

    cap_index: int
    alpha: float
    intra_mode: bool
    task_subset: Tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class DeltaFallbackEvent(Event):
    """``|1 - α| > δ``: the cheap inter-task pass replaces intra-task."""

    kind = "delta_fallback"
    counter = "delta_fallbacks_total"
    clock = "period"

    alpha: float
    delta: float


@dataclasses.dataclass(frozen=True)
class FaultInjectionEvent(Event):
    """A runtime fault window activated or deactivated.

    ``phase`` is ``"start"`` when the window begins and ``"end"`` when
    it clears; ``target`` is the affected capacitor index for
    component-level faults, ``-1`` otherwise.
    """

    kind = "fault_injected"
    counter = "faults_injected_total"

    fault: str
    phase: str
    severity: float
    target: int
    duration_slots: int

    def counts(self):
        # An activation counts; its matching "end" record does not.
        return ((self.counter, 1),) if self.phase == "start" else ()


@dataclasses.dataclass(frozen=True)
class PolicyFallbackEvent(Event):
    """The online coarse stage degraded instead of crashing.

    ``stage`` names the rung of the degradation ladder that handled
    the failure: ``retry``, ``fallback_policy``, ``inter_task_only``
    or ``quarantine``.
    """

    kind = "policy_fallback"
    counter = "policy_fallbacks_total"
    clock = "period"

    stage: str
    reason: str
    failure_streak: int


@dataclasses.dataclass(frozen=True)
class FaultScenarioEvent(Event):
    """A pre-run trace-degradation scenario was applied."""

    kind = "fault_scenario"
    counter = "fault_scenarios_applied_total"
    clock = "period"

    scenario: str
    faults: Tuple[str, ...]
    lost_energy_fraction: float


@dataclasses.dataclass(frozen=True)
class CheckpointEvent(Event):
    """A crash-safe simulation checkpoint was written.

    A checkpoint marks durable progress, so every sink is flushed after
    it: the trace never trails the resumable state.
    """

    kind = "checkpoint"
    counter = "checkpoints_written_total"
    clock = "period"
    flushes = True

    path: str
    flat_period: int


@dataclasses.dataclass(frozen=True)
class FleetShardEvent(Event):
    """One shard of a fleet run finished (computed or checkpoint hit).

    Fleet events carry no simulation clock — shards span whole runs.
    """

    kind = "fleet_shard"
    counter = "fleet_shards_total"
    clock = None

    shard_index: int
    num_shards: int
    node_ids: Tuple[int, ...]
    cached: bool
    seconds: float
    #: Median node DMR of every shard landed so far, read off the
    #: runner's running DMR histogram; ``-1.0`` when no node has landed.
    p50_dmr_est: float = -1.0

    def counts(self):
        hit = (("fleet_shard_cache_hits_total", 1),) if self.cached else ()
        nodes = ("fleet_nodes_total", len(self.node_ids))
        return ((self.counter, 1),) + hit + (nodes,)


@dataclasses.dataclass(frozen=True)
class PoolDecisionEvent(Event):
    """How :func:`repro.reliability.supervisor.supervised_map` planned
    a fan-out.

    ``mode`` is ``"pool"`` or ``"serial"``; ``reason`` is the
    human-readable why (tiny job list, single-CPU host, a timeout that
    needs process isolation, ...).  ``cpu_count`` is the CPUs this
    process may run on (its affinity mask), not the host's core count.
    No simulation clock — planning happens outside any run.
    """

    kind = "pool_decision"
    counter = "pool_decisions_total"
    clock = None

    requested: int
    cpu_count: int
    items: int
    workers: int
    mode: str
    reason: str


@dataclasses.dataclass(frozen=True)
class TaskRetryEvent(Event):
    """The supervisor re-dispatched a failed or timed-out pool task.

    ``attempt`` is the 0-based attempt that just failed; ``reason`` is
    the structured why (``raised``, ``worker_lost``, ``timeout``) and
    ``error_type`` the exception class name when one was raised.  No
    simulation clock — supervision happens outside any run.
    """

    kind = "task_retry"
    counter = "task_retries_total"
    clock = None

    label: str
    index: int
    attempt: int
    reason: str
    error_type: str = ""
    backoff_s: float = 0.0


@dataclasses.dataclass(frozen=True)
class WorkerLostEvent(Event):
    """A pool worker died (``BrokenProcessPool``); the pool was rebuilt.

    ``inflight`` counts the tasks that were in flight when the pool
    broke — each is re-dispatched into the rebuilt pool.
    """

    kind = "worker_lost"
    counter = "workers_lost_total"
    clock = None

    label: str
    inflight: int
    rebuilds: int
    reason: str

    def counts(self):
        # A lost worker always costs a pool rebuild.
        return ((self.counter, 1), ("pool_rebuilds_total", 1))


@dataclasses.dataclass(frozen=True)
class ShardTimeoutEvent(Event):
    """A supervised task exceeded its per-task timeout.

    The worker running it cannot be cancelled cooperatively, so the
    pool is rebuilt and every in-flight task re-dispatched; only the
    expired task is charged an attempt.
    """

    kind = "shard_timeout"
    counter = "shard_timeouts_total"
    clock = None

    label: str
    index: int
    attempt: int
    timeout_s: float
    reason: str


@dataclasses.dataclass(frozen=True)
class NodeQuarantinedEvent(Event):
    """A fleet node's simulation raised and was quarantined.

    The node becomes a structured ``FailedNode`` record on the fleet
    result instead of aborting the shard; ``spec_digest`` pins the
    node configuration that failed, ``retries`` how many in-shard
    re-attempts were made before giving up.
    """

    kind = "node_quarantined"
    counter = "nodes_quarantined_total"
    clock = None

    node_id: int
    node_policy: str
    error_type: str
    spec_digest: str
    retries: int
    reason: str


@dataclasses.dataclass(frozen=True)
class CacheWriteFailedEvent(Event):
    """An artifact-cache write failed (read-only or full disk).

    The write degrades to a logged cache-miss — the artifact is simply
    recomputed next time — rather than crashing the run.
    """

    kind = "cache_write_failed"
    counter = "cache_write_failures_total"
    clock = None

    artifact_kind: str
    digest: str
    reason: str


@dataclasses.dataclass(frozen=True)
class PeriodEndEvent(Event):
    """Aggregate outcome of one period."""

    kind = "period_end"
    counter = "periods_simulated_total"
    clock = "period"

    dmr: float
    miss_count: int
    brownout_slots: int
    solar_energy: float
    load_energy: float


class Observer:
    """Event bus + counters for one or more runs.

    Parameters
    ----------
    sinks:
        Objects with ``write(record: dict)`` (see :mod:`repro.obs.sinks`);
        optionally ``flush()`` / ``close()``.
    enabled:
        Defaults to True; :data:`NULL_OBSERVER` is the disabled
        singleton the engine uses when no observer is passed.
    """

    def __init__(self, sinks: Sequence = (), enabled: bool = True) -> None:
        self.sinks: List = list(sinks)
        self.enabled = enabled
        self.metrics = CounterBag()
        self.tracer = None
        self.day = -1
        self.period = -1
        self.slot = -1

    # ------------------------------------------------------------------
    def set_time(self, day: int, period: int, slot: int = -1) -> None:
        """Advance the simulation clock used to stamp events."""
        self.day = day
        self.period = period
        self.slot = slot

    def emit(self, event: Event) -> None:
        """Count, clock-stamp and fan one event out to every sink."""
        if not self.enabled:
            return
        counts = event.counts()
        if counts is None:
            return
        for name, amount in counts:
            if amount < 0:
                raise ValueError(
                    f"counter increment must be >= 0, got {amount}"
                )
            self.metrics.inc(name, amount)
        if event.clock == "slot":
            record = event.record(self.day, self.period, self.slot)
        elif event.clock == "period":
            record = event.record(self.day, self.period, -1)
        else:
            record = event.record(-1, -1, -1)
        for sink in self.sinks:
            sink.write(record)
        if event.flushes:
            _flush(self.sinks)

    def emit_record(self, record: Dict[str, object]) -> None:
        """Fan a raw record dict out (span records, worker re-emits)."""
        if not self.enabled:
            return
        for sink in self.sinks:
            sink.write(record)

    def start_trace(self, name: str, *parts):
        """Attach a :class:`~repro.obs.trace.Tracer` with a derived id.

        Span records flow through :meth:`emit_record` into the same
        sinks as events.  Returns the disabled
        :data:`~repro.obs.trace.NULL_TRACER` when this observer is
        off, so callers can use the result unconditionally.
        """
        from .trace import NULL_TRACER, Tracer, derive_trace_id

        if not self.enabled:
            return NULL_TRACER
        self.tracer = Tracer(self.emit_record, derive_trace_id(name, *parts))
        return self.tracer

    # ------------------------------------------------------------------
    def finish(
        self,
        result_summary: Optional[Dict[str, float]] = None,
        scheduler: Optional[str] = None,
    ) -> None:
        """Write the ``run_summary`` trailer record and flush sinks.

        The trailer carries the counters and the run's headline
        numbers — this is what ``repro obs summarize`` renders without
        re-running anything.  Timing lives in the ``span`` records
        (``repro obs trace``), not here.
        """
        if not self.enabled:
            return
        record: Dict[str, object] = {
            "kind": "run_summary",
            "scheduler": scheduler,
            "result": _json_safe(result_summary) if result_summary else {},
            "metrics": {"counters": dict(self.metrics.items())},
        }
        for sink in self.sinks:
            sink.write(record)
        _flush(self.sinks)

    def close(self) -> None:
        """Close every sink that supports it."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


#: Disabled singleton: the engine's default when no observer is given.
NULL_OBSERVER = Observer(sinks=(), enabled=False)

#: Every record kind this build can emit: the typed events above plus
#: the ``run_summary`` trailer and ``span`` trace records.  The
#: summarize surface skips-and-counts anything outside this set, so
#: traces from newer builds degrade gracefully instead of failing.
KNOWN_RECORD_KINDS = frozenset(
    cls.kind for cls in Event.__subclasses__()
) | {"run_summary", "span"}
