"""Observability for the simulator and experiment harness.

Zero-dependency tracing, metrics, profiling and run provenance:

* :mod:`repro.obs.events` — typed events and the bus that records
  them: ``observer.emit(event)`` stamps the simulation clock, bumps
  the counters the event class names and fans the record out to sinks;
  :data:`NULL_OBSERVER` is the disabled default the engine uses when
  no observer is supplied (call sites guard with ``observer.enabled``,
  so it costs one boolean check);
* :mod:`repro.obs.metrics` — counters/gauges/histograms;
* :mod:`repro.obs.profile` — per-phase wall-time profiling;
* :mod:`repro.obs.sinks` — JSONL trace files, ring buffers, console
  summaries, and the ``repro obs summarize`` renderer;
* :mod:`repro.obs.manifest` — reproducibility manifests written next
  to experiment results;
* :mod:`repro.obs.trace` — hierarchical spans with deterministic ids
  that survive process boundaries (``repro obs trace`` reassembles a
  multi-worker run into one rooted tree);
* :mod:`repro.obs.sketch` — memory-bounded mergeable aggregates
  (counters, fixed-bin histograms, P² quantiles) with an associative
  ``merge()`` for shard → fleet fold-ins.

Quickstart::

    from repro.obs import Observer, JsonlSink

    obs = Observer(sinks=[JsonlSink("trace.jsonl")])
    result = simulate(node, graph, trace, scheduler, observer=obs)
    obs.finish(result.summary(), scheduler=result.scheduler_name)
    obs.close()
"""

from __future__ import annotations

from .events import (
    BrownoutEvent,
    CacheWriteFailedEvent,
    CapacitorSwitchEvent,
    CheckpointEvent,
    CoarseDecisionEvent,
    DeadlineMissEvent,
    DeltaFallbackEvent,
    Event,
    FaultInjectionEvent,
    FaultScenarioEvent,
    FleetShardEvent,
    InvariantViolationEvent,
    KNOWN_RECORD_KINDS,
    NodeQuarantinedEvent,
    NULL_OBSERVER,
    Observer,
    PeriodEndEvent,
    PolicyFallbackEvent,
    PoolDecisionEvent,
    ShardTimeoutEvent,
    SlotDecisionEvent,
    TaskRetryEvent,
    WorkerLostEvent,
)
from .manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    build_manifest,
    config_digest,
    git_revision,
    timeline_dict,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import NULL_SPAN, PhaseProfiler, PhaseStat
from .sinks import (
    ConsoleSummarySink,
    HeartbeatSink,
    JsonlSink,
    OBS_SCHEMA,
    RingBufferSink,
    read_jsonl,
    summarize_jsonl,
)
from .sketch import SKETCH_SCHEMA, CounterBag, FixedHistogram, P2Quantile
from .trace import (
    NULL_TRACER,
    SPAN_SCHEMA,
    SpanContext,
    SpanTree,
    Tracer,
    activate,
    build_span_tree,
    collecting_tracer,
    current_tracer,
    derive_span_id,
    derive_trace_id,
    render_span_tree,
)

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
    "InvariantViolationEvent",
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
    "Tracer",
    "NULL_TRACER",
    "SpanContext",
    "SpanTree",
    "SPAN_SCHEMA",
    "derive_trace_id",
    "derive_span_id",
    "current_tracer",
    "activate",
    "collecting_tracer",
    "build_span_tree",
    "render_span_tree",
    "CounterBag",
    "FixedHistogram",
    "P2Quantile",
    "SKETCH_SCHEMA",
    "OBS_SCHEMA",
    "HeartbeatSink",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseProfiler",
    "PhaseStat",
    "NULL_SPAN",
    "JsonlSink",
    "RingBufferSink",
    "ConsoleSummarySink",
    "read_jsonl",
    "summarize_jsonl",
    "RunManifest",
    "build_manifest",
    "git_revision",
    "config_digest",
    "timeline_dict",
    "MANIFEST_SCHEMA",
]
