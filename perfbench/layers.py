"""Layer spans from outside the program, and the per-layer table.

The benchmark does not edit ``src/``: it wraps the public entry points
of each layer in spans opened on the ambient tracer
(:func:`repro.obs.trace.current_tracer`), so spans opened inside pool
workers ride home with the runner's existing span plumbing.  Several
of these functions are imported by name, so each wrapper replaces every
binding a caller actually reads, and :class:`Instrumented` puts every
original back on exit.

:func:`layer_metrics` turns the span records of one traced call (plus
the fleet's ``fleet_shard`` events) into the per-layer table.  A
layer's time is the *self* time of its spans: span duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Wrapped entry points: ``(span name, owner, attribute, other
#: bindings, annotate)``.  ``owner`` is ``module`` or ``module:Class``;
#: the other bindings are ``module`` names that imported the function
#: by name.  ``annotate(args, kwargs, out)`` adds span attributes.
WRAPPED: Tuple[Tuple[str, str, str, Tuple[str, ...], Optional[Callable]], ...] = (
    ("offline.run", "repro.core.offline:OfflinePipeline", "run", (), None),
    (
        "offline.size_capacitors", "repro.core.offline:OfflinePipeline",
        "size_capacitors", (), None,
    ),
    ("longterm.optimize", "repro.core.longterm:LongTermOptimizer", "optimize", (), None),
    (
        "dbn.fit", "repro.core.ann.dbn:DBN", "fit", (),
        lambda args, kwargs, out: {"samples": int(len(args[1]))},
    ),
    ("dbn_policy.decide", "repro.core.online:DBNPolicy", "decide", (), None),
    (
        "cache.get", "repro.perf.cache:ArtifactCache", "get", (),
        lambda args, kwargs, out: {"hit": out is not None},
    ),
    ("cache.put", "repro.perf.cache:ArtifactCache", "put", (), None),
    (
        "synthetic_trace", "repro.solar.days", "synthetic_trace",
        ("repro.fleet.spec", "repro.experiments.common"), None,
    ),
    (
        "simulate", "repro.sim.engine", "simulate",
        ("repro.experiments.common", "repro.fleet.runner"),
        lambda args, kwargs, out: {"slots": int(out.timeline.total_slots)},
    ),
    (
        "simulate_batch", "repro.sim.batch", "simulate_batch", (),
        lambda args, kwargs, out: {
            "width": len(out),
            "slots": int(sum(r.timeline.total_slots for r in out)),
        },
    ),
    ("node_spec", "repro.fleet.spec:FleetSpec", "node_spec", (), None),
    ("base_trace", "repro.fleet.spec:FleetSpec", "base_trace", (), None),
    ("node_trace", "repro.fleet.spec", "node_trace", ("repro.fleet.runner",), None),
    ("build_graph", "repro.verify.strategies", "build_graph", ("repro.fleet.runner",), None),
    ("result_fingerprint", "repro.sim.checkpoint", "result_fingerprint", ("repro.fleet.runner",), None),
    ("aggregate.from_nodes", "repro.fleet.result:FleetAggregate", "from_nodes", (), None),
    ("aggregate.merge", "repro.fleet.result:FleetAggregate", "merge", (), None),
)

#: Spans that only group others (the benchmark's root and the
#: runner's fleet/shard/node/batch scaffolding): their self time is
#: the *unattributed* share of a trace.
CONTAINER_SPANS = frozenset({"perfbench", "fleet_run", "shard", "node", "batch"})

#: Per-layer time metrics: metric name -> spans whose self time it sums.
#: Program spans (``sizing``, ``longterm_dp``, ``dbn_train``,
#: ``engine_run``, ``offline_pipeline``, ``suite_cell``) share a layer
#: with the benchmark's wrapper around the same call.
LAYER_TIMES: Dict[str, Tuple[str, ...]] = {
    "core.offline.sizing_s": ("sizing", "offline.size_capacitors"),
    "core.offline.dbn_train_s": ("dbn_train", "dbn.fit"),
    "core.offline.pipeline_s": ("offline_pipeline", "offline.run"),
    "core.longterm.dp_s": ("longterm_dp", "longterm.optimize"),
    "core.online.coarse_s": ("dbn_policy.decide",),
    "perf.cache.get_s": ("cache.get",),
    "perf.cache.put_s": ("cache.put",),
    "solar.synthetic_trace_s": ("synthetic_trace", "base_trace"),
    "sim.engine.s": ("simulate", "engine_run"),
    "sim.batch.s": ("simulate_batch",),
    "fleet.spec.expand_s": ("node_spec",),
    "fleet.node_trace_s": ("node_trace",),
    "fleet.build_graph_s": ("build_graph",),
    "fleet.summarize_s": ("result_fingerprint",),
    "fleet.aggregate_s": ("aggregate.from_nodes", "aggregate.merge"),
    "experiments.suite_cell_s": ("suite_cell",),
}

#: Every per-layer metric with its unit and direction, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("core.offline.sizing_s", "s", "lower"),
    ("core.offline.dbn_train_s", "s", "lower"),
    ("core.offline.train_samples", "count", "lower"),
    ("core.offline.pipeline_s", "s", "lower"),
    ("core.longterm.dp_calls", "count", "lower"),
    ("core.longterm.dp_s", "s", "lower"),
    ("core.online.coarse_decisions", "count", "lower"),
    ("core.online.coarse_s", "s", "lower"),
    ("perf.cache.gets", "count", "lower"),
    ("perf.cache.hit_ratio", "ratio", "higher"),
    ("perf.cache.get_s", "s", "lower"),
    ("perf.cache.puts", "count", "lower"),
    ("perf.cache.put_s", "s", "lower"),
    ("solar.synthetic_trace_calls", "count", "lower"),
    ("solar.synthetic_trace_s", "s", "lower"),
    ("sim.engine.runs", "count", "lower"),
    ("sim.engine.slots", "count", "lower"),
    ("sim.engine.s", "s", "lower"),
    ("sim.batch.calls", "count", "lower"),
    ("sim.batch.width_mean", "nodes", "higher"),
    ("sim.batch.node_slots", "count", "higher"),
    ("sim.batch.s", "s", "lower"),
    ("fleet.spec.expand_s", "s", "lower"),
    ("fleet.node_trace_s", "s", "lower"),
    ("fleet.build_graph_calls", "count", "lower"),
    ("fleet.build_graph_s", "s", "lower"),
    ("fleet.summarize_s", "s", "lower"),
    ("fleet.aggregate_s", "s", "lower"),
    ("fleet.batched_node_ratio", "ratio", "higher"),
    ("fleet.failed_nodes", "count", "lower"),
    ("fleet.shards", "count", "lower"),
    ("fleet.shard_s_p50", "s", "lower"),
    ("fleet.shard_s_max", "s", "lower"),
    ("reliability.supervisor.busy_s", "s", "lower"),
    ("reliability.supervisor.utilization", "ratio", "higher"),
    ("reliability.supervisor.retries", "count", "lower"),
    ("reliability.supervisor.pool_rebuilds", "count", "lower"),
    ("experiments.suite_cells", "count", "lower"),
    ("experiments.suite_cell_s", "s", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("obs.trace.overhead_frac", "ratio", "lower"),
    ("obs.trace.unattributed_frac", "ratio", "lower"),
    ("host.probe_s", "s", "lower"),
    ("host.wall_s", "s", "lower"),
)

#: Metrics a host with fewer cores than the workload's workers cannot
#: produce meaningfully: reported as ``null`` ("n/a"), never a number.
SUPERVISOR_METRICS = tuple(
    name for name, _, _ in PER_LAYER if name.startswith("reliability.supervisor.")
)

#: ROADMAP item 1's ceiling on the unattributed share of a trace.
UNATTRIBUTED_LIMIT = 0.05


def _resolve(owner: str):
    """The module or class named ``module`` / ``module:Class``, or None."""
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


def _traced(fn: Callable, name: str, annotate: Optional[Callable]) -> Callable:
    from repro.obs.trace import current_tracer

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = current_tracer()
        if not tracer.enabled:
            return fn(*args, **kwargs)
        with tracer.span(name) as span:
            out = fn(*args, **kwargs)
            if annotate is not None:
                span.annotate(**annotate(args, kwargs, out))
            return out

    return wrapper


class Instrumented:
    """Context manager: every :data:`WRAPPED` binding patched while open.

    An entry point the program no longer has is listed in ``missing``
    and left out; its layer then reads zero instead of failing the run.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def _set(self, target, attr: str, value) -> None:
        self._saved.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def __enter__(self) -> "Instrumented":
        for name, owner, attr, bindings, annotate in WRAPPED:
            target = _resolve(owner)
            raw = getattr(target, "__dict__", {}).get(attr)
            if raw is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(_traced(raw.__func__, name, annotate))
                self._set(target, attr, wrapped)
                continue
            wrapped = _traced(raw, name, annotate)
            self._set(target, attr, wrapped)
            for module in bindings:
                binding = importlib.import_module(module)
                if binding.__dict__.get(attr) is raw:
                    self._set(binding, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            target, attr, value = self._saved.pop()
            setattr(target, attr, value)


class RecordSink:
    """In-memory observer sink: records stay here until the run ends."""

    def __init__(self) -> None:
        self.records: List[dict] = []

    def write(self, record: dict) -> None:
        self.records.append(record)


# ----------------------------------------------------------------------
# Span records -> per-layer table
# ----------------------------------------------------------------------
def layer_metrics(
    records: Sequence[dict],
    wall_s: float,
    workers: int,
    n_nodes: int,
    supervisor: Optional[dict] = None,
    failed_nodes: int = 0,
) -> Dict[str, float]:
    """The per-layer table of one traced end-to-end call.

    ``records`` holds the call's span records and observer events;
    ``wall_s`` is the call's host time; ``n_nodes`` the fleet size (0
    outside fleets); ``supervisor`` the fleet result's supervisor
    counters.  ``failed_frac`` and ``obs.trace.overhead_frac`` come
    from the untraced runs and are filled in by the caller.
    """
    from repro.obs.trace import build_span_tree

    tree = build_span_tree(records)
    spans = list(tree.by_id.values())
    self_s = {span["span"]: tree.self_seconds(span) for span in spans}
    by_name: Dict[str, List[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def attr_sum(name: str, attr: str) -> float:
        return sum(s.get("attrs", {}).get(attr, 0) for s in by_name.get(name, ()))

    out: Dict[str, float] = {
        metric: sum(self_s[s["span"]] for n in names for s in by_name.get(n, ()))
        for metric, names in LAYER_TIMES.items()
    }
    gets = count("cache.get")
    widths = [s.get("attrs", {}).get("width", 0) for s in by_name.get("simulate_batch", ())]
    shard_s = [
        float(r["seconds"])
        for r in records
        if r.get("kind") == "fleet_shard" and not r.get("cached")
    ]
    busy = sum(shard_s)
    supervisor = supervisor or {}
    total_self = sum(self_s.values())
    unattributed = sum(
        self_s[s["span"]] for s in spans if s["name"] in CONTAINER_SPANS
    )
    out.update(
        {
            "core.offline.train_samples": attr_sum("dbn.fit", "samples"),
            "core.longterm.dp_calls": count("longterm.optimize"),
            "core.online.coarse_decisions": count("dbn_policy.decide"),
            "perf.cache.gets": gets,
            "perf.cache.hit_ratio": attr_sum("cache.get", "hit") / gets if gets else 0.0,
            "perf.cache.puts": count("cache.put"),
            "solar.synthetic_trace_calls": count("synthetic_trace"),
            "sim.engine.runs": count("simulate"),
            "sim.engine.slots": attr_sum("simulate", "slots"),
            "sim.batch.calls": len(widths),
            "sim.batch.width_mean": sum(widths) / len(widths) if widths else 0.0,
            "sim.batch.node_slots": attr_sum("simulate_batch", "slots"),
            "fleet.build_graph_calls": count("build_graph"),
            "fleet.batched_node_ratio": sum(widths) / n_nodes if n_nodes else 0.0,
            "fleet.failed_nodes": failed_nodes,
            "fleet.shards": len(shard_s),
            "fleet.shard_s_p50": statistics.median(shard_s) if shard_s else 0.0,
            "fleet.shard_s_max": max(shard_s, default=0.0),
            "reliability.supervisor.busy_s": busy,
            "reliability.supervisor.utilization": busy / (wall_s * workers) if wall_s > 0 else 0.0,
            "reliability.supervisor.retries": supervisor.get("retries", 0),
            "reliability.supervisor.pool_rebuilds": supervisor.get("pool_rebuilds", 0),
            "experiments.suite_cells": count("suite_cell"),
            "obs.trace.unattributed_frac": unattributed / total_self if total_self > 0 else 0.0,
        }
    )
    return out
