"""The ``repro bench`` perf-regression harness.

Times the three things this reproduction spends wall-clock on —

- the per-slot simulation loop (slots/sec on the fig-8 workload:
  WAM, intra-task, one canonical solar day),
- the offline stage (cold train vs a disk-cache hit),
- an end-to-end evaluation suite, serial vs the parallel runner
  (the fig-9 monthly sweep in full mode),
- fleet throughput (nodes/s) through both shard executors: the scalar
  per-node engine and the batched node-major engine, with the batch
  speedup vs per-node reported from the same run,

— and writes the numbers to ``BENCH_perf.json`` so the perf trajectory
is tracked PR-over-PR.  :func:`compare_to_baseline` implements the CI
gate: the current slot-loop throughput must stay within a tolerance of
the committed baseline.

The phase breakdown comes from the existing ``obs.profile`` spans
(``coarse_hook`` / ``slot_loop`` / ``leakage_update``); the headline
slots/sec is measured on an *unobserved* run, the configuration the
experiments actually use.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = [
    "format_speedup",
    "host_cpus",
    "run_bench",
    "compare_to_baseline",
    "write_report",
    "append_history",
    "render_history",
    "BENCH_VERSION",
    "HISTORY_PATH",
]

BENCH_VERSION = 1

#: Default report location (repo root when run from there).
DEFAULT_REPORT = "BENCH_perf.json"

#: Trend store: one JSON line per bench run, appended over time.
HISTORY_PATH = ".benchmarks/history.jsonl"

#: CI gate: fail when slot throughput drops by more than this fraction.
DEFAULT_MAX_REGRESSION = 0.30


def _bench_slot_loop(quick: bool) -> Dict[str, Any]:
    """Slots/sec of the fig-8 workload; phase totals from obs.profile."""
    from .. import quick_node
    from ..obs import Observer
    from ..schedulers import IntraTaskScheduler
    from ..sim.engine import simulate
    from ..solar import four_day_trace
    from ..tasks import paper_benchmarks
    from ..timeline import Timeline

    timeline = Timeline(
        num_days=4, periods_per_day=144, slots_per_period=20,
        slot_seconds=30.0,
    )
    graph = paper_benchmarks()["WAM"]
    trace = four_day_trace(timeline).day_slice(0)
    repeats = 1 if quick else 3

    # Headline number: the unobserved configuration (NULL_OBSERVER),
    # best of ``repeats`` to shave scheduler-noise.
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        simulate(
            quick_node(graph), graph, trace, IntraTaskScheduler(),
            strict=False,
        )
        best = min(best, time.perf_counter() - t0)
    slots = trace.timeline.total_slots

    # Phase breakdown: one observed run through the same workload.
    observer = Observer()
    simulate(
        quick_node(graph), graph, trace, IntraTaskScheduler(),
        strict=False, observer=observer,
    )
    phases = observer.profiler.snapshot()

    return {
        "workload": "fig8/WAM/intra-task/canonical-day1",
        "slots": slots,
        "seconds": best,
        "slots_per_sec": slots / best,
        "phases": phases,
    }


def _bench_offline(quick: bool) -> Dict[str, Any]:
    """Cold offline-stage training vs a disk-cache hit."""
    import shutil
    import tempfile

    from ..core.offline import OfflinePipeline
    from ..experiments.common import training_trace
    from ..tasks import paper_benchmarks
    from .cache import ArtifactCache

    graph = paper_benchmarks()["WAM"]
    train_days = 2 if quick else 4
    epochs = 5 if quick else 40
    pipe = OfflinePipeline(graph, finetune_epochs=epochs)
    trace = training_trace(train_days)

    tmp = Path(tempfile.mkdtemp(prefix="repro-bench-cache-"))
    try:
        cache = ArtifactCache(tmp)
        t0 = time.perf_counter()
        pipe.run(trace, cache=cache)
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        pipe.run(trace, cache=cache)
        cached = time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "workload": f"offline/WAM/{train_days}d/{epochs}ep",
        "cold_seconds": cold,
        "cached_seconds": cached,
        "cache_speedup": cold / max(cached, 1e-9),
    }


def host_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has
    one (a container's CPU limit shows there), else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def format_speedup(speedup: Optional[float]) -> str:
    """``1.23x``, or ``n/a`` for a figure the host could not produce."""
    return "n/a" if speedup is None else f"{speedup:.2f}x"


def _bench_parallel(quick: bool, workers: int) -> Dict[str, Any]:
    """Serial vs parallel evaluation suite (fig-9 sweep in full mode).

    ``speedup`` is ``None`` (rendered "n/a") when the host has fewer
    usable CPUs than ``workers``: the pool then time-slices one core
    and the ratio measures the host, not the parallel runner.
    """
    from ..experiments.common import (
        default_timeline,
        evaluation_suite,
        train_policy,
    )
    from ..solar import four_day_trace, synthetic_trace
    from ..tasks import paper_benchmarks

    graph = paper_benchmarks()["WAM"]
    if quick:
        policy = train_policy(graph, train_days=2, finetune_epochs=5)
        trace = four_day_trace(default_timeline(4)).day_slice(1)
        workload = "suite/WAM/canonical-day2"
    else:
        policy = train_policy(graph)
        trace = synthetic_trace(default_timeline(60), seed=2016)
        workload = "fig9/WAM/60d/seed2016"

    t0 = time.perf_counter()
    evaluation_suite(graph, trace, policy, n_workers=1)
    serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    evaluation_suite(graph, trace, policy, n_workers=workers)
    parallel = time.perf_counter() - t0
    cpus = host_cpus()
    return {
        "workload": workload,
        "workers": workers,
        "cpus": cpus,
        "serial_seconds": serial,
        "parallel_seconds": parallel,
        "speedup": (
            serial / max(parallel, 1e-9) if cpus >= workers else None
        ),
    }


def _bench_fleet(quick: bool) -> Dict[str, Any]:
    """Fleet throughput (nodes/s) on a small heterogeneous population.

    Serial and checkpoint-free on purpose: the number tracks raw
    per-node simulation cost, not pool scaling or cache luck.  The
    aggregate fingerprint rides along so a perf report doubles as a
    determinism witness.
    """
    from ..fleet import FleetRunner, FleetSpec

    n_nodes = 16 if quick else 64
    spec = FleetSpec(n_nodes=n_nodes, seed=0)
    t0 = time.perf_counter()
    result = FleetRunner(
        spec, workers=1, cache=False, engine="per-node"
    ).run()
    seconds = time.perf_counter() - t0
    return {
        "workload": f"fleet/{n_nodes}n/1d/seed0/per-node",
        "nodes": n_nodes,
        "seconds": seconds,
        "nodes_per_sec": n_nodes / seconds,
        "fingerprint": result.fingerprint(),
    }


def _bench_fleet_batch(
    quick: bool, per_node_nodes_per_sec: float
) -> Dict[str, Any]:
    """Fleet throughput through the batched node-major engine.

    One whole-fleet shard (``shard_size=n_nodes``) so the number
    measures the vectorized core, not shard bookkeeping.  The fleet is
    larger than the per-node benchmark's — batching amortizes per-slot
    numpy dispatch over the batch width, so throughput keeps rising
    with node count — and the reported ``speedup_vs_per_node`` divides
    by the per-node engine's nodes/s from the same bench run.
    """
    from ..fleet import FleetRunner, FleetSpec

    n_nodes = 256 if quick else 1024
    spec = FleetSpec(n_nodes=n_nodes, seed=0)
    t0 = time.perf_counter()
    result = FleetRunner(
        spec, workers=1, shard_size=n_nodes, cache=False, engine="batch"
    ).run()
    seconds = time.perf_counter() - t0
    nodes_per_sec = n_nodes / seconds
    return {
        "workload": f"fleet/{n_nodes}n/1d/seed0/batch",
        "nodes": n_nodes,
        "seconds": seconds,
        "nodes_per_sec": nodes_per_sec,
        "speedup_vs_per_node": (
            nodes_per_sec / per_node_nodes_per_sec
            if per_node_nodes_per_sec > 0
            else 0.0
        ),
        "fingerprint": result.fingerprint(),
    }


def run_bench(quick: bool = False, workers: int = 4) -> Dict[str, Any]:
    """Run the full harness; returns the report dict."""
    report: Dict[str, Any] = {
        "version": BENCH_VERSION,
        "quick": quick,
        # Parallel-suite speedup is bounded by the host's core count;
        # record it so a 1x on a single-core box reads as expected,
        # not as a regression (the baseline gate ignores it anyway).
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
        },
        "benchmarks": {
            "slot_loop": _bench_slot_loop(quick),
            "offline_training": _bench_offline(quick),
            "parallel_suite": _bench_parallel(quick, workers),
            "fleet": _bench_fleet(quick),
        },
    }
    fleet = report["benchmarks"]["fleet"]
    report["benchmarks"]["fleet_batch"] = _bench_fleet_batch(
        quick, fleet["nodes_per_sec"]
    )
    return report


def write_report(report: Dict[str, Any], path=DEFAULT_REPORT) -> Path:
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def append_history(report: Dict[str, Any], path=HISTORY_PATH) -> Path:
    """Append one summary line for ``report`` to the trend store.

    The store is a JSONL file (one bench run per line) so trends
    survive across checkouts and CI runs; only the headline numbers
    are kept, not the full phase breakdowns.
    """
    bench = report["benchmarks"]
    entry = {
        "schema": BENCH_VERSION,
        "unix_time": time.time(),
        "quick": report.get("quick", False),
        "cpu_count": report.get("host", {}).get("cpu_count"),
        "slots_per_sec": bench["slot_loop"]["slots_per_sec"],
        "cache_speedup": bench["offline_training"]["cache_speedup"],
        "parallel_speedup": bench["parallel_suite"]["speedup"],
        "fleet_nodes_per_sec": bench["fleet"]["nodes_per_sec"],
        "fleet_fingerprint": bench["fleet"]["fingerprint"],
    }
    if "fleet_batch" in bench:
        entry["fleet_batch_nodes_per_sec"] = (
            bench["fleet_batch"]["nodes_per_sec"]
        )
        entry["fleet_batch_speedup"] = (
            bench["fleet_batch"]["speedup_vs_per_node"]
        )
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return out


def render_history(path=HISTORY_PATH) -> str:
    """Human-readable trend table over the history store.

    Streams the store through a :class:`~repro.obs.sketch.P2Quantile`
    so the median line works on arbitrarily long histories without
    holding them in memory.
    """
    from ..obs.sketch import P2Quantile

    src = Path(path)
    if not src.exists():
        return f"no bench history at {src}"
    median = P2Quantile(0.5)
    rows: List[Dict[str, Any]] = []
    with src.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            median.add(float(entry.get("slots_per_sec", 0.0)))
            rows.append(entry)
    if not rows:
        return f"no bench history at {src}"
    lines = [
        f"bench history: {len(rows)} run(s) from {src}",
        f"{'when (unix)':>14}  {'quick':>5}  {'slots/s':>10}  "
        f"{'cache x':>8}  {'par x':>6}  {'fleet n/s':>10}  "
        f"{'batch n/s':>10}",
    ]
    for entry in rows[-20:]:
        lines.append(
            f"{entry.get('unix_time', 0):>14.0f}  "
            f"{str(bool(entry.get('quick'))):>5}  "
            f"{entry.get('slots_per_sec', 0):>10.0f}  "
            f"{entry.get('cache_speedup', 0):>8.1f}  "
            f"{format_speedup(entry.get('parallel_speedup')):>6}  "
            f"{entry.get('fleet_nodes_per_sec', 0):>10.2f}  "
            f"{entry.get('fleet_batch_nodes_per_sec', 0):>10.1f}"
        )
    latest = rows[-1].get("slots_per_sec", 0.0)
    med = median.estimate(latest)
    delta = 100.0 * (latest / med - 1.0) if med else 0.0
    lines.append(
        f"slot-loop median {med:.0f} slots/s over {len(rows)} run(s); "
        f"latest {latest:.0f} ({delta:+.1f}% vs median)"
    )
    return "\n".join(lines)


def compare_to_baseline(
    report: Dict[str, Any],
    baseline_path,
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> List[str]:
    """Regression check against a committed baseline report.

    Only the slot-loop throughput gates (cache/parallel numbers vary
    too much with machine load); returns human-readable failures,
    empty when the current run is acceptable.  A missing baseline is
    not a failure — there is nothing to regress against.
    """
    baseline_path = Path(baseline_path)
    if not baseline_path.exists():
        return []
    baseline = json.loads(baseline_path.read_text())
    failures: List[str] = []
    try:
        base_tp = baseline["benchmarks"]["slot_loop"]["slots_per_sec"]
    except (KeyError, TypeError):
        return [f"baseline {baseline_path} has no slot_loop throughput"]
    cur_tp = report["benchmarks"]["slot_loop"]["slots_per_sec"]
    floor = base_tp * (1.0 - max_regression)
    if cur_tp < floor:
        failures.append(
            f"slot-loop throughput regressed: {cur_tp:.0f} slots/s vs "
            f"baseline {base_tp:.0f} (floor {floor:.0f}, "
            f"-{100 * (1 - cur_tp / base_tp):.1f}%)"
        )
    return failures
