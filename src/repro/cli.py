"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the available benchmarks, schedulers and experiments.
``simulate``
    Run one scheduler on one benchmark over a chosen trace and print
    the headline metrics; ``--trace`` writes a JSONL event log,
    ``--profile`` prints the run's span tree (total/self wall-clock
    per span), ``--manifest`` writes a run-provenance manifest.
``experiment``
    Run one of the paper's table/figure reproductions (or ``all`` of
    them, in registry order) and print it; ``--results-dir`` persists
    each table plus its run manifest.  Each table's shape checks run
    after it is produced; a failed check prints ``check failed:
    <name>.<check>: <detail>`` and, once every table is written, the
    command exits 6.
``obs``
    Observability utilities; ``obs summarize trace.jsonl`` renders
    event counts and the headline result from a trace file;
    ``obs trace trace.jsonl`` reassembles the span records into the
    hierarchical call tree with total/self wall-clock per span and
    the hot-span table (``--check`` exits 6 unless the tree is a
    single root with no orphans).
``cache``
    Offline-artifact cache utilities: ``cache info`` shows the entry
    counts and sizes, ``cache clear`` removes cached artifacts.
``verify``
    Run the conformance suite (physics invariants, differential
    oracles, metamorphic relations) at ``--level smoke|quick|deep``;
    exits 6 with a violation summary when a check fails.
    ``--update-fingerprints`` regenerates the committed engine
    reference digests instead of verifying.
``fleet``
    Fleet-scale simulation: ``fleet run --nodes N --seed S`` simulates
    N heterogeneous nodes sharing one base solar trace and prints the
    population report plus the deterministic fleet fingerprint
    (bit-identical for any ``--workers``/``--shard-size``; nodes the
    batched engine covers run batched, the rest per node);
    ``fleet report result.json`` re-renders a saved ``--out`` file.
    Execution is supervised: ``--max-retries``/``--task-timeout``
    bound failures, ``--on-node-error quarantine`` (default) completes
    degraded with exit code 7 when nodes had to be quarantined
    (``fail`` aborts with exit code 4 instead), ``--chaos-*`` flags
    inject deterministic worker kills/hangs/poison nodes for drills,
    and ``--exclude-nodes`` reruns the healthy subset of a degraded
    run.  Ctrl-C terminates the pool, flushes event sinks and stamps
    the manifest ``interrupted: true`` (exit code 130).

A global ``--log-level`` (default WARNING) configures stdlib logging
for every command.  ``experiment --workers N`` fans independent
simulations over N processes; ``experiment --no-cache`` disables the
offline-artifact disk cache for the run.  Performance is measured by
the repository benchmark, ``python3 perfbench/run.py``, not by a
subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import time
from typing import Dict, Iterator, Optional, Sequence

from . import quick_node
from .node import DVFSModel
from .obs import (
    NULL_TRACER,
    JsonlSink,
    Observer,
    Tracer,
    activate,
    build_manifest,
    derive_trace_id,
    render_span_tree,
    summarize_jsonl,
    timeline_dict,
)
from .reliability import RUNTIME_SCENARIOS, FaultInjector, runtime_scenario
from .reliability.supervisor import SupervisorError
from .schedulers import make_scheduler
from .sim import (
    CheckpointConfig,
    CheckpointError,
    SimulationInterrupted,
    latest_checkpoint,
    result_fingerprint,
)
from .experiments import EXPERIMENTS
from .fleet.spec import FLEET_POLICIES
from .sim.engine import InvalidDecisionError, simulate
from .solar import four_day_trace, synthetic_trace
from .tasks import paper_benchmarks
from .timeline import Timeline

__all__ = ["main", "build_parser"]

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")

logger = logging.getLogger(__name__)

#: Policies ``simulate`` can run (no offline stage, no seed).
_SCHEDULERS = ("asap", "dvfs", "inter-task", "intra-task")

def _timeline(days: int) -> Timeline:
    return Timeline(
        num_days=days, periods_per_day=144, slots_per_period=20,
        slot_seconds=30.0,
    )


def _trace(days: int, seed: int):
    if days == 4 and seed == 0:
        return four_day_trace(_timeline(4))
    return synthetic_trace(_timeline(days), seed=seed)


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAC'15 solar-node deadline-aware scheduling "
        "reproduction",
    )
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=_LOG_LEVELS,
        help="stdlib logging level (default WARNING)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list benchmarks/schedulers/experiments")

    sim = commands.add_parser("simulate", help="run one scheduler")
    sim.add_argument(
        "--benchmark", default="WAM", choices=sorted(paper_benchmarks())
    )
    sim.add_argument(
        "--scheduler", default="intra-task", choices=sorted(_SCHEDULERS)
    )
    sim.add_argument("--days", type=int, default=4)
    sim.add_argument(
        "--seed", type=int, default=0,
        help="weather seed (default 0); with --days 4, seed 0 gives "
        "the paper's four canonical days",
    )
    sim.add_argument(
        "--trace", metavar="PATH",
        help="write a JSONL event trace of the run to PATH",
    )
    sim.add_argument(
        "--profile", action="store_true",
        help="print the run's span tree (total/self seconds) after "
        "the run",
    )
    sim.add_argument(
        "--manifest", metavar="PATH",
        help="write a run-provenance manifest (JSON) to PATH",
    )
    sim.add_argument(
        "--max-slots", type=int, metavar="N",
        help="refuse runs longer than N slots (guard against typos "
        "like --days 4000)",
    )
    sim.add_argument(
        "--fault-scenario", choices=sorted(RUNTIME_SCENARIOS),
        help="inject a seeded runtime fault scenario into the run",
    )
    sim.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the fault plan (default 0)",
    )
    sim.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="write crash-safe checkpoints to DIR at period boundaries",
    )
    sim.add_argument(
        "--checkpoint-every", type=int, default=8, metavar="N",
        help="checkpoint every N periods (default 8)",
    )
    sim.add_argument(
        "--resume", action="store_true",
        help="resume from the latest checkpoint in --checkpoint-dir",
    )
    sim.add_argument(
        "--stop-after-periods", type=int, metavar="N",
        help="checkpoint and stop after N periods (simulated crash; "
        "requires --checkpoint-dir)",
    )

    exp = commands.add_parser("experiment", help="reproduce a table/figure")
    exp.add_argument("name", choices=(*EXPERIMENTS, "all"))
    exp.add_argument(
        "--results-dir", metavar="DIR",
        help="also write the rendered table and its run manifest here",
    )
    exp.add_argument(
        "--workers", type=int, metavar="N",
        help="fan independent simulations out over N processes "
        "(default: serial, or $REPRO_WORKERS)",
    )
    exp.add_argument(
        "--no-cache", action="store_true",
        help="skip the offline-artifact disk cache (always retrain)",
    )

    obs_cmd = commands.add_parser("obs", help="observability utilities")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize", help="summarise a JSONL event trace"
    )
    summarize.add_argument("trace", help="path to a trace.jsonl file")
    span_tree = obs_sub.add_parser(
        "trace", help="render the span tree of a JSONL event trace"
    )
    span_tree.add_argument(
        "trace",
        help="path to a trace.jsonl file (or a run directory "
        "containing one)",
    )
    span_tree.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows in the hot-span table (default 10)",
    )
    span_tree.add_argument(
        "--check", action="store_true",
        help="exit 6 unless the trace reassembles into exactly one "
        "rooted tree with no orphan spans",
    )

    cache_cmd = commands.add_parser(
        "cache", help="offline-artifact cache utilities"
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("info", help="show cache location and contents")
    cache_clear = cache_sub.add_parser(
        "clear", help="remove cached artifacts"
    )
    cache_clear.add_argument(
        "--kind", metavar="KIND",
        help="only clear one artifact kind (e.g. policy)",
    )

    verify = commands.add_parser(
        "verify", help="run the conformance suite (invariants + oracles)"
    )
    verify.add_argument(
        "--level", default="quick", choices=("smoke", "quick", "deep"),
        help="depth: smoke (seconds), quick (the CI gate: canonical "
        "days + fault scenarios), deep (adds randomized sweeps)",
    )
    verify.add_argument(
        "--seed", type=int, default=0,
        help="seed for the randomized extras (default 0); the "
        "canonical matrix is deterministic",
    )
    verify.add_argument(
        "--json", metavar="PATH",
        help="also write the full structured report as JSON to PATH",
    )
    verify.add_argument(
        "--fingerprints", metavar="PATH",
        help="reference fingerprint file (default: the committed "
        "tests/data/engine_fingerprints.json)",
    )
    verify.add_argument(
        "--update-fingerprints", action="store_true",
        help="regenerate the reference fingerprints instead of "
        "verifying (do this only after an intentional semantic change)",
    )
    verify.add_argument(
        "--quiet", action="store_true",
        help="suppress per-check progress lines",
    )

    fleet = commands.add_parser(
        "fleet", help="fleet-scale multi-node simulation"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_sub.add_parser(
        "run", help="simulate N heterogeneous nodes"
    )
    fleet_run.add_argument(
        "--nodes", type=int, default=100, metavar="N",
        help="fleet size (default 100)",
    )
    fleet_run.add_argument(
        "--seed", type=int, default=0,
        help="fleet seed: base weather + every per-node variation "
        "(default 0)",
    )
    fleet_run.add_argument(
        "--days", type=int, default=1,
        help="simulated days per node (default 1)",
    )
    fleet_run.add_argument(
        "--policies", metavar="P1,P2,...",
        help="comma-separated scheduler/policy pool nodes draw from "
        f"(subset of {','.join(sorted(FLEET_POLICIES))}; "
        "default asap,inter-task,intra-task,random)",
    )
    fleet_run.add_argument(
        "--workers", type=int, metavar="N",
        help="process count for shard fan-out (default: serial, or "
        "$REPRO_WORKERS); never changes the results",
    )
    fleet_run.add_argument(
        "--shard-size", type=int, metavar="N",
        help="nodes per work item (default: every node that runs when "
        "serial, else one shard per worker, or a multiple of the "
        "workers when a shard would pass 256; clamped to 32..256); "
        "per-node-engine nodes (dvfs) are dealt evenly across shards; "
        "never changes the results",
    )
    fleet_run.add_argument(
        "--no-cache", action="store_true",
        help="skip shard checkpoints and the offline-artifact cache",
    )
    fleet_run.add_argument(
        "--out", metavar="PATH",
        help="write the full fleet result (per-node summaries + "
        "aggregates) as JSON to PATH",
    )
    fleet_run.add_argument(
        "--trace", metavar="PATH",
        help="write a JSONL event log (one fleet_shard event per "
        "shard + run summary) to PATH",
    )
    fleet_run.add_argument(
        "--manifest", metavar="PATH",
        help="write a run-provenance manifest (JSON) to PATH",
    )
    fleet_run.add_argument(
        "--progress", action="store_true",
        help="print a live heartbeat line per completed shard "
        "(stderr), fed by the event stream",
    )
    fleet_run.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="supervisor re-dispatches per shard and in-worker "
        "retries per node beyond the first attempt (default 2)",
    )
    fleet_run.add_argument(
        "--task-timeout", type=float, metavar="SECONDS",
        help="per-shard wall-clock budget; a shard exceeding it is "
        "killed and re-dispatched (default: no timeout). Forces "
        "pool execution.",
    )
    fleet_run.add_argument(
        "--on-node-error", choices=("quarantine", "fail"),
        default="quarantine",
        help="quarantine (default): record raising nodes as "
        "FailedNode and complete degraded (exit 7); fail: abort on "
        "the first permanent failure (exit 4)",
    )
    fleet_run.add_argument(
        "--exclude-nodes", metavar="ID1,ID2,...",
        help="node ids to skip — rerun the healthy subset of a "
        "degraded run to reproduce its fingerprint fault-free; an id "
        "outside 0..N-1 is an error (exit 2)",
    )
    fleet_run.add_argument(
        "--chaos-seed", type=int, default=0, metavar="S",
        help="seed of the chaos fault draws (default 0)",
    )
    fleet_run.add_argument(
        "--chaos-poison", type=int, default=0, metavar="N",
        help="chaos: N nodes raise on every attempt (must end up "
        "quarantined)",
    )
    fleet_run.add_argument(
        "--chaos-hangs", type=int, default=0, metavar="N",
        help="chaos: N nodes sleep --chaos-hang-seconds on their "
        "first attempt (pair with --task-timeout)",
    )
    fleet_run.add_argument(
        "--chaos-kills", type=int, default=0, metavar="N",
        help="chaos: N shards hard-kill their worker on the first "
        "attempt (exercises pool rebuild)",
    )
    fleet_run.add_argument(
        "--chaos-hang-seconds", type=float, default=2.0,
        metavar="SECONDS",
        help="sleep of a chaos-hung node's first attempt (default 2)",
    )
    fleet_report = fleet_sub.add_parser(
        "report", help="re-render a saved fleet result"
    )
    fleet_report.add_argument(
        "result", help="path to a fleet result JSON (fleet run --out)"
    )
    return parser


def _cmd_list(out) -> int:
    print("benchmarks: ", ", ".join(sorted(paper_benchmarks())), file=out)
    print("schedulers: ", ", ".join(sorted(_SCHEDULERS)), file=out)
    print("experiments:", ", ".join(EXPERIMENTS), file=out)
    return 0


def _cmd_simulate(args, out) -> int:
    graph = paper_benchmarks()[args.benchmark]
    trace = _trace(args.days, args.seed)
    timeline = trace.timeline
    if args.max_slots is not None and timeline.total_slots > args.max_slots:
        raise ValueError(
            f"run spans {timeline.total_slots} slots, over the "
            f"--max-slots guard of {args.max_slots}"
        )
    scheduler = make_scheduler(args.scheduler)
    # The dvfs policy's reduced levels need a node that can run them;
    # without a DVFSModel the engine would reset each one to 1.0.
    node = quick_node(
        graph, dvfs=DVFSModel() if args.scheduler == "dvfs" else None
    )

    fault_injector = None
    if args.fault_scenario:
        plan = runtime_scenario(
            args.fault_scenario, timeline, seed=args.fault_seed
        )
        fault_injector = FaultInjector(plan, timeline)

    checkpoint = None
    resume_from = None
    if args.resume and not args.checkpoint_dir:
        raise ValueError("--resume requires --checkpoint-dir")
    if args.checkpoint_dir:
        checkpoint = CheckpointConfig(
            args.checkpoint_dir, every_periods=args.checkpoint_every
        )
        if args.resume:
            resume_from = latest_checkpoint(args.checkpoint_dir)
            if resume_from is None:
                raise CheckpointError(
                    f"no checkpoint to resume in {args.checkpoint_dir}"
                )

    # Events are built only when a trace file will receive them;
    # --profile needs spans alone, kept in memory.
    observer = Observer(sinks=[JsonlSink(args.trace)]) if args.trace else None
    spans = []

    def keep(record):
        spans.append(record)
        if observer is not None:
            observer.emit_record(record)

    tracer = NULL_TRACER
    if args.trace or args.profile:
        tracer = Tracer(keep, derive_trace_id(
            "simulate", args.benchmark, args.scheduler, args.days, args.seed
        ))

    t0 = time.perf_counter()
    try:
        with activate(tracer):
            result = simulate(
                node, graph, trace, scheduler, strict=False,
                observer=observer, fault_injector=fault_injector,
                checkpoint=checkpoint, resume_from=resume_from,
                stop_after_periods=args.stop_after_periods,
            )
    except SimulationInterrupted as stop:
        print(
            f"stopped after {stop.periods_done} period(s); resume with "
            f"--resume --checkpoint-dir {args.checkpoint_dir}",
            file=out,
        )
        if observer is not None:
            observer.close()
        return 0
    wall = time.perf_counter() - t0

    print(f"benchmark:          {args.benchmark}", file=out)
    print(f"scheduler:          {scheduler.name}", file=out)
    print(f"days:               {args.days}", file=out)
    print(f"DMR:                {result.dmr:.4f}", file=out)
    print(f"energy utilisation: {result.energy_utilization:.4f}", file=out)
    print(
        f"per-day DMR:        "
        + ", ".join(f"{x:.3f}" for x in result.dmr_by_day()),
        file=out,
    )
    print(f"fingerprint:        {result_fingerprint(result)}", file=out)
    if fault_injector is not None:
        print(
            f"fault activations:  {fault_injector.total_activations} "
            f"(scenario {args.fault_scenario}, seed {args.fault_seed})",
            file=out,
        )
    if args.trace:
        logger.info("wrote event trace to %s", args.trace)
        print(f"event trace:        {args.trace}", file=out)
    if args.profile:
        print(file=out)
        print(render_span_tree(spans), file=out)
    if args.manifest:
        manifest = build_manifest(
            f"simulate-{args.benchmark}",
            seed=args.seed,
            scheduler=scheduler.name,
            benchmark=args.benchmark,
            timeline=timeline_dict(trace.timeline),
            config={
                "days": args.days,
                "strict": False,
                "fault_scenario": args.fault_scenario,
                "fault_seed": args.fault_seed,
            },
            result_summary=result.summary(),
            wall_time_s=wall,
        )
        path = manifest.write(args.manifest)
        logger.info("wrote run manifest to %s", path)
        print(f"manifest:           {path}", file=out)
    if observer is not None:
        observer.close()
    return 0


@contextlib.contextmanager
def _perf_env(no_cache: bool, workers: Optional[int] = None) -> Iterator[None]:
    """Export ``--no-cache``/``--workers`` as ``REPRO_NO_CACHE``/
    ``REPRO_WORKERS`` for one command.

    Every helper (the disk cache, the worker pool, pool children) reads
    the knobs from the environment, so no argument is threaded through
    each figure module.  The previous values, or their absence, are
    restored on every exit path: an in-process :func:`main` call leaves
    the environment as it found it.
    """
    values: Dict[str, str] = {}
    if no_cache:
        values["REPRO_NO_CACHE"] = "1"
    if workers is not None:
        values["REPRO_WORKERS"] = str(workers)
    previous = {key: os.environ.get(key) for key in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _cmd_experiment(args, out) -> int:
    from pathlib import Path

    from .experiments.common import write_experiment_manifest

    if args.workers is not None and args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")

    names = list(EXPERIMENTS) if args.name == "all" else [args.name]
    failed = 0
    with _perf_env(args.no_cache, args.workers):
        for name in names:
            run, checks = EXPERIMENTS[name]
            t0 = time.perf_counter()
            table = run()
            wall = time.perf_counter() - t0
            print(table.render(), file=out)
            if args.results_dir:
                results_dir = Path(args.results_dir)
                results_dir.mkdir(parents=True, exist_ok=True)
                (results_dir / f"{name}.txt").write_text(
                    table.render() + "\n"
                )
                path = write_experiment_manifest(
                    name, table, results_dir, wall_time_s=wall
                )
                logger.info("wrote experiment manifest to %s", path)
                print(f"manifest: {path}", file=out)
            for check, ok, detail in checks(table):
                if not ok:
                    failed += 1
                    print(
                        f"check failed: {name}.{check}: {detail}", file=out
                    )
    return 6 if failed else 0


def _cmd_obs(args, out) -> int:
    if args.obs_command == "summarize":
        try:
            print(summarize_jsonl(args.trace), file=out)
        except FileNotFoundError:
            print(f"error: no such trace file: {args.trace}",
                  file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(
                f"error: {args.trace} is not a JSONL event trace "
                f"({exc})",
                file=sys.stderr,
            )
            return 2
        return 0
    if args.obs_command == "trace":
        from pathlib import Path

        from .obs import read_jsonl
        from .obs.trace import build_span_tree

        path = Path(args.trace)
        if path.is_dir():
            path = path / "trace.jsonl"
        try:
            records = read_jsonl(path)
        except FileNotFoundError:
            print(f"error: no such trace file: {path}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(
                f"error: {path} is not a JSONL event trace ({exc})",
                file=sys.stderr,
            )
            return 2
        spans = [r for r in records if r.get("kind") == "span"]
        if not spans:
            print(f"no span records in {path}", file=out)
            return 2 if args.check else 0
        print(render_span_tree(spans, top=args.top), file=out)
        if args.check:
            tree = build_span_tree(spans)
            problems = []
            if len(tree.roots) != 1:
                problems.append(f"{len(tree.roots)} root span(s), want 1")
            if tree.orphans:
                problems.append(f"{len(tree.orphans)} orphan span(s)")
            if problems:
                print(
                    f"span-tree check failed: {'; '.join(problems)}",
                    file=sys.stderr,
                )
                return 6
            print("span-tree check: single root, no orphans", file=out)
        return 0
    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def _cmd_cache(args, out) -> int:
    from .perf.cache import default_cache

    cache = default_cache()
    if args.cache_command == "info":
        info = cache.info()
        print(f"cache root: {info['root']}", file=out)
        if not info["kinds"]:
            print("(empty)", file=out)
        for kind, stats in info["kinds"].items():
            print(
                f"  {kind}: {stats['entries']} entr"
                f"{'y' if stats['entries'] == 1 else 'ies'}, "
                f"{stats['bytes'] / 1e6:.1f} MB",
                file=out,
            )
        return 0
    if args.cache_command == "clear":
        removed = cache.clear(args.kind)
        print(
            f"removed {removed} cached artifact(s) from {cache.root}",
            file=out,
        )
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _cmd_verify(args, out) -> int:
    from .verify import run_verification, write_reference_fingerprints

    if args.update_fingerprints:
        path, fingerprints = write_reference_fingerprints(
            args.fingerprints
        )
        print(
            f"captured {len(fingerprints)} reference fingerprint(s) "
            f"to {path}",
            file=out,
        )
        return 0

    log = None if args.quiet else (lambda m: print(f"  {m}", file=out))
    t0 = time.perf_counter()
    report = run_verification(
        level=args.level,
        seed=args.seed,
        log=log,
        fingerprint_path=args.fingerprints,
    )
    wall = time.perf_counter() - t0
    print(report.render(), file=out)
    print(f"({wall:.1f}s)", file=out)
    if args.json:
        from pathlib import Path

        payload = report.to_dict()
        payload["wall_time_s"] = wall
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report: {args.json}", file=out)
    return 0 if report.ok else 6


def _cmd_fleet(args, out) -> int:
    from .fleet import FleetResult, FleetRunner, FleetSpec

    if args.fleet_command == "report":
        result = FleetResult.load_json(args.result)
        print(result.render(), file=out)
        print(file=out)
        print(f"fingerprint: {result.fingerprint()}", file=out)
        return 0

    if args.fleet_command != "run":
        raise AssertionError(
            f"unhandled fleet command {args.fleet_command!r}"
        )

    spec_kwargs = {"n_nodes": args.nodes, "seed": args.seed,
                   "days": args.days}
    if args.policies:
        spec_kwargs["policies"] = tuple(
            p.strip() for p in args.policies.split(",") if p.strip()
        )
    spec = FleetSpec(**spec_kwargs)

    chaos = None
    if args.chaos_poison or args.chaos_hangs or args.chaos_kills:
        from .reliability.chaos import ChaosSpec

        chaos = ChaosSpec(
            seed=args.chaos_seed,
            poison_nodes=args.chaos_poison,
            hang_nodes=args.chaos_hangs,
            kill_shards=args.chaos_kills,
            hang_seconds=args.chaos_hang_seconds,
        )
    exclude = None
    if args.exclude_nodes:
        exclude = [
            int(tok) for tok in args.exclude_nodes.split(",") if tok.strip()
        ]

    sinks = []
    if args.trace:
        sinks.append(JsonlSink(args.trace))
    if args.progress:
        from .obs import HeartbeatSink

        sinks.append(HeartbeatSink())
    observer = Observer(sinks=sinks) if sinks else None

    t0 = time.perf_counter()
    try:
        with _perf_env(args.no_cache):
            result = FleetRunner(
                spec,
                workers=args.workers,
                shard_size=args.shard_size,
                observer=observer,
                max_retries=args.max_retries,
                task_timeout=args.task_timeout,
                on_node_error=args.on_node_error,
                chaos=chaos,
                exclude_nodes=exclude,
            ).run()
    except KeyboardInterrupt:
        # The supervisor has already torn the pool down on the way
        # out; flush what the run produced so far and say so.
        wall = time.perf_counter() - t0
        if observer is not None:
            observer.close()
        if args.manifest:
            manifest = build_manifest(
                f"fleet-{args.nodes}",
                seed=args.seed,
                scheduler="fleet",
                benchmark="fleet",
                timeline=timeline_dict(spec.timeline()),
                config={**spec.describe(), "interrupted": True},
                result_summary={"interrupted": True},
                wall_time_s=wall,
            )
            path = manifest.write(args.manifest)
            print(f"manifest:    {path} (interrupted)", file=sys.stderr)
        print(
            f"interrupted after {wall:.1f}s: pool terminated, sinks "
            "flushed; completed shards are checkpointed and will be "
            "reused on rerun",
            file=sys.stderr,
        )
        return 130
    wall = time.perf_counter() - t0

    print(result.render(), file=out)
    print(file=out)
    print(
        f"throughput:  {len(result) / wall:.1f} nodes/s "
        f"({wall:.2f}s, {result.config['workers']} worker(s), "
        f"shard size {result.config['shard_size']})",
        file=out,
    )
    print(f"fingerprint: {result.fingerprint()}", file=out)
    if result.degraded:
        ids = ",".join(str(f.node_id) for f in result.failed_nodes)
        print(
            f"quarantined: {len(result.failed_nodes)} node(s): {ids}",
            file=out,
        )
        print(
            f"             rerun the healthy subset with "
            f"--exclude-nodes {ids}",
            file=out,
        )
    if args.out:
        path = result.write_json(args.out)
        print(f"result:      {path}", file=out)
    if args.trace:
        print(f"event trace: {args.trace}", file=out)
    if args.manifest:
        manifest = build_manifest(
            f"fleet-{args.nodes}",
            seed=args.seed,
            scheduler="fleet",
            benchmark="fleet",
            timeline=timeline_dict(spec.timeline()),
            config={k: v for k, v in result.config.items()
                    if k not in ("wall_time_s", "nodes_per_s")},
            result_summary=result.summary(),
            wall_time_s=wall,
        )
        path = manifest.write(args.manifest)
        print(f"manifest:    {path}", file=out)
    if observer is not None:
        observer.close()
    # 7 = "completed degraded": every healthy node's numbers are
    # valid (and deterministic), but quarantined nodes are missing.
    return 7 if result.degraded else 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level))
    try:
        if args.command == "list":
            return _cmd_list(out)
        if args.command == "simulate":
            return _cmd_simulate(args, out)
        if args.command == "experiment":
            return _cmd_experiment(args, out)
        if args.command == "obs":
            return _cmd_obs(args, out)
        if args.command == "cache":
            return _cmd_cache(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        if args.command == "fleet":
            return _cmd_fleet(args, out)
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early: exit quietly
        # the way well-behaved Unix tools do.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    # One-line errors with distinct exit codes: 2 = bad input/data,
    # 3 = checkpoint mismatch/corruption, 4 = simulation failure,
    # 6 = verification failure (returned directly by _cmd_verify and
    #     by _cmd_experiment when a table's check fails),
    # 7 = completed degraded (returned directly by _cmd_fleet),
    # 130 = interrupted (returned directly by _cmd_fleet).
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 3
    except SupervisorError as exc:
        # Permanent task failure under --on-node-error fail (or a
        # fully-failed fleet): a simulation-layer abort, like
        # InvalidDecisionError below.
        print(f"simulation error: {exc}", file=sys.stderr)
        return 4
    except InvalidDecisionError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 4
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
