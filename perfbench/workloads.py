"""The benchmark's workloads: inputs from a seed, one end-to-end call, checks.

Each workload generates its inputs in :meth:`prepare` (the set-up the
benchmark times as ``setup_s``), resets per-run state in :meth:`reset`
(untimed), makes exactly one call into the program's public entry
points in :meth:`call` (timed as ``wall_s``), and checks what came
back: :meth:`check` after every call (cheap, structural), and
:meth:`oracle` once per benchmark run (a differential or physics
check that does not trust the code under test).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import os
import shutil
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

#: ``(name, passed, detail)`` of one output check.
Check = Tuple[str, bool, str]


@contextlib.contextmanager
def patched(target, **values) -> Iterator[None]:
    """Temporarily rebind attributes of a module."""
    saved = {name: getattr(target, name) for name in values}
    for name, value in values.items():
        setattr(target, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(target, name, value)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclasses.dataclass
class Output:
    """What one end-to-end call produced."""

    value: object
    digest: str
    slots: int
    failed_units: int = 0
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)


# ----------------------------------------------------------------------
# fig8-wam-cold
# ----------------------------------------------------------------------
class Fig8WamCold:
    """``repro experiment fig8`` restricted to WAM, from an empty cache.

    ``fig8_daily.run`` trains the WAM policy (sizing, long-term DP, DBN
    training) through ``train_policy`` and runs the four-cell
    ``evaluation_suite`` over the four canonical days, serially.  The
    seed shifts the training weather (``TRAIN_SEED + seed``) and the
    evaluation days (``four_day_trace`` seed ``7 + seed``).  Every call
    starts from an empty artifact cache and a cleared in-process memo.

    The benchmark size (``full``) keeps the paper's 300 fine-tuning
    epochs but trains on 2 days instead of 12 and evaluates 48 periods
    a day instead of 144, so a call takes seconds and a run can report
    the median of several.  The ``reference`` size is the committed
    experiment: at seed 0 it reproduces ``repro experiment fig8``'s WAM
    rows.  The self-test checks its pinned digests.
    """

    name = "fig8-wam-cold"
    workers = 1
    units = 4  # suite cells per call

    SIZES = {
        "full": {"finetune_epochs": 300, "train_days": 2, "periods_per_day": 48},
        "reference": {"finetune_epochs": 300, "train_days": 12, "periods_per_day": 144},
        "tiny": {"finetune_epochs": 2, "train_days": 2, "periods_per_day": 24},
    }

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = self.SIZES[size]
        self.trace = None
        self.results: Dict[str, object] = {}
        self.suite: Tuple = ()

    def prepare(self, workdir: Path) -> None:
        from repro.experiments.common import default_timeline
        from repro.solar import four_day_trace
        from repro.timeline import Timeline

        base = default_timeline(4)
        timeline = Timeline(
            num_days=4,
            periods_per_day=self.size["periods_per_day"],
            slots_per_period=base.slots_per_period,
            slot_seconds=base.slot_seconds,
        )
        self.trace = four_day_trace(timeline, seed=7 + self.seed)

    def reset(self, workdir: Path) -> None:
        from repro.experiments import common

        os.environ["REPRO_CACHE_DIR"] = str(_fresh_dir(workdir / "cache"))
        for memo in ("_policy_cache", "_sizing_cache"):
            getattr(common, memo, {}).clear()
        self.results = {}
        self.suite = ()

    def _capture_suite(self, graph, trace, policy, **kwargs):
        from repro.experiments import common

        results = common.evaluation_suite(graph, trace, policy, **kwargs)
        self.results = results
        self.suite = (graph, trace, policy)
        return results

    def call(self, observer=None) -> Output:
        from repro.experiments import common, fig8_daily

        train = functools.partial(
            common.train_policy,
            seed=common.TRAIN_SEED + self.seed,
            train_days=self.size["train_days"],
        )
        with patched(
            fig8_daily,
            four_day_trace=lambda timeline: self.trace,
            train_policy=train,
            evaluation_suite=self._capture_suite,
        ):
            table = fig8_daily.run(
                benchmarks=["WAM"],
                finetune_epochs=self.size["finetune_epochs"],
                n_workers=1,
            )
        rendered = table.render()
        return Output(
            value=table,
            digest=hashlib.sha256(rendered.encode("utf-8")).hexdigest(),
            slots=sum(r.timeline.total_slots for r in self.results.values()),
            failed_units=self.units - len(self.results),
            extra={"results": self.results, "suite": self.suite},
        )

    def check(self, out: Output) -> List[Check]:
        table = out.value
        results = out.extra["results"]
        columns = table.headers[2:]
        day_rows = [r for r in table.rows if r[0] == "WAM"]
        checks: List[Check] = [
            (
                "fig8.shape",
                len(day_rows) == 4 and set(columns) == set(results),
                f"{len(day_rows)} day rows, columns {columns}, cells {sorted(results)}",
            )
        ]
        bad = []
        for day, row in enumerate(day_rows):
            for name, cell in zip(columns, row[2:]):
                value = float(cell)
                if not 0.0 <= value <= 1.0:
                    bad.append(f"{name} day{day + 1}={cell} outside [0, 1]")
                if name in results:
                    expected = f"{results[name].dmr_by_day()[day]:.3f}"
                    if cell != expected:
                        bad.append(f"{name} day{day + 1}: table {cell} != run {expected}")
        checks.append(("fig8.cells_match_runs", not bad, "; ".join(bad) or "ok"))
        return checks

    def oracle(self, out: Output) -> List[Check]:
        """Every physics invariant of ``repro.verify`` on every cell.

        Each cell is simulated again under full observation (event
        stream, per-slot arrays, online monitor) by
        ``verified_simulation``, which runs all six invariant checks and
        compares the re-run's fingerprint with the timed cell's.  A
        check that finds nothing to inspect fails here too.
        """
        from repro.experiments.common import _suite_scheduler
        from repro.sim.checkpoint import result_fingerprint
        from repro.verify.runner import verified_simulation

        graph, trace, policy = out.extra["suite"]
        checks: List[Check] = []
        for name, result in sorted(out.extra["results"].items()):
            outcomes = verified_simulation(
                name,
                {
                    "node": policy.make_node(),
                    "graph": graph,
                    "trace": trace,
                    "scheduler": _suite_scheduler(name, graph, trace, policy),
                },
                reference={name: result_fingerprint(result, include_slots=False)},
            )
            bad = [f"{o.name}: {len(o.errors)} error(s)" for o in outcomes if not o.passed]
            bad += [f"{o.name}: not run ({o.notes})" for o in outcomes if not o.checked]
            checks.append(
                (
                    f"oracle.invariants[{name}]",
                    not bad,
                    "; ".join(bad) or f"{len(outcomes)} checks passed",
                )
            )
        return checks


# ----------------------------------------------------------------------
# fleet workloads
# ----------------------------------------------------------------------
class _Fleet:
    """``FleetRunner(FleetSpec(n_nodes, seed))`` with shard checkpoints off."""

    name = ""
    workers = 1
    all_policies = False  # False: the CLI's default policy pool
    SIZES: Dict[str, Dict[str, Optional[int]]] = {}
    #: Nodes re-simulated per node by the oracle, besides one per policy.
    ORACLE_NODES = 4

    def __init__(self, seed: int, size: str) -> None:
        from repro.fleet import FLEET_POLICIES, FleetSpec

        self.seed = seed
        self.size = self.SIZES[size]
        kwargs = {"n_nodes": self.size["n_nodes"], "seed": seed}
        if self.all_policies:
            kwargs["policies"] = FLEET_POLICIES
        self.spec = FleetSpec(**kwargs)
        self.units = self.spec.n_nodes
        self.node_specs: List = []

    def prepare(self, workdir: Path) -> None:
        self.node_specs = self.spec.node_specs()

    def reset(self, workdir: Path) -> None:
        pass

    def call(self, observer=None) -> Output:
        from repro.fleet import FleetRunner

        result = FleetRunner(
            self.spec,
            workers=self.workers,
            shard_size=self.size["shard_size"],
            cache=False,
            observer=observer,
        ).run()
        return Output(
            value=result,
            digest=result.fingerprint(),
            slots=len(result) * self.spec.timeline().total_slots,
            failed_units=len(result.failed_nodes),
            extra={
                "n_nodes": self.spec.n_nodes,
                "failed_nodes": len(result.failed_nodes),
                "supervisor": result.config.get("supervisor", {}),
            },
        )

    def check(self, out: Output) -> List[Check]:
        result = out.value
        expected = Counter(spec.policy for spec in self.node_specs)
        got = Counter(node.policy for node in result.nodes)
        ids = [node.node_id for node in result.nodes]
        return [
            (
                "fleet.population",
                ids == list(range(self.spec.n_nodes)) and got == expected,
                f"{len(ids)} nodes, policies {dict(got)} (spec: {dict(expected)})",
            ),
            ("fleet.healthy", not result.degraded, f"{len(result.failed_nodes)} failed node(s)"),
        ]

    def oracle_ids(self) -> List[int]:
        """One node per policy plus a few more, drawn from the seed."""
        rng = np.random.default_rng([self.seed, 20150607])
        ids = set()
        for policy in sorted({s.policy for s in self.node_specs}):
            members = [s.node_id for s in self.node_specs if s.policy == policy]
            ids.add(int(rng.choice(members)))
        ids.update(int(i) for i in rng.choice(self.spec.n_nodes, self.ORACLE_NODES, replace=False))
        return sorted(ids)

    def oracle(self, out: Output) -> List[Check]:
        """Sampled nodes re-simulated alone through the per-node engine."""
        from repro.fleet.runner import simulate_node

        by_id = {node.node_id: node for node in out.value.nodes}
        base = self.spec.base_trace()
        bad = []
        ids = self.oracle_ids()
        for node_id in ids:
            spec = self.node_specs[node_id]
            alone = simulate_node(self.spec, base, spec)
            if alone != by_id.get(node_id):
                bad.append(f"node {node_id} ({spec.policy}) differs from its fleet summary")
        return [("oracle.per_node", not bad, "; ".join(bad) or f"{len(ids)} nodes agree")]


class FleetBatch256(_Fleet):
    """The CLI's default ``repro fleet run`` on 256 nodes, one worker.

    Policy pool asap/inter-task/intra-task/random: every node takes the
    batched engine, 32 nodes per shard.  256 nodes keep a call to
    seconds, so a run can report the median of several; the
    ``reference`` size is the CLI's 1024-node default, whose seed-0
    fingerprint is ``BENCH_perf.json``'s ``fleet_batch``.  The
    self-test checks its pinned digests.
    """

    name = "fleet-batch-256"
    workers = 1
    SIZES = {
        "full": {"n_nodes": 256, "shard_size": None},
        "reference": {"n_nodes": 1024, "shard_size": None},
        "tiny": {"n_nodes": 24, "shard_size": 8},
    }


class FleetMixed256(_Fleet):
    """All six fleet policies over the supervised two-worker pool.

    ``proposed`` and ``dvfs`` nodes take the per-node fallback engine;
    each ``proposed`` node reloads its trained policy from the
    benchmark's artifact cache, which :meth:`prepare` fills.
    """

    name = "fleet-mixed-256"
    workers = 2
    all_policies = True
    SIZES = {
        "full": {"n_nodes": 256, "shard_size": None},
        "tiny": {"n_nodes": 24, "shard_size": 8},
    }

    def prepare(self, workdir: Path) -> None:
        """Expand the fleet and train each ``proposed`` workload once.

        Fills an empty cache by running one ``proposed`` node per
        distinct workload through the runner itself, so the cached
        artifacts are exactly the ones the timed run loads.
        """
        from repro.fleet import FleetRunner

        super().prepare(workdir)
        os.environ["REPRO_CACHE_DIR"] = str(_fresh_dir(workdir / "cache"))
        keep = {}
        for spec in self.node_specs:
            if spec.policy == "proposed":
                keep.setdefault(spec.graph_kind, spec.node_id)
        if not keep:
            return
        FleetRunner(
            self.spec,
            workers=1,
            cache=False,
            exclude_nodes=[i for i in range(self.spec.n_nodes) if i not in keep.values()],
        ).run()


WORKLOADS = {w.name: w for w in (Fig8WamCold, FleetBatch256, FleetMixed256)}
