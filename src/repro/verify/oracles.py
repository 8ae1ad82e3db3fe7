"""Differential oracles: two independent routes to the same answer.

Three oracles, each pitting the production implementation against a
slower but obviously-correct reference:

``plan-vs-bruteforce``
    On single-task instances small enough to enumerate every per-slot
    schedule, the long-term DP's replayed plan must match the
    brute-force engine optimum (the Eq. 14-18 pipeline against ground
    truth).
``checkpoint-resume``
    A run interrupted at a period boundary and resumed must be
    bit-identical to the uninterrupted run (meta-level NVP semantics).
``batch-vs-per-node``
    A heterogeneous fleet shard through the node-major batched engine
    (:mod:`repro.sim.batch`) and through the per-node engine;
    every :class:`~repro.fleet.result.NodeSummary` — fingerprint
    included — must match bit for bit.

The module also owns the *reference fingerprint* matrix: the 4
canonical solar days, the 7 seeded runtime fault scenarios and the 8
``policy-*`` runs whose result digests are committed in
``tests/data/engine_fingerprints.json``.  ``repro verify
--update-fingerprints`` is its one writer; never refresh it to make a
red check green without understanding the engine change that moved
the digests.
"""

from __future__ import annotations

import functools
import itertools
import json
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import quick_node
from ..core import (
    DPConfig,
    HorizonPolicy,
    LongTermOptimizer,
    PlanPolicy,
    ProposedScheduler,
    trace_period_matrix,
)
from ..energy.capacitor import SuperCapacitor
from ..node.dvfs import DVFSModel
from ..node.node import SensorNode
from ..reliability import RUNTIME_SCENARIOS, FaultInjector, runtime_scenario
from ..schedulers import (
    DVFSLoadMatchingScheduler,
    GreedyEDFScheduler,
    InterTaskScheduler,
    IntraTaskScheduler,
    PlanScheduler,
    RandomScheduler,
    SchedulePlan,
)
from ..sim import (
    CheckpointConfig,
    SimulationInterrupted,
    latest_checkpoint,
    result_fingerprint,
)
from ..sim.engine import simulate
from ..solar import four_day_trace, synthetic_trace
from ..solar.trace import SolarTrace
from ..tasks import Task, TaskGraph, paper_benchmarks
from ..timeline import Timeline
from .report import CheckOutcome, Violation

__all__ = [
    "brute_force_best_dmr",
    "oracle_plan_vs_bruteforce",
    "oracle_checkpoint_resume",
    "oracle_batch_vs_per_node",
    "reference_run_specs",
    "capture_reference_fingerprints",
    "write_reference_fingerprints",
    "oracle_reference_fingerprints",
    "load_reference_fingerprints",
    "default_fingerprint_path",
]


# ----------------------------------------------------------------------
# Fine-grained plan vs brute-force enumeration
# ----------------------------------------------------------------------
def brute_force_best_dmr(
    node_factory: Callable, graph: TaskGraph, trace: SolarTrace
) -> float:
    """Enumerate every per-slot schedule of a single-task workload and
    return the best DMR achievable under the real engine physics."""
    tl = trace.timeline
    slots = tl.slots_per_period
    periods = tl.total_periods
    if len(graph) != 1:
        raise ValueError("exhaustive search supports exactly one task")
    best = 1.1
    per_period_options = list(
        itertools.product([False, True], repeat=slots)
    )
    for combo in itertools.product(per_period_options, repeat=periods):
        plan = SchedulePlan()
        for t, slot_choices in enumerate(combo):
            day, period = tl.unflatten_period(t)
            matrix = np.array(slot_choices, dtype=bool)[:, None]
            plan.set_period(day, period, matrix)
        result = simulate(
            node_factory(), graph, trace,
            PlanScheduler(plan, force_capacitor=False),
            strict=False,
        )
        best = min(best, result.dmr)
        if best == 0.0:
            break
    return best


def _single_task_env(
    solar_rows: Sequence[Sequence[float]],
    exec_s: float = 60.0,
    deadline: float = 120.0,
    power: float = 0.05,
    cap_f: float = 2.0,
):
    graph = TaskGraph([Task("t", exec_s, deadline, power, nvp=0)])
    tl = Timeline(1, len(solar_rows), len(solar_rows[0]), 30.0)
    trace = SolarTrace(
        tl, np.asarray(solar_rows, dtype=float)[None, :, :]
    )

    def node_factory():
        return SensorNode([SuperCapacitor(capacitance=cap_f)], num_nvps=1)

    return graph, tl, trace, node_factory


#: Curated tiny instances where the DP must match the brute-force
#: optimum exactly (the golden-test scenarios: migration, famine,
#: abundance, marginal supply).
BRUTEFORCE_INSTANCES: Dict[str, List[List[float]]] = {
    "bright-then-dark": [
        [0.30, 0.30, 0.30, 0.30],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ],
    "all-dark": [[0.0] * 4] * 3,
    "all-bright": [[0.2] * 4] * 3,
    "marginal": [
        [0.0, 0.06, 0.06, 0.0],
        [0.0, 0.0, 0.06, 0.06],
    ],
}


def oracle_plan_vs_bruteforce(
    solar_rows: Sequence[Sequence[float]],
    label: str = "",
    strict_optimality: bool = True,
) -> CheckOutcome:
    """DP plan replayed through the engine vs exhaustive enumeration.

    The physics bound (DP can never beat the exhaustive optimum) is
    always an error.  Matching the optimum is an error on the curated
    instances (``strict_optimality=True``) and a warning on random
    ones, where coarse energy buckets may legitimately cost a period.
    """
    out = CheckOutcome(name="oracle/plan-vs-bruteforce", subject=label)
    graph, tl, trace, node_factory = _single_task_env(solar_rows)
    opt = LongTermOptimizer(
        graph, tl, [SuperCapacitor(capacitance=2.0)],
        config=DPConfig(energy_buckets=241),
    )
    matrix = trace.power.reshape(tl.total_periods, tl.slots_per_period)
    plan = opt.optimize(matrix)
    dp = simulate(
        node_factory(), graph, trace,
        ProposedScheduler(PlanPolicy(plan), name="optimal"), strict=False,
    ).dmr
    best = brute_force_best_dmr(node_factory, graph, trace)
    out.checked = 1
    if dp < best - 1e-9:
        out.violations.append(
            Violation(
                check=out.name,
                message=(
                    f"DP replay DMR {dp!r} beats the exhaustive optimum "
                    f"{best!r} — the brute-force oracle itself is broken"
                ),
            )
        )
    if dp > best + 1e-9:
        out.violations.append(
            Violation(
                check=out.name,
                message=(
                    f"DP replay DMR {dp!r} missed the exhaustive "
                    f"optimum {best!r}"
                ),
                severity="error" if strict_optimality else "warning",
                details={"dp": dp, "best": best},
            )
        )
    return out


# ----------------------------------------------------------------------
# Checkpoint-resume vs straight-through
# ----------------------------------------------------------------------
def oracle_checkpoint_resume(
    graph: TaskGraph,
    trace: SolarTrace,
    scheduler_factory: Callable,
    stop_after_periods: int = 3,
    every_periods: int = 2,
    label: str = "",
    injector_factory: Optional[Callable] = None,
    directory: Optional[Path] = None,
) -> CheckOutcome:
    """Interrupt at a boundary, resume, compare fingerprints."""
    out = CheckOutcome(name="oracle/checkpoint-resume", subject=label)
    inj = injector_factory or (lambda: None)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(directory) if directory is not None else Path(tmp)
        full = simulate(
            quick_node(graph), graph, trace, scheduler_factory(),
            strict=False, record_slots=True, fault_injector=inj(),
        )
        ck = CheckpointConfig(root / "crash", every_periods=every_periods)
        try:
            simulate(
                quick_node(graph), graph, trace, scheduler_factory(),
                strict=False, record_slots=True, fault_injector=inj(),
                checkpoint=ck, stop_after_periods=stop_after_periods,
            )
        except SimulationInterrupted:
            pass
        else:
            out.violations.append(
                Violation(
                    check=out.name,
                    message=(
                        f"stop_after_periods={stop_after_periods} did "
                        "not interrupt the run"
                    ),
                )
            )
            return out
        resumed = simulate(
            quick_node(graph), graph, trace, scheduler_factory(),
            strict=False, record_slots=True, fault_injector=inj(),
            checkpoint=ck, resume_from=latest_checkpoint(ck.path),
        )
    out.checked = trace.timeline.total_periods
    if result_fingerprint(resumed) != result_fingerprint(full):
        out.violations.append(
            Violation(
                check=out.name,
                message=(
                    "resumed run is not bit-identical to the "
                    "straight-through run"
                ),
                details={
                    "full": full.summary(),
                    "resumed": resumed.summary(),
                },
            )
        )
    return out


# ----------------------------------------------------------------------
# Reference fingerprints: canonical days, fault scenarios, policies
# ----------------------------------------------------------------------
def _canonical_timeline(days: int) -> Timeline:
    return Timeline(
        num_days=days, periods_per_day=144, slots_per_period=20,
        slot_seconds=30.0,
    )


def reference_run_specs() -> List[Tuple[str, Callable[[], dict]]]:
    """The reference matrix, all on WAM unless named otherwise.

    * the 4 canonical solar days under the intra-task scheduler;
    * all 7 runtime fault scenarios under the greedy baseline;
    * the ``policy-*`` runs over canonical day 2 (morning cloud, then
      sun, then night): every other per-node policy the fleet runs
      (inter-task, random, and dvfs on a WAM and an ECG node with a
      ``DVFSModel`` and on a WAM node without one, the non-strict fleet
      path), and the DP-driven coarse policies (the "Optimal" plan on
      the day's true solar, alone and under the ``inference-failure``
      scenario, and the receding horizon over predicted solar).

    Each entry is ``(key, build)`` where ``build()`` returns keyword
    arguments for :func:`repro.sim.engine.simulate` (node, graph,
    trace, scheduler, fault_injector)."""
    benchmarks = paper_benchmarks()
    wam, ecg = benchmarks["WAM"], benchmarks["ECG"]

    def run(node, graph, trace, scheduler, fault_injector=None):
        return {
            "node": node,
            "graph": graph,
            "trace": trace,
            "scheduler": scheduler,
            "fault_injector": fault_injector,
        }

    def faults(scenario, timeline):
        return FaultInjector(
            runtime_scenario(scenario, timeline, seed=0), timeline
        )

    four = four_day_trace(_canonical_timeline(4))
    specs: List[Tuple[str, Callable[[], dict]]] = [
        (
            f"canonical-day{day + 1}/intra-task",
            lambda day=day: run(
                quick_node(wam), wam, four.day_slice(day),
                IntraTaskScheduler(),
            ),
        )
        for day in range(4)
    ]

    chaos = synthetic_trace(_canonical_timeline(1), seed=3)
    specs += [
        (
            f"fault-{scenario}/asap",
            lambda scenario=scenario: run(
                quick_node(wam), wam, chaos, GreedyEDFScheduler(),
                faults(scenario, chaos.timeline),
            ),
        )
        for scenario in sorted(RUNTIME_SCENARIOS)
    ]

    day2 = four.day_slice(1)
    caps = [s.capacitor for s in quick_node(wam).bank.states]

    @functools.lru_cache(maxsize=None)
    def plan():
        return LongTermOptimizer(wam, day2.timeline, caps).optimize(
            trace_period_matrix(day2)
        )

    def optimal():
        return ProposedScheduler(PlanPolicy(plan()), name="optimal")

    def on_day2(scheduler, graph=wam, fault_injector=None, **node_kwargs):
        node = quick_node(graph, **node_kwargs)
        return run(node, graph, day2, scheduler, fault_injector)

    policy_runs = {
        "inter-task": lambda: on_day2(InterTaskScheduler()),
        "random": lambda: on_day2(RandomScheduler(seed=7)),
        "dvfs": lambda: on_day2(
            DVFSLoadMatchingScheduler(), dvfs=DVFSModel()
        ),
        "dvfs-ecg": lambda: on_day2(
            DVFSLoadMatchingScheduler(), ecg, dvfs=DVFSModel()
        ),
        "dvfs-no-model": lambda: on_day2(DVFSLoadMatchingScheduler()),
        "optimal": lambda: on_day2(optimal()),
        "optimal-inference-failure": lambda: on_day2(
            optimal(),
            fault_injector=faults("inference-failure", day2.timeline),
        ),
        "receding-horizon": lambda: on_day2(
            ProposedScheduler(
                HorizonPolicy(caps, horizon_periods=12),
                name="receding-horizon",
            )
        ),
    }
    specs += [
        (f"policy-{name}/canonical-day2", build)
        for name, build in policy_runs.items()
    ]
    return specs


def capture_reference_fingerprints() -> Dict[str, str]:
    """Replay the reference matrix and digest every result."""
    fingerprints = {}
    for key, build in reference_run_specs():
        kwargs = build()
        result = simulate(
            kwargs["node"], kwargs["graph"], kwargs["trace"],
            kwargs["scheduler"], strict=False,
            fault_injector=kwargs["fault_injector"],
        )
        fingerprints[key] = result_fingerprint(result)
    return fingerprints


def default_fingerprint_path() -> Path:
    """Committed reference JSON (best effort from a source checkout)."""
    candidate = (
        Path(__file__).resolve().parents[3]
        / "tests" / "data" / "engine_fingerprints.json"
    )
    if candidate.is_file():
        return candidate
    return Path("tests") / "data" / "engine_fingerprints.json"


def write_reference_fingerprints(
    path: Optional[Path] = None,
) -> Tuple[Path, Dict[str, str]]:
    """Regenerate the committed reference (the ``--update-fingerprints``
    path): the file holds exactly this matrix's digests."""
    path = Path(path) if path is not None else default_fingerprint_path()
    fingerprints = capture_reference_fingerprints()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(fingerprints, indent=2, sort_keys=True) + "\n"
    )
    return path, fingerprints


def load_reference_fingerprints(
    path: Optional[Path] = None,
) -> Optional[Dict[str, str]]:
    """The committed reference digests, or None when unavailable."""
    path = Path(path) if path is not None else default_fingerprint_path()
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def oracle_reference_fingerprints(
    key: str, fingerprint: str, reference: Dict[str, str]
) -> CheckOutcome:
    """Compare one run's digest against the committed reference."""
    out = CheckOutcome(
        name="oracle/reference-fingerprint", subject=key, checked=1
    )
    expected = reference.get(key)
    if expected is None:
        out.notes = "no committed reference for this key"
        return out
    if fingerprint != expected:
        out.violations.append(
            Violation(
                check=out.name,
                message=(
                    "engine drifted from the committed reference; if "
                    "the change is an intentional semantic fix, "
                    "regenerate with `repro verify --update-fingerprints`"
                ),
                details={"expected": expected, "got": fingerprint},
            )
        )
    return out


# ----------------------------------------------------------------------
# Batched node-major engine vs per-node scalar engine
# ----------------------------------------------------------------------
def oracle_batch_vs_per_node(
    n_nodes: int = 8,
    seed: int = 0,
    label: str = "",
) -> CheckOutcome:
    """One fleet shard through both executors; demand bit-identity.

    Simulates ``n_nodes`` heterogeneous fleet nodes (every fleet
    policy, ``proposed`` with the fleet's small training budget, and
    mixed bank sizes and panel scales — the ``fleet_variations``
    population of the seed) through the fleet's own shard executor,
    :func:`~repro.fleet.runner.simulate_shard_batch`, and compares the
    complete :class:`~repro.fleet.result.NodeSummary` of every node —
    the fingerprint and each derived metric — with
    :func:`~repro.fleet.runner.simulate_node`'s.  A node the executor
    leaves out, or any mismatch, is reported as one Violation per
    offending node, naming its index and config.
    """
    from ..fleet.runner import simulate_node, simulate_shard_batch
    from ..fleet.spec import FLEET_POLICIES, FleetSpec

    out = CheckOutcome(name="oracle/batch-vs-per-node", subject=label)
    fleet = FleetSpec(n_nodes=n_nodes, seed=seed, policies=FLEET_POLICIES)
    base = fleet.base_trace()
    specs = [fleet.node_spec(i) for i in range(n_nodes)]
    batched, _ = simulate_shard_batch(fleet, base, specs)
    out.checked = n_nodes
    for spec in specs:
        got = batched.get(spec.node_id)
        if got is None:
            out.violations.append(
                Violation(
                    check=out.name,
                    message=f"node {spec.node_id} was not batched",
                    details={
                        "node_id": spec.node_id,
                        "policy": spec.policy,
                        "graph_kind": spec.graph_kind,
                    },
                )
            )
            continue
        want = simulate_node(fleet, base, spec)
        if got == want:
            continue
        fields = [
            f for f in want.__dataclass_fields__
            if getattr(got, f) != getattr(want, f)
        ]
        out.violations.append(
            Violation(
                check=out.name,
                message=(
                    f"batched engine diverged from per-node engine "
                    f"on node {spec.node_id}"
                ),
                details={
                    "node_id": spec.node_id,
                    "policy": spec.policy,
                    "graph_kind": spec.graph_kind,
                    "bank_farads": list(spec.bank_farads),
                    "differing_fields": fields,
                    "batched": {
                        f: getattr(got, f) for f in fields
                    },
                    "per_node": {
                        f: getattr(want, f) for f in fields
                    },
                },
            )
        )
    return out
