"""Differential oracles: two independent routes to the same answer.

Four oracles, each pitting the production implementation against a
slower but obviously-correct reference:

``scalar-vs-vectorized``
    The engine's hot loop vectorizes the capacitor-bank update
    (:meth:`~repro.energy.bank.CapacitorBank.leak_all` /
    ``view_arrays``).  :class:`ScalarReferenceBank` re-implements both
    as plain per-capacitor Python loops with the identical IEEE
    operation order; a run on each must produce bit-identical results.
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
    (:mod:`repro.sim.batch`) and through one scalar engine per node;
    every :class:`~repro.fleet.result.NodeSummary` — fingerprint
    included — must match bit for bit.

The module also owns the *reference fingerprint* capture: the 4
canonical solar days and 7 seeded runtime fault scenarios whose result
digests are committed in ``tests/data/engine_fingerprints.json``
(regenerate with ``repro verify --update-fingerprints``).
"""

from __future__ import annotations

import itertools
import json
import math
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import quick_node
from ..core import DPConfig, LongTermOptimizer, StaticOptimalScheduler
from ..energy.bank import CapacitorBank
from ..energy.capacitor import SuperCapacitor
from ..node.node import SensorNode
from ..reliability import RUNTIME_SCENARIOS, FaultInjector, runtime_scenario
from ..schedulers import (
    GreedyEDFScheduler,
    IntraTaskScheduler,
    PlanScheduler,
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
    "ScalarReferenceBank",
    "scalar_reference_node",
    "oracle_scalar_vs_vectorized",
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
# Scalar-vs-vectorized engine replay
# ----------------------------------------------------------------------
class ScalarReferenceBank(CapacitorBank):
    """Per-capacitor reference for the bank's two vectorized paths.

    Replicates the pre-vectorization update exactly — same formulas,
    same operation order, plain Python floats — so that a run on this
    bank is the independent route to the vectorized hot loop's bits.
    """

    def leak_all(self, duration: float) -> float:
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        lost = 0.0
        for i, state in enumerate(self.states):
            cap = state.capacitor
            v = state.voltage
            leak_power = (
                cap.leak_coeff * cap.capacitance * v**cap.leak_exponent
                + cap.parasitic_power
            )
            before = 0.5 * cap.capacitance * v * v
            if i == self._active:
                # Full drain, clamped to [0, E_full] the way
                # CapacitorState._set_energy does.
                energy = before - leak_power * duration
                full = 0.5 * cap.capacitance * cap.v_full * cap.v_full
                energy = min(max(energy, 0.0), full)
            else:
                # Idle: the parasitic term is subtracted back out.
                idle_power = max(leak_power - cap.parasitic_power, 0.0)
                energy = max(before - idle_power * duration, 0.0)
            new_v = math.sqrt(2.0 * energy / cap.capacitance)
            after = 0.5 * cap.capacitance * new_v * new_v
            state.voltage = float(new_v)
            lost += before - after
        return float(lost)

    def view_arrays(self) -> tuple:
        capacitances = []
        voltages = []
        usable = []
        for state in self.states:
            cap = state.capacitor
            v = state.voltage
            stored = 0.5 * cap.capacitance * v * v
            cutoff = 0.5 * cap.capacitance * cap.v_cutoff * cap.v_cutoff
            capacitances.append(cap.capacitance)
            voltages.append(v)
            usable.append(max(stored - cutoff, 0.0))
        return (
            np.array(capacitances),
            np.array(voltages),
            np.array(usable),
        )


def scalar_reference_node(graph: TaskGraph, **node_kwargs) -> SensorNode:
    """A :func:`~repro.quick_node` whose bank is the scalar reference."""
    node = quick_node(graph, **node_kwargs)
    bank = ScalarReferenceBank([s.capacitor for s in node.bank.states])
    node.bank = bank
    node.pmu.bank = bank
    return node


def oracle_scalar_vs_vectorized(
    graph: TaskGraph,
    trace: SolarTrace,
    scheduler_factory: Callable,
    label: str = "",
    injector_factory: Optional[Callable] = None,
) -> CheckOutcome:
    """Run vectorized and scalar-reference engines; demand bit-identity."""
    out = CheckOutcome(name="oracle/scalar-vs-vectorized", subject=label)
    inj = injector_factory or (lambda: None)
    vectorized = simulate(
        quick_node(graph), graph, trace, scheduler_factory(),
        strict=False, record_slots=True, fault_injector=inj(),
    )
    scalar = simulate(
        scalar_reference_node(graph), graph, trace, scheduler_factory(),
        strict=False, record_slots=True, fault_injector=inj(),
    )
    out.checked = trace.timeline.total_slots
    if result_fingerprint(vectorized) != result_fingerprint(scalar):
        out.violations.append(
            Violation(
                check=out.name,
                message=(
                    "vectorized engine diverged from the scalar "
                    "reference bank"
                ),
                details={
                    "vectorized": vectorized.summary(),
                    "scalar": scalar.summary(),
                },
            )
        )
    return out


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
        node_factory(), graph, trace, StaticOptimalScheduler(plan),
        strict=False,
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
# Reference fingerprints: canonical days + fault scenarios
# ----------------------------------------------------------------------
def _canonical_timeline(days: int) -> Timeline:
    return Timeline(
        num_days=days, periods_per_day=144, slots_per_period=20,
        slot_seconds=30.0,
    )


def reference_run_specs(
    graph: Optional[TaskGraph] = None,
) -> List[Tuple[str, Callable[[], dict]]]:
    """The canonical verification matrix: 4 canonical solar days under
    the intra-task scheduler plus all 7 runtime fault scenarios under
    the greedy baseline.  Each entry is ``(key, build)`` where
    ``build()`` returns keyword arguments for
    :func:`repro.sim.engine.simulate` (node, graph, trace, scheduler,
    fault_injector)."""
    graph = graph if graph is not None else paper_benchmarks()["WAM"]
    specs: List[Tuple[str, Callable[[], dict]]] = []

    four = four_day_trace(_canonical_timeline(4))
    for day in range(4):
        def build(day=day):
            return {
                "node": quick_node(graph),
                "graph": graph,
                "trace": four.day_slice(day),
                "scheduler": IntraTaskScheduler(),
                "fault_injector": None,
            }

        specs.append((f"canonical-day{day + 1}/intra-task", build))

    chaos_trace = synthetic_trace(_canonical_timeline(1), seed=3)
    for scenario in sorted(RUNTIME_SCENARIOS):
        def build(scenario=scenario):
            plan = runtime_scenario(
                scenario, chaos_trace.timeline, seed=0
            )
            return {
                "node": quick_node(graph),
                "graph": graph,
                "trace": chaos_trace,
                "scheduler": GreedyEDFScheduler(),
                "fault_injector": FaultInjector(plan, chaos_trace.timeline),
            }

        specs.append((f"fault-{scenario}/asap", build))
    return specs


def capture_reference_fingerprints(
    graph: Optional[TaskGraph] = None,
) -> Dict[str, str]:
    """Replay the reference matrix and digest every result."""
    fingerprints = {}
    for key, build in reference_run_specs(graph):
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
    graph: Optional[TaskGraph] = None,
) -> Tuple[Path, Dict[str, str]]:
    """Regenerate the committed reference (the ``--update-fingerprints``
    path)."""
    path = Path(path) if path is not None else default_fingerprint_path()
    fingerprints = capture_reference_fingerprints(graph)
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
    complete :class:`~repro.fleet.result.NodeSummary` of every batched
    node — the fingerprint and each derived metric — with
    :func:`~repro.fleet.runner.simulate_node`'s.  A node the executor
    leaves out must be batch-ineligible.  Any mismatch is reported as
    one Violation per offending node, naming its index and config.
    """
    from ..fleet.runner import simulate_node, simulate_shard_batch
    from ..fleet.spec import FLEET_POLICIES, FleetSpec
    from ..sim.batch import batch_ineligibility
    from .strategies import build_graph

    out = CheckOutcome(name="oracle/batch-vs-per-node", subject=label)
    fleet = FleetSpec(n_nodes=n_nodes, seed=seed, policies=FLEET_POLICIES)
    base = fleet.base_trace()
    specs = [fleet.node_spec(i) for i in range(n_nodes)]
    batched = simulate_shard_batch(fleet, base, specs)
    out.checked = n_nodes
    for spec in specs:
        got = batched.get(spec.node_id)
        if got is None:
            reason = batch_ineligibility(
                spec.policy, build_graph(spec.graph_kind)
            )
            if reason is None:
                out.violations.append(
                    Violation(
                        check=out.name,
                        message=(
                            f"batch-eligible node {spec.node_id} was "
                            "not batched"
                        ),
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
