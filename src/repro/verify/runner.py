"""The ``repro verify`` driver: invariants + oracles at three depths.

``smoke``
    Seconds.  One observed micro-run through the full invariant suite
    plus one cheap instance of every differential oracle.  This is the
    level the test suite itself exercises end-to-end.
``quick``
    A couple of minutes.  The full reference matrix — 4 canonical
    solar days and all 7 runtime fault scenarios — each run under
    observation through the complete invariant suite, and a digest
    comparison against the committed reference fingerprints; plus all
    curated oracle instances and the metamorphic relations.  This is
    the CI gate.
``deep``
    Everything in ``quick`` plus seeded randomized sweeps: extra
    scalar-vs-vectorized replays under random weather, and random
    brute-force instances (where DP suboptimality is reported as a
    warning, not a failure).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from .. import quick_node
from ..obs import Observer
from ..obs.sinks import RingBufferSink
from ..reliability import FaultInjector, runtime_scenario
from ..schedulers import GreedyEDFScheduler, IntraTaskScheduler
from ..sim import result_fingerprint
from ..sim.engine import simulate
from .invariants import RunContext, verify_run
from .metamorphic import (
    relation_capacity_monotonicity,
    relation_irradiance_monotonicity,
    relation_task_permutation,
)
from .oracles import (
    BRUTEFORCE_INSTANCES,
    load_reference_fingerprints,
    oracle_batch_vs_per_node,
    oracle_checkpoint_resume,
    oracle_plan_vs_bruteforce,
    oracle_reference_fingerprints,
    oracle_scalar_vs_vectorized,
    reference_run_specs,
)
from .report import CheckOutcome, VerificationReport
from .strategies import random_trace, tiny_env, tiny_timeline

__all__ = ["LEVELS", "run_verification", "verified_simulation"]

LEVELS = ("smoke", "quick", "deep")


def _null_log(message: str) -> None:  # pragma: no cover - trivial
    return None


def verified_simulation(
    key: str,
    kwargs: dict,
    reference: Optional[dict] = None,
) -> List[CheckOutcome]:
    """Run one spec under full observation and check everything.

    ``kwargs`` is a :func:`~repro.verify.oracles.reference_run_specs`
    build product: node / graph / trace / scheduler / fault_injector.
    The run gets a ring-buffer event stream and per-slot arrays;
    afterwards the whole invariant suite replays over the result and —
    when a committed reference is supplied — the period-level
    fingerprint is compared against it.
    """
    node = kwargs["node"]
    graph = kwargs["graph"]
    sink = RingBufferSink()
    observer = Observer(sinks=[sink])
    injector = kwargs.get("fault_injector")
    if injector is not None:
        injector.observer = observer
    v_max = max(s.capacitor.v_full for s in node.bank.states)
    initial = float(sum(s.usable_energy for s in node.bank.states))
    result = simulate(
        node, graph, kwargs["trace"], kwargs["scheduler"],
        strict=False, record_slots=True, observer=observer,
        fault_injector=injector,
    )
    ctx = RunContext(
        result=result,
        graph=graph,
        events=list(sink.records),
        v_max=v_max,
        label=key,
        initial_usable_energy=initial,
    )
    outcomes = verify_run(ctx)
    if reference is not None:
        fingerprint = result_fingerprint(result, include_slots=False)
        outcomes.append(
            oracle_reference_fingerprints(key, fingerprint, reference)
        )
    return outcomes


# ----------------------------------------------------------------------
def _tiny_spec(seed: int = 3) -> tuple:
    graph, tl, trace = tiny_env(seed=seed)
    return graph, tl, trace


def run_verification(
    level: str = "quick",
    seed: int = 0,
    log: Optional[Callable[[str], None]] = None,
    fingerprint_path=None,
) -> VerificationReport:
    """Run the invariant + oracle suite at ``level``; see module doc.

    ``seed`` steers only the deep-level sweeps; the canonical matrix
    is deterministic.
    """
    if level not in LEVELS:
        raise ValueError(
            f"unknown level {level!r}; expected one of {LEVELS}"
        )
    log = log or _null_log
    report = VerificationReport(level=level, seed=seed)

    from ..obs.trace import current_tracer

    tracer = current_tracer()
    with tracer.span(
        "verify", key=level, attrs={"level": level, "seed": seed}
    ):
        graph, tl, trace = _tiny_spec()
        reference = load_reference_fingerprints(fingerprint_path)

        # ---- observed runs through the full invariant suite ----
        with tracer.span("verify_invariants"):
            if level == "smoke":
                log("invariants: micro run")
                report.extend(
                    verified_simulation(
                        "smoke/tiny/greedy-edf",
                        {
                            "node": quick_node(graph),
                            "graph": graph,
                            "trace": trace,
                            "scheduler": GreedyEDFScheduler(),
                            "fault_injector": None,
                        },
                    )
                )
            else:
                specs = reference_run_specs()
                for key, build in specs:
                    log(f"invariants: {key}")
                    report.extend(
                        verified_simulation(key, build(), reference)
                    )
                if reference is None:
                    report.add(
                        CheckOutcome(
                            name="oracle/reference-fingerprint",
                            notes=(
                                "no committed reference found; "
                                "comparison skipped"
                            ),
                        )
                    )

        # ---- differential oracles ----
        with tracer.span("verify_oracles"):
            log("oracle: scalar vs vectorized")
            report.add(
                oracle_scalar_vs_vectorized(
                    graph, trace, GreedyEDFScheduler, label="tiny/greedy-edf"
                )
            )
            if level != "smoke":
                report.add(
                    oracle_scalar_vs_vectorized(
                        graph, trace, IntraTaskScheduler,
                        label="tiny/intra-task",
                        injector_factory=lambda: FaultInjector(
                            runtime_scenario("chaos", tl, seed=0), tl
                        ),
                    )
                )

            log("oracle: DP plan vs brute force")
            if level == "smoke":
                curated = ["marginal"]
            else:
                curated = sorted(BRUTEFORCE_INSTANCES)
            for name in curated:
                report.add(
                    oracle_plan_vs_bruteforce(
                        BRUTEFORCE_INSTANCES[name], label=name
                    )
                )

            log("oracle: checkpoint resume vs straight through")
            report.add(
                oracle_checkpoint_resume(
                    graph, trace, GreedyEDFScheduler, label="tiny/greedy-edf"
                )
            )

            log("oracle: batched engine vs per-node engine")
            fleet_nodes = 4 if level == "smoke" else 16
            report.add(
                oracle_batch_vs_per_node(
                    n_nodes=fleet_nodes, seed=0,
                    label=f"fleet-{fleet_nodes}",
                )
            )

        # ---- metamorphic relations ----
        with tracer.span("verify_metamorphic"):
            log("metamorphic relations")
            report.add(relation_task_permutation())
            if level != "smoke":
                report.add(relation_irradiance_monotonicity())
                report.add(relation_capacity_monotonicity())

        # ---- deep-only randomized sweeps ----
        if level == "deep":
            with tracer.span("verify_deep_sweeps"):
                rng = np.random.default_rng(seed)
                for i in range(4):
                    sweep_tl = tiny_timeline(
                        periods_per_day=int(rng.integers(2, 5))
                    )
                    sweep_trace = random_trace(
                        sweep_tl, int(rng.integers(0, 10_000))
                    )
                    log(f"deep sweep {i}: scalar vs vectorized, random weather")
                    report.add(
                        oracle_scalar_vs_vectorized(
                            graph, sweep_trace, GreedyEDFScheduler,
                            label=f"sweep-{i}/random-weather",
                        )
                    )
                for i in range(3):
                    rows = (
                        rng.uniform(0.0, 0.12, size=(2, 4)).round(3).tolist()
                    )
                    log(f"deep sweep {i}: DP vs brute force, random instance")
                    report.add(
                        oracle_plan_vs_bruteforce(
                            rows, label=f"sweep-{i}/random",
                            strict_optimality=False,
                        )
                    )
    return report
