"""Regenerate the committed engine reference fingerprints.

Two matrices are pinned in ``engine_fingerprints.json``:

* the verification matrix in :mod:`repro.verify.oracles` (the one
  ``repro verify`` checks at the ``quick`` level: the 4 canonical
  solar days under the intra-task scheduler and the 7 seeded runtime
  fault scenarios under the greedy baseline);
* the ``policy-*`` runs below over canonical day 2 (morning cloud,
  then sun, then night): every other per-node policy the fleet runs
  (inter-task, random, and dvfs on a node with and without a
  ``DVFSModel``, the latter being the non-strict fleet path), and the
  DP-driven coarse policies (the "Optimal" plan on the day's true
  solar, alone and under the ``inference-failure`` runtime scenario,
  and the receding horizon over predicted solar).

The supported way to refresh the first after an *intentional*
semantic change is::

    PYTHONPATH=src python -m repro verify --update-fingerprints

which keeps the ``policy-*`` entries.  Running this module directly
refreshes both.  Never refresh to make a red CI green without
understanding the engine change that moved the digests — that is
exactly the drift these fingerprints exist to catch.
"""

import json

from repro import quick_node
from repro.core import (
    HorizonPolicy,
    LongTermOptimizer,
    PlanPolicy,
    ProposedScheduler,
    trace_period_matrix,
)
from repro.node.dvfs import DVFSModel
from repro.reliability.runtime import FaultInjector, runtime_scenario
from repro.schedulers import (
    DVFSLoadMatchingScheduler,
    InterTaskScheduler,
    RandomScheduler,
)
from repro.sim import result_fingerprint
from repro.sim.engine import simulate
from repro.solar import four_day_trace
from repro.tasks import paper_benchmarks
from repro.timeline import Timeline
from repro.verify import (
    capture_reference_fingerprints,
    default_fingerprint_path,
)


def policy_runs(trace):
    """``(key, node, graph, scheduler, fault_injector)`` for each
    ``policy-*`` run over ``trace``."""
    benchmarks = paper_benchmarks()
    wam, ecg = benchmarks["WAM"], benchmarks["ECG"]
    tl = trace.timeline
    caps = [s.capacitor for s in quick_node(wam).bank.states]
    plan = LongTermOptimizer(wam, tl, caps).optimize(
        trace_period_matrix(trace)
    )

    def optimal():
        return ProposedScheduler(PlanPolicy(plan), name="optimal")

    inference_failure = FaultInjector(
        runtime_scenario("inference-failure", tl, seed=0), tl
    )
    runs = [
        ("policy-inter-task/canonical-day2", quick_node(wam), wam,
         InterTaskScheduler()),
        ("policy-random/canonical-day2", quick_node(wam), wam,
         RandomScheduler(seed=7)),
        ("policy-dvfs/canonical-day2", quick_node(wam, dvfs=DVFSModel()),
         wam, DVFSLoadMatchingScheduler()),
        ("policy-dvfs-ecg/canonical-day2",
         quick_node(ecg, dvfs=DVFSModel()), ecg,
         DVFSLoadMatchingScheduler()),
        ("policy-dvfs-no-model/canonical-day2", quick_node(wam), wam,
         DVFSLoadMatchingScheduler()),
        ("policy-optimal/canonical-day2", quick_node(wam), wam, optimal()),
        ("policy-optimal-inference-failure/canonical-day2",
         quick_node(wam), wam, optimal(), inference_failure),
        ("policy-receding-horizon/canonical-day2", quick_node(wam), wam,
         ProposedScheduler(
             HorizonPolicy(caps, horizon_periods=12),
             name="receding-horizon",
         )),
    ]
    return [run if len(run) == 5 else (*run, None) for run in runs]


def capture_policy_fingerprints() -> dict:
    trace = four_day_trace(Timeline(4, 144, 20, 30.0)).day_slice(1)
    return {
        key: result_fingerprint(
            simulate(
                node, graph, trace, scheduler, strict=False,
                fault_injector=injector,
            )
        )
        for key, node, graph, scheduler, injector in policy_runs(trace)
    }


def capture() -> dict:
    """Fingerprint every reference run (kept for the test suite)."""
    return {
        **capture_reference_fingerprints(),
        **capture_policy_fingerprints(),
    }


if __name__ == "__main__":
    fingerprints = capture()
    path = default_fingerprint_path()
    path.write_text(json.dumps(fingerprints, indent=2, sort_keys=True) + "\n")
    for key in sorted(fingerprints):
        print(f"{key}: {fingerprints[key]}")
    print(f"wrote {path}")
