"""Regenerate the committed engine reference fingerprints.

Two matrices are pinned in ``engine_fingerprints.json``:

* the verification matrix in :mod:`repro.verify.oracles` (the one
  ``repro verify`` checks at the ``quick`` level: the 4 canonical
  solar days under the intra-task scheduler and the 7 seeded runtime
  fault scenarios under the greedy baseline);
* the ``policy-*`` runs below: every other per-node policy the fleet
  runs (inter-task, random, and dvfs on a node with and without a
  ``DVFSModel``, the latter being the non-strict fleet path) over
  canonical day 2 (morning cloud, then sun, then night).

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
from repro.node.dvfs import DVFSModel
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


def policy_runs():
    """``(key, node, graph, scheduler)`` for each ``policy-*`` run."""
    benchmarks = paper_benchmarks()
    wam, ecg = benchmarks["WAM"], benchmarks["ECG"]
    return [
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
    ]


def capture_policy_fingerprints() -> dict:
    trace = four_day_trace(Timeline(4, 144, 20, 30.0)).day_slice(1)
    return {
        key: result_fingerprint(
            simulate(node, graph, trace, scheduler, strict=False)
        )
        for key, node, graph, scheduler in policy_runs()
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
