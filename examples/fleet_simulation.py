#!/usr/bin/env python
"""Fleet simulation: a population of heterogeneous solar nodes.

The other examples study one node; real deployments ship hundreds.
This script simulates a seeded fleet — every node drawing its own
workload, scheduler, capacitor bank, panel scale and cloud jitter from
the fleet seed — and prints the population view: DMR percentiles,
brownout pressure, and the per-policy comparison.  It then re-runs the
same fleet with a different worker count and shard size to demonstrate
the determinism contract: the fleet fingerprint is bit-identical.

Run:  python examples/fleet_simulation.py
Fast: REPRO_EXAMPLE_FAST=1 python examples/fleet_simulation.py
"""

import os

from repro.fleet import FleetRunner, FleetSpec

FAST = bool(os.environ.get("REPRO_EXAMPLE_FAST"))


def main() -> None:
    n_nodes = 8 if FAST else 120
    spec = FleetSpec(
        n_nodes=n_nodes,
        seed=0,
        policies=("asap", "inter-task", "intra-task", "random"),
    )
    print(f"Simulating a fleet of {spec.n_nodes} heterogeneous nodes "
          f"(seed {spec.seed})...\n")

    # Shard checkpointing is on by default (the artifact cache);
    # disabled here so re-running the example always simulates.
    result = FleetRunner(spec, workers=1, cache=False).run()
    print(result.render())

    fp = result.fingerprint()
    print(f"\nfleet fingerprint:     {fp}")

    # Same fleet, different execution shape -> same fingerprint.
    reshaped = FleetRunner(
        spec, workers=2, shard_size=max(1, n_nodes // 5), cache=False
    ).run()
    print(f"re-run (2 workers):    {reshaped.fingerprint()}")
    assert reshaped.fingerprint() == fp, "determinism contract broken!"
    print("bit-identical across worker counts and shard sizes — "
          "the fleet seed is the whole story.")

    print(
        "\nNext: `python -m repro fleet run --nodes 200 --workers 4` "
        "or `python -m repro experiment fleet`."
    )


if __name__ == "__main__":
    main()
