"""Fleet throughput benchmark: nodes/s over a heterogeneous population.

Runs a seeded heterogeneous fleet (serial, checkpoint-free) under
pytest-benchmark, asserts a conservative throughput floor, and checks
the determinism contract the CLI acceptance test relies on: the same
fleet simulated with different shard sizes produces a bit-identical
aggregate fingerprint.
"""

from repro.fleet import FleetRunner, FleetSpec

N_NODES = 32


def _run_fleet(shard_size=None):
    spec = FleetSpec(n_nodes=N_NODES, seed=0)
    return FleetRunner(
        spec, workers=1, shard_size=shard_size, cache=False
    ).run()


def test_fleet_throughput(benchmark):
    result = benchmark.pedantic(_run_fleet, rounds=1, iterations=1)
    assert len(result) == N_NODES

    seconds = benchmark.stats.stats.mean
    nodes_per_sec = N_NODES / seconds
    print()
    print(
        f"fleet: {nodes_per_sec:.1f} nodes/s "
        f"({N_NODES} nodes in {seconds:.2f}s)"
    )
    # ~25-30 nodes/s serial on a dev box; 2 clears any loaded runner.
    assert nodes_per_sec > 2, f"{nodes_per_sec:.2f} nodes/s"

    # Shard size is a performance knob, never a results knob.
    resharded = _run_fleet(shard_size=5)
    assert resharded.fingerprint() == result.fingerprint()
