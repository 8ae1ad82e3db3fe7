"""Tests for the fleet-scale simulation subsystem (``repro.fleet``).

The headline contract under test: a fleet is a pure function of its
spec — same fleet seed → bit-identical fingerprint and report for any
worker count, shard size or checkpoint state.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import (
    MAX_SHARD_SIZE,
    MIN_SHARD_SIZE,
    FLEET_POLICIES,
    FleetAggregate,
    FleetResult,
    FleetRunner,
    FleetSpec,
    NodeSummary,
    default_shard_size,
    node_trace,
    simulate_node,
)
from repro.obs import Observer
from repro.perf.cache import ArtifactCache
from repro.verify.strategies import (
    FLEET_TASK_MIX,
    build_graph,
    fleet_variation,
    fleet_variations,
    node_rng,
)


@pytest.fixture(autouse=True)
def _no_default_cache(monkeypatch):
    """Keep fleet tests hermetic: no reads/writes of .repro-cache."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


SMALL = FleetSpec(n_nodes=8, seed=7)
DATA = Path(__file__).parent / "data"


# ----------------------------------------------------------------------
# Generators (verify/strategies fleet hooks)
# ----------------------------------------------------------------------
class TestFleetVariation:
    def test_deterministic_per_seed_and_index(self):
        assert fleet_variation(3, 5) == fleet_variation(3, 5)
        assert fleet_variation(3, 5) != fleet_variation(3, 6)
        assert fleet_variation(3, 5) != fleet_variation(4, 5)

    def test_independent_of_other_nodes(self):
        """Node i's draw never depends on how many nodes exist."""
        small = fleet_variations(11, 3)
        large = fleet_variations(11, 50)
        assert large[:3] == small

    def test_node_rng_streams_are_distinct(self):
        a = node_rng(0, 1).integers(2**31, size=8)
        b = node_rng(0, 2).integers(2**31, size=8)
        assert not np.array_equal(a, b)

    def test_fields_within_requested_ranges(self):
        for var in fleet_variations(
            5, 40, bank_size=(2, 3), panel_scale=(0.5, 0.8),
            cloud_jitter=(0.1, 0.2), policies=("asap", "random"),
        ):
            assert 2 <= len(var["bank_farads"]) <= 3
            assert 0.5 <= var["panel_scale"] <= 0.8
            assert 0.1 <= var["jitter_sigma"] <= 0.2
            assert var["policy"] in ("asap", "random")

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            fleet_variations(0, 0)

    def test_build_graph_named_and_random(self):
        assert len(build_graph("wam")) > 0
        assert len(build_graph("ecg")) > 0
        g1, g2 = build_graph("random:42"), build_graph("random:42")
        assert [t.name for t in g1.tasks] == [t.name for t in g2.tasks]
        with pytest.raises(ValueError):
            build_graph("quantum")


# ----------------------------------------------------------------------
# Spec expansion and the per-node weather
# ----------------------------------------------------------------------
class TestFleetSpec:
    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            FleetSpec(n_nodes=0)
        with pytest.raises(ValueError):
            FleetSpec(n_nodes=2, policies=("warp-drive",))
        with pytest.raises(ValueError):
            FleetSpec(n_nodes=2, task_mix=("quantum",))
        with pytest.raises(ValueError):
            FleetSpec(n_nodes=2, panel_scale=(0.0, 1.0))
        with pytest.raises(ValueError):
            FleetSpec(n_nodes=2, bank_size=(3, 2))

    def test_reified_random_kind_is_valid_task_mix(self):
        FleetSpec(n_nodes=2, task_mix=("random:17",))

    def test_node_specs_cover_the_fleet(self):
        specs = SMALL.node_specs()
        assert [s.node_id for s in specs] == list(range(SMALL.n_nodes))
        assert all(s.policy in FLEET_POLICIES for s in specs)
        with pytest.raises(IndexError):
            SMALL.node_spec(SMALL.n_nodes)

    def test_heterogeneity_actually_varies(self):
        specs = FleetSpec(n_nodes=30, seed=0).node_specs()
        assert len({s.graph_kind for s in specs}) > 1
        assert len({s.bank_farads for s in specs}) > 1
        assert len({s.panel_scale for s in specs}) == 30

    def test_node_trace_scales_and_jitters(self):
        base = SMALL.base_trace()
        spec = SMALL.node_spec(0)
        trace = node_trace(base, spec)
        assert trace.power.shape == base.power.shape
        assert np.all(trace.power >= 0)
        scaled = base.power * spec.panel_scale
        if spec.jitter_sigma == 0:
            np.testing.assert_array_equal(trace.power, scaled)
        else:
            assert not np.array_equal(trace.power, scaled)
        # Same node spec -> same weather, bit for bit.
        np.testing.assert_array_equal(
            trace.power, node_trace(base, spec).power
        )

    def test_simulate_node_is_deterministic(self):
        base = SMALL.base_trace()
        spec = SMALL.node_spec(3)
        assert simulate_node(SMALL, base, spec) == simulate_node(
            SMALL, base, spec
        )


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------
def _summary(node_id, policy="asap", dmr=0.5, util=0.4, brownouts=0):
    return NodeSummary(
        node_id=node_id,
        graph_kind="wam",
        policy=policy,
        num_tasks=8,
        panel_scale=1.0,
        bank_farads=(1.0, 10.0),
        dmr=dmr,
        energy_utilization=util,
        migration_efficiency=0.9,
        brownout_slots=brownouts,
        solar_energy=100.0,
        load_energy=60.0,
        fingerprint="f" * 64,
    )


class TestFleetResult:
    def test_sorts_by_node_id_and_rejects_duplicates(self):
        result = FleetResult([_summary(2), _summary(0), _summary(1)])
        assert [n.node_id for n in result.nodes] == [0, 1, 2]
        with pytest.raises(ValueError):
            FleetResult([_summary(1), _summary(1)])
        with pytest.raises(ValueError):
            FleetResult([])

    def test_distribution_metrics(self):
        result = FleetResult(
            [_summary(i, dmr=i / 10, brownouts=i % 2) for i in range(10)]
        )
        assert result.mean_dmr == pytest.approx(0.45)
        pct = result.dmr_percentiles()
        assert pct["p5"] <= pct["p50"] <= pct["p95"]
        assert result.total_brownout_slots == 5
        assert result.brownout_node_fraction == pytest.approx(0.5)
        counts, edges = result.utilization_histogram(bins=5)
        assert sum(counts) == 10
        assert len(edges) == 6

    def test_by_policy_cohorts(self):
        result = FleetResult(
            [_summary(0, "asap", dmr=0.2), _summary(1, "asap", dmr=0.4),
             _summary(2, "random", dmr=0.9)]
        )
        cohorts = result.by_policy()
        assert set(cohorts) == {"asap", "random"}
        assert cohorts["asap"]["nodes"] == 2
        assert cohorts["asap"]["mean_dmr"] == pytest.approx(0.3)

    def test_by_graph_pools_random_seeds(self):
        nodes = [_summary(0), _summary(1)]
        import dataclasses

        nodes[1] = dataclasses.replace(nodes[1], graph_kind="random:42")
        result = FleetResult(nodes)
        assert set(result.by_graph()) == {"wam", "random"}

    def test_fingerprint_sensitivity(self):
        base = FleetResult([_summary(0), _summary(1)])
        same = FleetResult([_summary(1), _summary(0)])
        assert base.fingerprint() == same.fingerprint()
        other = FleetResult([_summary(0), _summary(1, dmr=0.51)])
        assert base.fingerprint() != other.fingerprint()

    def test_json_roundtrip(self, tmp_path):
        result = FleetResult(
            [_summary(i) for i in range(4)], config={"seed": 3}
        )
        path = result.write_json(tmp_path / "fleet.json")
        loaded = FleetResult.load_json(path)
        assert loaded.fingerprint() == result.fingerprint()
        assert loaded.config["seed"] == 3
        assert loaded.nodes == result.nodes

    def test_load_rejects_garbage_and_bad_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("][")
        with pytest.raises(ValueError):
            FleetResult.load_json(bad)
        bad.write_text('{"something": "else"}')
        with pytest.raises(ValueError):
            FleetResult.load_json(bad)
        good = FleetResult([_summary(0)])
        payload = good.to_dict()
        payload["schema"] = 999
        bad.write_text(__import__("json").dumps(payload))
        with pytest.raises(ValueError):
            FleetResult.load_json(bad)

    def test_render_mentions_every_policy(self):
        result = FleetResult(
            [_summary(0, "asap"), _summary(1, "random")]
        )
        text = result.render()
        assert "asap" in text and "random" in text
        assert "DMR:" in text


# ----------------------------------------------------------------------
# The runner: determinism, sharding, checkpointing, observability
# ----------------------------------------------------------------------
class TestFleetRunner:
    def test_fingerprint_invariant_to_workers_and_shards(self):
        reference = FleetRunner(SMALL, workers=1, cache=False).run()
        for workers, shard_size in ((1, 3), (4, 2), (2, None)):
            again = FleetRunner(
                SMALL, workers=workers, shard_size=shard_size, cache=False
            ).run()
            assert again.fingerprint() == reference.fingerprint(), (
                f"workers={workers} shard_size={shard_size}"
            )

    def test_shard_partition(self):
        runner = FleetRunner(SMALL, shard_size=3, cache=False)
        shards = runner.shards()
        assert [len(s) for s in shards] == [3, 3, 2]
        assert [i for s in shards for i in s] == list(range(8))
        assert FleetRunner(SMALL, cache=False).shard_size == (
            MIN_SHARD_SIZE
        )
        with pytest.raises(ValueError):
            FleetRunner(SMALL, shard_size=0)

    @pytest.mark.parametrize(
        "n_nodes, workers, expected",
        [(256, 1, 256), (256, 2, 128), (200, 4, 50), (1024, 1, 256)],
    )
    def test_default_shard_size(self, n_nodes, workers, expected):
        """One shard when serial, one per worker in a pool, clamped to
        32..256 nodes."""
        spec = FleetSpec(n_nodes=n_nodes, seed=0)
        runner = FleetRunner(spec, workers=workers, cache=False)
        assert runner.shard_size == expected
        assert default_shard_size(n_nodes, workers) == expected

    def test_default_shard_size_counts_running_nodes(self):
        spec = FleetSpec(n_nodes=300, seed=0)
        assert FleetRunner(spec, workers=2, cache=False).shard_size == 150
        runner = FleetRunner(
            spec, workers=2, cache=False, exclude_nodes=range(44)
        )
        assert runner.shard_size == 128
        assert FleetRunner(
            spec, workers=2, shard_size=5, cache=False
        ).shard_size == 5

    def test_default_layout_fingerprint_matches_narrow_shards(self):
        spec = FleetSpec(n_nodes=96, seed=3)
        default = FleetRunner(spec, workers=1, cache=False)
        assert default.shard_size == 96
        assert len(default.shards()) == 1
        narrow = FleetRunner(spec, workers=1, shard_size=32, cache=False).run()
        assert default.run().fingerprint() == narrow.fingerprint()

    def test_shard_checkpoints_hit_on_rerun(self, tmp_path):
        cache = ArtifactCache(tmp_path / "ck")
        spec = FleetSpec(n_nodes=6, seed=1)
        cold = FleetRunner(spec, shard_size=2, cache=cache).run()

        events = []

        class Spy:
            def write(self, record):
                events.append(record)

        warm = FleetRunner(
            spec, shard_size=2, cache=cache,
            observer=Observer(sinks=[Spy()]),
        ).run()
        assert warm.fingerprint() == cold.fingerprint()
        shard_events = [e for e in events if e["kind"] == "fleet_shard"]
        assert len(shard_events) == 3
        assert all(e["cached"] for e in shard_events)

    def test_checkpoint_key_depends_on_spec(self, tmp_path):
        """A different fleet never reuses another fleet's shards."""
        cache = ArtifactCache(tmp_path / "ck")
        a = FleetRunner(FleetSpec(n_nodes=4, seed=1), cache=cache).run()
        b = FleetRunner(FleetSpec(n_nodes=4, seed=2), cache=cache).run()
        assert a.fingerprint() != b.fingerprint()

    def test_corrupt_checkpoint_recomputes(self, tmp_path):
        cache = ArtifactCache(tmp_path / "ck")
        spec = FleetSpec(n_nodes=4, seed=3)
        cold = FleetRunner(spec, cache=cache).run()
        for entry in (tmp_path / "ck").rglob("*.pkl"):
            entry.write_bytes(b"garbage")
        again = FleetRunner(spec, cache=cache).run()
        assert again.fingerprint() == cold.fingerprint()

    def test_observer_receives_shard_events_and_summary(self):
        events = []

        class Spy:
            def write(self, record):
                events.append(record)

        result = FleetRunner(
            SMALL, shard_size=4, cache=False,
            observer=Observer(sinks=[Spy()]),
        ).run()
        kinds = [e["kind"] for e in events]
        assert kinds.count("fleet_shard") == 2
        trailer = [e for e in events if e["kind"] == "run_summary"][0]
        assert trailer["result"]["fingerprint"] == result.fingerprint()
        shard = [e for e in events if e["kind"] == "fleet_shard"][0]
        assert shard["cached"] is False
        assert shard["node_ids"] == [0, 1, 2, 3]

    def test_config_records_execution_shape(self):
        result = FleetRunner(SMALL, workers=1, shard_size=3,
                             cache=False).run()
        assert result.config["workers"] == 1
        assert result.config["shard_size"] == 3
        assert result.config["shards"] == 3
        assert result.config["n_nodes"] == SMALL.n_nodes
        assert result.config["nodes_per_s"] > 0

    def test_proposed_policy_pool(self, tmp_path, monkeypatch):
        """The DBN pipeline trains once per workload, shared via cache."""
        monkeypatch.delenv("REPRO_NO_CACHE")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = FleetSpec(
            n_nodes=3, seed=0, policies=("proposed",), task_mix=("wam",)
        )
        result = FleetRunner(spec, workers=1, cache=False).run()
        assert all(n.policy == "proposed" for n in result.nodes)
        # One distinct workload -> exactly one trained-policy artifact.
        policies = list((tmp_path / "cache" / "policy").glob("*.pkl"))
        assert len(policies) == 1
        again = FleetRunner(spec, workers=1, cache=False).run()
        assert again.fingerprint() == result.fingerprint()


    def test_training_trace_built_once_per_shard(self, tmp_path, monkeypatch):
        """Every proposed node of a shard trains on one shared trace."""
        import repro.solar.days as days

        monkeypatch.delenv("REPRO_NO_CACHE")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        calls = []
        real = days.synthetic_trace

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(days, "synthetic_trace", counting)
        spec = FleetSpec(
            n_nodes=4, seed=0, policies=("proposed",), task_mix=("wam",)
        )
        one_shard = FleetRunner(
            spec, workers=1, shard_size=4, cache=False
        ).run()
        assert len(calls) == 1
        calls.clear()
        two_shards = FleetRunner(
            spec, workers=1, shard_size=2, cache=False
        ).run()
        assert len(calls) == 2
        assert one_shard.fingerprint() == two_shards.fingerprint()
        base = spec.base_trace()
        assert one_shard.nodes[3] == simulate_node(
            spec, base, spec.node_spec(3)
        )

    def test_policy_loaded_once_per_workload_per_shard(
        self, tmp_path, monkeypatch
    ):
        """Every proposed node of a shard shares one policy load, with
        or without a chaos plan."""
        import repro.fleet.runner as fleet_runner
        from repro.reliability.chaos import ChaosPlan

        monkeypatch.delenv("REPRO_NO_CACHE")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        gets = []
        real = ArtifactCache.get

        def counting(self, kind, digest):
            gets.append(kind)
            return real(self, kind, digest)

        monkeypatch.setattr(ArtifactCache, "get", counting)
        spec = FleetSpec(
            n_nodes=4, seed=0, policies=("proposed",), task_mix=("wam",)
        )
        batched = FleetRunner(spec, workers=1, shard_size=4, cache=False)
        reference = batched.run()
        assert gets == ["policy"]

        # A chaos plan's hooks fire while the cases are built; the shard
        # still loads once.  Chaos runs force a pool, so drive the shard
        # in-process.
        gets.clear()
        summaries, failed, _, _ = fleet_runner._run_shard(
            (spec, tuple(map(spec.node_spec, range(4))), 0, None,
             ChaosPlan(), 0, "quarantine", 0)
        )
        assert gets == ["policy"]
        assert not failed and summaries == reference.nodes

    def test_raising_batch_is_bisected_to_one_node(
        self, tmp_path, monkeypatch
    ):
        """A batch that raises whenever one node's case is in it is
        split until that node is alone: it alone is quarantined, after
        its retries, and every other node keeps its clean summary."""
        import repro.fleet.runner as fleet_runner
        import repro.sim.batch as sim_batch
        from repro.reliability.supervisor import SupervisorError

        monkeypatch.delenv("REPRO_NO_CACHE")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = FleetSpec(
            n_nodes=8, seed=0, policies=("proposed",), task_mix=("wam",)
        )
        clean = FleetRunner(spec, workers=1, cache=False).run()
        bad, retries = 5, 2
        bad_cases, calls, gets = set(), [], []
        real_case = fleet_runner._batch_case
        real_batch = sim_batch.simulate_batch
        real_get = ArtifactCache.get

        def marking(node, *args):
            case = real_case(node, *args)
            if node.node_id == bad:
                bad_cases.add(id(case))
            return case

        def flaky(cases):
            calls.append(len(cases))
            if any(id(case) in bad_cases for case in cases):
                raise RuntimeError("batched engine down")
            return real_batch(cases)

        def counting(self, kind, digest):
            gets.append(kind)
            return real_get(self, kind, digest)

        monkeypatch.setattr(fleet_runner, "_batch_case", marking)
        monkeypatch.setattr(sim_batch, "simulate_batch", flaky)
        monkeypatch.setattr(ArtifactCache, "get", counting)
        degraded = FleetRunner(
            spec, workers=1, cache=False, max_retries=retries
        ).run()
        assert [
            (f.node_id, f.error_type, f.retries)
            for f in degraded.failed_nodes
        ] == [(bad, "RuntimeError", retries)]
        assert degraded.nodes == [n for n in clean.nodes if n.node_id != bad]
        assert len(calls) <= 2 * math.ceil(math.log2(8)) + 1 + retries
        assert gets == ["policy"]
        with pytest.raises(SupervisorError):
            FleetRunner(
                spec, workers=1, cache=False, max_retries=retries,
                on_node_error="fail",
            ).run()


class TestShardPlan:
    """The pool's shard planner: one wide, contiguous shard per worker,
    every layout giving the same fleet."""

    @staticmethod
    def _contiguous(ids, size):
        return [tuple(ids[lo : lo + size]) for lo in range(0, len(ids), size)]

    @given(
        n_nodes=st.integers(1, 2000),
        workers=st.integers(2, 16),
    )
    @settings(max_examples=300, deadline=None)
    def test_default_count_is_multiple_of_workers(self, n_nodes, workers):
        size = default_shard_size(n_nodes, workers)
        assert MIN_SHARD_SIZE <= size <= MAX_SHARD_SIZE
        count = math.ceil(n_nodes / size)
        if n_nodes >= workers * MIN_SHARD_SIZE:
            assert count == workers * math.ceil(
                n_nodes / (workers * MAX_SHARD_SIZE)
            )
        else:
            assert count <= workers

    @pytest.mark.parametrize(
        "n_nodes, workers, shards, size",
        [(600, 2, 4, 150), (512, 2, 2, 256), (513, 2, 4, 129),
         (24, 2, 1, 32)],
    )
    def test_default_layout(self, n_nodes, workers, shards, size):
        runner = FleetRunner(
            FleetSpec(n_nodes=n_nodes, seed=0), workers=workers, cache=False
        )
        assert runner.shard_size == size
        assert len(runner.shards()) == shards

    @given(
        n_nodes=st.integers(1, 300),
        seed=st.integers(0, 50),
        workers=st.integers(1, 4),
        shard_size=st.one_of(st.none(), st.integers(1, 40)),
        excluded=st.sets(st.integers(0, 299), max_size=20),
        policies=st.sampled_from(
            [FLEET_POLICIES, ("dvfs",), ("dvfs", "asap"),
             ("asap", "inter-task", "intra-task", "random")]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_properties(
        self, n_nodes, seed, workers, shard_size, excluded, policies
    ):
        spec = FleetSpec(n_nodes=n_nodes, seed=seed, policies=policies)
        excluded = {i for i in excluded if i < n_nodes}
        if len(excluded) == n_nodes:
            return
        runner = FleetRunner(
            spec, workers=workers, shard_size=shard_size, cache=False,
            exclude_nodes=excluded,
        )
        ids = [i for i in range(n_nodes) if i not in excluded]
        # The running ids, cut into contiguous chunks, whatever the
        # policies.
        assert runner.shards() == self._contiguous(ids, runner.shard_size)

    def test_no_per_node_fleet_keeps_contiguous_shards(self):
        spec = FleetSpec(n_nodes=300, seed=0)
        runner = FleetRunner(spec, workers=2, cache=False)
        assert runner.shards() == self._contiguous(list(range(300)), 150)

    def test_fingerprint_invariant_on_mixed_pool(self, tmp_path, monkeypatch):
        """dvfs (slot-hook rows) and proposed (coarse rows) in one pool:
        every layout and worker count gives the same fleet."""
        monkeypatch.delenv("REPRO_NO_CACHE")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = FleetSpec(
            n_nodes=16, seed=0, policies=FLEET_POLICIES, task_mix=("wam",)
        )
        policies = {spec.node_spec(i).policy for i in range(16)}
        assert {"dvfs", "proposed"} <= policies
        fingerprints = {
            (workers, shard_size): FleetRunner(
                spec, workers=workers, shard_size=shard_size, cache=False
            ).run().fingerprint()
            for workers, shard_size in ((1, None), (2, None), (2, 5), (4, 3))
        }
        assert len(set(fingerprints.values())) == 1, fingerprints

    def test_specs_expanded_once_in_the_parent(self, monkeypatch):
        import repro.fleet.runner as fleet_runner

        calls = []
        in_shard = []
        real_spec = FleetSpec.node_spec
        real_shard = fleet_runner._run_shard

        def counting(self, node_index):
            calls.append((node_index, bool(in_shard)))
            return real_spec(self, node_index)

        def shard(item):
            in_shard.append(True)
            try:
                return real_shard(item)
            finally:
                in_shard.pop()

        monkeypatch.setattr(FleetSpec, "node_spec", counting)
        monkeypatch.setattr(fleet_runner, "_run_shard", shard)
        spec = FleetSpec(
            n_nodes=12, seed=0, policies=("asap", "dvfs", "intra-task")
        )
        FleetRunner(
            spec, workers=1, shard_size=5, cache=False, exclude_nodes=[3, 8]
        ).run()
        ids = [i for i in range(12) if i not in (3, 8)]
        assert sorted(i for i, _ in calls) == ids
        assert not any(inside for _, inside in calls)


class TestFleetAggregateIntegration:
    """The runner folds each shard's histograms as the shard lands."""

    def test_runner_attaches_shard_built_aggregate(self):
        result = FleetRunner(SMALL, shard_size=3, cache=False).run()
        agg = result.aggregate
        assert agg.n_nodes == len(result)
        whole = FleetAggregate.from_nodes(result.nodes)
        for ours, ref in ((agg.dmr, whole.dmr), (agg.util, whole.util)):
            assert ours.counts.tolist() == ref.counts.tolist()
            assert (ours.min, ours.max) == (ref.min, ref.max)

    def test_aggregate_shard_split_invariant(self):
        wide = FleetRunner(SMALL, shard_size=8, cache=False).run()
        narrow = FleetRunner(SMALL, shard_size=2, cache=False).run()
        assert wide.fingerprint() == narrow.fingerprint()
        assert (
            wide.aggregate.dmr.counts.tolist()
            == narrow.aggregate.dmr.counts.tolist()
        )
        assert wide.dmr_percentiles() == narrow.dmr_percentiles()
        assert (
            wide.utilization_histogram() == narrow.utilization_histogram()
        )

    def test_sketch_percentiles_close_to_exact(self):
        from repro.fleet.result import DMR_SKETCH_BINS

        result = FleetRunner(SMALL, cache=False).run()
        # The sketch bound is vs the nearest-rank sample (with 8 nodes
        # an interpolated percentile falls between samples).
        exact = np.percentile(
            result.dmr_values(), [5, 50, 95], method="lower"
        )
        sketch = result.dmr_percentiles((5, 50, 95))
        for est, ref in zip(sketch.values(), exact):
            assert abs(est - ref) <= 1.0 / DMR_SKETCH_BINS + 1e-12

    def test_summary_carries_one_fingerprint(self):
        result = FleetRunner(SMALL, cache=False).run()
        summary = result.summary()
        assert summary["fingerprint"] == result.fingerprint()
        assert "aggregate_fingerprint" not in summary
        assert "aggregate" not in result.to_dict()

    def test_shard_events_carry_live_p50_estimate(self):
        from repro.obs.sinks import RingBufferSink

        sink = RingBufferSink()
        result = FleetRunner(
            SMALL, shard_size=4, cache=False,
            observer=Observer(sinks=[sink]),
        ).run()
        shards = sink.of_kind("fleet_shard")
        assert len(shards) == 2
        for event in shards:
            assert 0.0 <= event["p50_dmr_est"] <= 1.0
        # After the last shard the running histogram holds every node.
        assert shards[-1]["p50_dmr_est"] == result.dmr_percentiles()["p50"]

    def test_result_json_roundtrip_keeps_aggregate_numbers(self, tmp_path):
        result = FleetRunner(SMALL, cache=False).run()
        path = result.write_json(tmp_path / "fleet.json")
        loaded = FleetResult.load_json(path)
        assert loaded.fingerprint() == result.fingerprint()
        # The reloaded result rebuilds its aggregate from the node
        # summaries; the numbers must agree with the shard-built one.
        assert loaded.dmr_percentiles() == result.dmr_percentiles()
        assert (
            loaded.utilization_histogram() == result.utilization_histogram()
        )

    def test_unobserved_run_builds_no_summary(self, monkeypatch):
        from repro.obs.sinks import RingBufferSink

        def refuse(self):
            raise AssertionError("summary built for a disabled observer")

        with monkeypatch.context() as patch:
            patch.setattr(FleetResult, "summary", refuse)
            FleetRunner(SMALL, cache=False).run()
        sink = RingBufferSink()
        result = FleetRunner(
            SMALL, cache=False, observer=Observer(sinks=[sink])
        ).run()
        (trailer,) = sink.of_kind("run_summary")
        assert trailer["result"]["fingerprint"] == result.fingerprint()


class TestFleetReportGolden:
    """The fleet report, byte for byte, as the code printed it while
    ``FleetAggregate`` still carried its streaming layer (per-policy
    sums, an XOR-fold fingerprint and JSON serialization)."""

    GOLDEN = DATA / "fleet_report_golden.json"
    SPEC = FleetSpec(n_nodes=24, seed=0)

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(self.GOLDEN.read_text())

    @pytest.mark.parametrize("shard_size", [8, 24])
    def test_report_reproduced(self, golden, shard_size):
        result = FleetRunner(
            self.SPEC, workers=1, shard_size=shard_size, cache=False
        ).run()
        assert result.fingerprint() == golden["fingerprint"]
        assert result.render() == golden["render"]
        assert result.dmr_percentiles() == golden["dmr_percentiles"]
        for bins in (10, 7):
            assert (
                list(result.utilization_histogram(bins))
                == golden[f"utilization_histogram_{bins}"]
            )

    def test_saved_result_with_aggregate_key_loads(self, golden):
        """A schema-1 file that still carries the retired ``aggregate``
        block loads and renders as it did when it was written."""
        path = DATA / "fleet_result_schema1.json"
        assert "aggregate" in json.loads(path.read_text())
        loaded = FleetResult.load_json(path)
        assert loaded.fingerprint() == golden["fingerprint"]
        assert loaded.render() == golden["render"]


@pytest.mark.slow
class TestFleetSoak:
    def test_acceptance_200_nodes_worker_invariant(self):
        """The ISSUE acceptance check, in-process."""
        spec = FleetSpec(n_nodes=200, seed=0)
        serial = FleetRunner(spec, workers=1, cache=False).run()
        pooled = FleetRunner(spec, workers=4, cache=False).run()
        assert serial.fingerprint() == pooled.fingerprint()
        assert len(serial) == 200
        summary = serial.summary()
        assert 0.0 <= summary["mean_dmr"] <= 1.0
        assert set(serial.by_policy()) <= set(FLEET_POLICIES)

    @pytest.mark.parametrize(
        "policies",
        [None, ("random", "intra-task"), ("proposed", "intra-task")],
        ids=["default", "random-intra", "proposed-intra"],
    )
    def test_200_nodes_equal_per_node_reference(
        self, policies, tmp_path, monkeypatch
    ):
        """The runner (batched where eligible) gives the fingerprint of
        the per-node engine mapped over every node.  ``random`` and
        ``intra-task`` rows are the batched decision code furthest from
        the per-node schedulers (draw buffers, subset tables);
        ``proposed`` rows add the per-row DBN coarse stage and
        capacitor switches."""
        monkeypatch.delenv("REPRO_NO_CACHE")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        kwargs = {"policies": policies} if policies else {}
        spec = FleetSpec(n_nodes=200, seed=0, **kwargs)
        base = spec.base_trace()
        fleet = FleetRunner(spec, workers=1, cache=False).run()
        per_node = FleetResult(
            [simulate_node(spec, base, s) for s in spec.node_specs()]
        )
        assert fleet.fingerprint() == per_node.fingerprint()

    def test_all_policies_all_workloads(self):
        """Every policy and every named workload simulates cleanly."""
        spec = FleetSpec(
            n_nodes=24,
            seed=5,
            policies=FLEET_POLICIES,
            task_mix=FLEET_TASK_MIX,
        )
        result = FleetRunner(spec, workers=1, cache=False).run()
        assert len(result) == 24
        assert all(0.0 <= n.dmr <= 1.0 for n in result.nodes)
