"""Tests for supervised execution, chaos, and degraded fleet runs.

Covers the supervision layer end to end: the retry/timeout/pool-
recovery ladder of ``repro.reliability.supervisor``, the deterministic
chaos harness, quarantine-with-healthy-subset-determinism in the fleet
runner, cache-write fault tolerance, and the CLI exit-code-7 contract.
"""

import io
import os
import pickle
import time

import pytest

from repro.fleet import FailedNode, FleetResult, FleetSpec
from repro.fleet.runner import SHARD_KIND, FleetRunner
from repro.obs import Observer, RingBufferSink
from repro.perf.cache import ArtifactCache
from repro.reliability.chaos import ChaosError, ChaosSpec
from repro.reliability.supervisor import (
    SupervisorError,
    SupervisorPolicy,
    backoff_delay,
    supervised_map,
)

NO_BACKOFF = dict(backoff_base=0.0)


# ----------------------------------------------------------------------
# Module-level task functions (pool workers must pickle them)
# ----------------------------------------------------------------------
def _double(x):
    return x * 2


def _with_attempt(item, attempt):
    return (item, attempt)


def _echo(payload):
    return payload


def _flaky(payload):
    """Fails the first attempt of item 2, succeeds after."""
    x, attempt = payload
    if x == 2 and attempt == 0:
        raise ValueError("transient glitch")
    return x


def _poison(payload):
    """Item 1 fails on every attempt."""
    x, attempt = payload
    if x == 1:
        raise RuntimeError("permanently broken")
    return x * 10


def _raise_on_two(x):
    if x == 2:
        raise RuntimeError("always broken")
    return x * 2


def _kill_first_attempt(payload):
    x, attempt = payload
    if x == 3 and attempt == 0:
        os._exit(1)
    return x * 2


def _always_kill(payload):
    x, attempt = payload
    if x == 1:
        os._exit(1)
    return x * 2


def _hang_first_attempt(payload):
    x, attempt = payload
    if x == 2 and attempt == 0:
        time.sleep(60)
    return x * 2


def _sleep_half_second(x):
    time.sleep(0.5)
    return x


# ----------------------------------------------------------------------
# Policy and backoff
# ----------------------------------------------------------------------
class TestPolicy:
    def test_defaults(self):
        p = SupervisorPolicy()
        assert p.max_retries == 2
        assert p.task_timeout is None
        assert p.on_error == "fail"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"task_timeout": 0.0},
            {"task_timeout": -1.0},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"on_error": "explode"},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorPolicy(**kwargs)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "7.5")
        p = SupervisorPolicy.from_env()
        assert p.max_retries == 5 and p.task_timeout == 7.5
        # explicit overrides beat the environment
        p = SupervisorPolicy.from_env(max_retries=1)
        assert p.max_retries == 1 and p.task_timeout == 7.5

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "many")
        with pytest.raises(ValueError):
            SupervisorPolicy.from_env()


class TestBackoff:
    def test_deterministic_and_no_wall_clock(self):
        p = SupervisorPolicy(backoff_seed=42)
        schedule = [
            backoff_delay(p, i, a) for i in range(4) for a in range(3)
        ]
        assert schedule == [
            backoff_delay(p, i, a) for i in range(4) for a in range(3)
        ]

    def test_exponential_envelope_with_jitter(self):
        p = SupervisorPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=100.0
        )
        for attempt in range(4):
            d = backoff_delay(p, 0, attempt)
            raw = 0.1 * 2.0 ** attempt
            assert 0.5 * raw <= d < 1.5 * raw

    def test_capped(self):
        p = SupervisorPolicy(backoff_base=1.0, backoff_max=0.25)
        assert backoff_delay(p, 0, 10) == 0.25

    def test_zero_base_disables(self):
        p = SupervisorPolicy(**NO_BACKOFF)
        assert backoff_delay(p, 3, 2) == 0.0

    def test_seed_changes_schedule(self):
        a = backoff_delay(SupervisorPolicy(backoff_seed=0), 0, 1)
        b = backoff_delay(SupervisorPolicy(backoff_seed=1), 0, 1)
        assert a != b


# ----------------------------------------------------------------------
# supervised_map: serial path
# ----------------------------------------------------------------------
class TestSerialSupervision:
    def test_happy_path_matches_plain_map(self):
        sup = supervised_map(_double, range(6))
        assert sup.results == [x * 2 for x in range(6)]
        assert sup.ok and not sup.degraded
        assert sup.retries == sup.timeouts == sup.pool_rebuilds == 0

    def test_empty_items(self):
        sup = supervised_map(_double, [])
        assert sup.results == [] and sup.ok

    def test_transient_failure_retried(self):
        sup = supervised_map(
            _flaky, [1, 2, 3],
            policy=SupervisorPolicy(**NO_BACKOFF),
            prepare=_with_attempt,
        )
        assert sup.results == [1, 2, 3]
        assert sup.retries == 1 and sup.ok

    def test_permanent_failure_quarantined(self):
        sup = supervised_map(
            _poison, [0, 1, 2],
            policy=SupervisorPolicy(on_error="quarantine", **NO_BACKOFF),
            prepare=_with_attempt,
        )
        assert sup.results == [0, None, 20]
        assert sup.degraded and len(sup.failures) == 1
        failure = sup.failures[0]
        assert failure.index == 1
        assert failure.error_type == "RuntimeError"
        assert failure.retries == 2  # the default budget, exhausted

    def test_permanent_failure_raises_under_fail(self):
        with pytest.raises(SupervisorError) as exc_info:
            supervised_map(
                _poison, [0, 1, 2],
                policy=SupervisorPolicy(on_error="fail", **NO_BACKOFF),
                prepare=_with_attempt,
            )
        assert exc_info.value.failures[0].index == 1
        assert "permanently broken" in str(exc_info.value)

    def test_on_result_fires_per_completion(self):
        landed = []
        supervised_map(
            _double, [1, 2], on_result=lambda i, r: landed.append((i, r))
        )
        assert sorted(landed) == [(0, 2), (1, 4)]

    def test_retry_events_and_counters(self):
        ring = RingBufferSink(capacity=64)
        obs = Observer(sinks=[ring])
        supervised_map(
            _flaky, [1, 2, 3],
            policy=SupervisorPolicy(**NO_BACKOFF),
            prepare=_with_attempt,
            observer=obs,
        )
        retries = ring.of_kind("task_retry")
        assert len(retries) == 1
        assert retries[0]["error_type"] == "ValueError"
        assert retries[0]["reason"] == "raised"
        assert obs.metrics["task_retries_total"] == 1

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            supervised_map(_double, [1, 2], labels=["only-one"])


# ----------------------------------------------------------------------
# supervised_map: pool path (forced on a possibly 1-core host)
# ----------------------------------------------------------------------
class TestPoolSupervision:
    def test_broken_pool_rebuilt_and_work_finished(self):
        sup = supervised_map(
            _kill_first_attempt, list(range(6)),
            policy=SupervisorPolicy(**NO_BACKOFF),
            n_workers=2, prepare=_with_attempt, force_pool=True,
        )
        assert sup.results == [x * 2 for x in range(6)]
        assert sup.pool_rebuilds >= 1 and sup.ok

    def test_worker_lost_events(self):
        ring = RingBufferSink(capacity=64)
        obs = Observer(sinks=[ring])
        supervised_map(
            _kill_first_attempt, list(range(4)),
            policy=SupervisorPolicy(**NO_BACKOFF),
            n_workers=2, prepare=_with_attempt, force_pool=True,
            observer=obs,
        )
        lost = ring.of_kind("worker_lost")
        assert lost and "rebuilt" in str(lost[0]["reason"])
        assert obs.metrics["pool_rebuilds_total"] >= 1

    def test_timeout_kills_straggler_and_redispatches(self):
        ring = RingBufferSink(capacity=64)
        obs = Observer(sinks=[ring])
        start = time.monotonic()
        sup = supervised_map(
            _hang_first_attempt, list(range(4)),
            policy=SupervisorPolicy(task_timeout=1.5, **NO_BACKOFF),
            n_workers=2, prepare=_with_attempt, observer=obs,
        )
        elapsed = time.monotonic() - start
        assert sup.results == [x * 2 for x in range(4)]
        assert sup.timeouts >= 1 and sup.ok
        assert elapsed < 30  # never waited out the 60s hang
        assert ring.of_kind("shard_timeout")

    def test_poison_killer_bounded_and_neighbours_protected(self):
        # Item 1 kills its worker on *every* attempt.  It must end up
        # quarantined (not loop forever), and items that merely shared
        # a pool with it must still land via the solo-probe path.
        sup = supervised_map(
            _always_kill, [0, 1, 2],
            policy=SupervisorPolicy(
                max_retries=1, on_error="quarantine", **NO_BACKOFF
            ),
            n_workers=2, prepare=_with_attempt, force_pool=True,
        )
        assert sup.results == [0, None, 4]
        assert [f.index for f in sup.failures] == [1]

    def test_queued_task_not_charged_for_its_wait(self):
        # Four 0.5 s tasks on one worker under a 1 s budget: each runs
        # well inside it, though the last one starts 1.5 s after the
        # map began.  Charging queue time would time tasks 1-3 out.
        sup = supervised_map(
            _sleep_half_second, list(range(4)),
            policy=SupervisorPolicy(
                task_timeout=1.0, max_retries=0, on_error="quarantine",
                **NO_BACKOFF,
            ),
            n_workers=1,
        )
        assert sup.results == [0, 1, 2, 3]
        assert sup.timeouts == 0 and sup.ok

    def test_timeout_forces_pool_on_serial_plan(self):
        # One worker on (possibly) one CPU would plan serial; a
        # timeout policy must force process isolation anyway.
        sup = supervised_map(
            _hang_first_attempt, [1, 2],
            policy=SupervisorPolicy(task_timeout=1.5, **NO_BACKOFF),
            n_workers=1, prepare=_with_attempt,
        )
        assert sup.results == [2, 4] and sup.timeouts >= 1


# ----------------------------------------------------------------------
# supervised_map(span=...)
# ----------------------------------------------------------------------
class TestTracedSupervision:
    def test_spans_relayed(self):
        from repro.obs.trace import Tracer, activate, derive_trace_id

        records = []
        tracer = Tracer(records.append, derive_trace_id("sup", 1))
        with activate(tracer):
            with tracer.span("root"):
                sup = supervised_map(
                    _double, [1, 2, 3],
                    policy=SupervisorPolicy(**NO_BACKOFF),
                    labels=["a", "b", "c"], span="cell",
                )
        assert sup.results == [2, 4, 6]
        cells = [r for r in records if r["name"] == "cell"]
        assert [r["key"] for r in cells] == ["a", "b", "c"]

    def test_failed_attempts_emit_no_duplicate_spans(self):
        from repro.obs.trace import Tracer, activate, derive_trace_id

        records = []
        tracer = Tracer(records.append, derive_trace_id("sup", 2))
        with activate(tracer):
            with tracer.span("root"):
                sup = supervised_map(
                    _raise_on_two, [1, 2, 3],
                    policy=SupervisorPolicy(
                        on_error="quarantine", **NO_BACKOFF
                    ),
                    labels=["a", "b", "c"], span="cell",
                )
        assert sup.results == [2, None, 6]
        assert [f.index for f in sup.failures] == [1]
        # Every raising attempt of item 2 produced zero span records:
        # exactly one span per *successful* item, none duplicated.
        cells = [r for r in records if r["name"] == "cell"]
        assert len(cells) == 2

    def test_disabled_tracer_short_circuits(self):
        sup = supervised_map(_double, [4, 5], span="cell")
        assert sup.results == [8, 10] and sup.ok

    def test_key_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            supervised_map(_double, [1, 2], labels=["a"], span="cell")

    def test_prepare_sees_the_item_inside_a_span(self):
        from repro.obs.trace import Tracer, activate

        records = []
        tracer = Tracer(records.append, "t")
        with activate(tracer), tracer.span("root"):
            sup = supervised_map(
                _echo, [1, 2], prepare=_with_attempt, span="cell",
            )
        assert sup.results == [(1, 0), (2, 0)]
        assert [r["key"] for r in records if r["name"] == "cell"] == [
            "0", "1",
        ]


# ----------------------------------------------------------------------
# Chaos harness
# ----------------------------------------------------------------------
class TestChaosSpec:
    def test_inactive_by_default(self):
        assert not ChaosSpec().active
        assert ChaosSpec(poison_nodes=1).active

    def test_plan_is_deterministic(self):
        spec = ChaosSpec(seed=3, poison_nodes=2, hang_nodes=1,
                         kill_shards=1)
        a = spec.plan(range(20), 4)
        b = spec.plan(range(20), 4)
        assert a.poison == b.poison
        assert a.hang == b.hang
        assert a.kill_shards == b.kill_shards

    def test_poison_and_hang_disjoint(self):
        spec = ChaosSpec(seed=0, poison_nodes=5, hang_nodes=5)
        plan = spec.plan(range(10), 2)
        assert not (plan.poison & plan.hang)

    def test_draws_capped_at_population(self):
        plan = ChaosSpec(seed=0, poison_nodes=99).plan(range(3), 1)
        assert plan.poison == frozenset(range(3))

    def test_poison_raises_every_attempt(self):
        plan = ChaosSpec(seed=0, poison_nodes=1).plan([7], 1)
        for attempt in (0, 1, 5):
            with pytest.raises(ChaosError):
                plan.on_node_start(7, attempt)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ChaosSpec(poison_nodes=-1)


# ----------------------------------------------------------------------
# Degraded fleet runs: the acceptance scenario
# ----------------------------------------------------------------------
FLEET = FleetSpec(n_nodes=50, seed=0, days=1)
CHAOS = ChaosSpec(
    seed=11, poison_nodes=2, hang_nodes=1, kill_shards=1,
    hang_seconds=2.5,
)


@pytest.fixture(autouse=True)
def _no_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


class TestDegradedFleet:
    """Seeded chaos over 50 nodes: worker kill + hang + 2 poison."""

    @pytest.fixture(scope="class")
    def chaos_runs(self):
        # Class-scoped: the three expensive fleet passes run once and
        # every assertion below reads from them.  (The autouse
        # function-scoped _no_cache fixture has not run yet here, so
        # guard the environment by hand.)
        saved = os.environ.get("REPRO_NO_CACHE")
        os.environ["REPRO_NO_CACHE"] = "1"
        try:
            degraded_1w = FleetRunner(
                FLEET, workers=1, shard_size=8, chaos=CHAOS,
                task_timeout=1.25,
            ).run()
            degraded_4w = FleetRunner(
                FLEET, workers=4, shard_size=8, chaos=CHAOS,
                task_timeout=1.25,
            ).run()
            quarantined = sorted(
                f.node_id for f in degraded_1w.failed_nodes
            )
            clean_subset = FleetRunner(
                FLEET, workers=1, shard_size=8,
                exclude_nodes=quarantined,
            ).run()
        finally:
            if saved is None:
                os.environ.pop("REPRO_NO_CACHE", None)
            else:
                os.environ["REPRO_NO_CACHE"] = saved
        return degraded_1w, degraded_4w, clean_subset

    def test_quarantines_exactly_the_poisoned_nodes(self, chaos_runs):
        degraded_1w, degraded_4w, _ = chaos_runs
        expected = sorted(CHAOS.plan(range(50), 7).poison)
        for result in (degraded_1w, degraded_4w):
            assert result.degraded
            assert sorted(
                f.node_id for f in result.failed_nodes
            ) == expected
            for f in result.failed_nodes:
                assert f.error_type == "ChaosError"
                assert f.spec_digest
                assert f.retries == 2

    def test_fingerprint_worker_count_invariant(self, chaos_runs):
        degraded_1w, degraded_4w, _ = chaos_runs
        assert degraded_1w.fingerprint() == degraded_4w.fingerprint()

    def test_fingerprint_matches_fault_free_healthy_subset(
        self, chaos_runs
    ):
        degraded_1w, _, clean_subset = chaos_runs
        assert not clean_subset.degraded
        assert degraded_1w.fingerprint() == clean_subset.fingerprint()
        assert degraded_1w.render().splitlines()[1:] == (
            clean_subset.render().splitlines()[1:]
        )

    def test_supervisor_had_to_work(self, chaos_runs):
        degraded_1w, _, _ = chaos_runs
        sup = degraded_1w.config["supervisor"]
        assert sup["pool_rebuilds"] >= 1  # the worker kill
        assert degraded_1w.config["on_node_error"] == "quarantine"
        assert degraded_1w.config["chaos"] == CHAOS.describe()

    def test_aggregate_covers_the_healthy_subset(self, chaos_runs):
        degraded_1w, _, _ = chaos_runs
        assert len(degraded_1w.failed_nodes) == 2
        assert degraded_1w.aggregate.n_nodes == len(degraded_1w.nodes) == 48
        assert degraded_1w.summary()["failed_nodes"] == 2


class TestFleetFailurePolicies:
    def test_on_node_error_fail_aborts(self):
        with pytest.raises(SupervisorError):
            FleetRunner(
                FleetSpec(n_nodes=6, seed=0, days=1),
                workers=1, shard_size=3,
                chaos=ChaosSpec(seed=1, poison_nodes=1),
                on_node_error="fail",
            ).run()

    def test_all_nodes_failed_raises(self):
        with pytest.raises(SupervisorError):
            FleetRunner(
                FleetSpec(n_nodes=3, seed=0, days=1),
                workers=1, shard_size=3,
                chaos=ChaosSpec(seed=1, poison_nodes=3),
            ).run()

    def test_rejects_bad_on_node_error(self):
        with pytest.raises(ValueError):
            FleetRunner(FLEET, on_node_error="shrug")

    @pytest.mark.parametrize("bad", [[7], [-1], [0, 4]])
    def test_rejects_exclude_nodes_outside_fleet(self, bad):
        spec = FleetSpec(n_nodes=4, seed=0, days=1)
        with pytest.raises(ValueError, match="outside the fleet"):
            FleetRunner(spec, exclude_nodes=bad)

    def test_node_quarantined_events(self):
        ring = RingBufferSink(capacity=256)
        obs = Observer(sinks=[ring])
        result = FleetRunner(
            FleetSpec(n_nodes=6, seed=0, days=1),
            workers=1, shard_size=3,
            chaos=ChaosSpec(seed=1, poison_nodes=1),
            observer=obs,
        ).run()
        events = ring.of_kind("node_quarantined")
        assert len(events) == 1
        assert events[0]["node_id"] == result.failed_nodes[0].node_id
        assert events[0]["error_type"] == "ChaosError"
        assert obs.metrics["nodes_quarantined_total"] == 1


class TestFailedNodeRoundTrip:
    def test_json_round_trip(self, tmp_path):
        result = FleetRunner(
            FleetSpec(n_nodes=6, seed=0, days=1),
            workers=1, shard_size=3,
            chaos=ChaosSpec(seed=1, poison_nodes=1),
        ).run()
        path = result.write_json(tmp_path / "fleet.json")
        loaded = FleetResult.load_json(path)
        assert loaded.degraded
        assert loaded.failed_nodes == result.failed_nodes
        assert loaded.fingerprint() == result.fingerprint()
        assert loaded.summary()["failed_nodes"] == 1

    def test_duplicate_ids_across_healthy_and_failed_rejected(self):
        result = FleetRunner(
            FleetSpec(n_nodes=4, seed=0, days=1), workers=1
        ).run()
        dup = FailedNode(
            node_id=result.nodes[0].node_id, policy="asap",
            graph_kind="WAM", error_type="X", message="",
            spec_digest="d", retries=0,
        )
        with pytest.raises(ValueError):
            FleetResult(result.nodes, failed_nodes=[dup])


# ----------------------------------------------------------------------
# Shard-checkpoint corruption during retry
# ----------------------------------------------------------------------
class TestShardCheckpointRecovery:
    def test_corrupt_entry_is_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = ArtifactCache(tmp_path / "cache")
        spec = FleetSpec(n_nodes=6, seed=0, days=1)
        first = FleetRunner(spec, workers=1, shard_size=3, cache=cache).run()

        # Corrupt one checkpoint two ways: garbage bytes, and a valid
        # pickle of the wrong shape (a formatting migration gone bad).
        runner = FleetRunner(spec, shard_size=3, cache=cache)
        digests = [
            runner._shard_digest(ids) for ids in runner.shards()
        ]
        cache.path_for(SHARD_KIND, digests[0]).write_bytes(b"garbage")
        cache.path_for(SHARD_KIND, digests[1]).write_bytes(
            pickle.dumps({"not": "a shard"})
        )

        second = FleetRunner(spec, workers=1, shard_size=3, cache=cache).run()
        assert second.fingerprint() == first.fingerprint()

    def test_legacy_list_checkpoints_still_load(self, tmp_path,
                                                monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = ArtifactCache(tmp_path / "cache")
        spec = FleetSpec(n_nodes=6, seed=0, days=1)
        first = FleetRunner(spec, workers=1, shard_size=3, cache=cache).run()

        # Rewrite every checkpoint in the pre-supervision format (a
        # bare summary list, no failure channel).
        runner = FleetRunner(spec, shard_size=3, cache=cache)
        for ids in runner.shards():
            digest = runner._shard_digest(ids)
            summaries, failed = runner._load_checkpoint(
                cache.get(SHARD_KIND, digest)
            )
            assert failed == []
            cache.put(SHARD_KIND, digest, summaries)

        second = FleetRunner(spec, workers=1, shard_size=3, cache=cache).run()
        assert second.fingerprint() == first.fingerprint()

    def test_chaos_digest_isolated_from_clean_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        spec = FleetSpec(n_nodes=6, seed=0, days=1)
        clean = FleetRunner(spec, shard_size=3, cache=cache)
        chaotic = FleetRunner(
            spec, shard_size=3, cache=cache,
            chaos=ChaosSpec(seed=1, poison_nodes=1),
        )
        for ids in clean.shards():
            assert (
                clean._shard_digest(ids) != chaotic._shard_digest(ids)
            )


# ----------------------------------------------------------------------
# Cache writes on a broken disk
# ----------------------------------------------------------------------
class TestCacheWriteFailure:
    def _broken_cache_root(self, tmp_path):
        # A cache root nested under a regular file raises
        # NotADirectoryError (an OSError) on any write attempt —
        # works even when the test runs as root, unlike chmod.
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file, not a directory")
        return blocker / "cache"

    def test_put_degrades_to_miss(self, tmp_path):
        cache = ArtifactCache(self._broken_cache_root(tmp_path))
        assert cache.put("policy", "a" * 64, {"x": 1}) is None
        assert cache.write_failures == 1
        assert cache.get("policy", "a" * 64) is None

    def test_observer_counter_and_event(self, tmp_path):
        ring = RingBufferSink(capacity=16)
        obs = Observer(sinks=[ring])
        cache = ArtifactCache(
            self._broken_cache_root(tmp_path), observer=obs
        )
        cache.put("policy", "b" * 64, {"x": 1})
        events = ring.of_kind("cache_write_failed")
        assert len(events) == 1
        assert events[0]["artifact_kind"] == "policy"
        assert (
            obs.metrics["cache_write_failures_total"] == 1
        )

    def test_fleet_run_survives_readonly_cache_dir(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv(
            "REPRO_CACHE_DIR", str(self._broken_cache_root(tmp_path))
        )
        spec = FleetSpec(n_nodes=4, seed=0, days=1)
        result = FleetRunner(spec, workers=1, shard_size=2).run()
        assert len(result.nodes) == 4 and not result.degraded


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------
def _run_cli(*argv):
    from repro.cli import main

    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestFleetCLIDegraded:
    def test_exit_7_and_quarantine_line(self):
        code, text = _run_cli(
            "fleet", "run", "--nodes", "6", "--seed", "0",
            "--shard-size", "3", "--chaos-poison", "1",
            "--chaos-seed", "1",
        )
        assert code == 7
        assert "quarantined: 1 node(s):" in text
        assert "--exclude-nodes" in text

    def test_exclude_nodes_reproduces_healthy_subset(self):
        code, text = _run_cli(
            "fleet", "run", "--nodes", "6", "--seed", "0",
            "--shard-size", "3", "--chaos-poison", "1",
            "--chaos-seed", "1",
        )
        assert code == 7
        quarantined = [
            line for line in text.splitlines()
            if line.startswith("quarantined:")
        ][0].split(":")[-1].strip()
        fp_degraded = [
            line for line in text.splitlines()
            if line.startswith("fingerprint:")
        ][0].split()[-1]

        code2, text2 = _run_cli(
            "fleet", "run", "--nodes", "6", "--seed", "0",
            "--shard-size", "3", "--exclude-nodes", quarantined,
        )
        assert code2 == 0
        fp_clean = [
            line for line in text2.splitlines()
            if line.startswith("fingerprint:")
        ][0].split()[-1]
        assert fp_clean == fp_degraded

    def test_out_of_range_exclude_nodes_exits_2(self):
        code, _ = _run_cli(
            "fleet", "run", "--nodes", "4", "--exclude-nodes", "7",
        )
        assert code == 2

    def test_on_node_error_fail_exits_4(self):
        code, _ = _run_cli(
            "fleet", "run", "--nodes", "6", "--seed", "0",
            "--shard-size", "3", "--chaos-poison", "1",
            "--chaos-seed", "1", "--on-node-error", "fail",
        )
        assert code == 4

    def test_clean_run_still_exits_0(self):
        code, text = _run_cli(
            "fleet", "run", "--nodes", "4", "--seed", "0",
        )
        assert code == 0
        assert "quarantined" not in text
