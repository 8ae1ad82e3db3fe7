"""Tests for the performance layer: bit-identity of the vectorized
engine, the offline-artifact disk cache, the supervised pool's planner
and ordering, the vectorized LUT lookup and the buffered JSONL sink."""

import importlib.util
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.offline import OfflinePipeline
from repro.experiments.common import evaluation_suite, train_policy
from repro.obs import (
    CheckpointEvent,
    DeadlineMissEvent,
    JsonlSink,
    Observer,
    read_jsonl,
)
from repro.perf.cache import (
    ArtifactCache,
    cache_enabled,
    default_cache_dir,
    hash_key,
)
from repro.reliability import supervisor
from repro.reliability.supervisor import (
    MIN_POOL_ITEMS,
    plan_pool,
    resolve_workers,
    supervised_map,
)
from repro.sim import result_fingerprint
from repro.solar import synthetic_trace
from repro.tasks import paper_benchmarks
from repro.timeline import Timeline

DATA_DIR = Path(__file__).parent / "data"


def _timeline(days: int) -> Timeline:
    return Timeline(
        num_days=days, periods_per_day=144, slots_per_period=20,
        slot_seconds=30.0,
    )


def _tiny_policy(graph):
    return train_policy(
        graph, train_days=2, finetune_epochs=5, use_cache=False
    )


# ----------------------------------------------------------------------
# Bit-identity of the vectorized engine
# ----------------------------------------------------------------------
class TestEngineFingerprints:
    """The hot-loop rewrite must not move a single bit.

    ``tests/data/engine_fingerprints.json`` was captured from the
    scalar pre-vectorization engine (see ``capture_fingerprints.py``
    next to it); replaying the same 4 canonical days and 7 fault
    scenarios must reproduce every digest exactly.
    """

    @pytest.fixture(scope="class")
    def captured(self):
        spec = importlib.util.spec_from_file_location(
            "capture_fingerprints", DATA_DIR / "capture_fingerprints.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.capture()

    @pytest.fixture(scope="class")
    def reference(self):
        return json.loads(
            (DATA_DIR / "engine_fingerprints.json").read_text()
        )

    def test_covers_canonical_days_and_fault_scenarios(self, reference):
        days = [k for k in reference if k.startswith("canonical-day")]
        faults = [k for k in reference if k.startswith("fault-")]
        assert len(days) == 4
        assert len(faults) == 7

    def test_bit_identical_to_reference(self, captured, reference):
        assert set(captured) == set(reference)
        mismatched = [k for k in reference if captured[k] != reference[k]]
        assert not mismatched, (
            f"engine drifted on {mismatched}; if the change is an "
            "intentional semantic fix, regenerate the reference with "
            "tests/data/capture_fingerprints.py"
        )


# ----------------------------------------------------------------------
# Offline-artifact disk cache
# ----------------------------------------------------------------------
_RACE_BLOB = list(range(5000))


def _race_write(arg):
    """Hammer one cache key from a worker process.

    Every read in the loop may race another worker's ``os.replace``;
    the atomic-write contract says each read sees a *complete* payload
    (any writer's) or nothing — never a torn file, which ``get`` would
    report as a corruption-miss (``None``)."""
    root, worker_id = arg
    cache = ArtifactCache(Path(root))
    for _ in range(25):
        cache.put("policy", "contended", {"worker": worker_id,
                                          "blob": _RACE_BLOB})
        got = cache.get("policy", "contended")
        if got is None or got["blob"] != _RACE_BLOB:
            return False
    return True


class TestArtifactCache:
    def test_roundtrip_and_info(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get("policy", "deadbeef") is None
        cache.put("policy", "deadbeef", {"weights": [1, 2, 3]})
        assert cache.get("policy", "deadbeef") == {"weights": [1, 2, 3]}
        info = cache.info()
        assert info["kinds"]["policy"]["entries"] == 1
        assert cache.clear() == 1
        assert cache.get("policy", "deadbeef") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("policy", "abc", [1, 2])
        cache.path_for("policy", "abc").write_bytes(b"not a pickle")
        assert cache.get("policy", "abc") is None
        assert not cache.path_for("policy", "abc").exists()

    def test_hash_key_is_stable_and_sensitive(self):
        base = {"graph": "WAM", "epochs": 5, "arr": np.arange(3)}
        assert hash_key(base) == hash_key(dict(base))
        assert hash_key(base) != hash_key({**base, "epochs": 6})

    def test_env_knobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert cache_enabled()
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert not cache_enabled()
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        assert default_cache_dir() == Path("/tmp/somewhere")

    def test_concurrent_writers_same_key(self, tmp_path):
        """Writers racing the same key never corrupt it or leave
        temp-file droppings (tmp-file + ``os.replace`` contract)."""
        sup = supervised_map(
            _race_write,
            [(str(tmp_path), i) for i in range(4)],
            n_workers=4,
            force_pool=True,
        )
        assert sup.results == [True] * 4
        final = ArtifactCache(tmp_path).get("policy", "contended")
        assert final is not None and final["blob"] == _RACE_BLOB
        assert list(tmp_path.rglob("*.tmp*")) == []

    def test_no_cache_env_bypasses_reads_too(self, tmp_path, monkeypatch):
        """``REPRO_NO_CACHE=1`` must skip cache *reads* as well as
        writes: a poisoned disk entry under the exact training key is
        never returned, and the run leaves the cache untouched."""
        import repro.experiments.common as common
        from repro.experiments.common import training_trace

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(common, "_policy_cache", {})
        graph = paper_benchmarks()["WAM"]
        pipe = OfflinePipeline(graph, num_capacitors=4, finetune_epochs=5)
        digest = pipe.cache_key(training_trace(2))
        poison = "poisoned-artifact"
        ArtifactCache(tmp_path).put("policy", digest, poison)
        # Sanity: with reads enabled the poison *is* what comes back,
        # proving the digest above matches the training key.
        assert train_policy(
            graph, train_days=2, finetune_epochs=5, use_cache=True
        ) == poison
        common._policy_cache.clear()  # the poison got memoised too
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        policy = train_policy(graph, train_days=2, finetune_epochs=5)
        assert not isinstance(policy, str)  # trained fresh, read skipped
        # Write skipped too: the poisoned entry is still the only one.
        assert ArtifactCache(tmp_path).get("policy", digest) == poison
        assert [p.name for p in (tmp_path / "policy").iterdir()] == [
            f"{digest}.pkl"
        ]

    def test_cache_hit_equals_cold_train(self, tmp_path):
        """A disk-cache hit returns the exact trained artifact."""
        graph = paper_benchmarks()["WAM"]
        pipe = OfflinePipeline(graph, finetune_epochs=5)
        trace = synthetic_trace(_timeline(2), seed=7)
        cache = ArtifactCache(tmp_path)
        cold = pipe.run(trace, cache=cache)
        hit = pipe.run(trace, cache=cache)
        assert cache.info()["kinds"]["policy"]["entries"] == 1
        assert pickle.dumps(hit.dbn) == pickle.dumps(cold.dbn)
        assert hit.capacitors == cold.capacitors
        # A different configuration misses (key sensitivity).
        other = OfflinePipeline(graph, finetune_epochs=6)
        assert other.cache_key(trace) != pipe.cache_key(trace)


# ----------------------------------------------------------------------
# Parallel runner determinism
# ----------------------------------------------------------------------
def _square(x):
    return x * x


class TestParallelRunner:
    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers(None) == 4
        monkeypatch.setenv("REPRO_WORKERS", "nope")
        with pytest.raises(ValueError):
            resolve_workers(None)

    def test_order_preserved(self, monkeypatch):
        monkeypatch.setattr(supervisor, "host_cpus", lambda: 4)
        items = list(range(20))
        assert supervised_map(_square, items, n_workers=4).results == [
            x * x for x in items
        ]

    def test_serial_and_parallel_fingerprints_match(self):
        """n_workers=1 and n_workers=4 must be bit-identical, 3 seeds."""
        graph = paper_benchmarks()["WAM"]
        policy = _tiny_policy(graph)
        for seed in (1, 2, 3):
            trace = synthetic_trace(_timeline(1), seed=seed)
            serial = evaluation_suite(graph, trace, policy, n_workers=1)
            parallel = evaluation_suite(graph, trace, policy, n_workers=4)
            assert set(serial) == set(parallel)
            for name in serial:
                assert result_fingerprint(serial[name]) == (
                    result_fingerprint(parallel[name])
                ), f"seed {seed}, scheduler {name}"


class TestAdaptivePoolPlan:
    """The fan-out planner: a pool engages only when it can win."""

    def test_serial_fallbacks(self):
        assert plan_pool(1, 100, cpu_count=16) == (
            1, "serial", "one worker requested",
        )
        workers, mode, reason = plan_pool(4, 1, cpu_count=16)
        assert (workers, mode) == (1, "serial") and "1 item" in reason
        workers, mode, reason = plan_pool(4, 100, cpu_count=1)
        assert (workers, mode) == (1, "serial") and "cpu" in reason
        assert MIN_POOL_ITEMS == 2

    def test_pool_capped_by_items_and_cpus(self):
        assert plan_pool(8, 3, cpu_count=16)[0] == 3
        assert plan_pool(8, 100, cpu_count=4)[0] == 4
        workers, mode, _ = plan_pool(4, 100, cpu_count=16)
        assert (workers, mode) == (4, "pool")

    def test_default_cpu_count_is_host(self, monkeypatch):
        for cpus, mode in ((1, "serial"), (8, "pool")):
            monkeypatch.setattr(
                supervisor.os, "sched_getaffinity",
                lambda pid: set(range(cpus)), raising=False,
            )
            assert plan_pool(4, 100)[1] == mode

    def test_one_cpu_affinity_mask_plans_serial(self, monkeypatch):
        """A process pinned to one CPU of a many-core host plans serial:
        the CPU count is the affinity mask, not ``os.cpu_count()``."""
        monkeypatch.setattr(supervisor.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            supervisor.os, "sched_getaffinity", lambda pid: {0},
            raising=False,
        )
        assert supervisor.host_cpus() == 1
        assert plan_pool(4, 100)[1] == "serial"

    def test_parallel_map_serial_fallback_matches_pool(self, monkeypatch):
        items = list(range(10))
        expected = [x * x for x in items]
        for cpus in (1, 8):
            monkeypatch.setattr(supervisor, "host_cpus", lambda: cpus)
            assert supervised_map(
                _square, items, n_workers=4
            ).results == expected

    def test_decision_recorded_as_obs_event(self, monkeypatch):
        from repro.obs.sinks import RingBufferSink

        sink = RingBufferSink()
        observer = Observer(sinks=[sink])
        for cpus in (1, 8):
            monkeypatch.setattr(supervisor, "host_cpus", lambda: cpus)
            supervised_map(
                _square, [1, 2, 3], n_workers=4, observer=observer
            )
        decisions = [
            r for r in sink.records if r["kind"] == "pool_decision"
        ]
        assert [d["mode"] for d in decisions] == ["serial", "pool"]
        assert [d["cpu_count"] for d in decisions] == [1, 8]
        assert decisions[0]["workers"] == 1
        assert decisions[1]["workers"] == 3  # capped at the item count
        assert decisions[1]["requested"] == 4
        assert observer.metrics["pool_decisions_total"] == 2

    def test_on_result_fires_per_completion(self):
        landed = []
        out = supervised_map(
            _square, [1, 2, 3],
            on_result=lambda i, r: landed.append((i, r)),
        )
        assert out.results == [1, 4, 9]
        assert landed == [(0, 1), (1, 4), (2, 9)]  # serial: input order

    def test_on_result_fires_in_pool_mode(self, monkeypatch):
        monkeypatch.setattr(supervisor, "host_cpus", lambda: 4)
        landed = []
        out = supervised_map(
            _square, [1, 2, 3, 4], n_workers=2,
            on_result=lambda i, r: landed.append((i, r)),
        )
        assert out.results == [1, 4, 9, 16]  # results stay input-ordered
        assert sorted(landed) == [(0, 1), (1, 4), (2, 9), (3, 16)]


# ----------------------------------------------------------------------
# Buffered JSONL sink
# ----------------------------------------------------------------------
class TestBufferedJsonlSink:
    def test_batches_then_drains_on_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, buffer_records=4)
        for i in range(3):
            sink.write({"kind": "slot", "i": i})
        sink._fh.flush()  # only the OS-level handle, not the batch
        assert path.read_text() == ""  # still buffered
        sink.write({"kind": "slot", "i": 3})  # 4th record: batch drains
        sink.flush()
        assert len(read_jsonl(path)) == 4
        sink.write({"kind": "slot", "i": 4})
        sink.close()
        records = read_jsonl(path)
        assert [r["i"] for r in records] == [0, 1, 2, 3, 4]

    def test_checkpoint_flushes_buffered_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, buffer_records=10_000)
        observer = Observer(sinks=[sink])
        observer.set_time(0, 0)
        observer.emit(DeadlineMissEvent((1, 2)))
        observer.emit(CheckpointEvent(str(tmp_path / "ck.pkl"), 1))
        kinds = [r["kind"] for r in read_jsonl(path)]
        assert "deadline_miss" in kinds
        assert "checkpoint" in kinds
        observer.close()

    def test_rejects_bad_buffer_size(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(tmp_path / "x.jsonl", buffer_records=0)
