"""The typed event stream: one record and counter rule per kind, and
the golden output of a traced run.

``tests/data/golden_events.jsonl`` holds every non-span record of one
small deterministic run (a trained ``proposed`` node over one coarse
day under the ``chaos`` runtime fault scenario, checkpointing every 16
periods) exactly as :class:`~repro.obs.sinks.JsonlSink` writes it, with
the checkpoint directory replaced by ``<ckpt>``.
``tests/data/golden_counters.json`` holds the run's ``run_summary``
counters.  Both must match byte for byte: the JSONL schema (key order,
``1`` vs ``1.0``) and the counter names are a public contract.

Regenerate after an *intentional* schema change with::

    PYTHONPATH=src python tests/test_obs_events.py
"""

import json
import tempfile
from pathlib import Path

import pytest

import repro.obs as obs_pkg
from repro.obs import (
    KNOWN_RECORD_KINDS,
    NULL_OBSERVER,
    CapacitorSwitchEvent,
    CheckpointEvent,
    DeadlineMissEvent,
    FaultInjectionEvent,
    FleetShardEvent,
    Observer,
    RingBufferSink,
    SlotDecisionEvent,
)

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_EVENTS = DATA / "golden_events.jsonl"
GOLDEN_COUNTERS = DATA / "golden_counters.json"


def golden_run(workdir: Path):
    """``(jsonl text, counters json text)`` of the golden run."""
    from repro.core.offline import OfflinePipeline
    from repro.obs import JsonlSink, Observer
    from repro.reliability import FaultInjector, runtime_scenario
    from repro.sim.checkpoint import CheckpointConfig
    from repro.sim.engine import simulate
    from repro.solar import FOUR_DAYS, archetype_trace, synthetic_trace
    from repro.tasks import wam
    from repro.timeline import Timeline

    graph = wam()
    tl = Timeline(1, 48, 10, 60.0)
    policy = OfflinePipeline(
        graph, num_capacitors=3, hidden_sizes=(16, 8), pretrain_epochs=2,
        finetune_epochs=100, augment_per_period=1, seed=0,
    ).run(synthetic_trace(Timeline(2, 48, 10, 60.0), seed=0))
    trace = archetype_trace(tl, [FOUR_DAYS[1]], seed=1)
    ckpt_dir = workdir / "ckpt"
    raw = workdir / "trace.jsonl"
    observer = Observer(sinks=[JsonlSink(raw)])
    simulate(
        policy.make_node(), graph, trace, policy.make_scheduler(),
        strict=False, observer=observer,
        fault_injector=FaultInjector(runtime_scenario("chaos", tl, seed=5), tl),
        checkpoint=CheckpointConfig(ckpt_dir, every_periods=16),
    )
    observer.close()
    lines = []
    counters = None
    for line in raw.read_text().splitlines():
        record = json.loads(line)
        if record["kind"] == "span":
            continue
        if record["kind"] == "run_summary":
            counters = record["metrics"]["counters"]
            continue
        if record["kind"] == "checkpoint":
            record["path"] = record["path"].replace(str(ckpt_dir), "<ckpt>")
        lines.append(json.dumps(record, separators=(",", ":")))
    return "\n".join(lines) + "\n", json.dumps(counters, indent=1) + "\n"


#: One instance of every event kind: ``(class name, payload, clock
#: rule, counter deltas)``; the observer clock is ``(2, 5, 7)`` when
#: each is emitted.
TABLE = [
    (
        "SlotDecisionEvent", dict(
            ready=(0, 1), chosen=(1,), solar_power=1, load_power=0.5,
            run_fraction=1,
        ),
        "slot", {"slots_simulated_total": 1},
    ),
    (
        "DeadlineMissEvent", dict(tasks=(2, 3), final=True),
        "slot", {"deadline_misses_total": 2},
    ),
    (
        "BrownoutEvent", dict(
            run_fraction=0.25, needed_energy=2, delivered_energy=0.5,
            active_index=1, active_voltage=1.5,
        ),
        "slot", {"brownout_slots_total": 1},
    ),
    (
        "CapacitorSwitchEvent", dict(
            previous=0, requested=1, accepted=True, forced=False,
            active_usable_energy=3, threshold=2.0,
        ),
        "slot", {
            "capacitor_switch_attempts_total": 1,
            "capacitor_switches_accepted_total": 1,
        },
    ),
    (
        "CoarseDecisionEvent", dict(
            cap_index=1, alpha=0.75, intra_mode=True, task_subset=(0, 2),
        ),
        "period", {"coarse_decisions_total": 1},
    ),
    (
        "DeltaFallbackEvent", dict(alpha=2, delta=0.5),
        "period", {"delta_fallbacks_total": 1},
    ),
    (
        "FaultInjectionEvent", dict(
            fault="leak_spike", phase="start", severity=0.5, target=1,
            duration_slots=12,
        ),
        "slot", {"faults_injected_total": 1},
    ),
    (
        "PolicyFallbackEvent", dict(
            stage="retry", reason="boom", failure_streak=1,
        ),
        "period", {"policy_fallbacks_total": 1},
    ),
    (
        "FaultScenarioEvent", dict(
            scenario="storm", faults=("IntermittentShading",),
            lost_energy_fraction=0.25,
        ),
        "period", {"fault_scenarios_applied_total": 1},
    ),
    (
        "CheckpointEvent", dict(path="/ck/period-000008.ckpt", flat_period=8),
        "period", {"checkpoints_written_total": 1},
    ),
    (
        "InvariantViolationEvent", dict(
            check="energy", message="leak", severity="warning",
        ),
        "period", {"invariant_violations_total": 1},
    ),
    (
        "FleetShardEvent", dict(
            shard_index=1, num_shards=4, node_ids=(4, 5, 6), cached=True,
            seconds=0, p50_dmr_est=0.5,
        ),
        None, {
            "fleet_shards_total": 1,
            "fleet_shard_cache_hits_total": 1,
            "fleet_nodes_total": 3,
        },
    ),
    (
        "PoolDecisionEvent", dict(
            requested=4, cpu_count=2, items=8, workers=2, mode="pool",
            reason="min(...)",
        ),
        None, {"pool_decisions_total": 1},
    ),
    (
        "TaskRetryEvent", dict(
            label="shard-1", index=1, attempt=0, reason="raised",
            error_type="ValueError", backoff_s=0,
        ),
        None, {"task_retries_total": 1},
    ),
    (
        "WorkerLostEvent", dict(
            label="shard-0", inflight=3, rebuilds=1, reason="died",
        ),
        None, {"workers_lost_total": 1, "pool_rebuilds_total": 1},
    ),
    (
        "ShardTimeoutEvent", dict(
            label="shard-2", index=2, attempt=1, timeout_s=1, reason="slow",
        ),
        None, {"shard_timeouts_total": 1},
    ),
    (
        "NodeQuarantinedEvent", dict(
            node_id=17, node_policy="random", error_type="ChaosError",
            spec_digest="ab" * 8, retries=2, reason="poison",
        ),
        None, {"nodes_quarantined_total": 1},
    ),
    (
        "CacheWriteFailedEvent", dict(
            artifact_kind="policy", digest="cd" * 8, reason="read-only",
        ),
        None, {"cache_write_failures_total": 1},
    ),
    (
        "PeriodEndEvent", dict(
            dmr=0.5, miss_count=2, brownout_slots=1, solar_energy=10,
            load_energy=4.5,
        ),
        "period", {"periods_simulated_total": 1},
    ),
]

#: The record value each payload above must serialise to: ``float``
#: fields become floats (``1`` -> ``1.0``), tuples become lists.
FLOAT_FIELDS = {
    "solar_power", "load_power", "run_fraction", "needed_energy",
    "delivered_energy", "active_voltage", "active_usable_energy",
    "threshold", "alpha", "delta", "severity", "lost_energy_fraction",
    "seconds", "p50_dmr_est", "backoff_s", "timeout_s", "dmr",
    "solar_energy", "load_energy",
}


def _expected_value(name, value):
    if isinstance(value, tuple):
        return list(value)
    if name in FLOAT_FIELDS and not isinstance(value, str):
        return float(value)
    return value


@pytest.mark.parametrize(
    "cls_name,payload,clock,deltas", TABLE, ids=[row[0] for row in TABLE]
)
def test_each_kind_record_and_counters(cls_name, payload, clock, deltas):
    cls = getattr(obs_pkg, cls_name)
    sink = RingBufferSink()
    observer = Observer(sinks=[sink])
    observer.set_time(2, 5, 7)
    observer.emit(cls(**payload))
    stamp = {"slot": (2, 5, 7), "period": (2, 5, -1), None: (-1, -1, -1)}
    day, period, slot = stamp[clock]
    expected = {
        "kind": cls.kind, "day": day, "period": period, "slot": slot,
        **{k: _expected_value(k, v) for k, v in payload.items()},
    }
    [record] = sink.records
    assert record == expected
    assert list(record) == list(expected)  # key order is schema
    for key, value in record.items():
        assert type(value) is type(expected[key]), key
    assert observer.metrics.snapshot()["counters"] == deltas


def test_table_covers_every_kind():
    kinds = {getattr(obs_pkg, row[0]).kind for row in TABLE}
    assert kinds == KNOWN_RECORD_KINDS - {"run_summary", "span"}
    assert len(TABLE) == 19


@pytest.mark.parametrize(
    "event,deltas",
    [
        (DeadlineMissEvent((), final=True), None),
        (
            CapacitorSwitchEvent(0, 1, False, False, 0.0, 2.0),
            {"capacitor_switch_attempts_total": 1},
        ),
        (FaultInjectionEvent("leak_spike", "end", 0.5, 1, 12), {}),
        (
            FleetShardEvent(0, 1, (), False, 0.0),
            {"fleet_shards_total": 1, "fleet_nodes_total": 0},
        ),
    ],
    ids=["empty-miss", "refused-switch", "fault-end", "uncached-shard"],
)
def test_irregular_counts(event, deltas):
    """An empty miss emits nothing; a refused switch, a fault's end and
    an uncached shard bump only their unconditional counters."""
    sink = RingBufferSink()
    observer = Observer(sinks=[sink])
    observer.emit(event)
    assert len(sink.records) == (0 if deltas is None else 1)
    assert observer.metrics.snapshot()["counters"] == (deltas or {})


def test_checkpoint_flushes_every_sink():
    class Flushing:
        def __init__(self):
            self.flushes = 0

        def write(self, record):
            pass

        def flush(self):
            self.flushes += 1

    sinks = [Flushing(), Flushing()]
    observer = Observer(sinks=sinks)
    observer.emit(SlotDecisionEvent((), (), 0.0, 0.0, 1.0))
    assert [s.flushes for s in sinks] == [0, 0]
    observer.emit(CheckpointEvent("ck", 1))
    assert [s.flushes for s in sinks] == [1, 1]


def test_disabled_observer_counts_nothing():
    NULL_OBSERVER.emit(CheckpointEvent("ck", 1))
    assert NULL_OBSERVER.metrics.snapshot()["counters"] == {}


def test_golden_event_stream(tmp_path):
    events, counters = golden_run(tmp_path)
    assert events == GOLDEN_EVENTS.read_text()
    assert counters == GOLDEN_COUNTERS.read_text()


def test_golden_run_covers_the_run_kinds():
    kinds = {
        json.loads(line)["kind"]
        for line in GOLDEN_EVENTS.read_text().splitlines()
    }
    assert kinds == {
        "slot_decision", "deadline_miss", "brownout", "capacitor_switch",
        "coarse_decision", "delta_fallback", "policy_fallback",
        "fault_injected", "period_end", "checkpoint",
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        events, counters = golden_run(Path(tmp))
    GOLDEN_EVENTS.write_text(events)
    GOLDEN_COUNTERS.write_text(counters)
    print(f"wrote {GOLDEN_EVENTS} ({events.count(chr(10))} records)")
    print(f"wrote {GOLDEN_COUNTERS}")
