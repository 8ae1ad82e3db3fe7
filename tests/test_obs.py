"""Tests for the observability layer (repro.obs)."""

import io
import json

import numpy as np
import pytest

from repro import quick_node, simulate
from repro.cli import main as cli_main
from repro.energy import SuperCapacitor
from repro.node import SensorNode
from repro.obs import (
    BrownoutEvent,
    DeadlineMissEvent,
    JsonlSink,
    NULL_OBSERVER,
    Observer,
    RingBufferSink,
    RunManifest,
    SlotDecisionEvent,
    Tracer,
    activate,
    build_manifest,
    read_jsonl,
    summarize_jsonl,
    timeline_dict,
)
from repro.schedulers import GreedyEDFScheduler
from repro.solar import SolarTrace, synthetic_trace
from repro.tasks import Task, TaskGraph, paper_benchmarks
from repro.timeline import Timeline


def tiny_timeline(days=1, periods=2, slots=10, dt=30.0):
    return Timeline(days, periods, slots, dt)


def tiny_graph():
    return TaskGraph(
        [
            Task("a", 60.0, 150.0, 0.02, nvp=0),
            Task("b", 30.0, 300.0, 0.03, nvp=1),
        ]
    )


def constant_trace(tl, power):
    return SolarTrace(
        tl,
        np.full(
            (tl.num_days, tl.periods_per_day, tl.slots_per_period), power
        ),
    )


def tiny_node(graph, caps=(10.0,)):
    return SensorNode(
        [SuperCapacitor(capacitance=c) for c in caps],
        num_nvps=graph.num_nvps,
    )


def write_lines(path, *records):
    with path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


class TestMetrics:
    def test_counter_rejects_negative(self):
        """``Observer.emit`` refuses an event that would count down."""

        class Negative(SlotDecisionEvent):
            def counts(self):
                return (("x_total", -1),)

        ring = RingBufferSink()
        obs = Observer(sinks=[ring])
        with pytest.raises(ValueError, match=">= 0"):
            obs.emit(Negative((), (), 0.0, 0.0, 1.0))
        assert obs.metrics["x_total"] == 0
        assert not ring.records


class TestEventEmission:
    def run_dark(self):
        """A run with zero solar and empty storage: every slot browns out."""
        graph = tiny_graph()
        tl = tiny_timeline()
        ring = RingBufferSink()
        obs = Observer(sinks=[ring])
        result = simulate(
            tiny_node(graph),
            graph,
            constant_trace(tl, 0.0),
            GreedyEDFScheduler(),
            observer=obs,
        )
        return result, ring, obs

    def test_brownout_slot_event_order(self):
        result, ring, _ = self.run_dark()
        assert result.total_brownout_slots > 0
        first_period = [
            r for r in ring.records
            if r.get("day") == 0 and r.get("period") == 0
        ]
        kinds = [r["kind"] for r in first_period]
        # Baseline pins the largest capacitor before any slot runs.
        assert kinds[0] == "capacitor_switch"
        assert first_period[0]["forced"] is True
        # Within a brownout slot: the decision precedes its consequence.
        slot0 = [r for r in first_period if r.get("slot") == 0]
        assert [r["kind"] for r in slot0] == ["slot_decision", "brownout"]
        assert slot0[0]["run_fraction"] == 0.0
        assert slot0[1]["delivered_energy"] == 0.0
        # The period closes with misses and a period_end record.
        assert "deadline_miss" in kinds
        assert kinds[-1] == "period_end"

    def test_one_event_per_slot_and_brownout(self):
        result, ring, obs = self.run_dark()
        tl = result.timeline
        decisions = ring.of_kind("slot_decision")
        assert len(decisions) == tl.total_slots
        assert len(ring.of_kind("brownout")) == result.total_brownout_slots
        assert obs.metrics["slots_simulated_total"] == tl.total_slots
        assert (
            obs.metrics["brownout_slots_total"]
            == result.total_brownout_slots
        )

    def test_profiler_covers_engine_phases(self):
        """The engine's one timer is its ``engine_run`` span."""
        graph = tiny_graph()
        tl = tiny_timeline()
        spans = []
        ring = RingBufferSink()
        obs = Observer(sinks=[ring])
        with activate(Tracer(spans.append, "t")):
            simulate(
                tiny_node(graph), graph, constant_trace(tl, 0.0),
                GreedyEDFScheduler(), observer=obs,
            )
        obs.finish()
        assert [s["name"] for s in spans] == ["engine_run"]
        assert spans[0]["attrs"]["total_slots"] == tl.total_slots
        # The run_summary trailer carries counters, no timings.
        trailer = ring.of_kind("run_summary")[-1]
        assert set(trailer["metrics"]) == {"counters"}
        assert "profile" not in trailer


class TestCoarseStageEvents:
    def test_proposed_scheduler_emits_coarse_decisions(self):
        from repro.core.online import HeuristicPolicy, ProposedScheduler

        graph = tiny_graph()
        tl = tiny_timeline()
        node = tiny_node(graph, caps=(1.0, 10.0))
        policy = HeuristicPolicy(
            graph,
            [s.capacitor for s in node.bank.states],
            period_seconds=tl.slots_per_period * tl.slot_seconds,
        )
        ring = RingBufferSink()
        obs = Observer(sinks=[ring])
        simulate(
            node,
            graph,
            constant_trace(tl, 0.05),
            ProposedScheduler(policy),
            strict=False,
            observer=obs,
        )
        coarse = ring.of_kind("coarse_decision")
        assert len(coarse) == tl.total_periods
        assert all(r["slot"] == -1 for r in coarse)
        # Every request to the PMU shows up as a switch attempt.
        assert obs.metrics["capacitor_switch_attempts_total"] >= 1
        # δ-fallbacks, when present, carry α and δ.
        for r in ring.of_kind("delta_fallback"):
            assert abs(1.0 - r["alpha"]) > r["delta"]


class TestNoOpPath:
    def test_disabled_observer_is_bit_identical(self):
        """Observability off == observability on, numerically."""
        graph = paper_benchmarks()["SHM"]
        tl = Timeline(1, 12, 20, 30.0)
        trace = synthetic_trace(tl, seed=7)

        def run(observer):
            return simulate(
                quick_node(graph),
                graph,
                trace,
                GreedyEDFScheduler(),
                strict=False,
                observer=observer,
            )

        plain = run(None)
        traced = run(Observer(sinks=[RingBufferSink()]))
        assert plain.dmr == traced.dmr
        assert plain.scheduler_name == traced.scheduler_name
        for a, b in zip(plain.periods, traced.periods):
            for field in (
                "dmr",
                "miss_count",
                "solar_energy",
                "load_energy",
                "direct_energy",
                "storage_energy",
                "charged_energy",
                "offered_surplus",
                "leakage_energy",
                "brownout_slots",
                "active_index",
            ):
                assert getattr(a, field) == getattr(b, field), field
            assert np.array_equal(a.start_voltages, b.start_voltages)
            assert np.array_equal(a.executed, b.executed)

    def test_null_observer_emits_nothing(self):
        NULL_OBSERVER.emit(SlotDecisionEvent((), (), 0.0, 0.0, 1.0))
        NULL_OBSERVER.emit(BrownoutEvent(0.0, 0.0, 0.0, 0, 0.0))
        NULL_OBSERVER.emit(DeadlineMissEvent((1,)))
        assert NULL_OBSERVER.metrics.items() == []


class TestJsonlRoundTrip:
    def test_trace_round_trips(self, tmp_path):
        graph = tiny_graph()
        tl = tiny_timeline()
        path = tmp_path / "trace.jsonl"
        obs = Observer(sinks=[JsonlSink(path)])
        result = simulate(
            tiny_node(graph),
            graph,
            constant_trace(tl, 0.0),
            GreedyEDFScheduler(),
            observer=obs,
        )
        obs.close()

        records = read_jsonl(path)
        # Re-serialising what came back changes nothing.
        for rec in records:
            assert json.loads(json.dumps(rec)) == rec
        kinds = [r["kind"] for r in records]
        assert kinds.count("slot_decision") == tl.total_slots
        assert kinds.count("brownout") == result.total_brownout_slots
        assert kinds[-1] == "run_summary"
        trailer = records[-1]
        assert trailer["scheduler"] == "asap-edf"
        assert trailer["result"]["dmr"] == pytest.approx(result.dmr)
        assert trailer["metrics"]["counters"]["slots_simulated_total"] == (
            tl.total_slots
        )

    def test_summarize_renders_counts_and_phases(self, tmp_path):
        graph = tiny_graph()
        tl = tiny_timeline()
        path = tmp_path / "trace.jsonl"
        obs = Observer(sinks=[JsonlSink(path)])
        simulate(
            tiny_node(graph),
            graph,
            constant_trace(tl, 0.05),
            GreedyEDFScheduler(),
            observer=obs,
        )
        obs.close()
        text = summarize_jsonl(path)
        assert "slot_decision" in text
        assert "headline result" in text
        assert "asap-edf" in text
        # Timing is the span tree's job (``repro obs trace``).
        assert "per-phase timing" not in text

    def test_summarize_counts_per_kind(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(
            path,
            {"kind": "slot_decision"},
            {"kind": "slot_decision"},
            {"kind": "span"},
            {"kind": "run_summary", "result": {"dmr": 0.5, "slots": 3}},
        )
        lines = summarize_jsonl(path).splitlines()
        assert lines[1:] == [
            "records: 4",
            "event counts:",
            "  slot_decision            2",
            "  span                     1",
            "headline result:",
            "  dmr                      0.5",
            "  slots                    3",
        ]


class TestSchemaAndUnknownKinds:
    def test_jsonl_sink_stamps_schema_version(self, tmp_path):
        from repro.obs import OBS_SCHEMA

        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.write({"kind": "slot_decision", "day": 0})
        sink.write({"kind": "span", "schema": 9})
        sink.close()
        records = read_jsonl(path)
        assert records[0]["schema"] == OBS_SCHEMA == 1
        assert records[1]["schema"] == 9  # an existing stamp wins

    def test_summarize_counts_unknown_kinds(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(
            path,
            {"kind": "slot_decision"},
            {"kind": "from_the_future"},
            {"kind": "from_the_future"},
            ["not", "a", "record"],
        )
        text = summarize_jsonl(path)
        assert "  slot_decision            1" in text
        assert (
            "skipped 3 record(s) of unknown kind: <not a record>, "
            "from_the_future"
        ) in text
        assert "headline result" not in text

    def test_summarize_skips_unknown_kinds(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with path.open("w") as fh:
            fh.write(json.dumps({"kind": "slot_decision"}) + "\n")
            fh.write(json.dumps({"kind": "hologram_export"}) + "\n")
        text = summarize_jsonl(path)
        assert "slot_decision" in text
        assert "skipped 1 record(s) of unknown kind: hologram_export" in text

    def test_span_and_pool_decision_are_known_kinds(self):
        from repro.obs import KNOWN_RECORD_KINDS

        assert {"span", "pool_decision", "fleet_shard", "run_summary"} <= (
            KNOWN_RECORD_KINDS
        )


class TestHeartbeatSink:
    def test_prints_shard_and_pool_lines(self):
        from repro.obs import HeartbeatSink

        stream = io.StringIO()
        sink = HeartbeatSink(stream=stream)
        sink.write(
            {
                "kind": "pool_decision", "mode": "serial", "workers": 1,
                "reason": "one worker requested",
            }
        )
        sink.write(
            {
                "kind": "fleet_shard", "shard_index": 0, "num_shards": 2,
                "node_ids": [0, 1], "seconds": 0.5, "cached": False,
                "p50_dmr_est": 0.4,
            }
        )
        sink.write(
            {
                "kind": "fleet_shard", "shard_index": 1, "num_shards": 2,
                "node_ids": [2, 3], "seconds": 0.0, "cached": True,
                "p50_dmr_est": -1.0,
            }
        )
        sink.write({"kind": "slot_decision"})  # silent
        lines = stream.getvalue().splitlines()
        assert lines[0] == "[pool] serial x1 (one worker requested)"
        assert lines[1] == (
            "[fleet 1/2] shard 0: 2 node(s) 0.50s  p50 dmr ~0.400"
        )
        assert lines[2] == "[fleet 2/2] shard 1: 2 node(s) cache hit"
        assert len(lines) == 3
        # The internal ring doubles as a recent-events window.
        assert len(sink.ring) == 4


class TestManifest:
    def build(self, **overrides):
        kwargs = dict(
            seed=42,
            scheduler="asap-edf",
            benchmark="WAM",
            timeline=timeline_dict(tiny_timeline()),
            config={"days": 1, "strict": False},
            result_summary={"dmr": 0.25},
            wall_time_s=1.23,
            git_sha="abc123",
        )
        kwargs.update(overrides)
        return build_manifest("test-run", **kwargs)

    def test_fingerprint_deterministic(self):
        a = self.build(wall_time_s=1.0)
        b = self.build(wall_time_s=99.0)  # timing must not matter
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_sensitive_to_config(self):
        a = self.build()
        b = self.build(config={"days": 2, "strict": False})
        assert a.fingerprint() != b.fingerprint()

    def test_write_load_round_trip(self, tmp_path):
        manifest = self.build()
        path = manifest.write(tmp_path / "run.manifest.json")
        loaded = RunManifest.load(path)
        assert loaded == manifest
        assert loaded.fingerprint() == manifest.fingerprint()

    def test_write_includes_fingerprint(self, tmp_path):
        manifest = self.build()
        path = manifest.write(tmp_path / "run.manifest.json")
        data = json.loads(path.read_text())
        assert data["fingerprint"] == manifest.fingerprint()
        assert data["schema"] == 1


class TestCliSurface:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    def test_simulate_trace_profile_manifest(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        manifest_path = tmp_path / "t.manifest.json"
        code, text = self.run_cli(
            "simulate", "--benchmark", "SHM", "--scheduler", "asap",
            "--days", "1", "--seed", "3",
            "--trace", str(trace_path),
            "--profile",
            "--manifest", str(manifest_path),
        )
        assert code == 0
        assert "DMR:" in text
        assert "engine_run" in text  # the --profile span tree
        assert trace_path.exists() and manifest_path.exists()
        records = read_jsonl(trace_path)
        kinds = [r["kind"] for r in records]
        assert "run_summary" in kinds
        # Span records (the simulate/engine_run trace) close after the
        # run summary, so they trail it in the file.
        assert kinds[-1] == "span"
        manifest = RunManifest.load(manifest_path)
        assert manifest.benchmark == "SHM"
        assert manifest.seed == 3

    def test_obs_summarize_command(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        code, _ = self.run_cli(
            "simulate", "--benchmark", "SHM", "--scheduler", "asap",
            "--days", "1", "--seed", "3", "--trace", str(trace_path),
        )
        assert code == 0
        code, text = self.run_cli("obs", "summarize", str(trace_path))
        assert code == 0
        assert "event counts" in text
        assert "slot_decision" in text

    def spy_observers(self, monkeypatch):
        """The ``observer`` of every ``simulate`` call the CLI makes."""
        import repro.cli as cli

        observers = []
        real = cli.simulate

        def spy(*args, **kwargs):
            observers.append(kwargs["observer"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate", spy)
        return observers

    def test_profile_alone_prints_spans_and_emits_no_events(
        self, monkeypatch
    ):
        observers = self.spy_observers(monkeypatch)
        code, text = self.run_cli(
            "simulate", "--benchmark", "SHM", "--scheduler", "asap",
            "--days", "1", "--seed", "3", "--profile",
        )
        assert code == 0
        assert observers == [None]  # no event is built
        assert "hot spans" in text and "engine_run" in text

    def test_manifest_alone_runs_unobserved(self, tmp_path, monkeypatch):
        """The manifest's wall time is that of a plain run."""
        observers = self.spy_observers(monkeypatch)
        manifest_path = tmp_path / "m.json"
        code, _ = self.run_cli(
            "simulate", "--benchmark", "SHM", "--scheduler", "asap",
            "--days", "1", "--seed", "3", "--manifest", str(manifest_path),
        )
        assert code == 0
        assert observers == [None]
        assert RunManifest.load(manifest_path).wall_time_s > 0

    def test_fleet_manifest_alone_runs_unobserved(
        self, tmp_path, monkeypatch
    ):
        import repro.fleet as fleet

        observers = []

        class Spy(fleet.FleetRunner):
            def __init__(self, *args, observer=None, **kwargs):
                observers.append(observer)
                super().__init__(*args, observer=observer, **kwargs)

        monkeypatch.setattr(fleet, "FleetRunner", Spy)
        # ``--no-cache`` writes the variable; monkeypatch restores it.
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        code, _ = self.run_cli(
            "fleet", "run", "--nodes", "4", "--seed", "0", "--no-cache",
            "--manifest", str(tmp_path / "m.json"),
        )
        assert code == 0
        assert observers == [None]

    def test_log_level_flag_accepted(self):
        code, text = self.run_cli("--log-level", "INFO", "list")
        assert code == 0
        assert "schedulers" in text
