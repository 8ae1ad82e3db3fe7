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
    ConsoleSummarySink,
    DeadlineMissEvent,
    JsonlSink,
    MetricsRegistry,
    NULL_OBSERVER,
    Observer,
    PhaseProfiler,
    RingBufferSink,
    RunManifest,
    SlotDecisionEvent,
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


class TestMetrics:
    def test_counter_and_histogram(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        reg.counter("x_total").inc(2)
        reg.histogram("t_seconds").observe(0.5)
        reg.histogram("t_seconds").observe(1.5)
        snap = reg.snapshot()
        assert snap["counters"]["x_total"] == 3
        assert snap["histograms"]["t_seconds"]["count"] == 2
        assert snap["histograms"]["t_seconds"]["mean"] == pytest.approx(1.0)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_render_mentions_instruments(self):
        reg = MetricsRegistry()
        reg.counter("slots_simulated_total").inc(5)
        assert "slots_simulated_total" in reg.render()


class TestProfiler:
    def test_span_accumulates(self):
        prof = PhaseProfiler()
        with prof.span("phase_a"):
            pass
        with prof.span("phase_a"):
            pass
        prof.add("phase_b", 0.25)
        snap = prof.snapshot()
        assert snap["phase_a"]["count"] == 2
        assert snap["phase_b"]["total_s"] == pytest.approx(0.25)
        assert "phase_a" in prof.render()

    def test_null_observer_span_is_noop(self):
        with NULL_OBSERVER.span("anything") as span:
            pass
        assert span.elapsed == 0.0


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
        snap = obs.metrics.snapshot()["counters"]
        assert snap["slots_simulated_total"] == tl.total_slots
        assert snap["brownout_slots_total"] == result.total_brownout_slots

    def test_profiler_covers_engine_phases(self):
        _, _, obs = self.run_dark()
        phases = obs.profiler.snapshot()
        assert {"coarse_hook", "slot_loop", "leakage_update"} <= set(phases)
        hists = obs.metrics.snapshot()["histograms"]
        assert hists["coarse_pass_seconds"]["count"] == 2
        assert hists["fine_pass_seconds"]["count"] == 2


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
        attempts = obs.metrics.snapshot()["counters"].get(
            "capacitor_switch_attempts_total", 0
        )
        assert attempts >= 1
        # δ-fallbacks, when present, carry α and δ.
        for r in ring.of_kind("delta_fallback"):
            assert abs(1.0 - r["alpha"]) > r["delta"]
        # The coarse policy's decide() pass was profiled.
        assert "coarse_decide" in obs.profiler.snapshot()


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
        assert NULL_OBSERVER.metrics.snapshot()["counters"] == {}


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
        assert "slot_loop" in trailer["profile"]

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
        assert "per-phase timing" in text
        assert "slot_loop" in text
        assert "asap-edf" in text

    def test_console_summary_sink(self):
        sink = ConsoleSummarySink()
        sink.write({"kind": "slot_decision"})
        sink.write({"kind": "slot_decision"})
        sink.write({"kind": "run_summary", "result": {"dmr": 0.5}})
        text = sink.render()
        assert "slot_decision" in text and "2" in text
        assert "dmr" in text


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

    def test_console_summary_counts_unknown_kinds(self):
        sink = ConsoleSummarySink()
        sink.write({"kind": "slot_decision"})
        sink.write({"kind": "from_the_future"})
        sink.write({"kind": "from_the_future"})
        sink.write(["not", "a", "record"])
        text = sink.render()
        assert "slot_decision" in text
        assert "skipped 3 record(s) of unknown kind" in text
        assert "from_the_future" in text
        assert "<not a record>" in text

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
        assert "slot_loop" in text  # the --profile report
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

    def test_log_level_flag_accepted(self):
        code, text = self.run_cli("--log-level", "INFO", "list")
        assert code == 0
        assert "schedulers" in text
