"""Hierarchical tracing: deterministic span ids, cross-process trees.

The acceptance contract: a multi-worker fleet run's span records
reassemble into a *single rooted tree* — fleet_run → shard → node →
engine_run for nodes stepped per node (``dvfs``), fleet_run → shard →
batch for batched ones — with correct parents, no orphans, and tracing
never changes a result fingerprint (on, off, or NULL_OBSERVER).
"""

import io
import json

import pytest

from repro.cli import main as cli_main
from repro.fleet import FleetRunner, FleetSpec
from repro.obs import Observer
from repro.obs.sinks import RingBufferSink
from repro.obs.trace import (
    NULL_TRACER,
    SpanContext,
    Tracer,
    activate,
    build_span_tree,
    collecting_tracer,
    current_tracer,
    derive_span_id,
    derive_trace_id,
    render_span_tree,
)
from repro.reliability import supervisor
from repro.reliability.supervisor import supervised_map


def collecting_observer():
    sink = RingBufferSink(capacity=100_000)
    return Observer(sinks=[sink]), sink


def spans_of(sink):
    return [r for r in sink.records if r.get("kind") == "span"]


class TestDeterministicIds:
    def test_trace_and_span_ids_are_pure_functions(self):
        assert derive_trace_id("fleet", 0, 100) == derive_trace_id(
            "fleet", 0, 100
        )
        assert derive_trace_id("fleet", 0, 100) != derive_trace_id(
            "fleet", 1, 100
        )
        sid = derive_span_id("t" * 16, None, "shard", 3)
        assert sid == derive_span_id("t" * 16, None, "shard", 3)
        assert sid != derive_span_id("t" * 16, None, "shard", 4)
        assert len(sid) == 16

    def test_identical_runs_emit_identical_ids(self):
        def run():
            records = []
            tracer = Tracer(records.append, derive_trace_id("run", 7))
            with tracer.span("outer"):
                with tracer.span("inner", key="a"):
                    pass
                with tracer.span("inner"):
                    pass
                with tracer.span("inner"):
                    pass
            return records

        first, second = run(), run()
        assert [r["span"] for r in first] == [r["span"] for r in second]
        # Sequence-keyed siblings get distinct ids; explicit keys are
        # recorded, auto keys are not.
        ids = {r["span"] for r in first}
        assert len(ids) == 4
        keys = [r["key"] for r in first]
        assert keys == ["a", None, None, None]

    def test_wire_roundtrip(self):
        ctx = SpanContext("abc", "def")
        assert SpanContext.from_wire(ctx.to_wire()) == ctx
        rootless = SpanContext("abc", None)
        assert SpanContext.from_wire(rootless.to_wire()) == rootless


class TestTracerBasics:
    def test_parent_nesting_and_error_capture(self):
        records = []
        tracer = Tracer(records.append, "t")
        with pytest.raises(RuntimeError):
            with tracer.span("outer") as outer:
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        inner, outer_rec = records
        assert inner["parent"] == outer.id
        assert inner["error"] == "RuntimeError"
        assert outer_rec["error"] == "RuntimeError"
        assert outer_rec["parent"] is None

    def test_annotate_attrs(self):
        records = []
        tracer = Tracer(records.append, "t")
        with tracer.span("work", attrs={"n": 3}) as span:
            span.annotate(dmr=0.5)
        assert records[0]["attrs"] == {"n": 3, "dmr": 0.5}

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything", key=1) as span:
            span.annotate(x=1)
        assert NULL_TRACER.context() is None

    def test_ambient_activation(self):
        assert current_tracer() is NULL_TRACER
        tracer = Tracer(lambda r: None, "t")
        with activate(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_collecting_tracer(self):
        tracer, records = collecting_tracer("abc/def")
        with tracer.span("work"):
            pass
        assert records[0]["trace"] == "abc"
        assert records[0]["parent"] == "def"
        null, empty = collecting_tracer(None)
        assert null is NULL_TRACER and empty == []

    def test_observer_start_trace(self):
        observer, sink = collecting_observer()
        tracer = observer.start_trace("simulate", "WAM", 4)
        assert tracer.enabled and observer.tracer is tracer
        with tracer.span("engine_run"):
            pass
        assert spans_of(sink)[0]["name"] == "engine_run"
        # Disabled observers hand back the null tracer.
        from repro.obs import NULL_OBSERVER

        assert not NULL_OBSERVER.start_trace("simulate", 1).enabled


def _traced_double(x):
    with current_tracer().span("double_inner"):
        return 2 * x


class TestTracedMap:
    """``supervised_map(span=...)`` carries span context into workers."""

    def test_without_tracer_equals_parallel_map(self):
        sup = supervised_map(_traced_double, [1, 2, 3], span="cell")
        assert sup.results == [2, 4, 6]

    def test_serial_records_reparent(self):
        records = []
        tracer = Tracer(records.append, "t")
        with activate(tracer), tracer.span("parent") as parent:
            out = supervised_map(
                _traced_double, [1, 2], labels=["a", "b"], span="cell",
            ).results
        assert out == [2, 4]
        cells = [r for r in records if r["name"] == "cell"]
        assert [r["key"] for r in cells] == ["a", "b"]
        assert all(r["parent"] == parent.id for r in cells)
        inners = [r for r in records if r["name"] == "double_inner"]
        assert len(inners) == 2
        cell_ids = {r["span"] for r in cells}
        assert all(r["parent"] in cell_ids for r in inners)
        tree = build_span_tree(records)
        assert len(tree.roots) == 1 and not tree.orphans

    def test_pool_records_reparent(self, monkeypatch):
        monkeypatch.setattr(supervisor, "host_cpus", lambda: 4)
        records = []
        tracer = Tracer(records.append, "t")
        with activate(tracer), tracer.span("parent"):
            out = supervised_map(
                _traced_double, [1, 2, 3], n_workers=3, span="cell",
            ).results
        assert out == [2, 4, 6]
        tree = build_span_tree(records)
        assert len(tree.roots) == 1 and not tree.orphans
        assert len(records) == 7  # parent + 3 cells + 3 inners

    def test_key_count_mismatch(self):
        tracer = Tracer(lambda r: None, "t")
        with activate(tracer), pytest.raises(ValueError):
            supervised_map(
                _traced_double, [1, 2], labels=["a"], span="cell"
            )


class TestFleetTrace:
    """The acceptance criterion: 4-worker 50-node single rooted tree."""

    @pytest.fixture(autouse=True)
    def no_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")

    def assert_fleet_tree(self, spans, n_nodes):
        tree = build_span_tree(spans)
        assert len(tree.roots) == 1, "want exactly one root span"
        assert not tree.orphans, "no span may lose its parent"
        root = tree.roots[0]
        assert root["name"] == "fleet_run"
        by_id = tree.by_id
        nodes = [r for r in spans if r["name"] == "node"]
        shards = [r for r in spans if r["name"] == "shard"]
        assert len(nodes) == n_nodes
        assert {by_id[str(r["parent"])]["name"] for r in nodes} == {"shard"}
        assert {by_id[str(r["parent"])]["name"] for r in shards} == {
            "fleet_run"
        }
        engines = [r for r in spans if r["name"] == "engine_run"]
        assert len(engines) == n_nodes
        # A shard with nothing to batch opens no `batch` span.
        assert not [r for r in spans if r["name"] == "batch"]

    def test_serial_run_builds_single_tree(self):
        observer, sink = collecting_observer()
        spec = FleetSpec(n_nodes=6, seed=0, policies=("dvfs",))
        FleetRunner(
            spec, workers=1, shard_size=2, observer=observer, cache=False
        ).run()
        self.assert_fleet_tree(spans_of(sink), n_nodes=6)

    def test_batch_engine_replaces_node_spans_with_batch_child(self):
        # The batched executor advances a whole shard at once, so its
        # shards carry a single `batch` child instead of per-node
        # node/engine_run spans -- but the tree stays singly rooted.
        observer, sink = collecting_observer()
        spec = FleetSpec(n_nodes=6, seed=0)
        FleetRunner(
            spec, workers=1, shard_size=2, observer=observer, cache=False
        ).run()
        spans = spans_of(sink)
        tree = build_span_tree(spans)
        assert len(tree.roots) == 1 and not tree.orphans
        batches = [r for r in spans if r["name"] == "batch"]
        shards = [r for r in spans if r["name"] == "shard"]
        assert len(batches) == len(shards) == 3
        assert sum(r["attrs"]["n_batched"] for r in batches) == 6
        by_id = tree.by_id
        assert {by_id[str(r["parent"])]["name"] for r in batches} == {
            "shard"
        }
        assert not [r for r in spans if r["name"] in ("node", "engine_run")]

    def test_four_workers_fifty_nodes_single_tree(self, monkeypatch):
        monkeypatch.setattr(supervisor, "host_cpus", lambda: 8)
        observer, sink = collecting_observer()
        spec = FleetSpec(n_nodes=50, seed=0, policies=("dvfs",))
        traced = FleetRunner(
            spec, workers=4, shard_size=8, observer=observer, cache=False
        ).run()
        self.assert_fleet_tree(spans_of(sink), n_nodes=50)
        # Tracing must not perturb the simulation: bit-identical
        # fingerprints with tracing on, off, and fully unobserved.
        plain = FleetRunner(spec, workers=4, shard_size=8, cache=False).run()
        serial = FleetRunner(
            spec, workers=1, shard_size=50, cache=False
        ).run()
        assert (
            traced.fingerprint()
            == plain.fingerprint()
            == serial.fingerprint()
        )
        assert traced.render() == serial.render()

    def test_cached_shards_still_parent_under_root(self, tmp_path,
                                                   monkeypatch):
        from repro.perf.cache import ArtifactCache

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = ArtifactCache(tmp_path)
        spec = FleetSpec(n_nodes=4, seed=1)
        FleetRunner(spec, shard_size=2, cache=cache).run()
        observer, sink = collecting_observer()
        FleetRunner(
            spec, shard_size=2, observer=observer, cache=cache
        ).run()
        spans = spans_of(sink)
        tree = build_span_tree(spans)
        assert len(tree.roots) == 1 and not tree.orphans
        shard_spans = [r for r in spans if r["name"] == "shard"]
        assert len(shard_spans) == 2
        assert all(
            r.get("attrs", {}).get("cached") for r in shard_spans
        )


class TestRenderAndCli:
    def make_records(self):
        records = []
        tracer = Tracer(records.append, derive_trace_id("demo"))
        with tracer.span("root"):
            for i in range(3):
                with tracer.span("shard", key=i):
                    with tracer.span("node", key=10 + i):
                        pass
        return records

    def test_render_tree(self):
        text = render_span_tree(self.make_records())
        assert "1 root(s), 0 orphan(s)" in text
        assert "shard[1]" in text and "node[12]" in text
        assert "hot spans" in text
        assert render_span_tree([]) == "no span records"

    def test_render_elides_long_sibling_lists(self):
        records = []
        tracer = Tracer(records.append, "t")
        with tracer.span("root"):
            for i in range(20):
                with tracer.span("shard", key=i):
                    pass
        text = render_span_tree(records, max_children=16)
        assert "(+4 more)" in text

    def test_orphans_reported(self):
        records = self.make_records()
        # Drop the root: its children become orphans.
        headless = [r for r in records if r["name"] != "root"]
        tree = build_span_tree(headless)
        assert not tree.roots
        assert len(tree.orphans) == 3
        assert "orphan spans" in render_span_tree(headless)

    def run_cli(self, *argv):
        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    def test_obs_trace_command(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with path.open("w") as fh:
            for record in self.make_records():
                fh.write(json.dumps(record) + "\n")
        code, text = self.run_cli("obs", "trace", str(path), "--check")
        assert code == 0
        assert "single root, no orphans" in text
        # Directory form resolves trace.jsonl inside.
        code, _ = self.run_cli("obs", "trace", str(tmp_path))
        assert code == 0

    def test_obs_trace_check_fails_on_orphans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with path.open("w") as fh:
            for record in self.make_records():
                if record["name"] != "root":
                    fh.write(json.dumps(record) + "\n")
        code, _ = self.run_cli("obs", "trace", str(path), "--check")
        assert code == 6
        code, _ = self.run_cli("obs", "trace", str(path))
        assert code == 0  # render-only mode does not gate

    def test_obs_trace_no_spans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"kind": "run_summary"}) + "\n")
        code, text = self.run_cli("obs", "trace", str(path))
        assert code == 0 and "no span records" in text
        code, _ = self.run_cli("obs", "trace", str(path), "--check")
        assert code == 2

    def test_obs_trace_missing_file(self, tmp_path):
        code, _ = self.run_cli("obs", "trace", str(tmp_path / "nope.jsonl"))
        assert code == 2


class TestStageSpans:
    """The offline / LUT / verify / suite call-sites open spans."""

    def test_offline_pipeline_spans(self, tiny_setup):
        from repro.core.offline import OfflinePipeline

        graph, tl, trace = tiny_setup
        records = []
        tracer = Tracer(records.append, "t")
        pipe = OfflinePipeline(
            graph, pretrain_epochs=1, finetune_epochs=1,
            augment_per_period=0,
        )
        with activate(tracer):
            pipe.run(trace)
        names = [r["name"] for r in records]
        assert names == [
            "sizing", "longterm_dp", "dbn_train", "offline_pipeline",
        ]
        tree = build_span_tree(records)
        assert len(tree.roots) == 1 and not tree.orphans

    def test_verify_smoke_spans(self):
        from repro.verify import run_verification

        records = []
        tracer = Tracer(records.append, "t")
        with activate(tracer):
            report = run_verification(level="smoke")
        assert report.ok
        names = {r["name"] for r in records}
        assert {
            "verify", "verify_invariants", "verify_oracles",
            "verify_metamorphic", "engine_run",
        } <= names
        tree = build_span_tree(records)
        assert len(tree.roots) == 1 and not tree.orphans

    def test_untraced_runs_emit_nothing(self, tiny_setup):
        """The ambient default stays the inert NULL_TRACER."""
        from repro import quick_node, simulate
        from repro.schedulers import GreedyEDFScheduler

        graph, tl, trace = tiny_setup
        assert current_tracer() is NULL_TRACER
        result = simulate(
            quick_node(graph), graph, trace, GreedyEDFScheduler(),
            strict=False,
        )
        assert result.dmr >= 0.0
