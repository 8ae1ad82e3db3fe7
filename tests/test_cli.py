"""Tests for the command-line interface."""

import io
import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--benchmark", "nope"])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_bench_is_unknown_command(self):
        """Performance is measured by ``perfbench/``, not a subcommand."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--quick"])


class TestListCommand:
    def test_lists_everything(self):
        code, text = run_cli("list")
        assert code == 0
        assert "WAM" in text
        assert "inter-task" in text
        assert "fig8" in text


class TestSimulateCommand:
    def test_runs_one_day(self):
        code, text = run_cli(
            "simulate", "--benchmark", "SHM", "--scheduler", "asap",
            "--days", "1", "--seed", "3",
        )
        assert code == 0
        assert "DMR:" in text
        dmr = float(
            [l for l in text.splitlines() if l.startswith("DMR:")][0].split()[-1]
        )
        assert 0.0 <= dmr <= 1.0

    def test_dvfs_scheduler_available(self):
        code, text = run_cli(
            "simulate", "--benchmark", "ECG", "--scheduler", "dvfs",
            "--days", "1", "--seed", "3",
        )
        assert code == 0
        assert "dvfs-load-matching" in text

    def test_dvfs_runs_its_reduced_levels(self):
        """The CLI's dvfs node can run every level the policy picks.

        A strict run raises on a level the node cannot run, so equal
        fingerprints mean the CLI dropped none of them.
        """
        from repro import quick_node, simulate
        from repro.cli import _trace
        from repro.node import DVFSModel
        from repro.schedulers import make_scheduler
        from repro.sim import result_fingerprint
        from repro.tasks import paper_benchmarks

        code, text = run_cli(
            "simulate", "--benchmark", "WAM", "--scheduler", "dvfs",
            "--days", "1",
        )
        assert code == 0
        graph = paper_benchmarks()["WAM"]
        ref = simulate(
            quick_node(graph, dvfs=DVFSModel()), graph, _trace(1, 0),
            make_scheduler("dvfs"), strict=True,
        )
        assert f"DMR:                {ref.dmr:.4f}" in text
        assert _fingerprint(text) == result_fingerprint(ref)

    def test_seed_zero_is_its_own_weather(self):
        """Outside the four canonical days, ``--seed 0`` is weather
        seed 0, not an alias of another seed."""
        from repro import quick_node, simulate
        from repro.cli import _timeline
        from repro.schedulers import make_scheduler
        from repro.sim import result_fingerprint
        from repro.solar import synthetic_trace
        from repro.tasks import paper_benchmarks

        prints = {}
        for seed in ("0", "2016"):
            code, text = run_cli(
                "simulate", "--benchmark", "WAM", "--scheduler", "asap",
                "--days", "1", "--seed", seed,
            )
            assert code == 0
            prints[seed] = _fingerprint(text)
        assert prints["0"] != prints["2016"]
        graph = paper_benchmarks()["WAM"]
        ref = simulate(
            quick_node(graph), graph, synthetic_trace(_timeline(1), seed=0),
            make_scheduler("asap"),
        )
        assert prints["0"] == result_fingerprint(ref)


class TestExperimentCommand:
    def test_fig5(self):
        code, text = run_cli("experiment", "fig5")
        assert code == 0
        assert "regulator efficiency" in text

    def test_fig7(self):
        code, text = run_cli("experiment", "fig7")
        assert code == 0
        assert "four individual days" in text

    def test_all_is_a_target(self):
        assert build_parser().parse_args(["experiment", "all"]).name == "all"

    @pytest.mark.parametrize("name", ["fig2", "fig5", "fig7", "table2"])
    def test_reproduces_committed_table(self, name, tmp_path):
        code, _ = run_cli("experiment", name, "--results-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / f"{name}.txt").read_bytes() == (
            RESULTS / f"{name}.txt"
        ).read_bytes()

    def test_failed_check_exits_6_after_writing(self, tmp_path, monkeypatch):
        from repro.experiments import EXPERIMENTS, Experiment

        run, _ = EXPERIMENTS["fig5"]
        monkeypatch.setitem(
            EXPERIMENTS,
            "fig5",
            Experiment(run, lambda table: [
                ("planted", False, "always fails"),
                ("holds", True, "never printed"),
            ]),
        )
        code, text = run_cli(
            "experiment", "fig5", "--results-dir", str(tmp_path)
        )
        assert code == 6
        assert "check failed: fig5.planted: always fails" in text
        assert "holds" not in text
        assert (tmp_path / "fig5.txt").exists()
        assert (tmp_path / "fig5.manifest.json").exists()


class TestPerfKnobsScopedToCommand:
    """``--no-cache``/``--workers`` reach the environment only while
    their command runs: an in-process ``main`` call must not turn the
    cache off, or change the pool size, for whatever runs after it."""

    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    @staticmethod
    def _spy_experiment(monkeypatch, fail=False):
        """Make ``fig5`` record the environment it runs under."""
        from repro.experiments import EXPERIMENTS, Experiment

        run, checks = EXPERIMENTS["fig5"]
        seen = []

        def spy():
            seen.append(
                (os.environ.get("REPRO_WORKERS"),
                 os.environ.get("REPRO_NO_CACHE"))
            )
            if fail:
                raise ValueError("planted failure")
            return run()

        monkeypatch.setitem(EXPERIMENTS, "fig5", Experiment(spy, checks))
        return seen

    @pytest.mark.parametrize("previous", [None, "3"])
    def test_experiment_restores_workers_and_no_cache(
        self, monkeypatch, previous
    ):
        for key in ("REPRO_WORKERS", "REPRO_NO_CACHE"):
            if previous is None:
                monkeypatch.delenv(key, raising=False)
            else:
                monkeypatch.setenv(key, previous)
        seen = self._spy_experiment(monkeypatch)
        code, _ = run_cli("experiment", "fig5", "--workers", "2", "--no-cache")
        assert code == 0
        assert seen == [("2", "1")]
        assert os.environ.get("REPRO_WORKERS") == previous
        assert os.environ.get("REPRO_NO_CACHE") == previous

    def test_experiment_restores_on_error_exit(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        seen = self._spy_experiment(monkeypatch, fail=True)
        code, _ = run_cli("experiment", "fig5", "--workers", "2", "--no-cache")
        assert code == 2
        assert seen == [("2", "1")]
        assert "REPRO_WORKERS" not in os.environ
        assert "REPRO_NO_CACHE" not in os.environ

    def test_fleet_run_restores_no_cache(self, monkeypatch):
        from repro.fleet import FleetRunner

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        real_run = FleetRunner.run
        seen = []

        def spy(self):
            seen.append(os.environ.get("REPRO_NO_CACHE"))
            return real_run(self)

        monkeypatch.setattr(FleetRunner, "run", spy)
        code, _ = run_cli("fleet", "run", "--nodes", "2", "--no-cache")
        assert code == 0
        assert seen == ["1"]
        assert "REPRO_NO_CACHE" not in os.environ


def _fingerprint(text):
    return [
        line.split()[-1]
        for line in text.splitlines()
        if line.startswith("fingerprint:")
    ][0]


class TestRobustCli:
    def test_fingerprint_line_printed(self):
        code, text = run_cli(
            "simulate", "--benchmark", "SHM", "--scheduler", "asap",
            "--days", "1", "--seed", "3",
        )
        assert code == 0
        assert len(_fingerprint(text)) == 64

    def test_fault_scenario_runs_and_reports(self):
        code, text = run_cli(
            "simulate", "--benchmark", "SHM", "--scheduler", "asap",
            "--days", "1", "--seed", "3",
            "--fault-scenario", "chaos", "--fault-seed", "5",
        )
        assert code == 0
        assert "fault activations:" in text

    def test_unknown_fault_scenario_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--fault-scenario", "gremlins"]
            )

    def test_max_slots_guard_exit_code_2(self, capsys):
        code, _ = run_cli("simulate", "--days", "4", "--max-slots", "10")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # one-line error

    def test_resume_without_dir_exit_code_2(self, capsys):
        code, _ = run_cli("simulate", "--resume")
        assert code == 2
        assert "checkpoint-dir" in capsys.readouterr().err

    def test_resume_empty_dir_exit_code_3(self, tmp_path, capsys):
        code, _ = run_cli(
            "simulate", "--resume", "--checkpoint-dir", str(tmp_path)
        )
        assert code == 3
        assert "checkpoint error:" in capsys.readouterr().err

    def test_crash_resume_reproduces_fingerprint(self, tmp_path):
        base = (
            "simulate", "--benchmark", "SHM", "--scheduler", "asap",
            "--days", "1", "--seed", "3",
        )
        code, full_text = run_cli(*base)
        assert code == 0
        ckdir = str(tmp_path / "ck")
        code, text = run_cli(
            *base, "--checkpoint-dir", ckdir, "--stop-after-periods", "40",
        )
        assert code == 0
        assert "stopped after 40 period(s)" in text
        code, resumed_text = run_cli(
            *base, "--checkpoint-dir", ckdir, "--resume",
        )
        assert code == 0
        assert _fingerprint(resumed_text) == _fingerprint(full_text)


class TestObsCommand:
    """Contract of ``repro obs summarize``."""

    def test_summarize_real_trace(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code, _ = run_cli(
            "simulate", "--benchmark", "SHM", "--scheduler", "asap",
            "--days", "1", "--seed", "3", "--trace", str(trace_path),
        )
        assert code == 0
        code, text = run_cli("obs", "summarize", str(trace_path))
        assert code == 0
        assert "slot_decision" in text

    def test_summarize_missing_file_exit_2(self, tmp_path, capsys):
        code, _ = run_cli("obs", "summarize", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_summarize_garbage_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "garbage.jsonl"
        bad.write_text("this is not json\n{{{\n")
        code, _ = run_cli("obs", "summarize", str(bad))
        assert code == 2
        assert "not a JSONL event trace" in capsys.readouterr().err

    def test_summarize_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])


class TestCacheCommand:
    """Contract of ``repro cache info|clear``."""

    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        self.root = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(self.root))

    def _seed_entries(self):
        from repro.perf.cache import ArtifactCache

        cache = ArtifactCache(self.root)
        cache.put("policy", "a" * 64, {"x": 1})
        cache.put("policy", "b" * 64, {"x": 2})
        cache.put("fleet-shard", "c" * 64, [1, 2, 3])

    def test_info_empty(self):
        code, text = run_cli("cache", "info")
        assert code == 0
        assert str(self.root) in text
        assert "(empty)" in text

    def test_info_reports_kinds_and_counts(self):
        self._seed_entries()
        code, text = run_cli("cache", "info")
        assert code == 0
        assert "policy: 2 entries" in text
        assert "fleet-shard: 1 entry" in text

    def test_clear_removes_everything(self):
        self._seed_entries()
        code, text = run_cli("cache", "clear")
        assert code == 0
        assert "removed 3 cached artifact(s)" in text
        _, text = run_cli("cache", "info")
        assert "policy: 0 entries" in text
        assert "fleet-shard: 0 entries" in text

    def test_clear_single_kind_keeps_the_rest(self):
        self._seed_entries()
        code, text = run_cli("cache", "clear", "--kind", "policy")
        assert code == 0
        assert "removed 2 cached artifact(s)" in text
        _, text = run_cli("cache", "info")
        assert "fleet-shard: 1 entry" in text
        assert "policy: 0 entries" in text

    def test_clear_is_idempotent(self):
        code, text = run_cli("cache", "clear")
        assert code == 0
        assert "removed 0 cached artifact(s)" in text

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])


class TestFleetCommand:
    """Contract of ``repro fleet run|report``."""

    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_run_prints_report_and_fingerprint(self):
        code, text = run_cli("fleet", "run", "--nodes", "4", "--seed", "1")
        assert code == 0
        assert "fleet of 4 node(s)" in text
        assert len(_fingerprint(text)) == 64

    def test_run_report_roundtrip(self, tmp_path):
        out_path = tmp_path / "fleet.json"
        code, run_text = run_cli(
            "fleet", "run", "--nodes", "4", "--seed", "1",
            "--out", str(out_path),
        )
        assert code == 0
        code, report_text = run_cli("fleet", "report", str(out_path))
        assert code == 0
        assert _fingerprint(report_text) == _fingerprint(run_text)

    def test_report_garbage_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not a fleet result")
        code, _ = run_cli("fleet", "report", str(bad))
        assert code == 2
        assert "not a fleet result file" in capsys.readouterr().err

    def test_report_missing_file_exit_2(self, tmp_path, capsys):
        code, _ = run_cli("fleet", "report", str(tmp_path / "nope.json"))
        assert code == 2
        assert "no fleet result file" in capsys.readouterr().err

    def test_bad_policy_pool_exit_2(self, capsys):
        code, _ = run_cli(
            "fleet", "run", "--nodes", "2", "--policies", "asap,warp-drive"
        )
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_fleet_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet"])


# ----------------------------------------------------------------------
# The documented exit-code matrix, as one table.
#
# 0 = success                    2 = bad input / bad data
# 3 = checkpoint error           4 = simulation failure
# 6 = verification failure
# 7 = completed degraded (healthy subset valid, nodes quarantined)
#
# Codes 0/2/3 exercise real CLI paths end to end.  Codes 4/6 cannot
# be triggered from legal CLI input without multi-minute runs (the
# engine runs strict=False; a verify failure needs broken physics), so
# their cases stub the one boundary each code is defined by — the
# exception type for 4, the verification report for 6 — and assert
# the dispatcher maps it to the documented code.
# ----------------------------------------------------------------------
def _case_ok(tmp_path, monkeypatch):
    return ["list"]


def _case_value_error(tmp_path, monkeypatch):
    return ["simulate", "--days", "4", "--max-slots", "10"]


def _case_graph_error(tmp_path, monkeypatch):
    import repro.cli as cli
    from repro.tasks.graph import CycleError

    def boom(args, out):
        raise CycleError("task graph has a cycle")

    monkeypatch.setattr(cli, "_cmd_simulate", boom)
    return ["simulate", "--days", "1"]


def _case_checkpoint_error(tmp_path, monkeypatch):
    empty = tmp_path / "empty-ckpt"
    empty.mkdir()
    return ["simulate", "--resume", "--checkpoint-dir", str(empty)]


def _case_invalid_decision(tmp_path, monkeypatch):
    import repro.cli as cli
    from repro.sim.engine import InvalidDecisionError

    def boom(args, out):
        raise InvalidDecisionError("scheduler chose a non-ready task")

    monkeypatch.setattr(cli, "_cmd_simulate", boom)
    return ["simulate", "--days", "1"]


def _case_verify_failure(tmp_path, monkeypatch):
    import repro.verify as verify_pkg
    from repro.verify.report import (
        CheckOutcome,
        VerificationReport,
        Violation,
    )

    report = VerificationReport(level="quick", seed=0)
    report.add(
        CheckOutcome(
            name="energy_conservation",
            subject="doctored-run",
            violations=[
                Violation("energy_conservation", "books do not balance")
            ],
            checked=1,
        )
    )
    assert not report.ok
    monkeypatch.setattr(
        verify_pkg, "run_verification", lambda **kwargs: report
    )
    return ["verify", "--level", "quick", "--quiet"]


def _case_degraded_fleet(tmp_path, monkeypatch):
    # A real end-to-end path: one chaos-poisoned node out of four is
    # quarantined and the run completes degraded.
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    return [
        "fleet", "run", "--nodes", "4", "--seed", "1",
        "--shard-size", "2", "--chaos-poison", "1", "--chaos-seed", "3",
    ]


EXIT_CODE_MATRIX = [
    ("success", _case_ok, 0),
    ("bad-input-value", _case_value_error, 2),
    ("bad-input-graph", _case_graph_error, 2),
    ("checkpoint", _case_checkpoint_error, 3),
    ("simulation", _case_invalid_decision, 4),
    ("verify-failure", _case_verify_failure, 6),
    ("degraded-fleet", _case_degraded_fleet, 7),
]


class TestExitCodeMatrix:
    @pytest.mark.parametrize(
        "build_argv,expected",
        [(build, code) for _, build, code in EXIT_CODE_MATRIX],
        ids=[label for label, _, _ in EXIT_CODE_MATRIX],
    )
    def test_exit_code(self, build_argv, expected, tmp_path, monkeypatch):
        argv = build_argv(tmp_path, monkeypatch)
        code, _ = run_cli(*argv)
        assert code == expected

    def test_matrix_covers_every_documented_code(self):
        # 5 (a perf regression) is retired and not reassigned.
        assert {code for _, _, code in EXIT_CODE_MATRIX} == {
            0, 2, 3, 4, 6, 7,
        }
