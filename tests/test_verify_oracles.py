"""Seeded regression tests for every differential oracle.

Each oracle gets (a) a green run on its curated instance and (b) a
*teeth* test: plant a defect on one side of the differential and
demand the oracle catches it.  An oracle that cannot fail is not an
oracle."""

import json

import pytest

from repro.schedulers import GreedyEDFScheduler
from repro.verify import (
    BRUTEFORCE_INSTANCES,
    load_reference_fingerprints,
    oracle_checkpoint_resume,
    oracle_plan_vs_bruteforce,
    oracle_reference_fingerprints,
    reference_run_specs,
)
from repro.verify.strategies import tiny_env


# ----------------------------------------------------------------------
# plan-vs-bruteforce
# ----------------------------------------------------------------------
class TestPlanVsBruteforce:
    @pytest.mark.parametrize("name", sorted(BRUTEFORCE_INSTANCES))
    def test_curated_instances_green(self, name):
        out = oracle_plan_vs_bruteforce(
            BRUTEFORCE_INSTANCES[name], label=name
        )
        assert out.passed, [v.message for v in out.errors]

    def test_oracle_catches_a_broken_bound(self, monkeypatch):
        """If the exhaustive optimum were worse than the DP replay, the
        *oracle itself* is broken — always an error."""
        import repro.verify.oracles as oracles

        monkeypatch.setattr(
            oracles, "brute_force_best_dmr", lambda *a, **k: 1.0
        )
        out = oracle_plan_vs_bruteforce(
            BRUTEFORCE_INSTANCES["marginal"], label="fake-bound"
        )
        assert not out.passed
        assert "itself is broken" in out.errors[0].message

    def test_missed_optimum_softens_on_random_instances(self, monkeypatch):
        """strict_optimality=False demotes a missed optimum to a
        warning (coarse buckets may legitimately cost a period)."""
        import repro.verify.oracles as oracles

        monkeypatch.setattr(
            oracles, "brute_force_best_dmr", lambda *a, **k: -1.0
        )
        strict = oracle_plan_vs_bruteforce(
            BRUTEFORCE_INSTANCES["marginal"], label="strict"
        )
        soft = oracle_plan_vs_bruteforce(
            BRUTEFORCE_INSTANCES["marginal"], label="soft",
            strict_optimality=False,
        )
        assert not strict.passed
        assert soft.passed  # warning only ...
        assert soft.violations  # ... but still surfaced


# ----------------------------------------------------------------------
# checkpoint-resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_oracle_green_on_tiny_run(self, tmp_path):
        graph, tl, trace = tiny_env()
        out = oracle_checkpoint_resume(
            graph, trace, GreedyEDFScheduler, label="tiny",
            directory=tmp_path,
        )
        assert out.passed
        assert out.checked == tl.total_periods

    def test_oracle_flags_a_stop_that_never_interrupts(self, tmp_path):
        graph, tl, trace = tiny_env()
        out = oracle_checkpoint_resume(
            graph, trace, GreedyEDFScheduler, label="no-stop",
            stop_after_periods=tl.total_periods, directory=tmp_path,
        )
        assert not out.passed
        assert "did not interrupt" in out.errors[0].message


# ----------------------------------------------------------------------
# reference fingerprints
# ----------------------------------------------------------------------
class TestReferenceFingerprints:
    def test_committed_reference_covers_the_matrix(self):
        reference = load_reference_fingerprints()
        assert reference is not None
        assert set(reference) == {k for k, _ in reference_run_specs()}
        # 4 canonical days + 7 fault scenarios + 8 policy runs
        assert len(reference) == 19

    def test_update_writes_exactly_the_matrix(self, tmp_path, monkeypatch):
        import repro.verify.oracles as oracles

        path = tmp_path / "reference.json"
        path.write_text(json.dumps(
            {"canonical-day1/intra-task": "old", "stale-x/day": "dropped"}
        ))
        monkeypatch.setattr(
            oracles, "capture_reference_fingerprints",
            lambda: {"canonical-day1/intra-task": "new"},
        )
        oracles.write_reference_fingerprints(path)
        assert json.loads(path.read_text()) == {
            "canonical-day1/intra-task": "new"
        }

    def test_match_and_mismatch(self):
        good = oracle_reference_fingerprints("k", "abc", {"k": "abc"})
        assert good.passed
        bad = oracle_reference_fingerprints("k", "abc", {"k": "xyz"})
        assert not bad.passed
        assert bad.errors[0].details["expected"] == "xyz"
        assert "update-fingerprints" in bad.errors[0].message

    def test_unknown_key_degrades_to_a_note(self):
        out = oracle_reference_fingerprints("new-key", "abc", {})
        assert out.passed
        assert "no committed reference" in out.notes

    def test_missing_file_returns_none(self, tmp_path):
        assert load_reference_fingerprints(tmp_path / "nope.json") is None
