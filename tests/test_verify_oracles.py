"""Seeded regression tests for every differential oracle.

Each oracle gets (a) a green run on its curated instance and (b) a
*teeth* test: plant a defect on one side of the differential and
demand the oracle catches it.  An oracle that cannot fail is not an
oracle."""

import numpy as np
import pytest

from repro.energy.bank import CapacitorBank
from repro.energy.capacitor import SuperCapacitor
from repro.schedulers import GreedyEDFScheduler
from repro.verify import (
    BRUTEFORCE_INSTANCES,
    ScalarReferenceBank,
    load_reference_fingerprints,
    oracle_checkpoint_resume,
    oracle_plan_vs_bruteforce,
    oracle_reference_fingerprints,
    oracle_scalar_vs_vectorized,
    reference_run_specs,
)
from repro.verify.strategies import tiny_env


# ----------------------------------------------------------------------
# scalar-vs-vectorized
# ----------------------------------------------------------------------
class TestScalarVsVectorized:
    def test_banks_agree_bit_for_bit(self):
        """The scalar reference replicates leak_all/view_arrays exactly,
        across active indices and durations."""
        caps = [
            SuperCapacitor(capacitance=2.0),
            SuperCapacitor(capacitance=10.0),
        ]
        fast = CapacitorBank(list(caps))
        slow = ScalarReferenceBank(list(caps))
        for bank in (fast, slow):
            for state, v in zip(bank.states, (1.7, 3.2)):
                state.voltage = v
        for active in (0, 1):
            fast.select(active)
            slow.select(active)
            for duration in (30.0, 1.0, 0.0):
                assert fast.leak_all(duration) == slow.leak_all(duration)
                for a, b in zip(fast.view_arrays(), slow.view_arrays()):
                    np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(
                fast.voltages(), slow.voltages()
            )

    def test_oracle_green_on_tiny_run(self):
        graph, tl, trace = tiny_env()
        out = oracle_scalar_vs_vectorized(
            graph, trace, GreedyEDFScheduler, label="tiny"
        )
        assert out.passed
        assert out.checked == tl.total_slots

    def test_oracle_catches_a_drifted_reference(self, monkeypatch):
        """Plant a one-part-in-a-million leak error in the scalar side;
        the bit-identity demand must flag it."""
        real = ScalarReferenceBank.leak_all

        def drifted(self, duration):
            lost = real(self, duration)
            self.states[0].voltage *= 1.0 - 1e-6
            return lost

        monkeypatch.setattr(ScalarReferenceBank, "leak_all", drifted)
        graph, _, trace = tiny_env()
        out = oracle_scalar_vs_vectorized(
            graph, trace, GreedyEDFScheduler, label="drifted"
        )
        assert not out.passed
        assert "diverged" in out.errors[0].message


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
        assert len(reference) == 11  # 4 canonical days + 7 fault scenarios

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
