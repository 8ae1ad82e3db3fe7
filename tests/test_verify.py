"""The conformance subsystem itself: report shapes, invariant
checkers against deliberately doctored runs, metamorphic relations,
and the ``repro verify`` CLI contract —
including the acceptance demo that breaking the physics on purpose
exits with code 6 and a structured violation report."""

import dataclasses
import json

import pytest

from repro import quick_node, simulate
from repro.node.pmu import PMU
from repro.obs import Observer, RingBufferSink
from repro.schedulers import GreedyEDFScheduler
from repro.sim.recorder import SimulationResult
from repro.verify import (
    INVARIANT_CHECKS,
    CheckOutcome,
    RunContext,
    VerificationReport,
    Violation,
    verify_metamorphic,
    verify_run,
)
from repro.verify.invariants import (
    check_brownout_discipline,
    check_dmr_accounting,
    check_energy_conservation,
    check_nvp_charge,
    check_slot_legality,
    check_voltage_bounds,
)
from repro.verify.strategies import tiny_env


# ----------------------------------------------------------------------
# Report shapes
# ----------------------------------------------------------------------
class TestReportShapes:
    def test_violation_rejects_bad_severity(self):
        with pytest.raises(ValueError, match="severity"):
            Violation(check="x", message="m", severity="fatal")

    def test_violation_location(self):
        v = Violation(check="x", message="m", day=1, period=2, slot=3)
        assert v.location() == "d1 p2 s3"
        assert Violation(check="x", message="m").location() == ""

    def test_warnings_do_not_fail_an_outcome(self):
        out = CheckOutcome(
            name="soft",
            violations=[
                Violation(check="soft", message="m", severity="warning")
            ],
        )
        assert out.passed
        assert out.errors == []
        report = VerificationReport(level="quick", seed=0)
        report.add(out)
        assert report.ok
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["warnings"] == 1
        assert payload["violations"] == 0

    def test_errors_fail_the_report(self):
        report = VerificationReport(level="quick", seed=0)
        report.add(CheckOutcome(name="good", checked=5))
        report.add(
            CheckOutcome(
                name="bad",
                violations=[Violation(check="bad", message="broken")],
            )
        )
        assert not report.ok
        assert report.error_count == 1
        assert [o.name for o in report.failed_outcomes()] == ["bad"]
        text = report.render()
        assert "PASS good" in text
        assert "FAIL bad" in text
        assert "FAILED: 1/2 checks passed" in text

    def test_render_suppresses_violation_floods(self):
        report = VerificationReport(level="quick", seed=0)
        report.add(
            CheckOutcome(
                name="noisy",
                violations=[
                    Violation(check="noisy", message=f"v{i}")
                    for i in range(30)
                ],
            )
        )
        text = report.render(max_violations=5)
        assert "25 further violation(s) suppressed" in text


# ----------------------------------------------------------------------
# Invariant checkers on doctored runs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def observed_run():
    """One clean observed micro-run everything below doctors copies of."""
    graph, tl, trace = tiny_env()
    sink = RingBufferSink()
    node = quick_node(graph)
    v_max = max(s.capacitor.v_full for s in node.bank.states)
    result = simulate(
        node, graph, trace, GreedyEDFScheduler(), strict=False,
        record_slots=True, observer=Observer(sinks=[sink]),
    )
    return graph, result, list(sink.records), v_max


def _ctx(observed_run, result=None, events=None):
    graph, clean, records, v_max = observed_run
    return RunContext(
        result=result if result is not None else clean,
        graph=graph,
        events=records if events is None else events,
        v_max=v_max,
    )


def _doctor(result, index=0, **changes):
    """Copy of ``result`` with one period record tampered."""
    periods = list(result.periods)
    periods[index] = dataclasses.replace(periods[index], **changes)
    return SimulationResult(
        result.timeline, result.scheduler_name, periods, result.slots
    )


class TestInvariantCheckers:
    def test_clean_run_passes_every_check(self, observed_run):
        outcomes = verify_run(_ctx(observed_run))
        assert [o.name for o in outcomes] == list(INVARIANT_CHECKS)
        failed = [o.name for o in outcomes if not o.passed]
        assert failed == []
        assert all(o.checked > 0 for o in outcomes)

    def test_unbalanced_period_caught(self, observed_run):
        _, clean, _, _ = observed_run
        p = clean.periods[0]
        bad = _doctor(clean, load_energy=p.load_energy + 1.0)
        out = check_energy_conservation(_ctx(observed_run, result=bad))
        assert not out.passed
        v = out.errors[0]
        assert (v.day, v.period) == (p.day, p.period)
        assert "load" in v.message

    def test_load_beyond_cumulative_harvest_caught(self, observed_run):
        """Balanced books that spend energy never harvested."""
        _, clean, _, _ = observed_run
        p = clean.periods[0]
        load = p.solar_energy + 1.0
        bad = _doctor(
            clean,
            load_energy=load,
            direct_energy=load - p.storage_energy,
        )
        out = check_energy_conservation(_ctx(observed_run, result=bad))
        messages = [v.message for v in out.errors]
        assert any("exceeds cumulative harvest" in m for m in messages)
        assert not any("!= direct" in m for m in messages)

    def test_negative_flow_caught(self, observed_run):
        _, clean, _, _ = observed_run
        bad = _doctor(clean, solar_energy=-0.5)
        out = check_energy_conservation(_ctx(observed_run, result=bad))
        assert any("negative solar_energy" in v.message for v in out.errors)

    def test_storage_delivery_bound_caught(self, observed_run):
        """Storage handing out energy that was never charged in is the
        global-energy-migration invariant the subsystem exists for."""
        _, clean, _, _ = observed_run
        p = clean.periods[0]
        bad = _doctor(
            clean,
            storage_energy=p.storage_energy + 1000.0,
            load_energy=p.load_energy + 1000.0,
        )
        out = check_energy_conservation(_ctx(observed_run, result=bad))
        assert any("storage delivered" in v.message for v in out.errors)

    def test_negative_voltage_caught(self, observed_run):
        _, clean, _, _ = observed_run
        sv = clean.periods[0].start_voltages.copy()
        sv[0] = -0.2
        bad = _doctor(clean, start_voltages=sv)
        out = check_voltage_bounds(_ctx(observed_run, result=bad))
        assert any("negative start voltage" in v.message for v in out.errors)

    def test_overvoltage_caught(self, observed_run):
        _, clean, _, v_max = observed_run
        sv = clean.periods[0].start_voltages.copy()
        sv[0] = v_max + 1.0
        bad = _doctor(clean, start_voltages=sv)
        out = check_voltage_bounds(_ctx(observed_run, result=bad))
        assert any("above V_max" in v.message for v in out.errors)

    def test_impossible_miss_count_caught(self, observed_run):
        graph, clean, _, _ = observed_run
        bad = _doctor(clean, miss_count=len(graph) + 5)
        out = check_dmr_accounting(_ctx(observed_run, result=bad))
        assert any("miss_count" in v.message for v in out.errors)

    def test_dmr_miss_count_mismatch_caught(self, observed_run):
        _, clean, _, _ = observed_run
        bad = _doctor(clean, dmr=0.987)
        out = check_dmr_accounting(_ctx(observed_run, result=bad))
        assert not out.passed

    def test_accumulated_dmr_outside_unit_interval_caught(
        self, observed_run
    ):
        graph, clean, _, _ = observed_run
        bad = _doctor(clean, dmr=1.5, miss_count=len(graph))
        out = check_dmr_accounting(_ctx(observed_run, result=bad))
        messages = [v.message for v in out.errors]
        assert "accumulated DMR 1.5 outside [0, 1]" in messages
        # The running mean itself is intact: only the range is named.
        assert not any("recurrence" in m for m in messages)
        assert not any("np.float64" in m for m in messages)

    def test_accumulated_dmr_off_the_recurrence_caught(self, observed_run):
        _, clean, _, _ = observed_run
        bad = _doctor(clean)
        acc = clean.accumulated_dmr()
        # The last period, so no later step builds on the bad value.
        acc[-1] = acc[-1] + 0.25 if acc[-1] < 0.5 else acc[-1] - 0.25
        bad.accumulated_dmr = lambda: acc
        out = check_dmr_accounting(_ctx(observed_run, result=bad))
        messages = [v.message for v in out.errors]
        assert len(messages) == 1
        assert "breaks the Eq. 19 recurrence" in messages[0]
        assert "outside" not in messages[0]
        assert "np.float64" not in messages[0]

    def test_impossible_brownout_count_caught(self, observed_run):
        _, clean, _, _ = observed_run
        slots = clean.timeline.slots_per_period
        bad = _doctor(clean, brownout_slots=slots + 1)
        out = check_nvp_charge(_ctx(observed_run, result=bad))
        assert any("brownout_slots" in v.message for v in out.errors)

    def test_overdelivering_brownout_caught(self, observed_run):
        _, _, records, _ = observed_run
        fake = {
            "kind": "brownout", "day": 0, "period": 0, "slot": 0,
            "delivered_energy": 2.0, "needed_energy": 1.0,
        }
        out = check_nvp_charge(
            _ctx(observed_run, events=records + [fake])
        )
        assert any("more than" in v.message for v in out.errors)

    def test_phantom_brownout_event_caught(self, observed_run):
        _, _, records, _ = observed_run
        # Anchor the phantom to a slot that demonstrably ran in full.
        full = next(
            e for e in records
            if e.get("kind") == "slot_decision"
            and e["run_fraction"] >= 1.0 and e["chosen"]
        )
        fake = {
            "kind": "brownout", "day": full["day"],
            "period": full["period"], "slot": full["slot"],
            "delivered_energy": 0.0, "needed_energy": 0.1,
        }
        out = check_brownout_discipline(
            _ctx(observed_run, events=records + [fake])
        )
        assert any(
            "without a partial slot decision" in v.message
            for v in out.errors
        )

    def test_not_ready_task_caught(self, observed_run):
        _, _, records, _ = observed_run
        fake = {
            "kind": "slot_decision", "day": 0, "period": 0, "slot": 0,
            "chosen": (0,), "ready": (), "load_power": 0.0,
            "run_fraction": 1.0,
        }
        out = check_slot_legality(
            _ctx(observed_run, events=records + [fake])
        )
        assert any("were not ready" in v.message for v in out.errors)

    def test_event_checkers_degrade_without_a_stream(self, observed_run):
        ctx = _ctx(observed_run, events=[])
        for checker in (check_brownout_discipline, check_slot_legality):
            out = checker(ctx)
            assert out.passed
            assert "skipped" in out.notes


# ----------------------------------------------------------------------
# Metamorphic relations
# ----------------------------------------------------------------------
class TestMetamorphicRelations:
    def test_all_relations_hold(self):
        outcomes = verify_metamorphic()
        assert [o.name for o in outcomes] == [
            "metamorphic/more-sun-never-hurts",
            "metamorphic/capacity-never-hurts",
            "metamorphic/permutation-invariance",
        ]
        for o in outcomes:
            assert o.passed, o.name
            assert o.checked > 0


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------
class TestVerifyCLI:
    def test_smoke_level_passes(self, capsys):
        from repro.cli import main

        assert main(["verify", "--level", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "verification: level=smoke seed=0" in out
        assert "OK" in out

    def test_json_report(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "report.json"
        code = main(
            ["verify", "--level", "smoke", "--quiet", "--json", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["ok"] is True
        assert payload["level"] == "smoke"
        assert payload["checks"] == len(payload["outcomes"]) > 0
        assert payload["wall_time_s"] > 0

    def test_unknown_level_is_bad_input(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["verify", "--level", "bogus"])
        capsys.readouterr()

    def test_broken_physics_exits_6(self, tmp_path, capsys, monkeypatch):
        """Acceptance demo: inflate every slot's storage delivery so the
        bank hands out energy that was never harvested — ``repro
        verify`` must exit 6 with the violation pinned to the energy
        invariants (offline and online)."""
        from repro.cli import main

        real = PMU.supply_slot

        def inflated(self, solar_power, load_power, slot_seconds):
            flow = real(self, solar_power, load_power, slot_seconds)
            return dataclasses.replace(
                flow, storage_energy=flow.storage_energy + 7.0
            )

        monkeypatch.setattr(PMU, "supply_slot", inflated)
        path = tmp_path / "report.json"
        code = main(
            ["verify", "--level", "smoke", "--quiet", "--json", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 6
        assert "FAILED" in out
        assert "FAIL energy-conservation" in out
        payload = json.loads(path.read_text())
        assert payload["ok"] is False
        checks = {
            v["check"]
            for o in payload["outcomes"]
            for v in o["violations"]
        }
        assert "energy-conservation" in checks
        # Violations carry the simulation clock.
        located = [
            v
            for o in payload["outcomes"]
            for v in o["violations"]
            if v["check"] == "energy-conservation"
        ]
        assert located and located[0]["day"] >= 0
