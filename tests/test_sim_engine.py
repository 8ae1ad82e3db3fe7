"""Tests for the simulation engine and result records."""

import dataclasses

import numpy as np
import pytest

from repro import quick_node, simulate
from repro.energy import CapacitorBank, SuperCapacitor
from repro.node import SensorNode
from repro.schedulers import GreedyEDFScheduler, Scheduler
from repro.sim import (
    InvalidDecisionError,
    SimulationEngine,
    result_fingerprint,
)
from repro.sim.views import PeriodEndView, SlotView
from repro.solar import SolarTrace
from repro.tasks import Task, TaskGraph, wam
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


def tiny_node(graph, caps=(10.0,), **kwargs):
    return SensorNode(
        [SuperCapacitor(capacitance=c) for c in caps],
        num_nvps=graph.num_nvps,
        **kwargs,
    )


class RunEverything(Scheduler):
    name = "run-everything"

    def on_slot(self, view):
        return list(view.ready)


class RunNothing(Scheduler):
    name = "run-nothing"

    def on_slot(self, view):
        return []


class IllegalScheduler(Scheduler):
    name = "illegal"

    def on_slot(self, view):
        return [99]


class TestEngineBasics:
    def test_abundant_solar_zero_dmr(self):
        graph = tiny_graph()
        tl = tiny_timeline()
        result = simulate(
            tiny_node(graph), graph, constant_trace(tl, 0.10), RunEverything()
        )
        assert result.dmr == 0.0
        assert result.total_brownout_slots == 0

    def test_no_solar_no_storage_full_dmr(self):
        graph = tiny_graph()
        tl = tiny_timeline()
        result = simulate(
            tiny_node(graph), graph, constant_trace(tl, 0.0), RunEverything()
        )
        assert result.dmr == 1.0

    def test_run_nothing_full_dmr_no_energy(self):
        graph = tiny_graph()
        tl = tiny_timeline()
        result = simulate(
            tiny_node(graph), graph, constant_trace(tl, 0.10), RunNothing()
        )
        assert result.dmr == 1.0
        assert result.total_load_energy == 0.0

    def test_record_count(self):
        graph = tiny_graph()
        tl = tiny_timeline(days=2, periods=3)
        result = simulate(
            tiny_node(graph), graph, constant_trace(tl, 0.1), RunEverything()
        )
        assert len(result.periods) == 6

    def test_too_few_nvps_rejected(self):
        graph = tiny_graph()  # needs 2 NVPs
        tl = tiny_timeline()
        node = SensorNode([SuperCapacitor(capacitance=1.0)], num_nvps=1)
        with pytest.raises(ValueError):
            SimulationEngine(
                node, graph, constant_trace(tl, 0.1), RunEverything()
            )

    def test_illegal_decision_strict_raises(self):
        graph = tiny_graph()
        tl = tiny_timeline()
        with pytest.raises(InvalidDecisionError):
            simulate(
                tiny_node(graph),
                graph,
                constant_trace(tl, 0.1),
                IllegalScheduler(),
            )

    def test_illegal_decision_lenient_drops(self):
        graph = tiny_graph()
        tl = tiny_timeline()
        result = simulate(
            tiny_node(graph),
            graph,
            constant_trace(tl, 0.1),
            IllegalScheduler(),
            strict=False,
        )
        assert result.dmr == 1.0  # dropped everything

    def test_two_tasks_same_nvp_rejected(self):
        graph = TaskGraph(
            [
                Task("a", 60.0, 300.0, 0.02, nvp=0),
                Task("b", 60.0, 300.0, 0.02, nvp=0),
            ]
        )
        tl = tiny_timeline()

        class BothAtOnce(Scheduler):
            name = "both"

            def on_slot(self, view):
                return list(view.ready)

        with pytest.raises(InvalidDecisionError):
            simulate(
                tiny_node(graph), graph, constant_trace(tl, 0.1), BothAtOnce()
            )


class TestEnergyAccounting:
    def test_solar_energy_matches_trace(self):
        graph = tiny_graph()
        tl = tiny_timeline()
        trace = constant_trace(tl, 0.05)
        result = simulate(tiny_node(graph), graph, trace, RunEverything())
        assert result.total_solar_energy == pytest.approx(
            trace.total_energy()
        )

    def test_direct_plus_storage_is_load(self):
        graph = tiny_graph()
        tl = tiny_timeline(days=1, periods=4)
        result = simulate(
            tiny_node(graph), graph, constant_trace(tl, 0.03), RunEverything()
        )
        for p in result.periods:
            assert p.load_energy == pytest.approx(
                p.direct_energy + p.storage_energy
            )

    def test_energy_utilization_bounds(self):
        graph = tiny_graph()
        tl = tiny_timeline()
        result = simulate(
            tiny_node(graph), graph, constant_trace(tl, 0.08), RunEverything()
        )
        assert 0.0 <= result.energy_utilization <= 1.0

    def test_storage_serves_after_dark(self):
        """Charge in a bright period, then run a dark period on storage."""
        graph = tiny_graph()
        tl = tiny_timeline(days=1, periods=2)
        power = np.zeros((1, 2, 10))
        power[0, 0, :] = 0.20  # bright first period
        trace = SolarTrace(tl, power)
        result = simulate(
            tiny_node(graph, caps=(10.0,)), graph, trace, RunEverything()
        )
        dark = result.periods[1]
        assert dark.storage_energy > 0
        assert dark.dmr == 0.0

    def test_brownout_recorded(self):
        graph = tiny_graph()
        tl = tiny_timeline(days=1, periods=1)
        node = tiny_node(graph, caps=(0.5,))
        result = simulate(node, graph, constant_trace(tl, 0.0), RunEverything())
        assert result.total_brownout_slots > 0


class TestSlotRecording:
    def test_slot_arrays_present_when_requested(self):
        graph = tiny_graph()
        tl = tiny_timeline()
        result = simulate(
            tiny_node(graph),
            graph,
            constant_trace(tl, 0.05),
            RunEverything(),
            record_slots=True,
        )
        assert result.slots is not None
        assert result.slots.solar_power.shape == (tl.total_slots,)
        assert np.allclose(result.slots.solar_power, 0.05)

    def test_slot_arrays_absent_by_default(self):
        graph = tiny_graph()
        tl = tiny_timeline()
        result = simulate(
            tiny_node(graph), graph, constant_trace(tl, 0.05), RunEverything()
        )
        assert result.slots is None


class TestResultMetrics:
    def test_dmr_series_shape(self):
        graph = tiny_graph()
        tl = tiny_timeline(days=2, periods=3)
        result = simulate(
            tiny_node(graph), graph, constant_trace(tl, 0.1), RunEverything()
        )
        assert result.dmr_series().shape == (6,)
        assert result.dmr_by_day().shape == (2,)

    def test_accumulated_dmr_running_mean(self):
        graph = tiny_graph()
        tl = tiny_timeline(days=1, periods=4)
        power = np.zeros((1, 4, 10))
        power[0, :2, :] = 0.2  # first half bright, second dark
        result = simulate(
            tiny_node(graph, caps=(0.5,)),
            graph,
            SolarTrace(tl, power),
            RunNothing(),
        )
        acc = result.accumulated_dmr()
        series = result.dmr_series()
        assert acc[0] == series[0]
        assert acc[-1] == pytest.approx(series.mean())

    def test_summary_keys(self):
        graph = tiny_graph()
        tl = tiny_timeline()
        result = simulate(
            tiny_node(graph), graph, constant_trace(tl, 0.1), RunEverything()
        )
        summary = result.summary()
        assert {"dmr", "energy_utilization", "migration_efficiency"} <= set(
            summary
        )


class TestSchedulerHooks:
    def test_views_are_causal_and_complete(self):
        seen = {}

        class Probe(Scheduler):
            name = "probe"

            def on_period_start(self, view):
                seen.setdefault("starts", []).append(
                    (view.day, view.period, view.last_period_energy)
                )

            def on_slot(self, view):
                assert 0.0 <= view.solar_power
                assert len(view.remaining) == len(view.graph)
                return []

            def on_period_end(self, view):
                seen.setdefault("ends", []).append(view.observed_energy)

        graph = tiny_graph()
        tl = tiny_timeline(days=1, periods=3)
        simulate(tiny_node(graph), graph, constant_trace(tl, 0.04), Probe())
        assert len(seen["starts"]) == 3
        # First period has no history; later ones see the previous energy.
        assert seen["starts"][0][2] is None
        assert seen["starts"][1][2] == pytest.approx(0.04 * 10 * 30.0)
        assert len(seen["ends"]) == 3

    def test_bank_is_read_once_per_period_start(self, monkeypatch):
        """Only the coarse hook sees the bank: one snapshot per period,
        none per slot or at period end."""
        real = CapacitorBank.view_arrays
        calls = []

        def counting(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(CapacitorBank, "view_arrays", counting)
        graph = tiny_graph()
        tl = tiny_timeline(days=2, periods=3)
        simulate(
            tiny_node(graph, caps=(2.0, 10.0)), graph,
            constant_trace(tl, 0.04), GreedyEDFScheduler(),
        )
        assert len(calls) == tl.total_periods
        for view in (SlotView, PeriodEndView):
            names = {f.name for f in dataclasses.fields(view)}
            assert "bank" not in names

    def test_period_tables_built_once_per_run(self, monkeypatch):
        """Deadline slots, predecessor and descendant tuples are static:
        one run of many periods reads each task's relations once."""
        calls = {"predecessors": 0, "descendants": 0}
        for name in calls:
            real = getattr(TaskGraph, name)

            def counting(self, task_index, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, task_index)

            monkeypatch.setattr(TaskGraph, name, counting)
        graph = wam()
        tl = tiny_timeline(days=2, periods=3, slots=20)
        simulate(
            quick_node(graph), graph, constant_trace(tl, 0.01),
            GreedyEDFScheduler(),
        )
        assert calls == {
            "predecessors": len(graph), "descendants": len(graph)
        }

    def test_slot_view_is_read_only(self):
        """Writing into ``view.remaining`` or ``view.missed`` raises, and
        the engine's task state is untouched: the run is bit-identical
        to one whose scheduler never tried."""
        raised = []

        class Vandal(GreedyEDFScheduler):
            def on_slot(self, view):
                for field, value in (("remaining", 0.0), ("missed", True)):
                    try:
                        getattr(view, field)[0] = value
                    except TypeError:
                        raised.append(field)
                return super().on_slot(view)

        graph = tiny_graph()
        tl = tiny_timeline(days=1, periods=3)
        trace = constant_trace(tl, 0.02)
        vandal = simulate(tiny_node(graph), graph, trace, Vandal())
        plain = simulate(tiny_node(graph), graph, trace, GreedyEDFScheduler())
        assert raised == ["remaining", "missed"] * tl.total_slots
        assert result_fingerprint(vandal) == result_fingerprint(plain)
