"""Tests for the DVFS model, engine support and scheduler."""

import numpy as np
import pytest

from repro import simulate
from repro.energy import SuperCapacitor
from repro.node import DVFSModel, SensorNode
from repro.schedulers import (
    DVFSLoadMatchingScheduler,
    GreedyEDFScheduler,
    IntraTaskScheduler,
    Scheduler,
)
from repro.sim import InvalidDecisionError
from repro.solar import SolarTrace
from repro.tasks import Task, TaskGraph, wam
from repro.timeline import Timeline


def tl_of(periods=2, slots=20):
    return Timeline(1, periods, slots, 30.0)


def constant_trace(tl, power):
    return SolarTrace(
        tl,
        np.full((tl.num_days, tl.periods_per_day, tl.slots_per_period), power),
    )


def dvfs_node(graph, caps=(10.0,), model=None):
    return SensorNode(
        [SuperCapacitor(capacitance=c) for c in caps],
        num_nvps=graph.num_nvps,
        dvfs=model or DVFSModel(),
    )


class TestDVFSModel:
    def test_rate_is_frequency(self):
        model = DVFSModel()
        assert model.rate(0.5) == 0.5
        assert model.rate(1.0) == 1.0

    def test_power_factor_cubic(self):
        model = DVFSModel(static_fraction=0.0)
        assert model.power_factor(0.5) == pytest.approx(0.125)
        assert model.power_factor(1.0) == pytest.approx(1.0)

    def test_static_floor(self):
        model = DVFSModel(static_fraction=0.2)
        assert model.power_factor(0.25) >= 0.2

    def test_energy_factor_below_one_at_low_levels(self):
        """Slowing down saves energy per unit of work (until static
        power dominates)."""
        model = DVFSModel(static_fraction=0.1)
        assert model.energy_factor(0.5) < model.energy_factor(1.0)

    def test_most_efficient_moves_with_static_power(self):
        lean = DVFSModel(static_fraction=0.0)
        leaky = DVFSModel(static_fraction=0.9)
        assert lean.most_efficient() <= leaky.most_efficient()

    def test_slowest_meeting(self):
        model = DVFSModel()
        assert model.slowest_meeting(0.3) == 0.5
        assert model.slowest_meeting(1.0) == 1.0
        assert model.slowest_meeting(1.1) is None
        assert model.slowest_meeting(0.0) == 0.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"levels": ()},
            {"levels": (1.0, 0.5)},
            {"levels": (0.5, 0.8)},  # must end at 1.0
            {"static_fraction": 1.0},
            {"static_fraction": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DVFSModel(**kwargs)

    def test_invalid_level_rejected(self):
        model = DVFSModel()
        with pytest.raises(ValueError):
            model.rate(0.33)
        with pytest.raises(ValueError):
            model.power_factor(0.33)

    def test_table_levels_and_near_levels_share_the_formula(self):
        """Table levels come from a precomputed table; a level within
        the tolerance of one is still checked and computed directly."""
        model = DVFSModel(static_fraction=0.15)
        for level in model.levels:
            assert model.power_factor(level) == 0.15 + 0.85 * level**3
        near = 0.5 + 1e-12
        assert model.rate(near) == near
        assert model.power_factor(near) == 0.15 + 0.85 * near**3
        assert model.most_efficient() == min(
            model.levels, key=model.energy_factor
        )


class TestEngineDVFSSupport:
    def make_graph(self):
        return TaskGraph([Task("a", 300.0, 600.0, 0.02, nvp=0)])

    def test_scaled_progress(self):
        """At level 0.5 a task makes half progress per slot."""

        class HalfSpeed(Scheduler):
            name = "half"

            def on_slot(self, view):
                return [(t, 0.5) for t in view.ready]

        graph = self.make_graph()
        tl = tl_of(periods=1)
        result = simulate(
            dvfs_node(graph), graph, constant_trace(tl, 0.5), HalfSpeed()
        )
        # 300 s of work over 20 slots at half speed = 300 s of progress
        # exactly; the deadline-checked boundary makes this tight.
        assert result.dmr == 0.0

    def test_reduced_level_draws_less_power(self):
        class AtLevel(Scheduler):
            name = "lvl"

            def __init__(self, level):
                self.level = level

            def on_slot(self, view):
                return [(t, self.level) for t in view.ready]

        graph = self.make_graph()
        tl = tl_of(periods=1)
        loads = {}
        for level in (0.5, 1.0):
            result = simulate(
                dvfs_node(graph),
                graph,
                constant_trace(tl, 0.5),
                AtLevel(level),
                record_slots=True,
            )
            loads[level] = result.slots.load_power[:5].mean()
        assert loads[0.5] < loads[1.0]

    def test_invalid_level_strict_raises(self):
        class BadLevel(Scheduler):
            name = "bad"

            def on_slot(self, view):
                return [(t, 0.33) for t in view.ready]

        graph = self.make_graph()
        tl = tl_of(periods=1)
        with pytest.raises(InvalidDecisionError):
            simulate(
                dvfs_node(graph), graph, constant_trace(tl, 0.5), BadLevel()
            )

    def test_level_without_dvfs_node_raises(self):
        class HalfSpeed(Scheduler):
            name = "half"

            def on_slot(self, view):
                return [(t, 0.5) for t in view.ready]

        graph = self.make_graph()
        tl = tl_of(periods=1)
        node = SensorNode(
            [SuperCapacitor(capacitance=10.0)], num_nvps=1
        )  # no DVFS
        with pytest.raises(InvalidDecisionError):
            simulate(node, graph, constant_trace(tl, 0.5), HalfSpeed())

    def test_plain_int_decisions_still_work(self):
        graph = self.make_graph()
        tl = tl_of(periods=1)
        result = simulate(
            dvfs_node(graph), graph, constant_trace(tl, 0.5),
            GreedyEDFScheduler(),
        )
        assert result.dmr == 0.0


class TestDVFSScheduler:
    def test_meets_deadlines_under_abundance(self):
        graph = wam()
        tl = tl_of(periods=2)
        result = simulate(
            dvfs_node(graph, caps=(10.0,)),
            graph,
            constant_trace(tl, 0.5),
            DVFSLoadMatchingScheduler(),
        )
        assert result.dmr == 0.0

    def test_uses_less_energy_than_full_speed(self):
        """With slack and abundant solar, DVFS completes the same work
        for less energy than the fixed-speed matcher."""
        graph = wam()
        tl = tl_of(periods=2)
        dvfs_result = simulate(
            dvfs_node(graph), graph, constant_trace(tl, 0.5),
            DVFSLoadMatchingScheduler(),
        )
        flat_result = simulate(
            dvfs_node(graph), graph, constant_trace(tl, 0.5),
            IntraTaskScheduler(),
        )
        assert dvfs_result.dmr == flat_result.dmr == 0.0
        assert dvfs_result.total_load_energy < flat_result.total_load_energy

    def test_degrades_gracefully_in_darkness(self):
        graph = wam()
        tl = tl_of(periods=2)
        result = simulate(
            dvfs_node(graph, caps=(1.0,)),
            graph,
            constant_trace(tl, 0.0),
            DVFSLoadMatchingScheduler(),
        )
        assert 0.0 <= result.dmr <= 1.0
