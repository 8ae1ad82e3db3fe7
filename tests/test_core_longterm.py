"""Tests for the long-term DP: storage grid, optimisation, plans."""

import numpy as np
import pytest

from repro.core import DPConfig, LongTermOptimizer, StorageGrid, trace_period_matrix
from repro.energy import SuperCapacitor
from repro.solar import SolarTrace, four_day_trace
from repro.tasks import Task, TaskGraph, wam
from repro.timeline import Timeline


def bank(caps=(1.0, 10.0)):
    return [SuperCapacitor(capacitance=c) for c in caps]


def tl_of(days=1, periods=4, slots=10, dt=30.0):
    return Timeline(days, periods, slots, dt)


class TestStorageGrid:
    def test_state_count(self):
        grid = StorageGrid(bank(), buckets=5)
        assert grid.num_states == 10

    def test_state_index_roundtrip(self):
        grid = StorageGrid(bank(), buckets=11)
        cap = bank()[1]
        usable = 0.5 * cap.usable_capacity
        s = grid.state_index(1, usable)
        assert grid.state_cap[s] == 1
        assert grid.state_usable[s] == pytest.approx(usable, rel=0.12)

    def test_drained_state_has_zero_usable(self):
        grid = StorageGrid(bank(), buckets=5)
        for h in range(2):
            s = grid.drained_state(h)
            assert grid.state_usable[s] == 0.0
            assert grid.state_cap[s] == h

    def test_transition_no_activity_only_leaks(self):
        grid = StorageGrid(bank(), buckets=21)
        feasible, nxt, drawn = grid.transition(0.0, 0.0, 600.0)
        assert feasible.all()
        assert np.all(drawn == 0.0)
        # Leakage can only move states downward.
        assert np.all(grid.state_usable[nxt] <= grid.state_usable + 1e-9)

    def test_transition_discharge_infeasible_when_empty(self):
        grid = StorageGrid(bank(), buckets=5)
        feasible, _, _ = grid.transition(5.0, 0.0, 600.0)
        for h in range(2):
            assert not feasible[grid.drained_state(h)]

    def test_transition_charge_moves_up(self):
        grid = StorageGrid(bank((10.0,)), buckets=41)
        feasible, nxt, _ = grid.transition(0.0, 30.0, 600.0)
        s0 = grid.drained_state(0)
        assert feasible[s0]
        assert grid.state_usable[nxt[s0]] > 0.0

    def test_transition_drawn_exceeds_need(self):
        """Conversion losses: drawn energy > delivered need."""
        grid = StorageGrid(bank((10.0,)), buckets=41)
        top = grid.num_states - 1
        feasible, _, drawn = grid.transition(5.0, 0.0, 600.0)
        assert feasible[top]
        assert drawn[top] > 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StorageGrid([], buckets=5)
        with pytest.raises(ValueError):
            StorageGrid(bank(), buckets=1)
        grid = StorageGrid(bank(), buckets=5)
        with pytest.raises(IndexError):
            grid.state_index(7, 0.0)


class TestDPConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"energy_buckets": 1},
            {"switch_threshold": -1.0},
            {"energy_tiebreak": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DPConfig(**kwargs)


class TestLongTermOptimizer:
    def constant_solar(self, tl, power):
        return np.full((tl.total_periods, tl.slots_per_period), power)

    def test_abundant_solar_completes_everything(self):
        graph = wam()
        tl = Timeline(1, 4, 20, 30.0)
        opt = LongTermOptimizer(graph, tl, bank())
        plan = opt.optimize(self.constant_solar(tl, 0.5))
        assert plan.expected_dmr == pytest.approx(0.0)
        assert np.all(plan.chosen_k == len(graph))

    def test_darkness_with_empty_storage_misses_everything(self):
        graph = wam()
        tl = Timeline(1, 4, 20, 30.0)
        opt = LongTermOptimizer(graph, tl, bank())
        plan = opt.optimize(self.constant_solar(tl, 0.0))
        assert plan.expected_dmr == pytest.approx(1.0)

    def test_banked_energy_serves_dark_period(self):
        """Bright first period, dark second: DP migrates."""
        graph = TaskGraph([Task("a", 60.0, 600.0, 0.02, nvp=0)])
        tl = Timeline(1, 2, 20, 30.0)
        solar = np.zeros((2, 20))
        solar[0, :] = 0.30
        opt = LongTermOptimizer(graph, tl, bank((10.0,)))
        plan = opt.optimize(solar)
        assert plan.expected_dmr == pytest.approx(0.0)
        assert plan.chosen_k[1] == 1

    def test_rations_under_scarcity(self):
        """Storage covers only part of the dark demand: DP sheds the
        expensive tasks, not everything."""
        graph = wam()
        tl = Timeline(1, 5, 20, 30.0)
        solar = np.zeros((5, 20))
        solar[0, :] = 0.2
        opt = LongTermOptimizer(graph, tl, bank((2.0,)))
        plan = opt.optimize(solar)
        dark_k = plan.chosen_k[1:]
        assert 0 < dark_k.sum() < 4 * len(graph)

    def test_plan_arrays_populated(self):
        graph = wam()
        tl = Timeline(2, 3, 20, 30.0)
        opt = LongTermOptimizer(graph, tl, bank())
        plan = opt.optimize(self.constant_solar(tl, 0.1))
        assert plan.te_by_period.shape == (6, len(graph))
        assert plan.alpha_by_period.shape == (6,)
        assert len(plan.samples) == 6
        assert plan.capacitor_by_day.shape == (2,)

    def test_capacitor_choice_adapts_to_surplus(self):
        """Large daily surplus favours the larger capacitor."""
        graph = wam()
        tl = Timeline(1, 6, 20, 30.0)
        solar = np.zeros((6, 20))
        solar[:3, :] = 0.5  # big surplus early, darkness later
        opt = LongTermOptimizer(graph, tl, bank((1.0, 22.0)))
        plan = opt.optimize(solar)
        assert plan.capacitor_by_day[0] == 1

    def test_transitions_counted(self):
        graph = wam()
        tl = Timeline(1, 3, 20, 30.0)
        opt = LongTermOptimizer(graph, tl, bank())
        plan = opt.optimize(self.constant_solar(tl, 0.1))
        assert plan.transitions_evaluated > 0

    def test_shape_validation(self):
        graph = wam()
        tl = Timeline(1, 3, 20, 30.0)
        opt = LongTermOptimizer(graph, tl, bank())
        with pytest.raises(ValueError):
            opt.optimize(np.zeros((3, 7)))

    def test_trace_period_matrix_shape(self):
        tl = Timeline(4, 6, 10, 30.0)
        trace = four_day_trace(tl)
        matrix = trace_period_matrix(trace)
        assert matrix.shape == (24, 10)
        assert matrix[0, 0] == trace.power[0, 0, 0]

    def test_samples_record_day_capacitor(self):
        graph = wam()
        tl = Timeline(2, 3, 20, 30.0)
        opt = LongTermOptimizer(graph, tl, bank())
        plan = opt.optimize(self.constant_solar(tl, 0.1))
        for t, sample in enumerate(plan.samples):
            day = t // 3
            assert sample.cap_index == plan.capacitor_by_day[day]
            assert sample.te.shape == (len(graph),)
            assert 0.0 <= sample.accumulated_dmr <= 1.0

    def test_dp_expectation_close_to_replay(self):
        """DP expectation within a few points of engine replay."""
        from repro import simulate
        from repro.core import PlanPolicy, ProposedScheduler
        from repro.node import SensorNode

        graph = wam()
        tl = Timeline(2, 24, 20, 30.0)
        trace = four_day_trace(Timeline(4, 24, 20, 30.0))
        power = trace.power[:2]
        solar_trace = SolarTrace(tl, power)
        caps = bank((1.0, 10.0))
        opt = LongTermOptimizer(graph, tl, caps)
        plan = opt.optimize(trace_period_matrix(solar_trace))
        node = SensorNode(caps, num_nvps=graph.num_nvps)
        result = simulate(
            node, graph, solar_trace,
            ProposedScheduler(PlanPolicy(plan), name="optimal"),
            strict=False,
        )
        assert abs(result.dmr - plan.expected_dmr) < 0.15
