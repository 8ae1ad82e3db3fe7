"""Golden tests: DP plans vs exhaustive search on tiny instances.

On instances small enough to enumerate every possible schedule, the
long-term DP's extracted plan must match the brute-force optimum when
both are replayed through the *same* engine physics.  This pins the
whole pipeline — profiler, storage grid, DP, plan extraction — against
ground truth.
"""

import itertools

import numpy as np
import pytest

from repro import simulate
from repro.core import (
    DPConfig,
    LongTermOptimizer,
    PlanPolicy,
    ProposedScheduler,
)
from repro.energy import SuperCapacitor
from repro.node import SensorNode
from repro.schedulers import PlanScheduler, SchedulePlan
from repro.solar import SolarTrace
from repro.tasks import Task, TaskGraph
from repro.timeline import Timeline


def brute_force_best_dmr(node_factory, graph, trace):
    """Enumerate every per-slot schedule of a single-task workload."""
    tl = trace.timeline
    slots = tl.slots_per_period
    periods = tl.total_periods
    assert len(graph) == 1, "exhaustive search supports one task"
    best = 1.1
    per_period_options = list(itertools.product([False, True], repeat=slots))
    for combo in itertools.product(per_period_options, repeat=periods):
        plan = SchedulePlan()
        for t, slot_choices in enumerate(combo):
            day, period = tl.unflatten_period(t)
            matrix = np.array(slot_choices, dtype=bool)[:, None]
            plan.set_period(day, period, matrix)
        result = simulate(
            node_factory(), graph, trace,
            PlanScheduler(plan, force_capacitor=False),
            strict=False,
        )
        best = min(best, result.dmr)
        if best == 0.0:
            break
    return best


class TestGoldenSingleTask:
    def make_env(self, solar_rows, exec_s=60.0, deadline=120.0,
                 power=0.05, cap_f=2.0):
        graph = TaskGraph([Task("t", exec_s, deadline, power, nvp=0)])
        num_periods = len(solar_rows)
        tl = Timeline(1, num_periods, 4, 30.0)
        power_arr = np.asarray(solar_rows, dtype=float)[None, :, :]
        trace = SolarTrace(tl, power_arr)

        def node_factory():
            return SensorNode(
                [SuperCapacitor(capacitance=cap_f)], num_nvps=1
            )

        return graph, tl, trace, node_factory

    def run_dp(self, graph, tl, trace, node_factory):
        opt = LongTermOptimizer(
            graph,
            tl,
            [SuperCapacitor(capacitance=2.0)],
            config=DPConfig(energy_buckets=241),
        )
        matrix = trace.power.reshape(tl.total_periods, tl.slots_per_period)
        plan = opt.optimize(matrix)
        result = simulate(
            node_factory(), graph, trace,
            ProposedScheduler(PlanPolicy(plan), name="optimal"),
            strict=False,
        )
        return result.dmr

    def test_bright_then_dark(self):
        """Period 1 bright, periods 2-3 dark: storage serves one of the
        dark periods at best; the DP must find whatever brute force
        finds."""
        rows = [
            [0.30, 0.30, 0.30, 0.30],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
        graph, tl, trace, node_factory = self.make_env(rows)
        dp = self.run_dp(graph, tl, trace, node_factory)
        best = brute_force_best_dmr(node_factory, graph, trace)
        assert dp == pytest.approx(best, abs=1e-9)

    def test_all_dark(self):
        rows = [[0.0] * 4] * 3
        graph, tl, trace, node_factory = self.make_env(rows)
        dp = self.run_dp(graph, tl, trace, node_factory)
        best = brute_force_best_dmr(node_factory, graph, trace)
        assert dp == pytest.approx(best) == 1.0

    def test_all_bright(self):
        rows = [[0.2] * 4] * 3
        graph, tl, trace, node_factory = self.make_env(rows)
        dp = self.run_dp(graph, tl, trace, node_factory)
        best = brute_force_best_dmr(node_factory, graph, trace)
        assert dp == pytest.approx(best) == 0.0

    def test_marginal_solar(self):
        """Solar covers the task only if execution lands on the lit
        slots."""
        rows = [
            [0.0, 0.06, 0.06, 0.0],
            [0.0, 0.0, 0.06, 0.06],
        ]
        graph, tl, trace, node_factory = self.make_env(rows)
        dp = self.run_dp(graph, tl, trace, node_factory)
        best = brute_force_best_dmr(node_factory, graph, trace)
        assert dp <= best + 1e-9

    def test_dp_never_beats_physics(self):
        """The DP's expectation can be pessimistic (bucket floor) but
        its replayed plan can never do better than the exhaustive
        engine optimum."""
        rows = [
            [0.10, 0.05, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
        graph, tl, trace, node_factory = self.make_env(rows)
        dp = self.run_dp(graph, tl, trace, node_factory)
        best = brute_force_best_dmr(node_factory, graph, trace)
        assert dp >= best - 1e-9
