"""Tests for the baseline scheduling policies."""

import numpy as np
import pytest

from repro import quick_node, simulate
from repro.schedulers import (
    GreedyEDFScheduler,
    InterTaskScheduler,
    IntraTaskScheduler,
    PlanScheduler,
    SchedulePlan,
    admit_by_energy,
    best_power_match,
    nvp_filter,
)
from repro.schedulers.lsa import _AdmissionTable
from repro.solar import SolarTrace, four_day_trace
from repro.tasks import Task, TaskGraph, wam
from repro.tasks.benchmarks import random_benchmark
from repro.timeline import Timeline


def tl_of(days=1, periods=2, slots=10, dt=30.0):
    return Timeline(days, periods, slots, dt)


def constant_trace(tl, power):
    return SolarTrace(
        tl, np.full((tl.num_days, tl.periods_per_day, tl.slots_per_period), power)
    )


def _admit_reference(graph, budget, totals=None):
    """admit_by_energy as a per-call walk: predecessors, deadline order
    and energies read from the graph on every call.  Each running
    total it tests against the budget is added to ``totals``."""
    order = sorted(
        range(len(graph)), key=lambda i: (graph.tasks[i].deadline, i)
    )
    admitted = set()
    spent = 0.0
    for task in order:
        if task in admitted:
            continue
        closure = [task]
        stack = list(graph.predecessors(task))
        while stack:
            p = stack.pop()
            if p in admitted or p in closure:
                continue
            closure.append(p)
            stack.extend(graph.predecessors(p))
        cost = sum(graph.tasks[t].energy for t in closure)
        if totals is not None:
            totals.add(spent + cost)
        if spent + cost <= budget:
            admitted.update(closure)
            spent += cost
    return admitted


def _diamond():
    """Diamonds whose sinks are due first: admitting ``d`` or ``f``
    drags a multi-path ancestor closure along, so the walk order sets
    the order of the closure's energy sum."""
    tasks = [
        Task("a", 30.0, 570.0, 0.0299, nvp=0),
        Task("b", 60.0, 540.0, 0.0287, nvp=1),
        Task("c", 90.0, 510.0, 0.0165, nvp=2),
        Task("d", 30.0, 150.0, 0.0239, nvp=0),
        Task("e", 30.0, 480.0, 0.0174, nvp=1),
        Task("f", 60.0, 180.0, 0.0182, nvp=2),
        Task("g", 30.0, 600.0, 0.0246, nvp=0),
    ]
    edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("e", "d"),
             ("g", "c"), ("c", "f"), ("g", "f"), ("e", "f")]
    return TaskGraph(tasks, edges, name="diamond")


class TestHelpers:
    def test_nvp_filter_keeps_first_per_nvp(self):
        graph = TaskGraph(
            [
                Task("a", 30.0, 100.0, 0.01, nvp=0),
                Task("b", 30.0, 200.0, 0.01, nvp=0),
                Task("c", 30.0, 150.0, 0.01, nvp=1),
            ]
        )
        assert nvp_filter(graph, [0, 1, 2]) == [0, 2]
        assert nvp_filter(graph, [1, 0, 2]) == [1, 2]

    def test_best_power_match_exact(self):
        chosen = best_power_match([0.03, 0.02, 0.05], budget=0.055)
        total = sum([0.03, 0.02, 0.05][i] for i in chosen)
        assert total == pytest.approx(0.05)

    def test_best_power_match_empty_budget(self):
        assert best_power_match([0.03, 0.02], budget=0.0) == ()

    def test_best_power_match_takes_all_when_affordable(self):
        chosen = best_power_match([0.01, 0.02], budget=1.0)
        assert set(chosen) == {0, 1}

    def test_best_power_match_greedy_path(self):
        powers = [0.01] * 20  # above the exact-enumeration limit
        chosen = best_power_match(powers, budget=0.055, max_exact=12)
        assert len(chosen) == 5

    def test_best_power_match_negative_budget(self):
        with pytest.raises(ValueError):
            best_power_match([0.01], budget=-1.0)

    def test_admit_by_energy_respects_budget(self):
        graph = wam()
        admitted = admit_by_energy(graph, budget=5.0)
        energy = sum(graph.tasks[i].energy for i in admitted)
        assert energy <= 5.0 + 1e-9

    def test_admit_by_energy_closure(self):
        graph = wam()
        admitted = admit_by_energy(graph, budget=graph.total_energy())
        assert len(admitted) == len(graph)
        # any admitted task has all ancestors admitted
        for t in admitted:
            for p in graph.predecessors(t):
                assert p in admitted

    def test_admit_by_energy_zero_budget(self):
        graph = wam()
        assert admit_by_energy(graph, budget=0.0) == set()

    def test_admission_table_matches_per_call_walk(self):
        """One cached per-graph table, reused across budgets, admits
        exactly what the per-call depth-first walk admits."""
        graphs = [wam(), _diamond()] + [
            random_benchmark(seed) for seed in range(30)
        ]
        for graph in graphs:
            table = _AdmissionTable(graph)
            # Every running total the walk tests, and one ulp either
            # side of it: where the summation order shows.
            totals = set()
            for budget in np.linspace(0.0, 1.2 * graph.total_energy(), 40):
                _admit_reference(graph, budget, totals)
            budgets = {
                b for t in totals
                for b in (t, np.nextafter(t, 0.0), np.nextafter(t, np.inf))
            }
            for budget in sorted(budgets):
                want = _admit_reference(graph, budget)
                assert table.admit(budget) == want, (graph.name, budget)
                assert admit_by_energy(graph, budget) == want


class TestGreedyEDF:
    def test_completes_with_abundant_energy(self):
        graph = wam()
        tl = tl_of(periods=1, slots=20)
        result = simulate(
            quick_node(graph), graph, constant_trace(tl, 0.5),
            GreedyEDFScheduler(),
        )
        assert result.dmr == 0.0

    def test_pins_largest_capacitor(self):
        graph = wam()
        tl = tl_of(periods=1, slots=20)
        node = quick_node(graph, capacitances=(1.0, 47.0, 10.0))
        simulate(node, graph, constant_trace(tl, 0.1), GreedyEDFScheduler())
        assert node.bank.active_index == 1


class TestInterTask:
    def test_completes_with_abundant_energy(self):
        graph = wam()
        tl = tl_of(periods=2, slots=20)
        result = simulate(
            quick_node(graph), graph, constant_trace(tl, 0.5),
            InterTaskScheduler(),
        )
        assert result.dmr == 0.0

    def test_sheds_tasks_when_budget_low(self):
        graph = wam()
        tl = tl_of(periods=2, slots=20)
        # Tiny solar, tiny storage: admission must shed something.
        node = quick_node(graph, capacitances=(0.5,))
        result = simulate(
            node, graph, constant_trace(tl, 0.005), InterTaskScheduler()
        )
        assert result.dmr > 0.0

    def test_laziness_defers_under_partial_solar(self):
        """With solar covering only part of the load, LSA runs only
        mandatory tasks early (coarse inter-task granularity)."""
        graph = wam()
        tl = tl_of(periods=1, slots=20)
        lazy = InterTaskScheduler()
        result = simulate(
            quick_node(graph), graph, constant_trace(tl, 0.04), lazy,
        )
        greedy = simulate(
            quick_node(graph), graph, constant_trace(tl, 0.04),
            GreedyEDFScheduler(),
        )
        # Both see the same energy; the lazy policy cannot do better
        # than greedy here but must still schedule mandatory work.
        assert result.total_load_energy > 0


class TestIntraTask:
    def test_completes_with_abundant_energy(self):
        graph = wam()
        tl = tl_of(periods=2, slots=20)
        result = simulate(
            quick_node(graph), graph, constant_trace(tl, 0.5),
            IntraTaskScheduler(),
        )
        assert result.dmr == 0.0

    def test_load_matching_respects_solar(self):
        """Optional tasks only run within the solar budget."""
        graph = wam()
        tl = tl_of(periods=1, slots=20)
        node = quick_node(graph, capacitances=(10.0,))
        result = simulate(
            node, graph, constant_trace(tl, 0.03), IntraTaskScheduler(),
            record_slots=True,
        )
        # Early slots (plenty of slack): load never exceeds solar.
        early_load = result.slots.load_power[:5]
        assert np.all(early_load <= 0.03 + 1e-9)


class TestPlanScheduler:
    def test_replays_matrix(self):
        graph = TaskGraph([Task("a", 60.0, 300.0, 0.02, nvp=0)])
        tl = tl_of(periods=1, slots=10)
        matrix = np.zeros((10, 1), dtype=bool)
        matrix[3:5, 0] = True  # exactly the two slots needed
        plan = SchedulePlan()
        plan.set_period(0, 0, matrix)
        result = simulate(
            quick_node(graph), graph, constant_trace(tl, 0.5),
            PlanScheduler(plan),
        )
        assert result.dmr == 0.0

    def test_missing_period_idles(self):
        graph = TaskGraph([Task("a", 60.0, 300.0, 0.02, nvp=0)])
        tl = tl_of(periods=1, slots=10)
        result = simulate(
            quick_node(graph), graph, constant_trace(tl, 0.5),
            PlanScheduler(SchedulePlan()),
        )
        assert result.dmr == 1.0

    def test_capacitor_forced_by_day(self):
        graph = TaskGraph([Task("a", 60.0, 300.0, 0.02, nvp=0)])
        tl = tl_of(periods=1, slots=10)
        plan = SchedulePlan(capacitor_by_day={0: 2})
        node = quick_node(graph, capacitances=(1.0, 4.7, 10.0))
        simulate(node, graph, constant_trace(tl, 0.5), PlanScheduler(plan))
        assert node.bank.active_index == 2

    def test_wrong_shape_matrix_rejected(self):
        plan = SchedulePlan()
        plan.set_period(0, 0, np.zeros((5, 1), dtype=bool))
        with pytest.raises(ValueError):
            plan.period_matrix(0, 0, slots=10, tasks=1)

    def test_set_period_validates_dims(self):
        plan = SchedulePlan()
        with pytest.raises(ValueError):
            plan.set_period(0, 0, np.zeros(5, dtype=bool))


class TestBaselineOrdering:
    def test_paper_ordering_on_four_days(self):
        """Intra-task <= inter-task on the standard four-day test
        (paper Figure 8: finer matching does no worse)."""
        graph = wam()
        tl = Timeline(4, 144, 20, 30.0)
        trace = four_day_trace(tl)
        dmrs = {}
        for sched in (InterTaskScheduler(), IntraTaskScheduler()):
            node = quick_node(graph)
            dmrs[sched.name] = simulate(node, graph, trace, sched).dmr
        assert dmrs["intra-task"] <= dmrs["inter-task-lsa"] + 0.02
