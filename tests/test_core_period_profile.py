"""Tests for subset enumeration and per-period profiles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PeriodProfiler, closed_subsets
from repro.tasks import Task, TaskGraph, ecg, random_benchmark, wam
from repro.timeline import Timeline


def tl_of(slots=20, dt=30.0):
    return Timeline(1, 1, slots, dt)


class TestClosedSubsets:
    def test_independent_tasks_all_subsets(self):
        graph = TaskGraph(
            [
                Task("a", 30.0, 100.0, 0.01, nvp=0),
                Task("b", 30.0, 100.0, 0.01, nvp=1),
            ]
        )
        subsets = closed_subsets(graph)
        assert len(subsets) == 4  # {}, {a}, {b}, {a,b}

    def test_chain_restricts_subsets(self):
        graph = TaskGraph(
            [
                Task("a", 30.0, 100.0, 0.01, nvp=0),
                Task("b", 30.0, 200.0, 0.01, nvp=0),
            ],
            edges=[("a", "b")],
        )
        subsets = closed_subsets(graph)
        # {}, {a}, {a,b} — {b} alone is not closed.
        assert len(subsets) == 3
        for row in subsets:
            if row[1]:
                assert row[0]

    def test_closure_property_on_benchmarks(self):
        for graph in (wam(), ecg()):
            subsets = closed_subsets(graph)
            for row in subsets:
                for i in np.flatnonzero(row):
                    for p in graph.predecessors(int(i)):
                        assert row[p]

    def test_includes_empty_and_full(self):
        graph = wam()
        subsets = closed_subsets(graph)
        assert any(not row.any() for row in subsets)
        assert any(row.all() for row in subsets)

    @given(st.integers(0, 100))
    @settings(max_examples=20)
    def test_random_graph_closure(self, seed):
        graph = random_benchmark(seed)
        subsets = closed_subsets(graph)
        assert len(subsets) <= 2 ** len(graph)
        for row in subsets:
            for i in np.flatnonzero(row):
                assert all(row[p] for p in graph.predecessors(int(i)))


class TestPeriodProfiler:
    def test_every_k_feasible_for_independent_chainless(self):
        graph = wam()
        profiler = PeriodProfiler(graph, tl_of())
        prof = profiler.profile(np.full(20, 0.1))
        # k=0 and k=N are always feasible (empty and full sets).
        assert prof.feasible[0]
        assert prof.feasible[len(graph)]

    def test_zero_solar_needs_full_energy(self):
        graph = wam()
        profiler = PeriodProfiler(graph, tl_of(), direct_efficiency=1.0)
        prof = profiler.profile(np.zeros(20))
        n = len(graph)
        assert prof.storage_need[n] == pytest.approx(graph.total_energy())
        assert prof.surplus[n] == 0.0

    def test_abundant_solar_needs_nothing(self):
        graph = wam()
        profiler = PeriodProfiler(graph, tl_of())
        prof = profiler.profile(np.full(20, 1.0))
        n = len(graph)
        assert prof.storage_need[n] == pytest.approx(0.0, abs=1e-9)
        assert prof.surplus[n] > 0

    def test_need_decreases_with_k(self):
        graph = wam()
        profiler = PeriodProfiler(graph, tl_of())
        prof = profiler.profile(np.zeros(20))
        needs = prof.storage_need[prof.feasible]
        assert np.all(np.diff(needs) >= -1e-9)

    def test_alpha_matches_definition(self):
        graph = wam()
        profiler = PeriodProfiler(graph, tl_of())
        solar = np.full(20, 0.05)
        prof = profiler.profile(solar)
        n = len(graph)
        expected = graph.total_energy() / (0.05 * 20 * 30.0)
        assert prof.alpha[n] == pytest.approx(expected)

    def test_alpha_infinite_at_night(self):
        graph = wam()
        profiler = PeriodProfiler(graph, tl_of())
        prof = profiler.profile(np.zeros(20))
        assert np.isinf(prof.alpha[len(graph)])

    def test_dmr_of(self):
        graph = wam()
        profiler = PeriodProfiler(graph, tl_of())
        prof = profiler.profile(np.zeros(20))
        assert prof.dmr_of(len(graph)) == 0.0
        assert prof.dmr_of(0) == 1.0

    def test_profile_many_matches_single(self):
        graph = ecg()
        profiler = PeriodProfiler(graph, tl_of())
        rows = np.vstack([np.zeros(20), np.full(20, 0.08)])
        many = profiler.profile_many(rows)
        single = profiler.profile(rows[1])
        assert np.allclose(many[1].storage_need, single.storage_need)

    def test_wrong_shape_rejected(self):
        profiler = PeriodProfiler(wam(), tl_of())
        with pytest.raises(ValueError):
            profiler.profile(np.zeros(5))
        with pytest.raises(ValueError):
            profiler.profile_many(np.zeros(20))

    def test_mid_day_supply_reduces_need(self):
        """Solar in the deadline window reduces storage need."""
        graph = TaskGraph([Task("a", 60.0, 600.0, 0.02, nvp=0)])
        profiler = PeriodProfiler(graph, tl_of(), direct_efficiency=1.0)
        dark = profiler.profile(np.zeros(20))
        lit = profiler.profile(np.full(20, 0.02))
        assert lit.storage_need[1] < dark.storage_need[1]

