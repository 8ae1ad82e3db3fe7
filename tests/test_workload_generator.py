"""Tests for the UUniFast workload generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tasks.generator import (
    STRUCTURES,
    WorkloadSpec,
    generate_workload,
    uunifast,
)


class TestUUniFast:
    @given(
        n=st.integers(1, 20),
        total=st.floats(0.1, 4.0),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=60)
    def test_shares_sum_and_positivity(self, n, total, seed):
        shares = uunifast(n, total, np.random.default_rng(seed))
        assert shares.shape == (n,)
        assert shares.sum() == pytest.approx(total, rel=1e-9)
        assert np.all(shares >= 0)

    def test_deterministic(self):
        a = uunifast(5, 1.0, np.random.default_rng(3))
        b = uunifast(5, 1.0, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            uunifast(0, 1.0, rng)
        with pytest.raises(ValueError):
            uunifast(3, 0.0, rng)


class TestWorkloadSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_tasks": 0},
            {"utilization": 0.0},
            {"power_budget": 0.0},
            {"structure": "ring"},
            {"num_nvps": 0},
            {"slot_seconds": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)


class TestGenerateWorkload:
    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_structures_build_and_are_feasible(self, structure):
        spec = WorkloadSpec(num_tasks=7, structure=structure, num_nvps=3)
        graph = generate_workload(spec, seed=1)
        assert len(graph) == 7
        assert graph.feasible_in(spec.period_seconds, spec.slot_seconds)

    def test_chain_structure_edges(self):
        spec = WorkloadSpec(num_tasks=5, structure="chain")
        graph = generate_workload(spec, seed=2)
        assert graph.num_edges == 4
        order = graph.topological_order()
        assert list(order) == sorted(order)

    def test_fork_join_has_source_and_sink(self):
        spec = WorkloadSpec(num_tasks=6, structure="fork_join")
        graph = generate_workload(spec, seed=3)
        assert len(graph.predecessors(0)) == 0
        assert len(graph.successors(len(graph) - 1)) == 0
        # Every middle task hangs between source and sink.
        for mid in range(1, len(graph) - 1):
            assert 0 in graph.predecessors(mid)
            assert len(graph) - 1 in graph.successors(mid)

    def test_independent_has_no_edges(self):
        spec = WorkloadSpec(num_tasks=6, structure="independent")
        assert generate_workload(spec, seed=4).num_edges == 0

    def test_utilization_scales_demand(self):
        light = generate_workload(
            WorkloadSpec(num_tasks=6, utilization=0.2), seed=5
        )
        heavy = generate_workload(
            WorkloadSpec(num_tasks=6, utilization=1.2), seed=5
        )
        period = 600.0
        assert heavy.total_energy() > light.total_energy()
        # Demand tracks the requested fraction of the budget (power
        # clamping makes this approximate).
        target = 1.2 * 0.0945 * period
        assert heavy.total_energy() == pytest.approx(target, rel=0.4)

    def test_deterministic(self):
        spec = WorkloadSpec(num_tasks=6, structure="layered")
        a = generate_workload(spec, seed=9)
        b = generate_workload(spec, seed=9)
        assert [t.deadline for t in a.tasks] == [t.deadline for t in b.tasks]
        assert [a.predecessors(i) for i in range(len(a))] == [
            b.predecessors(i) for i in range(len(b))
        ]

    @given(
        seed=st.integers(0, 60),
        n=st.integers(2, 10),
        structure=st.sampled_from(STRUCTURES),
        util=st.floats(0.1, 1.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_always_feasible_property(self, seed, n, structure, util):
        spec = WorkloadSpec(
            num_tasks=n, structure=structure, utilization=util, num_nvps=2
        )
        graph = generate_workload(spec, seed=seed)
        assert graph.feasible_in(spec.period_seconds, spec.slot_seconds)
        for t in graph.tasks:
            assert t.execution_time <= t.deadline <= spec.period_seconds

    def test_generated_workload_simulates(self):
        """End to end: a generated workload runs through the engine."""
        from repro import quick_node, simulate
        from repro.schedulers import GreedyEDFScheduler
        from repro.solar import SolarTrace
        from repro.timeline import Timeline

        spec = WorkloadSpec(num_tasks=6, structure="layered", num_nvps=2)
        graph = generate_workload(spec, seed=11)
        tl = Timeline(1, 2, 20, 30.0)
        trace = SolarTrace(tl, np.full((1, 2, 20), 0.5))
        result = simulate(
            quick_node(graph), graph, trace, GreedyEDFScheduler()
        )
        assert result.dmr == 0.0
