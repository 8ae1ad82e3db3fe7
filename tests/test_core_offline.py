"""Tests for the offline pipeline, the plan policy and overhead."""

import numpy as np
import pytest

from repro import simulate
from repro.core import (
    DBN,
    DPConfig,
    HeadSpec,
    LongTermOptimizer,
    OfflinePipeline,
    OverheadModel,
    PlanPolicy,
    ProposedScheduler,
    asap_load_profile,
    trace_period_matrix,
)
from repro.energy import SuperCapacitor
from repro.node import SensorNode
from repro.solar import SolarTrace, four_day_trace
from repro.tasks import ecg, wam
from repro.timeline import Timeline


@pytest.fixture(scope="module")
def small_env():
    """A fast end-to-end training environment shared by tests."""
    graph = ecg()
    tl = Timeline(3, 24, 20, 30.0)
    trace = SolarTrace(
        tl,
        np.abs(
            np.sin(np.linspace(0, 3 * np.pi, tl.total_slots)) * 0.09
        ).reshape(3, 24, 20),
    )
    pipe = OfflinePipeline(
        graph,
        num_capacitors=2,
        hidden_sizes=(16, 8),
        pretrain_epochs=2,
        finetune_epochs=20,
    )
    policy = pipe.run(trace)
    return graph, tl, trace, policy


class TestAsapLoadProfile:
    def test_shape_and_energy(self):
        graph = wam()
        tl = Timeline(1, 1, 20, 30.0)
        load = asap_load_profile(graph, tl)
        assert load.shape == (20,)
        assert load.sum() * 30.0 == pytest.approx(graph.total_energy())

    def test_front_loaded(self):
        """ASAP pushes work towards the start of the period."""
        graph = wam()
        tl = Timeline(1, 1, 20, 30.0)
        load = asap_load_profile(graph, tl)
        assert load[:10].sum() >= load[10:].sum()


class TestOfflinePipeline:
    def test_policy_components(self, small_env):
        graph, tl, trace, policy = small_env
        assert 1 <= len(policy.capacitors) <= 2
        assert policy.dbn.input_size == policy.codec.input_size
        # trajectory samples plus the off-trajectory augmentation
        assert len(policy.samples) >= tl.total_periods
        assert 0.0 <= policy.training_plan.expected_dmr <= 1.0

    def test_make_node_matches_bank(self, small_env):
        graph, tl, trace, policy = small_env
        node = policy.make_node()
        assert node.num_capacitors == len(policy.capacitors)
        assert node.num_nvps == graph.num_nvps
        assert node.pmu.switch_threshold == policy.switch_threshold

    def test_scheduler_runs_on_training_trace(self, small_env):
        graph, tl, trace, policy = small_env
        result = simulate(
            policy.make_node(), graph, trace, policy.make_scheduler(),
            strict=False,
        )
        assert 0.0 <= result.dmr <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OfflinePipeline(wam(), num_capacitors=0)


class TestStaticOptimalScheduler:
    """The "Optimal" column: ProposedScheduler driving a PlanPolicy."""

    def test_requires_populated_plan(self, small_env):
        graph, tl, trace, policy = small_env
        plan = policy.training_plan
        import dataclasses

        empty = dataclasses.replace(
            plan, te_by_period=np.zeros((0, 0), dtype=bool)
        )
        with pytest.raises(ValueError):
            PlanPolicy(empty)

    def test_beats_or_matches_do_nothing(self, small_env):
        graph, tl, trace, policy = small_env
        sched = ProposedScheduler(
            PlanPolicy(policy.training_plan), name="optimal"
        )
        result = simulate(
            policy.make_node(), graph, trace, sched, strict=False
        )
        assert result.dmr < 1.0

    def test_forces_planned_capacitor(self, small_env):
        graph, tl, trace, policy = small_env
        if len(policy.capacitors) < 2:
            pytest.skip("bank collapsed to one capacitor")
        sched = ProposedScheduler(
            PlanPolicy(policy.training_plan), name="optimal"
        )
        node = policy.make_node()
        simulate(node, graph, trace, sched, strict=False)
        planned = int(policy.training_plan.capacitor_by_day[-1])
        assert node.bank.active_index == planned


    def test_no_capacitor_call_past_the_plan(self, small_env):
        """Past the plan's periods there is no decision (every task, no
        capacitor call, no coarse event); past its days — a plan without
        day boundaries holds one capacitor entry — only the capacitor
        call stops.  Every call the plan makes is forced."""
        from repro.obs import Observer, RingBufferSink

        graph, tl, trace, policy = small_env
        matrix = trace_period_matrix(trace)
        optimizer = LongTermOptimizer(graph, tl, list(policy.capacitors))
        short = optimizer.optimize(matrix[: tl.periods_per_day])
        undivided = optimizer.optimize(matrix, periods_per_day=0)
        for plan, decisions in (
            (short, tl.periods_per_day), (undivided, tl.total_periods),
        ):
            ring = RingBufferSink(capacity=100_000)
            simulate(
                policy.make_node(), graph, trace,
                ProposedScheduler(PlanPolicy(plan), name="optimal"),
                strict=False, observer=Observer(sinks=[ring]),
            )
            switches = ring.of_kind("capacitor_switch")
            assert {e["day"] for e in switches} == {0}
            assert all(e["forced"] for e in switches)
            assert len(ring.of_kind("coarse_decision")) == decisions


class TestOverheadModel:
    def test_coarse_time_scales_with_network(self):
        model = OverheadModel()
        small = DBN(10, [8], HeadSpec(2, 3))
        big = DBN(10, [64, 32], HeadSpec(2, 3))
        assert model.coarse_seconds(big) > model.coarse_seconds(small)

    def test_relative_overhead_below_paper_bound(self, small_env):
        """Paper Section 6.5: algorithm < 3% of total energy."""
        graph, tl, trace, policy = small_env
        result = simulate(
            policy.make_node(), graph, trace, policy.make_scheduler(),
            strict=False,
        )
        report = OverheadModel().report(policy.dbn, graph, tl, result)
        assert 0.0 <= report.relative_overhead < 0.03
        assert report.coarse_seconds > 0
        assert report.fine_seconds > 0
        assert report.coarse_energy > 0
        assert report.fine_energy > 0

    def test_fine_ops_grow_with_tasks(self):
        model = OverheadModel()
        assert model.fine_ops_per_slot(wam()) > model.fine_ops_per_slot(ecg())

    def test_validation(self):
        with pytest.raises(ValueError):
            OverheadModel(clock_hz=0.0)
        with pytest.raises(ValueError):
            OverheadModel(cycles_per_mac=0)
