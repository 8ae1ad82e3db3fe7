"""Integration tests: the full system end to end at reduced scale.

These exercise the same paths as the paper's experiments (offline
pipeline → online deployment → metrics) on shrunken horizons so they
stay fast, and assert the qualitative relationships the paper reports.
"""

import numpy as np
import pytest

from repro import quick_node, simulate
from repro.core import (
    LongTermOptimizer,
    OfflinePipeline,
    PlanPolicy,
    ProposedScheduler,
    trace_period_matrix,
)
from repro.schedulers import (
    GreedyEDFScheduler,
    InterTaskScheduler,
    IntraTaskScheduler,
)
from repro.solar import SolarTrace, archetype_trace, four_day_trace, FOUR_DAYS
from repro.tasks import ecg, shm, wam
from repro.timeline import Timeline


@pytest.fixture(scope="module")
def reduced_env():
    """ECG on a 2-day reduced-resolution horizon with a trained policy."""
    graph = ecg()
    timeline = Timeline(
        num_days=2, periods_per_day=48, slots_per_period=20,
        slot_seconds=30.0,
    )
    # Day 0 bright (clear summer), day 1 dark (overcast winter).
    trace = archetype_trace(
        timeline, [FOUR_DAYS[0], FOUR_DAYS[3]], seed=5
    )
    train = archetype_trace(
        timeline.with_days(4), list(FOUR_DAYS), seed=11
    )
    pipe = OfflinePipeline(
        graph,
        num_capacitors=3,
        hidden_sizes=(24, 12),
        finetune_epochs=80,
        pretrain_epochs=3,
    )
    policy = pipe.run(train)
    return graph, timeline, trace, policy


class TestFullStackOrdering:
    def test_scheduler_ladder(self, reduced_env):
        """optimal <= proposed <= baselines + tolerance, all on the
        same node/trace (Figure 8's ordering at reduced scale)."""
        graph, timeline, trace, policy = reduced_env
        optimizer = LongTermOptimizer(
            graph, timeline, list(policy.capacitors)
        )
        plan = optimizer.optimize(trace_period_matrix(trace))
        dmr = {}
        for name, sched in (
            ("optimal", ProposedScheduler(PlanPolicy(plan))),
            ("proposed", policy.make_scheduler()),
            ("inter", InterTaskScheduler()),
            ("intra", IntraTaskScheduler()),
            ("asap", GreedyEDFScheduler()),
        ):
            result = simulate(
                policy.make_node(), graph, trace, sched, strict=False
            )
            dmr[name] = result.dmr
        assert dmr["optimal"] <= dmr["inter"] + 0.05
        assert dmr["proposed"] <= dmr["inter"] + 0.05
        assert dmr["proposed"] <= dmr["asap"] + 0.05

    def test_migration_serves_dark_day(self, reduced_env):
        """The optimal scheduler moves bright-day energy into the dark
        day: its dark-day DMR beats greedy's."""
        graph, timeline, trace, policy = reduced_env
        optimizer = LongTermOptimizer(
            graph, timeline, list(policy.capacitors)
        )
        plan = optimizer.optimize(trace_period_matrix(trace))
        opt = simulate(
            policy.make_node(), graph, trace,
            ProposedScheduler(PlanPolicy(plan), name="optimal"),
            strict=False,
        )
        greedy = simulate(
            policy.make_node(), graph, trace, GreedyEDFScheduler()
        )
        assert opt.dmr_by_day()[1] <= greedy.dmr_by_day()[1] + 1e-9

    def test_energy_conservation_across_stack(self, reduced_env):
        """Load energy never exceeds harvested + initially stored."""
        graph, timeline, trace, policy = reduced_env
        result = simulate(
            policy.make_node(), graph, trace, policy.make_scheduler(),
            strict=False,
        )
        assert result.total_load_energy <= result.total_solar_energy + 1e-6

    def test_dmr_between_zero_and_one_everywhere(self, reduced_env):
        graph, timeline, trace, policy = reduced_env
        result = simulate(
            policy.make_node(), graph, trace, policy.make_scheduler(),
            strict=False,
        )
        series = result.dmr_series()
        assert np.all((series >= 0.0) & (series <= 1.0))


class TestAllBenchmarksRun:
    @pytest.mark.parametrize("factory", [wam, ecg, shm])
    def test_benchmark_simulates_with_all_baselines(self, factory):
        graph = factory()
        timeline = Timeline(
            num_days=1, periods_per_day=24, slots_per_period=20,
            slot_seconds=30.0,
        )
        trace = archetype_trace(timeline, [FOUR_DAYS[1]], seed=3)
        for sched in (
            GreedyEDFScheduler(),
            InterTaskScheduler(),
            IntraTaskScheduler(),
        ):
            result = simulate(quick_node(graph), graph, trace, sched)
            assert 0.0 <= result.dmr <= 1.0


class TestDeterminism:
    def test_same_seed_same_result(self):
        graph = shm()
        timeline = Timeline(
            num_days=1, periods_per_day=24, slots_per_period=20,
            slot_seconds=30.0,
        )
        trace = archetype_trace(timeline, [FOUR_DAYS[2]], seed=9)
        dmrs = []
        for _ in range(2):
            result = simulate(
                quick_node(graph), graph, trace, InterTaskScheduler()
            )
            dmrs.append(result.dmr)
        assert dmrs[0] == dmrs[1]

    def test_offline_pipeline_deterministic(self):
        graph = shm()
        timeline = Timeline(
            num_days=2, periods_per_day=24, slots_per_period=20,
            slot_seconds=30.0,
        )
        train = archetype_trace(
            timeline, [FOUR_DAYS[0], FOUR_DAYS[3]], seed=4
        )
        banks = []
        for _ in range(2):
            pipe = OfflinePipeline(
                graph, num_capacitors=2, finetune_epochs=5,
                pretrain_epochs=1, seed=7,
            )
            policy = pipe.run(train)
            banks.append([c.capacitance for c in policy.capacitors])
        assert banks[0] == banks[1]
