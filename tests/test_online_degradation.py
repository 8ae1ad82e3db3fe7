"""Graceful degradation of the online coarse stage."""

import numpy as np
import pytest

from repro import quick_node, simulate, DEFAULT_BANK_FARADS
from repro.core.online import (
    ALPHA_MAX,
    CoarseDecisionError,
    CoarsePolicy,
    HeuristicPolicy,
    ProposedScheduler,
    validate_coarse_decision,
)
from repro.energy import SuperCapacitor
from repro.obs import Observer, RingBufferSink
from repro.reliability import FaultInjector, runtime_scenario
from repro.schedulers import InterTaskScheduler
from repro.solar import FOUR_DAYS, archetype_trace
from repro.tasks import ecg
from repro.timeline import Timeline


def tiny_env(seed=3):
    graph = ecg()
    tl = Timeline(
        num_days=1, periods_per_day=8, slots_per_period=20,
        slot_seconds=30.0,
    )
    trace = archetype_trace(tl, [FOUR_DAYS[0]], seed=seed)
    return graph, tl, trace


def caps_of():
    return tuple(SuperCapacitor(capacitance=c) for c in DEFAULT_BANK_FARADS)


def heuristic(graph, tl):
    return HeuristicPolicy(
        graph, caps_of(), tl.slots_per_period * tl.slot_seconds
    )


class CrashingPolicy(CoarsePolicy):
    """Primary that always raises — a dead DBN."""

    def __init__(self):
        self.calls = 0

    def decide(self, view, prev_solar):
        self.calls += 1
        raise RuntimeError("inference hardware gone")


class GarbagePolicy(CoarsePolicy):
    """Primary that returns corrupt outputs instead of raising."""

    def decide(self, view, prev_solar):
        return 99, float("nan"), np.zeros(3)


class TestValidateCoarseDecision:
    def test_valid_passes_through(self):
        cap, alpha, te = validate_coarse_decision(
            3, 2, 1, 0.8, np.array([True, False, True])
        )
        assert (cap, alpha) == (1, 0.8)
        assert te.dtype == bool

    def test_float_subset_coerced(self):
        _, _, te = validate_coarse_decision(
            3, 2, 0, 1.0, np.array([0.9, 0.1, 0.6])
        )
        assert te.tolist() == [True, False, True]

    def test_bad_capacitor_index(self):
        with pytest.raises(CoarseDecisionError, match="capacitor index"):
            validate_coarse_decision(3, 2, 5, 1.0, np.ones(3, bool))
        with pytest.raises(CoarseDecisionError, match="capacitor index"):
            validate_coarse_decision(3, 2, "x", 1.0, np.ones(3, bool))

    def test_bad_alpha(self):
        for alpha in (float("nan"), float("inf"), -0.1, ALPHA_MAX + 1):
            with pytest.raises(CoarseDecisionError, match="alpha"):
                validate_coarse_decision(3, 2, 0, alpha, np.ones(3, bool))

    def test_bad_subset(self):
        with pytest.raises(CoarseDecisionError, match="shape"):
            validate_coarse_decision(3, 2, 0, 1.0, np.ones(4, bool))
        with pytest.raises(CoarseDecisionError, match="non-finite"):
            validate_coarse_decision(
                3, 2, 0, 1.0, np.array([1.0, np.nan, 0.0])
            )


class TestDegradationLadder:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ProposedScheduler(CrashingPolicy(), max_retries=-1)
        with pytest.raises(ValueError):
            ProposedScheduler(CrashingPolicy(), quarantine_threshold=0)
        with pytest.raises(ValueError):
            ProposedScheduler(CrashingPolicy(), quarantine_periods=0)

    def test_crashing_primary_never_crashes_run(self):
        graph, tl, trace = tiny_env()
        ring = RingBufferSink()
        sched = ProposedScheduler(CrashingPolicy())
        result = simulate(
            quick_node(graph), graph, trace, sched, strict=False,
            observer=Observer(sinks=[ring]),
        )
        assert 0.0 <= result.dmr <= 1.0
        stages = {e["stage"] for e in ring.of_kind("policy_fallback")}
        assert "inter_task_only" in stages
        assert "retry" in stages

    def test_garbage_outputs_caught(self):
        graph, tl, trace = tiny_env()
        ring = RingBufferSink()
        sched = ProposedScheduler(GarbagePolicy())
        result = simulate(
            quick_node(graph), graph, trace, sched, strict=False,
            observer=Observer(sinks=[ring]),
        )
        assert 0.0 <= result.dmr <= 1.0
        assert len(ring.of_kind("policy_fallback")) > 0

    def test_fallback_policy_used_before_safe_default(self):
        graph, tl, trace = tiny_env()
        ring = RingBufferSink()
        sched = ProposedScheduler(
            CrashingPolicy(), fallback_policy=heuristic(graph, tl)
        )
        simulate(quick_node(graph), graph, trace, sched, strict=False,
                 observer=Observer(sinks=[ring]))
        stages = [e["stage"] for e in ring.of_kind("policy_fallback")]
        assert "fallback_policy" in stages
        assert "inter_task_only" not in stages

    def test_quarantine_stops_retrying_primary(self):
        graph, tl, trace = tiny_env()
        primary = CrashingPolicy()
        sched = ProposedScheduler(
            primary, fallback_policy=heuristic(graph, tl),
            max_retries=0, quarantine_threshold=2, quarantine_periods=100,
        )
        simulate(quick_node(graph), graph, trace, sched, strict=False)
        # 8 periods; the primary is abandoned after 2 failures.
        assert primary.calls == 2
        assert sched.quarantined
        assert sched.failure_streak == 2

    def test_primary_retried_after_quarantine_expires(self):
        graph, tl, trace = tiny_env()
        primary = CrashingPolicy()
        sched = ProposedScheduler(
            primary, fallback_policy=heuristic(graph, tl),
            max_retries=0, quarantine_threshold=1, quarantine_periods=2,
        )
        simulate(quick_node(graph), graph, trace, sched, strict=False)
        # fail @p0, quarantined p1-p2, fail @p3, quarantined p4-p5,
        # fail @p6, quarantined p7 => 3 primary calls over 8 periods.
        assert primary.calls == 3

    def test_healthy_policy_resets_streak(self):
        graph, tl, trace = tiny_env()
        sched = ProposedScheduler(heuristic(graph, tl))
        simulate(quick_node(graph), graph, trace, sched, strict=False)
        assert sched.failure_streak == 0
        assert not sched.quarantined

    def test_injected_inference_failure_triggers_ladder(self):
        graph, tl, trace = tiny_env()
        plan = runtime_scenario("inference-failure", tl, seed=7)
        ring = RingBufferSink()
        sched = ProposedScheduler(heuristic(graph, tl))
        result = simulate(
            quick_node(graph), graph, trace, sched, strict=False,
            fault_injector=FaultInjector(plan, tl),
            observer=Observer(sinks=[ring]),
        )
        assert 0.0 <= result.dmr <= 1.0
        assert len(ring.of_kind("policy_fallback")) > 0

    def test_corrupted_features_never_crash(self):
        graph, tl, trace = tiny_env()
        plan = runtime_scenario("feature-corruption", tl, seed=7)
        sched = ProposedScheduler(heuristic(graph, tl))
        result = simulate(
            quick_node(graph), graph, trace, sched, strict=False,
            fault_injector=FaultInjector(plan, tl),
        )
        assert np.isfinite(result.dmr)

    def test_safe_default_matches_inter_task_behaviour(self):
        """With the coarse stage fully dead and no fallback policy, the
        schedule degenerates to the inter-task baseline."""
        graph, tl, trace = tiny_env()
        dead = simulate(
            quick_node(graph), graph, trace,
            ProposedScheduler(CrashingPolicy(), quarantine_threshold=1),
            strict=False,
        )
        inter = simulate(
            quick_node(graph), graph, trace, InterTaskScheduler(),
            strict=False,
        )
        assert dead.dmr == pytest.approx(inter.dmr, abs=0.15)
