"""Tests for the receding-horizon coarse policy (Figure 10(a) machinery)."""

import numpy as np
import pytest

from repro import simulate
from repro.core import DPConfig, HorizonPolicy, ProposedScheduler
from repro.energy import SuperCapacitor
from repro.node import SensorNode
from repro.reliability import FaultInjector, runtime_scenario
from repro.sim import result_fingerprint
from repro.solar import PerfectPredictor, SolarTrace
from repro.tasks import ecg
from repro.timeline import Timeline


def env(days=2, periods=12):
    graph = ecg()
    tl = Timeline(days, periods, 20, 30.0)
    # Diurnal pattern: bright middle periods, dark edges.
    shape = np.maximum(
        np.sin(np.linspace(0, 2 * np.pi, periods, endpoint=False) - np.pi / 2),
        0.0,
    )
    power = np.tile(
        (0.15 * shape)[None, :, None], (days, 1, 20)
    )
    trace = SolarTrace(tl, power)
    caps = [SuperCapacitor(capacitance=c) for c in (1.0, 10.0)]
    node = SensorNode(caps, num_nvps=graph.num_nvps)
    return graph, tl, trace, caps, node


class TestRecedingHorizon:
    def test_runs_and_counts_transitions(self):
        graph, tl, trace, caps, node = env()
        sched = ProposedScheduler(HorizonPolicy(
            caps, horizon_periods=6, replan_every=3,
            config=DPConfig(energy_buckets=21),
        ))
        result = simulate(node, graph, trace, sched, strict=False)
        assert 0.0 <= result.dmr <= 1.0
        assert sched.policy.transitions_evaluated > 0

    def test_longer_horizon_more_transitions(self):
        graph, tl, trace, caps, _ = env()
        counts = []
        for horizon in (3, 12):
            node = env()[4]
            sched = ProposedScheduler(HorizonPolicy(
                caps, horizon_periods=horizon, replan_every=3,
                config=DPConfig(energy_buckets=21),
            ))
            simulate(node, graph, trace, sched, strict=False)
            counts.append(sched.policy.transitions_evaluated)
        assert counts[1] > counts[0]

    def test_oracle_long_horizon_beats_myopic(self):
        """With perfect prediction, seeing the night coming helps."""
        graph, tl, trace, caps, _ = env(days=3)
        dmrs = {}
        for horizon in (1, 12):
            node = env(days=3)[4]
            sched = ProposedScheduler(HorizonPolicy(
                caps,
                horizon_periods=horizon,
                replan_every=1,
                predictor=PerfectPredictor(tl, trace),
                config=DPConfig(energy_buckets=21),
            ))
            dmrs[horizon] = simulate(
                node, graph, trace, sched, strict=False
            ).dmr
        assert dmrs[12] <= dmrs[1] + 1e-9

    def test_injected_inference_failures_never_reach_the_plan(self):
        """A plan lookup has no inference stage: runs with and without
        the ``inference-failure`` scenario are bit-identical."""
        graph, tl, trace, caps, _ = env()
        prints = []
        for injector in (None, FaultInjector(
            runtime_scenario("inference-failure", tl, seed=0), tl
        )):
            sched = ProposedScheduler(HorizonPolicy(
                caps, horizon_periods=6, replan_every=3,
                config=DPConfig(energy_buckets=21),
            ))
            result = simulate(
                env()[4], graph, trace, sched, strict=False,
                fault_injector=injector,
            )
            prints.append(result_fingerprint(result))
        assert prints[0] == prints[1]

    def test_validation(self):
        caps = [SuperCapacitor(capacitance=1.0)]
        with pytest.raises(ValueError):
            HorizonPolicy(caps, horizon_periods=0)
        with pytest.raises(ValueError):
            HorizonPolicy(caps, horizon_periods=4, replan_every=0)
