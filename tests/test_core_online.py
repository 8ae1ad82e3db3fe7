"""Tests for feature encoding and the online proposed scheduler."""

import numpy as np
import pytest

from repro import simulate
from repro.core import (
    ALPHA_SCALE,
    CoarsePolicy,
    FeatureCodec,
    HeuristicPolicy,
    NearestSamplePolicy,
    ProposedScheduler,
    close_subset,
)
from repro.core.longterm import TrainingSample
from repro.energy import SuperCapacitor
from repro.node import SensorNode
from repro.sim.views import BankView, PeriodStartView
from repro.solar import SolarTrace
from repro.tasks import Task, TaskGraph, wam
from repro.timeline import Timeline


def caps_of(values=(1.0, 10.0)):
    return tuple(SuperCapacitor(capacitance=c) for c in values)


def codec_of(slots=10, caps=None):
    return FeatureCodec(
        slots_per_period=slots,
        capacitors=caps or caps_of(),
        solar_scale=0.0945,
    )


def view_of(voltages, accumulated_dmr, graph=None):
    """A period-start view carrying only what the feature policies read:
    the bank voltages and the accumulated DMR."""
    volts = np.asarray(voltages, dtype=float)
    return PeriodStartView(
        timeline=Timeline(1, 1, 10, 30.0),
        graph=graph or wam(),
        day=0,
        period=0,
        bank=BankView(np.ones_like(volts), volts, np.zeros_like(volts), 0),
        accumulated_dmr=accumulated_dmr,
        last_period_energy=None,
        last_period_powers=None,
        request_capacitor=lambda index: False,
        force_capacitor=lambda index: None,
    )


def sample_of(slots=10, h=2, n=3, cap=0, alpha=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return TrainingSample(
        prev_solar=rng.random(slots) * 0.09,
        voltages=np.array([1.0] * h),
        accumulated_dmr=0.3,
        cap_index=cap,
        alpha=alpha,
        te=rng.random(n) < 0.5,
    )


class TestFeatureCodec:
    def test_input_size(self):
        codec = codec_of()
        assert codec.input_size == 10 + 2 + 1

    def test_encode_input_ranges(self):
        codec = codec_of()
        x = codec.encode_input(np.full(10, 0.09), np.array([3.0, 4.0]), 0.4)
        assert x.shape == (13,)
        assert np.all(x >= 0)
        assert np.all(x <= 1.5)

    def test_voltage_normalised_per_cap(self):
        codec = codec_of()
        x = codec.encode_input(np.zeros(10), np.array([5.0, 2.5]), 0.0)
        assert x[10] == pytest.approx(1.0)
        assert x[11] == pytest.approx(0.5)

    def test_encode_samples_matrix(self):
        codec = codec_of()
        samples = [sample_of(seed=i) for i in range(5)]
        x, caps, alphas, tes = codec.encode_samples(samples)
        assert x.shape == (5, 13)
        assert caps.shape == (5,)
        assert np.allclose(alphas * ALPHA_SCALE, [s.alpha for s in samples])
        assert tes.shape == (5, 3)

    def test_decode_alpha_roundtrip(self):
        codec = codec_of()
        assert codec.decode_alpha(0.5) == pytest.approx(0.5 * ALPHA_SCALE)

    def test_shape_validation(self):
        codec = codec_of()
        with pytest.raises(ValueError):
            codec.encode_input(np.zeros(5), np.array([1.0, 1.0]), 0.0)
        with pytest.raises(ValueError):
            codec.encode_input(np.zeros(10), np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            codec.encode_samples([])


class TestCloseSubset:
    def test_adds_ancestors(self):
        graph = TaskGraph(
            [
                Task("a", 30.0, 100.0, 0.01, nvp=0),
                Task("b", 30.0, 200.0, 0.01, nvp=0),
                Task("c", 30.0, 300.0, 0.01, nvp=1),
            ],
            edges=[("a", "b")],
        )
        te = close_subset(graph, np.array([False, True, False]))
        assert te[0] and te[1] and not te[2]

    def test_idempotent_on_closed(self):
        graph = wam()
        full = np.ones(len(graph), dtype=bool)
        assert np.array_equal(close_subset(graph, full), full)

    def test_empty_stays_empty(self):
        graph = wam()
        empty = np.zeros(len(graph), dtype=bool)
        assert not close_subset(graph, empty).any()


class TestNearestSamplePolicy:
    def test_returns_nearest(self):
        codec = codec_of()
        near = sample_of(cap=0, alpha=0.2, seed=1)
        far = sample_of(cap=1, alpha=2.0, seed=2)
        policy = NearestSamplePolicy([near, far], codec)
        cap, alpha, te = policy.decide(
            view_of(near.voltages, near.accumulated_dmr), near.prev_solar
        )
        assert cap == 0
        assert alpha == pytest.approx(0.2)
        assert np.array_equal(te, near.te)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            NearestSamplePolicy([], codec_of())


class TestHeuristicPolicy:
    def test_budget_limits_selection(self):
        graph = wam()
        policy = HeuristicPolicy(graph, caps_of(), period_seconds=600.0)
        # Zero history, zero storage: nothing affordable.
        cap, alpha, te = policy.decide(
            view_of([1.0, 1.0], 0.0, graph), np.zeros(10)
        )
        assert not te.any()

    def test_abundance_selects_everything(self):
        graph = wam()
        policy = HeuristicPolicy(graph, caps_of(), period_seconds=600.0)
        cap, alpha, te = policy.decide(
            view_of([5.0, 5.0], 0.0, graph), np.full(10, 0.5)
        )
        assert te.all()
        assert 0 <= cap < 2


class TestProposedScheduler:
    def constant_trace(self, tl, power):
        return SolarTrace(
            tl,
            np.full(
                (tl.num_days, tl.periods_per_day, tl.slots_per_period), power
            ),
        )

    def make_env(self, power=0.5):
        graph = wam()
        tl = Timeline(1, 2, 20, 30.0)
        caps = [SuperCapacitor(capacitance=c) for c in (1.0, 10.0)]
        node = SensorNode(caps, num_nvps=graph.num_nvps)
        trace = self.constant_trace(tl, power)
        return graph, tl, node, trace

    def test_heuristic_policy_completes_under_abundance(self):
        graph, tl, node, trace = self.make_env(power=0.5)
        policy = HeuristicPolicy(
            graph,
            [s.capacitor for s in node.bank.states],
            period_seconds=tl.period_seconds,
        )
        sched = ProposedScheduler(policy, name="heuristic")
        result = simulate(node, graph, trace, sched, strict=False)
        # First period is a cold start (no solar history); the second
        # period must complete fully.
        assert result.periods[1].dmr == 0.0

    def test_te_shedding_saves_energy(self):
        """A policy that selects nothing consumes nothing."""

        class NullPolicy(CoarsePolicy):
            def decide(self, view, prev_solar):
                return 0, 1.0, np.zeros(8, dtype=bool)

        graph, tl, node, trace = self.make_env(power=0.5)
        result = simulate(
            node, graph, trace, ProposedScheduler(NullPolicy()), strict=False
        )
        assert result.total_load_energy == 0.0
        assert result.dmr == 1.0

    def test_delta_switches_fine_mode(self):
        """alpha far from 1 -> inter mode (coarser decisions)."""
        modes = []

        class AlphaPolicy(CoarsePolicy):
            def __init__(self, alpha):
                self.alpha = alpha

            def decide(self, view, prev_solar):
                return 0, self.alpha, np.ones(8, dtype=bool)

        for alpha in (1.0, 5.0):
            graph, tl, node, trace = self.make_env(power=0.04)
            sched = ProposedScheduler(AlphaPolicy(alpha), delta=0.5)
            simulate(node, graph, trace, sched, strict=False)
            modes.append(sched._intra_mode)
        assert modes == [True, False]

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            ProposedScheduler(HeuristicPolicy(wam(), caps_of(), 600.0),
                              delta=-1.0)

    def test_capacitor_request_goes_through_pmu(self):
        class CapPolicy(CoarsePolicy):
            def decide(self, view, prev_solar):
                return 1, 1.0, np.ones(8, dtype=bool)

        graph, tl, node, trace = self.make_env(power=0.5)
        simulate(node, graph, trace, ProposedScheduler(CapPolicy()),
                 strict=False)
        # Empty bank at t=0 -> the switch to capacitor 1 is honoured.
        assert node.bank.active_index == 1
