"""Property-style checks of the long-term DP's structure."""

import numpy as np
import pytest

from repro.core import DPConfig, LongTermOptimizer
from repro.energy import SuperCapacitor
from repro.tasks import ecg
from repro.timeline import Timeline
from repro.verify.strategies import solar_matrix


def optimize(caps, tl, matrix, buckets=61):
    opt = LongTermOptimizer(
        ecg(), tl, [SuperCapacitor(capacitance=c) for c in caps],
        config=DPConfig(energy_buckets=buckets),
    )
    return opt.optimize(matrix)


class TestDPStructure:
    def setup_method(self):
        self.tl = Timeline(2, 12, 20, 30.0)
        self.matrix = solar_matrix(self.tl)

    def test_more_capacitor_options_never_hurt(self):
        """The DP can always ignore an extra bank member."""
        small = optimize([10.0], self.tl, self.matrix)
        big = optimize([10.0, 1.0], self.tl, self.matrix)
        assert big.expected_dmr <= small.expected_dmr + 0.02

    def test_more_solar_never_hurts(self):
        dim = optimize([10.0], self.tl, solar_matrix(self.tl, scale=0.06))
        bright = optimize([10.0], self.tl, solar_matrix(self.tl, scale=0.20))
        assert bright.expected_dmr <= dim.expected_dmr + 1e-9

    def test_finer_buckets_never_hurt_much(self):
        """Finer discretisation only removes floor-rounding pessimism."""
        coarse = optimize([10.0], self.tl, self.matrix, buckets=31)
        fine = optimize([10.0], self.tl, self.matrix, buckets=241)
        assert fine.expected_dmr <= coarse.expected_dmr + 0.02

    def test_chosen_k_consistent_with_expected_dmr(self):
        plan = optimize([10.0], self.tl, self.matrix)
        n = len(ecg())
        from_k = float(np.mean((n - plan.chosen_k) / n))
        assert from_k == pytest.approx(plan.expected_dmr, abs=1e-9)

    def test_augmented_samples_additional(self):
        base = optimize([10.0], self.tl, self.matrix)
        opt = LongTermOptimizer(
            ecg(), self.tl, [SuperCapacitor(capacitance=10.0)],
            config=DPConfig(energy_buckets=61),
        )
        augmented = opt.optimize(
            self.matrix, augment_per_period=3
        )
        assert len(augmented.samples) == len(base.samples) * 4
        # Augmented samples carry valid fields.
        for s in augmented.samples[len(base.samples):][:20]:
            assert 0.0 <= s.accumulated_dmr <= 1.0
            assert s.te.shape == (len(ecg()),)
            assert 0 <= s.cap_index < 1
