"""Tests for the solar energy predictors (WCMA, EWMA, oracle)."""

import math

import numpy as np
import pytest

from repro.solar import (
    EWMAPredictor,
    PerfectPredictor,
    SolarTrace,
    WCMAPredictor,
    four_day_trace,
)
from repro.timeline import Timeline


def tl_of(days=4, periods=8):
    return Timeline(days, periods, 10, 30.0)


def feed_trace(predictor, trace, upto_flat):
    """Observe the first ``upto_flat`` periods of a trace."""
    tl = trace.timeline
    for flat in range(upto_flat):
        day, period = tl.unflatten_period(flat)
        predictor.observe(day, period, trace.period_energy(day, period))


def diurnal_trace(tl, peak=0.08):
    """Deterministic repeating diurnal pattern (sin half wave)."""
    periods = np.arange(tl.periods_per_day)
    shape = np.maximum(
        np.sin((periods / tl.periods_per_day) * 2 * np.pi - np.pi / 2), 0.0
    )
    power = np.tile(
        (peak * shape)[None, :, None],
        (tl.num_days, 1, tl.slots_per_period),
    )
    return SolarTrace(tl, power)


class TestWCMA:
    def test_learns_repeating_pattern(self):
        tl = tl_of(days=5)
        trace = diurnal_trace(tl)
        predictor = WCMAPredictor(tl)
        feed_trace(predictor, trace, 4 * tl.periods_per_day)
        # Day 5 repeats exactly; predictions should be close.
        errors = []
        for p in range(tl.periods_per_day):
            actual = trace.period_energy(4, p)
            predicted = predictor.predict(4, p)
            errors.append(abs(predicted - actual))
            predictor.observe(4, p, actual)
        peak_energy = trace.power.max() * 10 * 30
        assert np.mean(errors) < 0.25 * peak_energy

    def test_persistence_without_history(self):
        tl = tl_of()
        predictor = WCMAPredictor(tl)
        assert predictor.predict(0, 0) == 0.0
        predictor.observe(0, 0, 42.0)
        assert predictor.predict(0, 1) > 0.0

    def test_nonnegative(self):
        tl = tl_of()
        trace = four_day_trace(Timeline(4, 8, 10, 30.0))
        predictor = WCMAPredictor(tl)
        feed_trace(predictor, trace, 2 * tl.periods_per_day)
        for p in range(tl.periods_per_day):
            assert predictor.predict(2, p) >= 0.0

    def test_gap_scales_with_today(self):
        """A darker-than-usual morning lowers the next prediction."""
        tl = tl_of(days=5)
        trace = diurnal_trace(tl)
        bright = WCMAPredictor(tl)
        dark = WCMAPredictor(tl)
        feed_trace(bright, trace, 4 * tl.periods_per_day)
        feed_trace(dark, trace, 4 * tl.periods_per_day)
        # Day 4: feed normal vs halved observations for periods 0..3.
        mid = tl.periods_per_day // 2
        for p in range(mid):
            e = trace.period_energy(4, p)
            bright.observe(4, p, e)
            dark.observe(4, p, e * 0.3)
        assert dark.predict(4, mid) <= bright.predict(4, mid)

    def test_horizon_clipped_at_end(self):
        tl = tl_of(days=1, periods=4)
        predictor = WCMAPredictor(tl)
        horizon = predictor.predict_horizon(0, 2, count=10)
        assert len(horizon) == 2

    def test_validation(self):
        tl = tl_of()
        with pytest.raises(ValueError):
            WCMAPredictor(tl, alpha=1.5)
        with pytest.raises(ValueError):
            WCMAPredictor(tl, depth_days=0)
        with pytest.raises(ValueError):
            WCMAPredictor(tl, gap_window=0)
        predictor = WCMAPredictor(tl)
        with pytest.raises(ValueError):
            predictor.observe(0, 0, -1.0)
        with pytest.raises(ValueError):
            predictor.predict_horizon(0, 0, count=0)


class _NumpyWCMA:
    """The numpy form of WCMA that :class:`WCMAPredictor` replaced with
    Python-float sums: the reference its predictions must equal bit
    for bit."""

    def __init__(self, tl, alpha=0.7, depth_days=4, gap_window=3):
        self.tl = tl
        self.alpha, self.depth_days = alpha, depth_days
        self.gap_window = gap_window
        self.data = np.full((tl.num_days, tl.periods_per_day), np.nan)
        self.last_observation = 0.0
        self.last_flat = -1

    def observe(self, day, period, energy):
        self.data[day, period] = energy
        self.last_observation = energy
        self.last_flat = self.tl.flat_period(day, period)

    def mean_at(self, day, period):
        values = [
            self.data[d, period]
            for d in range(day - 1, max(day - 1 - self.depth_days, -1), -1)
        ]
        arr = np.array(values, dtype=float)
        past = arr[~np.isnan(arr)]
        return None if len(past) == 0 else float(past.mean())

    def gap(self, day, period):
        ratios, weights = [], []
        for k in range(1, self.gap_window + 1):
            p = period - k
            if p < 0:
                break
            observed = float(self.data[day, p])
            mean = self.mean_at(day, p)
            if np.isnan(observed) or mean is None or mean < 1e-9:
                continue
            ratios.append(observed / mean)
            weights.append(self.gap_window + 1 - k)
        if not ratios:
            return 1.0
        weights_arr = np.array(weights, dtype=float)
        return float(
            (np.array(ratios) * weights_arr).sum() / weights_arr.sum()
        )

    def predict(self, day, period):
        flat = self.tl.flat_period(day, period)
        mean = self.mean_at(day, period)
        gap = self.gap(day, period)
        if mean is None:
            return max(self.last_observation, 0.0)
        conditioned = gap * mean
        if flat == self.last_flat + 1:
            return max(
                self.alpha * self.last_observation
                + (1.0 - self.alpha) * conditioned,
                0.0,
            )
        return max(conditioned, 0.0)


class TestWCMAScalarSums:
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_equal_to_numpy_form(self, seed):
        """Multi-day histories with unobserved periods (NaN gaps),
        night periods below 1e-9 and both the one-step-ahead blend and
        the history-only branch."""
        tl = Timeline(6, 12, 10, 30.0)
        rng = np.random.default_rng(seed)
        predictor, reference = WCMAPredictor(tl), _NumpyWCMA(tl)
        branches = {"blend": 0, "history": 0, "night": 0, "gap": 0}
        for flat in range(tl.total_periods):
            day, period = tl.unflatten_period(flat)
            for ahead in (0, 2):
                if flat + ahead >= tl.total_periods:
                    continue
                d, p = tl.unflatten_period(flat + ahead)
                got, want = predictor.predict(d, p), reference.predict(d, p)
                assert math.copysign(1.0, got) == math.copysign(1.0, want)
                assert got == want, (seed, d, p)
                if reference.mean_at(d, p) is not None:
                    branches[
                        "blend" if flat + ahead == reference.last_flat + 1
                        else "history"
                    ] += 1
            if rng.random() < 0.2:
                branches["gap"] += 1
                continue  # never observed: a NaN in the history
            if period < 3 or period > 9:
                energy = rng.choice([0.0, 1e-12, 5e-10])
                branches["night"] += 1
            else:
                energy = rng.uniform(0.5, 20.0)
            predictor.observe(day, period, energy)
            reference.observe(day, period, energy)
        assert min(branches.values()) > 0, branches


class TestEWMA:
    def test_converges_on_constant_signal(self):
        tl = tl_of(days=6)
        predictor = EWMAPredictor(tl, alpha=0.5)
        for day in range(5):
            for p in range(tl.periods_per_day):
                predictor.observe(day, p, 10.0)
        assert predictor.predict(5, 3) == pytest.approx(10.0)

    def test_blends_history(self):
        tl = tl_of(days=3)
        predictor = EWMAPredictor(tl, alpha=0.5)
        predictor.observe(0, 0, 10.0)
        predictor.observe(1, 0, 20.0)
        assert predictor.predict(2, 0) == pytest.approx(15.0)

    def test_fallback_before_history(self):
        tl = tl_of()
        predictor = EWMAPredictor(tl)
        assert predictor.predict(0, 3) == 0.0
        predictor.observe(0, 0, 7.0)
        assert predictor.predict(0, 3) == 7.0  # last observation

    def test_validation(self):
        tl = tl_of()
        with pytest.raises(ValueError):
            EWMAPredictor(tl, alpha=-0.1)
        with pytest.raises(ValueError):
            EWMAPredictor(tl).observe(0, 0, -5.0)


class TestPerfect:
    def test_oracle_matches_trace(self):
        tl = Timeline(4, 8, 10, 30.0)
        trace = four_day_trace(tl)
        predictor = PerfectPredictor(tl, trace)
        for day, period in ((0, 0), (1, 4), (3, 7)):
            assert predictor.predict(day, period) == pytest.approx(
                trace.period_energy(day, period)
            )

    def test_horizon_matches_trace(self):
        tl = Timeline(2, 4, 10, 30.0)
        trace = four_day_trace(Timeline(4, 4, 10, 30.0)).day_slice(0)
        trace2 = SolarTrace(
            tl, np.tile(trace.power, (2, 1, 1))
        )
        predictor = PerfectPredictor(tl, trace2)
        horizon = predictor.predict_horizon(0, 0, 8)
        assert len(horizon) == 8

    def test_timeline_mismatch_rejected(self):
        tl = Timeline(4, 8, 10, 30.0)
        trace = four_day_trace(tl)
        with pytest.raises(ValueError):
            PerfectPredictor(Timeline(2, 8, 10, 30.0), trace)
