"""Tests for the solar substrate: irradiance, clouds, panel, traces."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.solar import (
    FOUR_DAYS,
    ClearSkyModel,
    CloudProcess,
    DayArchetype,
    SkyState,
    SolarPanel,
    SolarTrace,
    archetype_trace,
    clear_sky_ghi,
    four_day_trace,
    solar_declination,
    solar_elevation,
    synthetic_trace,
)
from repro.timeline import Timeline


def small_timeline(days=1):
    return Timeline(
        num_days=days, periods_per_day=24, slots_per_period=10,
        slot_seconds=30.0,
    )


class TestGeometry:
    def test_declination_solstices(self):
        # Summer solstice ~ +23.45 deg, winter ~ -23.45 deg.
        assert np.rad2deg(solar_declination(172)) == pytest.approx(23.45, abs=0.5)
        assert np.rad2deg(solar_declination(355)) == pytest.approx(-23.45, abs=0.5)

    def test_elevation_peaks_at_noon(self):
        times = np.linspace(0, 86400, 97)
        el = solar_elevation(times, 172, 40.0)
        assert abs(times[np.argmax(el)] - 43200) < 1800

    def test_elevation_negative_at_midnight(self):
        el = solar_elevation(0.0, 172, 40.0)
        assert el < 0

    def test_ghi_zero_below_horizon(self):
        assert clear_sky_ghi(-0.1) == 0.0

    def test_ghi_increases_with_elevation(self):
        low = clear_sky_ghi(np.deg2rad(10.0))
        high = clear_sky_ghi(np.deg2rad(60.0))
        assert 0 < low < high < 1100

    def test_clear_sky_model_daylight_hours(self):
        model = ClearSkyModel(latitude_deg=39.74)
        minutes = np.arange(0, 86400, 60.0)

        def daylight_hours(day_of_year):
            return np.count_nonzero(model.ghi(minutes, day_of_year) > 0) / 60

        assert daylight_hours(172) > 14 > 10 > daylight_hours(355)

    def test_bad_day_of_year(self):
        with pytest.raises(ValueError):
            ClearSkyModel().ghi(0.0, 0)


class TestClouds:
    def test_sample_within_bounds(self):
        process = CloudProcess()
        times = np.arange(0, 86400, 300.0)
        values = process.sample(times, np.random.default_rng(1))
        assert np.all(values > 0)
        assert np.all(values <= 1.0)

    def test_sample_deterministic_with_seed(self):
        process = CloudProcess()
        times = np.arange(0, 3600, 60.0)
        a = process.sample(times, np.random.default_rng(7))
        b = process.sample(times, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_single_state_process(self):
        process = CloudProcess(states=[SkyState("only", 0.5, 0.0, 1000.0)])
        values = process.sample(
            np.arange(0, 600, 60.0), np.random.default_rng(0)
        )
        assert np.allclose(values, 0.5)

    def test_decreasing_times_rejected(self):
        process = CloudProcess()
        with pytest.raises(ValueError):
            process.sample(np.array([10.0, 5.0]), np.random.default_rng(0))

    def test_skystate_validation(self):
        with pytest.raises(ValueError):
            SkyState("bad", 1.5, 0.1, 100.0)
        with pytest.raises(ValueError):
            SkyState("bad", 0.5, -0.1, 100.0)


class TestPanel:
    def test_paper_panel_peak(self):
        panel = SolarPanel()
        # 15.75 cm2 at 6% and 1000 W/m2 -> 94.5 mW.
        assert panel.peak_power == pytest.approx(0.0945, rel=1e-6)

    def test_power_scales_linearly(self):
        panel = SolarPanel()
        assert panel.power(500.0) == pytest.approx(panel.peak_power / 2)

    def test_array_input(self):
        panel = SolarPanel()
        out = panel.power(np.array([0.0, 1000.0]))
        assert out.shape == (2,)
        assert out[0] == 0.0

    def test_negative_irradiance_rejected(self):
        with pytest.raises(ValueError):
            SolarPanel().power(-1.0)

    @pytest.mark.parametrize(
        "kwargs", [{"area_m2": 0.0}, {"efficiency": 0.0}, {"efficiency": 1.5}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolarPanel(**kwargs)


class TestSolarTrace:
    def test_shape_validation(self):
        tl = small_timeline()
        with pytest.raises(ValueError):
            SolarTrace(tl, np.zeros((2, 24, 10)))

    def test_negative_power_rejected(self):
        tl = small_timeline()
        power = np.zeros((1, 24, 10))
        power[0, 0, 0] = -1.0
        with pytest.raises(ValueError):
            SolarTrace(tl, power)

    def test_energy_aggregation_consistent(self):
        tl = small_timeline()
        power = np.ones((1, 24, 10)) * 0.05
        trace = SolarTrace(tl, power)
        assert trace.period_energy(0, 0) == pytest.approx(0.05 * 10 * 30.0)
        assert trace.daily_energy(0) == pytest.approx(0.05 * 240 * 30.0)
        assert trace.total_energy() == pytest.approx(trace.daily_energy(0))

    def test_from_function_averages(self):
        tl = small_timeline()
        trace = SolarTrace.from_function(tl, lambda day, t: np.full(len(t), 0.02))
        assert np.allclose(trace.power, 0.02)

    def test_day_slice(self):
        tl = small_timeline(days=3)
        power = np.zeros((3, 24, 10))
        power[1] = 0.04
        trace = SolarTrace(tl, power)
        day1 = trace.day_slice(1)
        assert day1.timeline.num_days == 1
        assert day1.total_energy() == pytest.approx(trace.daily_energy(1))

    def test_power_is_readonly(self):
        tl = small_timeline()
        trace = SolarTrace(tl, np.zeros((1, 24, 10)))
        with pytest.raises(ValueError):
            trace.power[0, 0, 0] = 1.0


class TestDayArchetypes:
    def test_four_days_decreasing_energy(self):
        tl = small_timeline(days=4)
        trace = four_day_trace(tl)
        energies = [trace.daily_energy(d) for d in range(4)]
        assert energies == sorted(energies, reverse=True)

    def test_four_day_trace_needs_four_days(self):
        with pytest.raises(ValueError):
            four_day_trace(small_timeline(days=3))

    def test_archetype_transmittance_interpolates(self):
        arch = DayArchetype(
            "test", 100, breakpoints=((0.0, 0.2), (12.0, 0.8), (24.0, 0.2))
        )
        mid = arch.transmittance(np.array([6 * 3600.0]))[0]
        assert mid == pytest.approx(0.5)

    def test_archetype_validation(self):
        with pytest.raises(ValueError):
            DayArchetype("bad", 100, breakpoints=((0.0, 0.5),))
        with pytest.raises(ValueError):
            DayArchetype("bad", 100, breakpoints=((5.0, 0.5), (1.0, 0.5)))

    def test_night_is_dark(self):
        tl = small_timeline(days=4)
        trace = four_day_trace(tl)
        # Slot at midnight has no power on any day.
        for d in range(4):
            assert trace.power[d, 0, 0] == 0.0

    def test_deterministic(self):
        tl = small_timeline(days=4)
        a = four_day_trace(tl, seed=3)
        b = four_day_trace(tl, seed=3)
        assert np.array_equal(a.power, b.power)


class TestSyntheticTrace:
    def test_deterministic(self):
        tl = small_timeline(days=5)
        a = synthetic_trace(tl, seed=11)
        b = synthetic_trace(tl, seed=11)
        assert np.array_equal(a.power, b.power)

    def test_different_seeds_differ(self):
        tl = small_timeline(days=5)
        a = synthetic_trace(tl, seed=11)
        b = synthetic_trace(tl, seed=12)
        assert not np.array_equal(a.power, b.power)

    def test_daily_energy_positive_and_bounded(self):
        tl = small_timeline(days=10)
        trace = synthetic_trace(tl, seed=5)
        panel = SolarPanel()
        max_daily = panel.peak_power * 86400
        for d in range(10):
            energy = trace.daily_energy(d)
            assert 0 < energy < max_daily

    def test_seasonal_day_length(self):
        tl = small_timeline(days=1)
        summer = archetype_trace(
            tl,
            [DayArchetype("s", 172, breakpoints=((0.0, 0.97), (24.0, 0.97)))],
        )
        winter = archetype_trace(
            tl,
            [DayArchetype("w", 355, breakpoints=((0.0, 0.97), (24.0, 0.97)))],
        )
        assert summer.total_energy() > 1.5 * winter.total_energy()
