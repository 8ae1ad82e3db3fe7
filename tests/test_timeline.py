"""Tests for the day/period/slot time structure."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.timeline import SlotIndex, Timeline


def make(days=2, periods=4, slots=5, dt=30.0):
    return Timeline(
        num_days=days,
        periods_per_day=periods,
        slots_per_period=slots,
        slot_seconds=dt,
    )


def all_slots(tl):
    """Every slot address in (day, period, slot) order."""
    return [
        SlotIndex(day, period, slot)
        for day in range(tl.num_days)
        for period in range(tl.periods_per_day)
        for slot in range(tl.slots_per_period)
    ]


class TestConstruction:
    def test_basic_sizes(self):
        tl = make()
        assert tl.period_seconds == 150.0
        assert tl.slots_per_day == 20
        assert tl.total_periods == 8
        assert tl.total_slots == 40

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_days": 0},
            {"periods_per_day": 0},
            {"slots_per_period": 0},
            {"slot_seconds": 0.0},
            {"slot_seconds": -1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        base = dict(
            num_days=1, periods_per_day=1, slots_per_period=1, slot_seconds=1.0
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            Timeline(**base)

    def test_with_days_copies(self):
        tl = make(days=2)
        tl2 = tl.with_days(7)
        assert tl2.num_days == 7
        assert tl.num_days == 2
        assert tl2.slots_per_period == tl.slots_per_period


class TestIndexing:
    def test_flat_slot_roundtrip_exhaustive(self):
        tl = make()
        seen = set()
        for idx in all_slots(tl):
            flat = tl.flat_slot(idx)
            assert tl.unflatten(flat) == idx
            seen.add(flat)
        assert seen == set(range(tl.total_slots))

    def test_flat_period_roundtrip(self):
        tl = make()
        for day in range(tl.num_days):
            for period in range(tl.periods_per_day):
                flat = tl.flat_period(day, period)
                assert tl.unflatten_period(flat) == (day, period)

    def test_out_of_range_raises(self):
        tl = make()
        with pytest.raises(IndexError):
            tl.flat_slot(SlotIndex(2, 0, 0))
        with pytest.raises(IndexError):
            tl.flat_slot(SlotIndex(0, 4, 0))
        with pytest.raises(IndexError):
            tl.flat_slot(SlotIndex(0, 0, 5))
        with pytest.raises(IndexError):
            tl.unflatten(tl.total_slots)
        with pytest.raises(IndexError):
            tl.unflatten_period(-1)

    def test_iteration_is_chronological(self):
        tl = make()
        flats = [tl.flat_slot(i) for i in all_slots(tl)]
        assert flats == list(range(tl.total_slots))

    @given(
        days=st.integers(1, 5),
        periods=st.integers(1, 10),
        slots=st.integers(1, 10),
        dt=st.floats(1.0, 600.0),
    )
    def test_flat_roundtrip_property(self, days, periods, slots, dt):
        tl = Timeline(days, periods, slots, dt)
        for flat in range(0, tl.total_slots, max(tl.total_slots // 7, 1)):
            assert tl.flat_slot(tl.unflatten(flat)) == flat


class TestWallClock:
    def test_periods_spread_over_day(self):
        tl = make(periods=4)
        # 4 periods uniformly over 24h: starts at 0h, 6h, 12h, 18h.
        assert tl.slot_time_of_day(SlotIndex(0, 0, 0)) == 0.0
        assert tl.slot_time_of_day(SlotIndex(0, 1, 0)) == pytest.approx(21600)
        assert tl.slot_time_of_day(SlotIndex(0, 2, 0)) == pytest.approx(43200)

    def test_slot_offset_within_period(self):
        tl = make()
        t0 = tl.slot_time_of_day(SlotIndex(0, 1, 0))
        t3 = tl.slot_time_of_day(SlotIndex(0, 1, 3))
        assert t3 - t0 == pytest.approx(3 * tl.slot_seconds)

    def test_non_dividing_hyper_period_stays_diurnal(self):
        """Periods spread over 24 h even when ΔT·N_p != 86 400 s.

        With 7 periods of 150 s the task time covers only 1050 s of
        the day, but period k still starts at k/7 of the solar day so
        the trace alignment survives.
        """
        tl = make(periods=7)
        assert tl.periods_per_day * tl.period_seconds != pytest.approx(86400)
        for k in range(7):
            start = tl.slot_time_of_day(SlotIndex(0, k, 0))
            assert start == pytest.approx(k * 86400.0 / 7)
        # Last slot of the last period still lands inside the day.
        last = tl.slot_time_of_day(SlotIndex(0, 6, tl.slots_per_period - 1))
        assert last < 86400.0

    @given(
        periods=st.integers(1, 24),
        day=st.integers(0, 1),
        period_frac=st.floats(0.0, 0.999),
    )
    def test_time_of_day_always_within_day(self, periods, day, period_frac):
        tl = make(days=2, periods=periods, slots=5, dt=30.0)
        period = int(period_frac * periods)
        t = tl.slot_time_of_day(SlotIndex(day, period, 4))
        assert 0.0 <= t < 86400.0 + tl.period_seconds


class TestDeadlineSlot:
    def test_exact_boundary(self):
        tl = make(slots=10, dt=30.0)
        assert tl.deadline_slot(90.0) == 3

    def test_mid_slot_rounds_up(self):
        # Deadline inside a slot is checked at the next slot start.
        tl = make(slots=10, dt=30.0)
        assert tl.deadline_slot(95.0) == 4

    def test_clamped_to_period(self):
        tl = make(slots=10, dt=30.0)
        assert tl.deadline_slot(10_000.0) == 10

    def test_zero_deadline(self):
        tl = make()
        assert tl.deadline_slot(0.0) == 0

    def test_negative_rejected(self):
        tl = make()
        with pytest.raises(ValueError):
            tl.deadline_slot(-1.0)

    def test_fractional_slot_seconds_float_edge(self):
        # 0.3 / 0.1 is 2.9999... in floats; the epsilon guard must
        # still treat it as an exact boundary.
        tl = make(slots=10, dt=0.1)
        assert tl.deadline_slot(0.3) == 3

    @given(st.floats(0.0, 10_000.0))
    def test_deadline_slot_bounds(self, deadline):
        tl = make(slots=10, dt=30.0)
        slot = tl.deadline_slot(deadline)
        assert 0 <= slot <= tl.slots_per_period
        if slot < tl.slots_per_period:
            # Checked at the first slot boundary >= the deadline.
            assert slot * tl.slot_seconds >= deadline - 1e-6
            assert (slot - 1) * tl.slot_seconds < deadline or slot == 0
