"""Tests for capacitor sizing (Section 4.1) and the distributed bank."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.energy import (
    CapacitorBank,
    SuperCapacitor,
    cluster_capacities,
    migration_series,
    optimal_daily_capacity,
    simulate_day_migration,
    size_bank,
)


def day_profile(surplus_j=200.0, deficit_j=120.0, slots=96, dt=300.0):
    """Simple surplus-by-day / deficit-by-night ΔE profile."""
    delta = np.zeros(slots)
    day = slice(slots // 4, slots // 2)
    night = slice(3 * slots // 4, slots)
    n_day = day.stop - day.start
    n_night = night.stop - night.start
    delta[day] = surplus_j / n_day
    delta[night] = -deficit_j / n_night
    return delta


class TestMigrationSeries:
    def test_sign_convention(self):
        solar = np.array([0.1, 0.0])
        load = np.array([0.0, 0.1])
        delta = migration_series(solar, load, 30.0)
        assert delta[0] == pytest.approx(3.0)
        assert delta[1] == pytest.approx(-3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            migration_series(np.zeros(3), np.zeros(4), 30.0)

    def test_bad_slot_seconds(self):
        with pytest.raises(ValueError):
            migration_series(np.zeros(3), np.zeros(3), 0.0)


class TestSimulateDayMigration:
    def test_serves_night_deficit(self):
        cap = SuperCapacitor(capacitance=10.0)
        result = simulate_day_migration(cap, day_profile(), 300.0)
        assert result.served > 0
        assert result.unserved >= 0

    def test_loss_breakdown_nonnegative(self):
        cap = SuperCapacitor(capacitance=10.0)
        r = simulate_day_migration(cap, day_profile(), 300.0)
        assert r.conversion_loss >= 0
        assert r.leakage_loss >= 0
        assert r.overflow_loss >= 0
        assert r.total_loss == pytest.approx(
            r.conversion_loss + r.leakage_loss + r.overflow_loss
        )

    def test_tiny_cap_overflows(self):
        cap = SuperCapacitor(capacitance=0.5)
        r = simulate_day_migration(cap, day_profile(surplus_j=500.0), 300.0)
        assert r.overflow_loss > 0

    def test_energy_balance(self):
        cap = SuperCapacitor(capacitance=22.0)
        delta = day_profile()
        r = simulate_day_migration(cap, delta, 300.0)
        total_in = delta[delta > 0].sum()
        # input = losses + served + residual; residual may be negative
        # when leakage digs below the starting (cut-off) energy.
        residual = cap.energy_at(r.final_voltage) - cap.energy_at(cap.v_cutoff)
        assert r.total_loss + r.served + residual == pytest.approx(
            total_in, abs=1e-6
        )


class TestOptimalDailyCapacity:
    def test_returns_candidate(self):
        candidates = [1.0, 10.0, 47.0]
        best, result = optimal_daily_capacity(
            day_profile(), 300.0, candidates
        )
        assert best in candidates

    def test_small_surplus_prefers_small_cap(self):
        best_small, _ = optimal_daily_capacity(
            day_profile(surplus_j=8.0, deficit_j=5.0), 300.0, [1.0, 47.0]
        )
        best_big, _ = optimal_daily_capacity(
            day_profile(surplus_j=500.0, deficit_j=350.0), 300.0, [1.0, 47.0]
        )
        assert best_small == 1.0
        assert best_big == 47.0

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            optimal_daily_capacity(day_profile(), 300.0, [])


class TestClusterCapacities:
    def test_fewer_values_than_clusters(self):
        out = cluster_capacities([10.0, 10.0], num_clusters=4)
        assert out == [10.0]

    def test_two_groups(self):
        optima = [1.0, 1.2, 0.9, 40.0, 50.0, 45.0]
        out = cluster_capacities(optima, num_clusters=2)
        assert len(out) == 2
        assert out[0] < 2.0 < 30.0 < out[1]

    def test_sorted_output(self):
        out = cluster_capacities([5.0, 1.0, 50.0, 20.0], num_clusters=3)
        assert out == sorted(out)

    def test_weights_pull_mean(self):
        optima = [1.0, 10.0]
        heavy_small = cluster_capacities(
            optima, weights=[100.0, 1.0], num_clusters=1
        )
        heavy_big = cluster_capacities(
            optima, weights=[1.0, 100.0], num_clusters=1
        )
        assert heavy_small[0] < heavy_big[0]

    @pytest.mark.parametrize(
        "optima,weights,clusters",
        [([], None, 2), ([1.0], [1.0, 2.0], 2), ([0.0], None, 1),
         ([1.0], [-1.0], 1)],
    )
    def test_validation(self, optima, weights, clusters):
        with pytest.raises(ValueError):
            cluster_capacities(optima, weights=weights, num_clusters=clusters)

    @given(
        st.lists(st.floats(0.5, 100.0), min_size=1, max_size=20),
        st.integers(1, 6),
    )
    @settings(max_examples=50)
    def test_cluster_count_bounded(self, optima, clusters):
        out = cluster_capacities(optima, num_clusters=clusters)
        assert 1 <= len(out) <= clusters
        # log-space averaging round-trips within relative epsilon
        assert all(
            min(optima) * (1 - 1e-9) <= c <= max(optima) * (1 + 1e-9)
            for c in out
        )


class TestSizeBank:
    def test_builds_requested_sizes(self):
        profiles = [
            day_profile(surplus_j=s, deficit_j=s * 0.6)
            for s in (10.0, 30.0, 200.0, 400.0, 15.0, 350.0)
        ]
        bank = size_bank(profiles, 300.0, num_capacitors=2)
        assert 1 <= len(bank) <= 2
        assert all(isinstance(c, SuperCapacitor) for c in bank)
        caps = [c.capacitance for c in bank]
        assert caps == sorted(caps)


class TestCapacitorBank:
    def make_bank(self, caps=(1.0, 10.0, 47.0), voltages=None):
        return CapacitorBank(
            [SuperCapacitor(capacitance=c) for c in caps],
            initial_voltages=voltages,
        )

    def test_initial_state(self):
        bank = self.make_bank()
        assert len(bank) == 3
        assert bank.active_index == 0

    def test_select_counts_switches(self):
        bank = self.make_bank()
        bank.select(1)
        bank.select(1)
        bank.select(2)
        assert bank.switch_count == 2
        assert bank.active_index == 2

    def test_select_out_of_range(self):
        with pytest.raises(IndexError):
            self.make_bank().select(5)

    def test_request_switch_honours_threshold(self):
        bank = self.make_bank(voltages=[3.0, 1.0, 1.0])
        # Active (index 0, 1F at 3V) holds 4 J usable > threshold 2 J.
        assert not bank.request_switch(1, energy_threshold=2.0)
        assert bank.active_index == 0
        # With a generous threshold the switch goes through.
        assert bank.request_switch(1, energy_threshold=10.0)
        assert bank.active_index == 1

    def test_request_switch_same_is_noop(self):
        bank = self.make_bank(voltages=[3.0, 1.0, 1.0])
        assert bank.request_switch(0, energy_threshold=0.0)
        assert bank.switch_count == 0

    @staticmethod
    def twin_bank(volts=3.0):
        """Two identical 2 F capacitors, self-leak 1e-3·C·V, p0 10 mW.

        At 3 V each holds ½·2·3² = 9 J and self-leaks 1e-3·2·3 = 6 mW.
        """
        cap = SuperCapacitor(
            capacitance=2.0, leak_coeff=1e-3, leak_exponent=1.0,
            parasitic_power=0.01,
        )
        return CapacitorBank([cap, cap], initial_voltages=[volts, volts])

    def test_leak_all_only_active_pays_parasitic(self):
        bank = self.twin_bank()
        lost = bank.leak_all(100.0)
        active, idle = (s.stored_energy for s in bank.states)
        # Active: (6 mW + 10 mW) · 100 s = 1.6 J; idle: 6 mW · 100 s.
        assert active == pytest.approx(9.0 - 1.6, rel=1e-12)
        assert idle == pytest.approx(9.0 - 0.6, rel=1e-12)
        assert idle - active == pytest.approx(0.01 * 100.0, rel=1e-12)
        assert lost == pytest.approx(1.6 + 0.6, rel=1e-12)

    def test_leak_all_active_clamps_to_stored_range(self):
        # 1000 s drains the active 16 J from its 9 J: it stops at 0 J,
        # while the idle twin loses its 6 J of pure self-leak.
        bank = self.twin_bank()
        lost = bank.leak_all(1000.0)
        active, idle = bank.states
        assert active.voltage == 0.0
        assert idle.stored_energy == pytest.approx(3.0, rel=1e-12)
        assert lost == pytest.approx(9.0 + 6.0, rel=1e-12)
        # Above V_H the active capacitor clamps down to E_full; an idle
        # one is left where it is.
        bank = self.twin_bank()
        for state in bank.states:
            state.voltage = 5.5
        bank.leak_all(0.0)
        active, idle = bank.states
        assert active.voltage == pytest.approx(5.0, rel=1e-12)
        assert idle.voltage == 5.5

    def test_voltages_order(self):
        bank = self.make_bank(voltages=[1.0, 2.0, 3.0])
        assert np.allclose(bank.voltages(), [1.0, 2.0, 3.0])

    def test_initial_voltage_count_mismatch(self):
        with pytest.raises(ValueError):
            self.make_bank(voltages=[1.0, 2.0])

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError):
            CapacitorBank([])

    def test_negative_threshold_rejected(self):
        bank = self.make_bank()
        with pytest.raises(ValueError):
            bank.request_switch(1, energy_threshold=-1.0)
