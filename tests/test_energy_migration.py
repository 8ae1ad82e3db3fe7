"""Tests for migration patterns, the slot model and the nonideal sim."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.energy import (
    MigrationPattern,
    NonidealParams,
    SuperCapacitor,
    migration_efficiency,
    simulate_migration,
)


class TestMigrationPattern:
    def test_phase_durations_sum(self):
        p = MigrationPattern(quantity=10.0, distance_seconds=1000.0)
        total = p.charge_seconds + p.hold_seconds + p.discharge_seconds
        assert total == pytest.approx(1000.0)

    def test_table2_units(self):
        p = MigrationPattern.table2(7.0, 60.0)
        assert p.quantity == 7.0
        assert p.distance_seconds == 3600.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quantity": 0.0},
            {"distance_seconds": 0.0},
            {"charge_fraction": 0.0},
            {"charge_fraction": 1.0},
            {"hold_fraction": -0.1},
            {"charge_fraction": 0.6, "hold_fraction": 0.4},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(quantity=5.0, distance_seconds=600.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            MigrationPattern(**base)


class TestSimulateMigration:
    def test_efficiency_in_unit_interval(self):
        cap = SuperCapacitor(capacitance=10.0)
        result = simulate_migration(cap, MigrationPattern.table2(7, 60))
        assert 0.0 < result.efficiency < 1.0

    def test_energy_balance(self):
        """offered = delivered + all losses + stranded (within tolerance)."""
        cap = SuperCapacitor(capacitance=10.0)
        r = simulate_migration(cap, MigrationPattern.table2(30, 400))
        balance = (
            r.delivered
            + r.conversion_loss
            + r.leakage_loss
            + r.overflow_loss
            + r.stranded
        )
        assert balance == pytest.approx(r.offered, rel=0.02)

    def test_small_cap_overflows_on_big_quantity(self):
        cap = SuperCapacitor(capacitance=1.0)
        r = simulate_migration(cap, MigrationPattern.table2(30, 400))
        assert r.overflow_loss > 0

    def test_big_cap_no_overflow_on_small_quantity(self):
        cap = SuperCapacitor(capacitance=100.0)
        r = simulate_migration(cap, MigrationPattern.table2(7, 60))
        assert r.overflow_loss == pytest.approx(0.0, abs=1e-6)

    def test_longer_hold_more_leakage(self):
        cap = SuperCapacitor(capacitance=10.0)
        short = simulate_migration(cap, MigrationPattern(10, 1800.0))
        long = simulate_migration(cap, MigrationPattern(10, 18000.0))
        assert long.leakage_loss > short.leakage_loss

    def test_nonideal_differs_from_model(self):
        cap = SuperCapacitor(capacitance=10.0)
        pattern = MigrationPattern.table2(7, 60)
        model = migration_efficiency(cap, pattern)
        test = migration_efficiency(
            cap, pattern, time_step=5.0, nonideal=NonidealParams()
        )
        assert model != pytest.approx(test, abs=1e-6)
        # ... but within measurement-error distance (paper: avg 5.38%).
        assert abs(model - test) / max(test, 1e-9) < 0.30

    def test_nonideal_deterministic_per_device(self):
        cap = SuperCapacitor(capacitance=10.0)
        pattern = MigrationPattern.table2(7, 60)
        a = migration_efficiency(cap, pattern, nonideal=NonidealParams(seed=1))
        b = migration_efficiency(cap, pattern, nonideal=NonidealParams(seed=1))
        assert a == b

    @given(st.floats(1.0, 50.0), st.floats(600.0, 36000.0))
    @settings(max_examples=30, deadline=None)
    def test_efficiency_bounds_property(self, quantity, distance):
        cap = SuperCapacitor(capacitance=10.0)
        eff = migration_efficiency(
            cap, MigrationPattern(quantity, distance), time_step=60.0
        )
        assert 0.0 <= eff < 1.0


class TestTable2Shape:
    """The qualitative structure of the paper's Table 2."""

    CAPS = {c: SuperCapacitor(capacitance=c) for c in (1.0, 10.0, 50.0, 100.0)}

    def efficiencies(self, quantity, minutes):
        pattern = MigrationPattern.table2(quantity, minutes)
        return {
            c: migration_efficiency(cap, pattern, time_step=10.0)
            for c, cap in self.CAPS.items()
        }

    def test_small_pattern_prefers_small_cap(self):
        eff = self.efficiencies(7, 60)
        assert max(eff, key=eff.get) == 1.0

    def test_small_pattern_monotone_in_size(self):
        eff = self.efficiencies(7, 60)
        assert eff[1.0] > eff[10.0] > eff[50.0] > eff[100.0]

    def test_large_pattern_prefers_medium_cap(self):
        eff = self.efficiencies(30, 400)
        assert max(eff, key=eff.get) == 10.0

    def test_large_pattern_small_cap_collapses(self):
        eff = self.efficiencies(30, 400)
        assert eff[1.0] < eff[10.0]
        assert eff[1.0] <= eff[50.0]

    def test_spread_is_significant(self):
        """Paper: up to 30.5% efficiency difference between sizes."""
        eff = self.efficiencies(30, 400)
        assert max(eff.values()) - min(eff.values()) > 0.05
