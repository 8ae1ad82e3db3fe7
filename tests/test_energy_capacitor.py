"""Tests for regulator curves and the super capacitor model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.energy import (
    CapacitorState,
    RegulatorCurve,
    SuperCapacitor,
    default_input_regulator,
    default_output_regulator,
)


class TestRegulatorCurve:
    def test_monotone_increasing(self):
        curve = default_input_regulator()
        v = np.linspace(0.1, 5.0, 50)
        eta = curve.efficiency(v)
        assert np.all(np.diff(eta) > 0)

    def test_bounded_by_eta_max(self):
        curve = RegulatorCurve(eta_max=0.9, v_half=1.0, exponent=2.0)
        assert curve.efficiency(100.0) < 0.9
        assert curve.efficiency(100.0) == pytest.approx(0.9, abs=1e-3)

    def test_half_point(self):
        curve = RegulatorCurve(eta_max=0.8, v_half=2.0, exponent=2.0)
        assert curve.efficiency(2.0) == pytest.approx(0.4)

    def test_zero_voltage_zero_efficiency(self):
        assert default_output_regulator().efficiency(0.0) == 0.0

    def test_negative_voltage_rejected(self):
        with pytest.raises(ValueError):
            default_input_regulator().efficiency(-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"eta_max": 0.0}, {"eta_max": 1.5}, {"v_half": 0.0}, {"exponent": 0.0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RegulatorCurve(**kwargs)

    def test_callable_alias(self):
        curve = default_input_regulator()
        assert curve(2.0) == curve.efficiency(2.0)

    def test_low_voltage_collapse(self):
        """Figure 5 shape: efficiency collapses near the cut-off."""
        curve = default_output_regulator()
        assert curve.efficiency(0.5) < 0.5 * curve.efficiency(4.0)


class TestSuperCapacitor:
    def test_energy_voltage_roundtrip(self):
        cap = SuperCapacitor(capacitance=10.0)
        for v in (0.0, 1.0, 3.3, 5.0):
            assert cap.voltage_at(cap.energy_at(v)) == pytest.approx(v)

    def test_usable_capacity(self):
        cap = SuperCapacitor(capacitance=2.0, v_full=5.0, v_cutoff=1.0)
        assert cap.usable_capacity == pytest.approx(0.5 * 2 * (25 - 1))

    def test_leakage_grows_with_voltage(self):
        cap = SuperCapacitor(capacitance=10.0)
        assert cap.leakage_power(5.0) > cap.leakage_power(1.0) > 0

    def test_leakage_scales_with_capacitance(self):
        small = SuperCapacitor(capacitance=1.0)
        big = SuperCapacitor(capacitance=100.0)
        assert big.leakage_power(3.0) > 10 * small.leakage_power(3.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacitance": 0.0},
            {"v_cutoff": 5.0, "v_full": 5.0},
            {"v_cutoff": -1.0},
            {"cycle_efficiency": 0.0},
            {"cycle_efficiency": 1.2},
            {"leak_coeff": -1.0},
            {"leak_exponent": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(capacitance=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SuperCapacitor(**base)

    def test_fresh_state_default_cutoff(self):
        cap = SuperCapacitor(capacitance=1.0)
        state = cap.fresh_state()
        assert state.voltage == pytest.approx(cap.v_cutoff)
        assert state.usable_energy == pytest.approx(0.0)


class TestCapacitorState:
    def make_state(self, c=10.0, v=2.0, **kwargs):
        return SuperCapacitor(capacitance=c, **kwargs).fresh_state(v)

    def test_charge_returns_stored_less_than_input(self):
        state = self.make_state()
        stored = state.charge(10.0)
        assert 0 < stored < 10.0  # conversion losses

    def test_charge_stops_at_v_full(self):
        state = self.make_state(c=1.0, v=4.9)
        state.charge(1000.0)
        assert state.voltage <= state.capacitor.v_full + 1e-9

    def test_discharge_delivers_at_most_requested(self):
        state = self.make_state(v=4.0)
        delivered = state.discharge(1.0)
        assert delivered <= 1.0 + 1e-9

    def test_discharge_consumes_more_than_delivered(self):
        state = self.make_state(v=4.0)
        before = state.stored_energy
        delivered = state.discharge(5.0)
        drawn = before - state.stored_energy
        assert drawn > delivered > 0

    def test_discharge_stops_at_cutoff(self):
        state = self.make_state(v=2.0)
        state.discharge(1e9)
        assert state.voltage >= state.capacitor.v_cutoff - 1e-9
        assert state.usable_energy == pytest.approx(0.0, abs=1e-9)

    def test_empty_capacitor_delivers_nothing(self):
        state = self.make_state(v=1.0)  # at cutoff
        assert state.discharge(1.0) == 0.0

    def test_leak_reduces_energy(self):
        state = self.make_state(v=4.0)
        before = state.stored_energy
        lost = state.leak(3600.0)
        assert lost > 0
        assert state.stored_energy == pytest.approx(before - lost)

    def test_leak_never_negative_energy(self):
        state = self.make_state(c=0.5, v=1.0)
        state.leak(1e9)
        assert state.stored_energy >= 0.0

    def test_headroom_plus_stored_is_full(self):
        state = self.make_state(v=3.0)
        cap = state.capacitor
        assert state.headroom + state.stored_energy == pytest.approx(
            cap.energy_at(cap.v_full)
        )

    def test_invalid_initial_voltage(self):
        cap = SuperCapacitor(capacitance=1.0)
        with pytest.raises(ValueError):
            CapacitorState(cap, 6.0)

    def test_negative_arguments_rejected(self):
        state = self.make_state()
        with pytest.raises(ValueError):
            state.charge(-1.0)
        with pytest.raises(ValueError):
            state.discharge(-1.0)
        with pytest.raises(ValueError):
            state.leak(-1.0)

    @given(
        c=st.floats(0.5, 100.0),
        v=st.floats(1.0, 5.0),
        energy=st.floats(0.0, 50.0),
    )
    @settings(max_examples=60)
    def test_charge_energy_conservation(self, c, v, energy):
        """Stored increase <= input energy; voltage stays in range."""
        cap = SuperCapacitor(capacitance=c)
        state = cap.fresh_state(min(v, cap.v_full))
        before = state.stored_energy
        stored = state.charge(energy)
        assert stored <= energy + 1e-9
        assert state.stored_energy == pytest.approx(before + stored, rel=1e-9)
        assert 0.0 <= state.voltage <= cap.v_full + 1e-9

    @given(
        c=st.floats(0.5, 100.0),
        v=st.floats(1.0, 5.0),
        want=st.floats(0.0, 50.0),
    )
    @settings(max_examples=60)
    def test_discharge_energy_conservation(self, c, v, want):
        cap = SuperCapacitor(capacitance=c)
        state = cap.fresh_state(min(v, cap.v_full))
        before = state.stored_energy
        delivered = state.discharge(want)
        drawn = before - state.stored_energy
        assert delivered <= want + 1e-9
        assert delivered <= drawn + 1e-9
        assert state.voltage >= cap.v_cutoff - 1e-9

    @given(st.floats(1.0, 5.0), st.floats(0.0, 86400.0))
    @settings(max_examples=60)
    def test_leak_monotone(self, v, duration):
        cap = SuperCapacitor(capacitance=10.0)
        state = cap.fresh_state(v)
        before = state.stored_energy
        state.leak(duration)
        assert state.stored_energy <= before + 1e-12
