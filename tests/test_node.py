"""Tests for the node architecture: NVP, PMU, SensorNode."""

import numpy as np
import pytest

from repro.energy import CapacitorBank, SuperCapacitor
from repro.node import NVP, PMU, SensorNode


def make_pmu(caps=(10.0,), voltages=None, direct=1.0, threshold=2.0):
    bank = CapacitorBank(
        [SuperCapacitor(capacitance=c) for c in caps],
        initial_voltages=voltages,
    )
    return PMU(bank=bank, direct_efficiency=direct, switch_threshold=threshold)


class TestNVP:
    def test_power_cycle_energy(self):
        nvp = NVP(index=0)
        spent = nvp.power_fail()
        assert spent == nvp.backup_energy
        assert not nvp.powered
        assert nvp.power_up() == nvp.restore_energy
        assert nvp.powered

    def test_double_fail_is_free(self):
        nvp = NVP(index=0)
        nvp.power_fail()
        assert nvp.power_fail() == 0.0
        assert nvp.brownout_count == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            NVP(index=-1)
        with pytest.raises(ValueError):
            NVP(index=0, backup_energy=-1.0)


class TestPMUSupply:
    def test_pure_solar_surplus_charges(self):
        pmu = make_pmu(voltages=[2.0])
        flow = pmu.supply_slot(solar_power=0.08, load_power=0.03, slot_seconds=30)
        assert flow.run_fraction == 1.0
        assert flow.direct_energy == pytest.approx(0.03 * 30)
        assert flow.storage_energy == 0.0
        assert flow.charged_energy > 0
        assert flow.offered_surplus == pytest.approx(0.05 * 30)

    def test_no_load_all_surplus(self):
        pmu = make_pmu(voltages=[2.0])
        flow = pmu.supply_slot(0.08, 0.0, 30)
        assert flow.load_energy == 0.0
        assert flow.offered_surplus == pytest.approx(0.08 * 30)

    def test_deficit_served_from_storage(self):
        pmu = make_pmu(voltages=[4.0])
        flow = pmu.supply_slot(0.01, 0.05, 30)
        assert flow.run_fraction == pytest.approx(1.0)
        assert flow.storage_energy == pytest.approx(0.04 * 30, rel=1e-6)

    def test_empty_storage_browns_out(self):
        pmu = make_pmu(voltages=[1.0])  # at cut-off: nothing usable
        flow = pmu.supply_slot(0.01, 0.05, 30)
        assert flow.run_fraction == pytest.approx(0.0, abs=1e-9)
        assert flow.storage_energy == 0.0
        # The panel still charges the capacitor during the dead time.
        assert flow.offered_surplus > 0

    def test_partial_brownout_fraction(self):
        # Storage holds less than the deficit: fractional run.
        cap = SuperCapacitor(capacitance=0.5)
        bank = CapacitorBank([cap], initial_voltages=[1.3])
        pmu = PMU(bank=bank, direct_efficiency=1.0)
        flow = pmu.supply_slot(0.0, 0.05, 30)
        assert 0.0 < flow.run_fraction < 1.0
        assert flow.load_energy == pytest.approx(
            0.05 * 30 * flow.run_fraction, rel=1e-6
        )

    def test_direct_efficiency_derates_solar(self):
        lossy = make_pmu(direct=0.5, voltages=[4.0])
        flow = lossy.supply_slot(0.06, 0.06, 30)
        # Usable solar is only 0.03 W; the rest comes from storage.
        assert flow.storage_energy == pytest.approx(0.03 * 30, rel=1e-6)

    def test_validation(self):
        pmu = make_pmu()
        with pytest.raises(ValueError):
            pmu.supply_slot(-1.0, 0.0, 30)
        with pytest.raises(ValueError):
            pmu.supply_slot(0.0, -1.0, 30)
        with pytest.raises(ValueError):
            pmu.supply_slot(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            PMU(bank=make_pmu().bank, direct_efficiency=0.0)
        with pytest.raises(ValueError):
            PMU(bank=make_pmu().bank, switch_threshold=-1.0)


class TestPMUSwitching:
    def test_request_respects_threshold(self):
        pmu = make_pmu(caps=(1.0, 10.0), voltages=[4.0, 1.0], threshold=2.0)
        assert not pmu.request_capacitor(1)  # 1F@4V holds 7.5 J > 2 J
        assert pmu.bank.active_index == 0

    def test_force_overrides(self):
        pmu = make_pmu(caps=(1.0, 10.0), voltages=[4.0, 1.0])
        pmu.force_capacitor(1)
        assert pmu.bank.active_index == 1


class TestSensorNode:
    def test_assembly(self):
        node = SensorNode(
            [SuperCapacitor(capacitance=c) for c in (1.0, 10.0)], num_nvps=3
        )
        assert node.num_nvps == 3
        assert node.num_capacitors == 2
        assert node.panel.peak_power == pytest.approx(0.0945)

    def test_validation(self):
        with pytest.raises(ValueError):
            SensorNode([SuperCapacitor(capacitance=1.0)], num_nvps=0)
