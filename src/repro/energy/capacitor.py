"""Super capacitor model: storage, leakage, cycle losses.

Implements the storage element of the paper's Eq. (1)–(3): energy is
``½CV²``; charging multiplies the incoming energy by
``η_chr(V)·η_cycle(C)`` and is only possible below the full-charge
voltage ``V_H``; discharging divides the delivered energy by
``η_dis(V)·η_cycle(C)`` and is only possible above the cut-off voltage
``V_L``; a voltage-dependent leakage power ``P_leak(V)`` drains the
capacitor continuously.  Leakage follows the standard super-capacitor
self-discharge model (Brunelli et al. [12]): the leakage current scales
with both capacitance and terminal voltage, so ``P_leak = k·C·V²``,
plus a small fixed parasitic term.

:class:`SuperCapacitor` is the immutable device; :class:`CapacitorState`
carries the mutable terminal voltage and implements the slot update.
:class:`CapacitorColumns` with :func:`charge_columns` /
:func:`discharge_columns` is the same charge/discharge recurrence over
an array of independent devices (one column each), used wherever many
capacitors advance in lock step (the batched engine, bank sizing).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .regulator import (
    RegulatorCurve,
    default_input_regulator,
    default_output_regulator,
)

__all__ = [
    "SuperCapacitor",
    "CapacitorState",
    "CapacitorColumns",
    "charge_columns",
    "discharge_columns",
]

#: Leakage coefficient ``k`` in ``P_leak = k·C·V**exp``; together with
#: the default exponent this gives ~0.5 mW/F at the 5 V full-charge
#: voltage but only ~20 µW/F at 2.4 V, matching the strongly
#: voltage-dependent self-discharge of commodity super capacitors near
#: their rated voltage [12] and calibrated so the migration
#: efficiencies of the paper's Table 2 keep their shape (see
#: ``repro experiment table2`` and its checks).
DEFAULT_LEAK_COEFF = 5.0e-7
#: Voltage exponent of the leakage law; > 2 because the leakage
#: *current* itself grows super-linearly near the rated voltage.
DEFAULT_LEAK_EXPONENT = 4.3
#: Fixed parasitic drain of the storage path when a capacitor is
#: connected (monitor + switch leakage), watts.
DEFAULT_PARASITIC_W = 2.0e-6
#: Sub-increments of one charge/discharge call, so the voltage-dependent
#: regulator efficiency tracks the voltage within a slot.  The scalar
#: methods and the column recurrences both use it.
SUBSTEPS = 4


@dataclasses.dataclass(frozen=True)
class SuperCapacitor:
    """One physical super capacitor plus its conversion chain.

    Parameters
    ----------
    capacitance:
        ``C_h`` in farads.
    v_full:
        ``V_H``: full-charge voltage.
    v_cutoff:
        ``V_L``: cut-off voltage below which the output regulator
        cannot operate.
    cycle_efficiency:
        ``η_cycle(C)``: average charge/discharge cycle efficiency of
        the capacitor itself (ESR losses) [12].
    leak_coeff:
        Leakage coefficient ``k`` in ``P_leak = k·C·V**leak_exponent + p0``.
    leak_exponent:
        Voltage exponent of the leakage law.
    parasitic_power:
        Fixed drain ``p0`` while the capacitor is in circuit, watts.
    input_regulator / output_regulator:
        η_chr / η_dis efficiency curves (Figure 5).
    """

    capacitance: float
    v_full: float = 5.0
    v_cutoff: float = 1.0
    cycle_efficiency: float = 0.85
    leak_coeff: float = DEFAULT_LEAK_COEFF
    leak_exponent: float = DEFAULT_LEAK_EXPONENT
    parasitic_power: float = DEFAULT_PARASITIC_W
    input_regulator: RegulatorCurve = dataclasses.field(
        default_factory=default_input_regulator
    )
    output_regulator: RegulatorCurve = dataclasses.field(
        default_factory=default_output_regulator
    )

    def __post_init__(self) -> None:
        if not self.capacitance > 0:
            raise ValueError(f"capacitance must be > 0, got {self.capacitance}")
        if not 0.0 <= self.v_cutoff < self.v_full:
            raise ValueError(
                f"need 0 <= v_cutoff < v_full, got "
                f"[{self.v_cutoff}, {self.v_full}]"
            )
        if not 0.0 < self.cycle_efficiency <= 1.0:
            raise ValueError(
                f"cycle_efficiency must be in (0, 1], got "
                f"{self.cycle_efficiency}"
            )
        if self.leak_coeff < 0:
            raise ValueError(f"leak_coeff must be >= 0, got {self.leak_coeff}")
        if not self.leak_exponent > 0:
            raise ValueError(
                f"leak_exponent must be > 0, got {self.leak_exponent}"
            )
        if self.parasitic_power < 0:
            raise ValueError(
                f"parasitic_power must be >= 0, got {self.parasitic_power}"
            )

    # ------------------------------------------------------------------
    def energy_at(self, voltage: float) -> float:
        """Stored energy ``½CV²`` at a terminal voltage, joules."""
        return 0.5 * self.capacitance * voltage * voltage

    def voltage_at(self, energy: float) -> float:
        """Terminal voltage holding the given stored energy."""
        if energy < 0:
            raise ValueError(f"energy must be >= 0, got {energy}")
        return math.sqrt(2.0 * energy / self.capacitance)

    @property
    def usable_capacity(self) -> float:
        """Max energy deliverable between ``V_H`` and ``V_L``, joules."""
        return self.energy_at(self.v_full) - self.energy_at(self.v_cutoff)

    def leakage_power(self, voltage: float) -> float:
        """``P_leak(V)`` in watts."""
        if voltage < 0:
            raise ValueError(f"voltage must be >= 0, got {voltage}")
        return (
            self.leak_coeff * self.capacitance * voltage**self.leak_exponent
            + self.parasitic_power
        )

    def charge_efficiency(self, voltage: float) -> float:
        """``η_chr(V)·η_cycle(C)``: fraction of input energy stored."""
        return self.input_regulator.efficiency(voltage) * self.cycle_efficiency

    def discharge_efficiency(self, voltage: float) -> float:
        """``η_dis(V)·η_cycle(C)``: delivered energy per stored energy."""
        return self.output_regulator.efficiency(voltage) * self.cycle_efficiency

    def fresh_state(self, voltage: float | None = None) -> "CapacitorState":
        """A mutable state at the given (default: cut-off) voltage."""
        v = self.v_cutoff if voltage is None else voltage
        return CapacitorState(self, v)

    def __repr__(self) -> str:
        return (
            f"SuperCapacitor({self.capacitance:g} F, "
            f"V=[{self.v_cutoff:g}, {self.v_full:g}] V)"
        )


class CapacitorState:
    """Mutable terminal state of one super capacitor.

    All mutators work in energy terms and keep the voltage inside
    ``[0, V_H]``.  Charge/discharge are applied in :data:`SUBSTEPS`
    sub-increments so the voltage-dependent efficiencies track the
    voltage trajectory within a slot rather than the slot-start value
    of the paper's coarse slot update Eq. (1).
    """

    def __init__(self, capacitor: SuperCapacitor, voltage: float) -> None:
        if not 0.0 <= voltage <= capacitor.v_full + 1e-9:
            raise ValueError(
                f"initial voltage {voltage} outside [0, {capacitor.v_full}]"
            )
        self.capacitor = capacitor
        self.voltage = float(min(voltage, capacitor.v_full))

    # ------------------------------------------------------------------
    @property
    def stored_energy(self) -> float:
        """``½CV²``, joules."""
        return self.capacitor.energy_at(self.voltage)

    @property
    def usable_energy(self) -> float:
        """Energy above the cut-off voltage, joules (>= 0)."""
        return max(
            self.stored_energy - self.capacitor.energy_at(self.capacitor.v_cutoff),
            0.0,
        )

    @property
    def headroom(self) -> float:
        """Storable energy before reaching ``V_H``, joules."""
        return max(
            self.capacitor.energy_at(self.capacitor.v_full) - self.stored_energy,
            0.0,
        )

    def _set_energy(self, energy: float) -> None:
        energy = min(
            max(energy, 0.0), self.capacitor.energy_at(self.capacitor.v_full)
        )
        self.voltage = self.capacitor.voltage_at(energy)

    # ------------------------------------------------------------------
    def charge(self, energy_in: float) -> float:
        """Push ``energy_in`` joules of surplus into the capacitor.

        Returns the energy actually *stored* (input × efficiency,
        truncated at ``V_H``).  Input energy that cannot be stored
        because the capacitor is full is lost (the direct channel has
        nowhere else to put it).
        """
        if energy_in < 0:
            raise ValueError(f"energy_in must be >= 0, got {energy_in}")
        # Hot path of PMU.supply_slot: the substep recurrence is kept in
        # locals and written back once.  Operation order matches the
        # original property-based loop exactly (bit-identical results).
        cap = self.capacitor
        c = cap.capacitance
        v_full = cap.v_full
        e_full = 0.5 * c * v_full * v_full
        regulator = cap.input_regulator
        cycle_eta = cap.cycle_efficiency
        v = self.voltage
        energy = 0.5 * c * v * v
        v_stop = v_full - 1e-12
        stored_total = 0.0
        if energy_in == 0.0:
            # Zero input stores exactly 0.0 at any finite efficiency; what
            # is left of each substep is the ½CV² round trip of the voltage.
            for _ in range(SUBSTEPS):
                if v >= v_stop:
                    break
                new_energy = energy
                if new_energy < 0.0:
                    new_energy = 0.0
                elif new_energy > e_full:
                    new_energy = e_full
                previous = v
                v = math.sqrt(2.0 * new_energy / c)
                if v == previous:
                    break  # a fixed point: later substeps repeat this one
                energy = 0.5 * c * v * v
            self.voltage = v
            return stored_total
        chunk = energy_in / SUBSTEPS
        for _ in range(SUBSTEPS):
            if v >= v_stop:
                break
            eta = regulator.efficiency(v) * cycle_eta
            headroom = e_full - energy
            if headroom < 0.0:
                headroom = 0.0
            stored = chunk * eta
            if stored > headroom:
                stored = headroom
            new_energy = energy + stored
            if new_energy < 0.0:
                new_energy = 0.0
            elif new_energy > e_full:
                new_energy = e_full
            v = math.sqrt(2.0 * new_energy / c)
            energy = 0.5 * c * v * v
            stored_total += stored
        self.voltage = v
        return stored_total

    def discharge(self, energy_needed: float) -> float:
        """Draw energy to deliver ``energy_needed`` joules to the load.

        Returns the energy actually *delivered* (≤ ``energy_needed``);
        the capacitor loses ``delivered / (η_dis·η_cycle)``.  Delivery
        stops at the cut-off voltage.
        """
        if energy_needed < 0:
            raise ValueError(f"energy_needed must be >= 0, got {energy_needed}")
        cap = self.capacitor
        c = cap.capacitance
        e_full = 0.5 * c * cap.v_full * cap.v_full
        e_cutoff = 0.5 * c * cap.v_cutoff * cap.v_cutoff
        regulator = cap.output_regulator
        cycle_eta = cap.cycle_efficiency
        v = self.voltage
        energy = 0.5 * c * v * v
        v_stop = cap.v_cutoff + 1e-12
        delivered_total = 0.0
        chunk = energy_needed / SUBSTEPS
        for _ in range(SUBSTEPS):
            if v <= v_stop:
                break
            eta = regulator.efficiency(v) * cycle_eta
            if eta <= 0:
                break
            usable = energy - e_cutoff
            if usable < 0.0:
                usable = 0.0
            drawn = chunk / eta
            if drawn > usable:
                drawn = usable
            delivered = drawn * eta
            new_energy = energy - drawn
            if new_energy < 0.0:
                new_energy = 0.0
            elif new_energy > e_full:
                new_energy = e_full
            v = math.sqrt(2.0 * new_energy / c)
            energy = 0.5 * c * v * v
            delivered_total += delivered
        self.voltage = v
        return delivered_total

    def swap_device(self, capacitor: SuperCapacitor) -> SuperCapacitor:
        """Replace the device model under this state, keeping the charge.

        Used by runtime fault injection to impose transient leakage or
        ESR (cycle-efficiency) spikes without touching the stored
        energy: the replacement must have the same capacitance so the
        voltage↔energy mapping is unchanged.  Returns the previous
        device so callers can restore it when the fault clears.
        """
        if capacitor.capacitance != self.capacitor.capacitance:
            raise ValueError(
                "swap_device requires equal capacitance "
                f"({capacitor.capacitance} != {self.capacitor.capacitance})"
            )
        previous = self.capacitor
        self.capacitor = capacitor
        return previous

    def leak(self, duration: float) -> float:
        """Apply leakage for ``duration`` seconds; returns energy lost."""
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        before = self.stored_energy
        lost = self.capacitor.leakage_power(self.voltage) * duration
        self._set_energy(before - lost)
        return before - self.stored_energy

    def __repr__(self) -> str:
        return (
            f"CapacitorState({self.capacitor.capacitance:g} F @ "
            f"{self.voltage:.3f} V, {self.stored_energy:.2f} J)"
        )


#: How each :class:`CapacitorColumns` field is derived from a device,
#: in the scalar model's own expressions (so results stay bit-identical).
COLUMN_CONSTANTS = {
    "c": lambda d: d.capacitance,
    "half_c": lambda d: 0.5 * d.capacitance,
    "e_full": lambda d: 0.5 * d.capacitance * d.v_full * d.v_full,
    "e_cutoff": lambda d: 0.5 * d.capacitance * d.v_cutoff * d.v_cutoff,
    "v_stop_chg": lambda d: d.v_full - 1e-12,
    "v_stop_dis": lambda d: d.v_cutoff + 1e-12,
    "cyc": lambda d: d.cycle_efficiency,
    "in_eta": lambda d: d.input_regulator.eta_max,
    "in_exp": lambda d: d.input_regulator.exponent,
    "in_vh": lambda d: d.input_regulator._vhalf_pow,
    "out_eta": lambda d: d.output_regulator.eta_max,
    "out_exp": lambda d: d.output_regulator.exponent,
    "out_vh": lambda d: d.output_regulator._vhalf_pow,
}


@dataclasses.dataclass
class CapacitorColumns:
    """Device constants of independent capacitors, one array entry each.

    Every field is a float array of one length (the column count); see
    :data:`COLUMN_CONSTANTS` for how each is derived from a
    :class:`SuperCapacitor`.  Holders may overwrite entries in place
    (the batched engine re-gathers a row's active device on a switch).
    """

    c: np.ndarray
    half_c: np.ndarray
    e_full: np.ndarray
    e_cutoff: np.ndarray
    v_stop_chg: np.ndarray
    v_stop_dis: np.ndarray
    cyc: np.ndarray
    in_eta: np.ndarray
    in_exp: np.ndarray
    in_vh: np.ndarray
    out_eta: np.ndarray
    out_exp: np.ndarray
    out_vh: np.ndarray

    @classmethod
    def of(cls, devices: Sequence[SuperCapacitor]) -> "CapacitorColumns":
        """Columns for ``devices``, in order."""
        return cls(
            **{
                name: np.array([value(d) for d in devices], dtype=float)
                for name, value in COLUMN_CONSTANTS.items()
            }
        )


# The two recurrences below replay CapacitorState.charge/discharge
# (SUBSTEPS sub-increments) elementwise in the same IEEE-754 operation
# order, so a column ends bit-identical to a scalar CapacitorState.
# An ``alive`` mask stands in for the scalar ``break``: a column that
# stops updating never resumes.


def charge_columns(
    cols: CapacitorColumns,
    v: np.ndarray,
    mask: np.ndarray,
    energy_in: np.ndarray,
) -> np.ndarray:
    """Masked :meth:`CapacitorState.charge` over columns.

    ``v`` (terminal voltages) is updated in place where ``mask`` holds;
    returns the stored energy per column (0 outside ``mask``).
    """
    c, half_c = cols.c, cols.half_c
    energy = half_c * v * v
    stored_total = np.zeros(len(v))
    if not energy_in.any():
        # Zero input stores exactly 0.0 at any finite efficiency; what
        # is left of each substep is the ½CV² round trip of the voltage.
        for _ in range(SUBSTEPS):
            alive = mask & (v < cols.v_stop_chg)
            if not alive.any():
                break
            new_energy = np.minimum(np.maximum(energy, 0.0), cols.e_full)
            v_new = np.sqrt(2.0 * new_energy / c)
            if np.array_equal(v_new[alive], v[alive]):
                break  # a fixed point: later substeps repeat this one
            np.copyto(v, v_new, where=alive)
            np.copyto(energy, half_c * v_new * v_new, where=alive)
        return stored_total
    chunk = energy_in / SUBSTEPS
    for _ in range(SUBSTEPS):
        alive = mask & (v < cols.v_stop_chg)
        if not alive.any():
            break
        vp = v**cols.in_exp
        eta = (cols.in_eta * vp / (vp + cols.in_vh)) * cols.cyc
        headroom = np.maximum(cols.e_full - energy, 0.0)
        stored = np.minimum(chunk * eta, headroom)
        new_energy = np.minimum(np.maximum(energy + stored, 0.0), cols.e_full)
        v_new = np.sqrt(2.0 * new_energy / c)
        e_new = half_c * v_new * v_new
        np.copyto(v, v_new, where=alive)
        np.copyto(energy, e_new, where=alive)
        np.add(stored_total, stored, out=stored_total, where=alive)
    return stored_total


def discharge_columns(
    cols: CapacitorColumns,
    v: np.ndarray,
    mask: np.ndarray,
    energy_needed: np.ndarray,
) -> np.ndarray:
    """Masked :meth:`CapacitorState.discharge` over columns.

    ``v`` is updated in place where ``mask`` holds; returns the
    delivered energy per column (0 outside ``mask``).  A column that
    hits the cut-off stops for the remaining substeps.
    """
    c, half_c = cols.c, cols.half_c
    energy = half_c * v * v
    delivered_total = np.zeros(len(v))
    chunk = energy_needed / SUBSTEPS
    for _ in range(SUBSTEPS):
        alive = mask & (v > cols.v_stop_dis)
        if not alive.any():
            break
        vp = v**cols.out_exp
        eta = (cols.out_eta * vp / (vp + cols.out_vh)) * cols.cyc
        eta_pos = eta > 0.0
        alive &= eta_pos
        usable = np.maximum(energy - cols.e_cutoff, 0.0)
        drawn = np.minimum(chunk / np.where(eta_pos, eta, 1.0), usable)
        delivered = drawn * eta
        new_energy = np.minimum(np.maximum(energy - drawn, 0.0), cols.e_full)
        v_new = np.sqrt(2.0 * new_energy / c)
        e_new = half_c * v_new * v_new
        np.copyto(v, v_new, where=alive)
        np.copyto(energy, e_new, where=alive)
        np.add(delivered_total, delivered, out=delivered_total, where=alive)
    return delivered_total
