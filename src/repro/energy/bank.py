"""Distributed super capacitor bank with the paper's switching rule.

The node carries ``H`` super capacitors of different sizes; the PMU
connects one of them to the "store and use" channel at a time.  The
online scheduler asks for the capacitor the DBN recommends, but
switching away from a capacitor that still holds significant energy is
wasteful — the remaining charge would strand or need a lossy transfer.
Eq. (22) therefore only honours a switch request when the *active*
capacitor's usable energy has dropped below a threshold ``E_th``.

All capacitors self-discharge all the time; only the active one pays
the parasitic drain of the connected monitoring/switch circuitry.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from .capacitor import CapacitorState, SuperCapacitor

__all__ = ["CapacitorBank"]


class CapacitorBank:
    """``H`` distributed super capacitors, one active at a time.

    Parameters
    ----------
    capacitors:
        The bank, ordered; sizes are typically produced by
        :func:`repro.energy.sizing.size_bank`.
    initial_voltages:
        Per-capacitor starting voltage; defaults to each cut-off
        voltage (empty usable store).
    active_index:
        The capacitor connected at t=0.
    """

    def __init__(
        self,
        capacitors: Sequence[SuperCapacitor],
        initial_voltages: Sequence[float] | None = None,
        active_index: int = 0,
    ) -> None:
        if not capacitors:
            raise ValueError("a capacitor bank needs at least one capacitor")
        if initial_voltages is not None and len(initial_voltages) != len(
            capacitors
        ):
            raise ValueError(
                f"{len(initial_voltages)} initial voltages for "
                f"{len(capacitors)} capacitors"
            )
        self.states: List[CapacitorState] = [
            cap.fresh_state(
                None if initial_voltages is None else initial_voltages[i]
            )
            for i, cap in enumerate(capacitors)
        ]
        if not 0 <= active_index < len(capacitors):
            raise IndexError(
                f"active_index {active_index} out of range "
                f"[0, {len(capacitors)})"
            )
        self._active = active_index
        self.switch_count = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.states)

    @property
    def active_index(self) -> int:
        """Index of the capacitor wired to the store-and-use channel."""
        return self._active

    @property
    def active(self) -> CapacitorState:
        """The capacitor currently wired to the store-and-use channel."""
        return self.states[self._active]

    def voltages(self) -> np.ndarray:
        """Terminal voltage of every capacitor, bank order."""
        return np.array([s.voltage for s in self.states])

    def view_arrays(self) -> tuple:
        """``(capacitances, voltages, usable_energies)`` for a BankView."""
        states = self.states
        return (
            np.array([s.capacitor.capacitance for s in states]),
            self.voltages(),
            np.array([s.usable_energy for s in states]),
        )

    # ------------------------------------------------------------------
    def select(self, index: int) -> None:
        """Unconditionally connect capacitor ``index``."""
        if not 0 <= index < len(self.states):
            raise IndexError(
                f"index {index} out of range [0, {len(self.states)})"
            )
        if index != self._active:
            self.switch_count += 1
        self._active = index

    def request_switch(self, index: int, energy_threshold: float) -> bool:
        """Eq. (22): switch to ``index`` only if the active capacitor's
        usable energy is below ``energy_threshold``.

        Returns True when the switch happened (or was a no-op because
        the requested capacitor is already active).
        """
        if energy_threshold < 0:
            raise ValueError(
                f"energy_threshold must be >= 0, got {energy_threshold}"
            )
        if index == self._active:
            return True
        if self.active.usable_energy < energy_threshold:
            self.select(index)
            return True
        return False

    def swap_device(self, index: int, capacitor: SuperCapacitor) -> SuperCapacitor:
        """Replace the device model of capacitor ``index`` in place.

        Fault-injection hook: lets transient leakage/ESR spikes be
        imposed (and later reverted) on one bank member while its
        terminal voltage — the mutable state — is preserved.  Returns
        the previous device.
        """
        if not 0 <= index < len(self.states):
            raise IndexError(
                f"index {index} out of range [0, {len(self.states)})"
            )
        return self.states[index].swap_device(capacitor)

    # ------------------------------------------------------------------
    def leak_all(self, duration: float) -> float:
        """Self-discharge every capacitor for ``duration`` seconds.

        The parasitic (connected-circuitry) drain only applies to the
        active capacitor; idle capacitors see pure self-leakage.
        Returns the total energy lost.

        The active capacitor's update is
        :meth:`~repro.energy.capacitor.CapacitorState.leak`'s, float op
        for float op, written out here because this loop runs once per
        slot.
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        lost = 0.0
        for i, state in enumerate(self.states):
            cap = state.capacitor
            v = state.voltage
            leak_power = (
                cap.leak_coeff * cap.capacitance * v**cap.leak_exponent
                + cap.parasitic_power
            )
            before = 0.5 * cap.capacitance * v * v
            if i == self._active:
                # Full drain, clamped to [0, E_full].
                energy = before - leak_power * duration
                full = 0.5 * cap.capacitance * cap.v_full * cap.v_full
                energy = min(max(energy, 0.0), full)
            else:
                # The parasitic term is subtracted back out, not
                # omitted: (x + p0) - p0 is not x in floating point.
                idle_power = max(leak_power - cap.parasitic_power, 0.0)
                energy = max(before - idle_power * duration, 0.0)
            new_v = math.sqrt(2.0 * energy / cap.capacitance)
            state.voltage = new_v
            lost += before - 0.5 * cap.capacitance * new_v * new_v
        return lost

    def __repr__(self) -> str:
        caps = ", ".join(
            f"{'*' if i == self._active else ''}{s.capacitor.capacitance:g}F@"
            f"{s.voltage:.2f}V"
            for i, s in enumerate(self.states)
        )
        return f"CapacitorBank([{caps}])"
