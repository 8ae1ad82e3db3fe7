"""Power management unit (PMU).

The PMU of the dual-channel architecture (Figure 3 of the paper) does
three things based on the scheduling results: it switches between the
direct supply channel and the "store and use" channel, selects which
distributed super capacitor is connected, and gates power to the NVPs.

Channel semantics implemented here:

* the **direct channel** feeds the load straight from the panel at
  efficiency ``direct_efficiency`` (close to 1 — its whole point);
* when solar exceeds the load, the surplus is routed into the active
  super capacitor (through the input regulator, handled by the
  capacitor model);
* when the load exceeds solar, the deficit is drawn from the active
  super capacitor (through the output regulator).

Capacitor switching honours the Eq. (22) threshold rule via
:meth:`request_capacitor`.
"""

from __future__ import annotations

import dataclasses

from ..energy.bank import CapacitorBank
from ..obs.events import NULL_OBSERVER, CapacitorSwitchEvent

__all__ = ["PMU"]


@dataclasses.dataclass
class PMU:
    """Channel router and capacitor selector.

    Parameters
    ----------
    bank:
        The distributed super capacitor bank.
    direct_efficiency:
        Efficiency of the direct solar→load channel.
    switch_threshold:
        ``E_th`` of Eq. (22): a requested capacitor change is honoured
        only once the active capacitor's usable energy drops below
        this, joules.
    """

    bank: CapacitorBank
    direct_efficiency: float = 0.98
    switch_threshold: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.direct_efficiency <= 1.0:
            raise ValueError(
                f"direct_efficiency must be in (0, 1], got "
                f"{self.direct_efficiency}"
            )
        if self.switch_threshold < 0:
            raise ValueError(
                f"switch_threshold must be >= 0, got {self.switch_threshold}"
            )
        # Event emitter; the engine attaches its observer at run start.
        # Not a dataclass field: repr/eq stay as before.
        self.observer = NULL_OBSERVER
        # Fault-injection hook: while True, the capacitor-selection
        # switch is stuck and every request is refused (a stuck
        # regulator/mux); the direct and storage channels keep working.
        self.switch_locked = False

    # ------------------------------------------------------------------
    def request_capacitor(self, index: int) -> bool:
        """Apply the Eq. (22) switching rule; True if now active."""
        previous = self.bank.active_index
        usable = self.bank.active.usable_energy
        if self.switch_locked:
            accepted = index == previous
        else:
            accepted = self.bank.request_switch(index, self.switch_threshold)
        if self.observer.enabled:
            self.observer.emit(CapacitorSwitchEvent(
                previous=previous,
                requested=index,
                accepted=accepted,
                forced=False,
                active_usable_energy=usable,
                threshold=self.switch_threshold,
            ))
        return accepted

    def force_capacitor(self, index: int) -> None:
        """Unconditional switch (used by offline/oracle schedulers)."""
        previous = self.bank.active_index
        usable = self.bank.active.usable_energy
        self.bank.select(index)
        if self.observer.enabled:
            self.observer.emit(CapacitorSwitchEvent(
                previous=previous,
                requested=index,
                accepted=True,
                forced=True,
                active_usable_energy=usable,
                threshold=self.switch_threshold,
            ))

    # ------------------------------------------------------------------
    def supply_slot(
        self, solar_power: float, load_power: float, slot_seconds: float
    ) -> "SlotEnergyFlow":
        """Route energy for one slot; returns the realised flow.

        When storage cannot cover the whole deficit the load runs for
        the covered fraction of the slot and the panel charges the
        capacitor for the rest (the NVPs retain progress meanwhile).
        """
        if solar_power < 0 or load_power < 0:
            raise ValueError("powers must be >= 0")
        if not slot_seconds > 0:
            raise ValueError(f"slot_seconds must be > 0, got {slot_seconds}")

        usable_solar = solar_power * self.direct_efficiency
        active = self.bank.active
        if load_power <= 0.0:
            stored = active.charge(usable_solar * slot_seconds)
            return SlotEnergyFlow(
                run_fraction=1.0,
                direct_energy=0.0,
                storage_energy=0.0,
                charged_energy=stored,
                offered_surplus=usable_solar * slot_seconds,
            )

        if usable_solar >= load_power:
            surplus = (usable_solar - load_power) * slot_seconds
            stored = active.charge(surplus)
            return SlotEnergyFlow(
                run_fraction=1.0,
                direct_energy=load_power * slot_seconds,
                storage_energy=0.0,
                charged_energy=stored,
                offered_surplus=surplus,
            )

        deficit_power = load_power - usable_solar
        needed = deficit_power * slot_seconds
        delivered = active.discharge(needed)
        fraction = min(delivered / needed, 1.0) if needed > 0 else 1.0
        # After brownout the panel keeps charging the capacitor.
        idle_seconds = (1.0 - fraction) * slot_seconds
        offered_idle = usable_solar * idle_seconds
        stored = active.charge(offered_idle) if offered_idle > 0 else 0.0
        return SlotEnergyFlow(
            run_fraction=fraction,
            direct_energy=usable_solar * fraction * slot_seconds,
            storage_energy=delivered,
            charged_energy=stored,
            offered_surplus=offered_idle,
        )


@dataclasses.dataclass(frozen=True)
class SlotEnergyFlow:
    """Realised energy routing of one slot.

    Attributes
    ----------
    run_fraction:
        Fraction of the slot the load actually ran (1.0 = no brownout).
    direct_energy:
        Energy delivered to the load via the direct channel, joules.
    storage_energy:
        Energy delivered to the load from the capacitor, joules.
    charged_energy:
        Energy stored into the capacitor this slot (post-efficiency).
    offered_surplus:
        Surplus energy presented to the capacitor (pre-efficiency).
    """

    run_fraction: float
    direct_energy: float
    storage_energy: float
    charged_energy: float
    offered_surplus: float

    @property
    def load_energy(self) -> float:
        """Total energy the load consumed this slot."""
        return self.direct_energy + self.storage_energy


__all__.append("SlotEnergyFlow")
