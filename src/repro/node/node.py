"""The dual-channel solar-powered nonvolatile sensor node.

:class:`SensorNode` assembles the architecture of the paper's Figure 3:
a solar panel feeding a direct supply channel and a "store and use"
channel with a bank of distributed super capacitors, a PMU that routes
energy and selects capacitors, and one NVP per core of the task set.
It is the hardware-side counterpart of the simulator: schedulers make
decisions, the node realises their energy consequences.
"""

from __future__ import annotations

from typing import List, Sequence

from typing import Optional

from ..energy.bank import CapacitorBank
from ..energy.capacitor import SuperCapacitor
from ..solar.panel import SolarPanel
from .dvfs import DVFSModel
from .nvp import NVP
from .pmu import PMU

__all__ = ["SensorNode"]


class SensorNode:
    """Panel + capacitor bank + PMU + NVPs.

    Parameters
    ----------
    capacitors:
        The distributed super capacitors (sizes from the offline sizing
        step).
    num_nvps:
        Number of nonvolatile processor cores (``N_k``).
    panel:
        The PV panel; defaults to the paper's 15.75 cm² / 6% panel.
    direct_efficiency:
        Efficiency of the direct supply channel.
    switch_threshold:
        ``E_th`` for the capacitor switching rule, joules.
    initial_voltages:
        Optional per-capacitor starting voltages.
    dvfs:
        Optional DVFS capability of the NVPs; when present, schedulers
        may run tasks at reduced frequency levels.
    """

    def __init__(
        self,
        capacitors: Sequence[SuperCapacitor],
        num_nvps: int,
        panel: SolarPanel | None = None,
        direct_efficiency: float = 0.98,
        switch_threshold: float = 2.0,
        initial_voltages: Sequence[float] | None = None,
        dvfs: Optional[DVFSModel] = None,
    ) -> None:
        if num_nvps < 1:
            raise ValueError(f"num_nvps must be >= 1, got {num_nvps}")
        self.panel = panel or SolarPanel()
        self.bank = CapacitorBank(capacitors, initial_voltages=initial_voltages)
        self.pmu = PMU(
            bank=self.bank,
            direct_efficiency=direct_efficiency,
            switch_threshold=switch_threshold,
        )
        self.nvps: List[NVP] = [NVP(index=i) for i in range(num_nvps)]
        self.dvfs = dvfs

    @property
    def num_nvps(self) -> int:
        return len(self.nvps)

    @property
    def num_capacitors(self) -> int:
        return len(self.bank)

    def __repr__(self) -> str:
        return (
            f"SensorNode(nvps={self.num_nvps}, "
            f"capacitors={[s.capacitor.capacitance for s in self.bank.states]})"
        )
