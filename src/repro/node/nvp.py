"""Nonvolatile processor (NVP) model.

The node executes tasks on ferroelectric-flip-flop based nonvolatile
processors [13, 14]: when supply power fails, an NVP backs up its
architectural state in-place and resumes later without re-execution.
For scheduling this means task progress is *retained* across brownouts
— the defining property the simulator relies on — at the price of a
small backup/restore energy per power cycle, which we model so that
frequent brownouts are not entirely free.
"""

from __future__ import annotations

import dataclasses

__all__ = ["NVP"]


@dataclasses.dataclass
class NVP:
    """One nonvolatile processor core.

    Parameters
    ----------
    index:
        Core id; tasks bind to cores by this index (``A_k``).
    backup_energy:
        Energy to checkpoint state into FeFF on power failure, joules.
        The paper's 3 µs wake-up NVP [13] makes this tiny but nonzero.
    restore_energy:
        Energy to restore state on power-up, joules.
    """

    index: int
    backup_energy: float = 3.0e-6
    restore_energy: float = 3.0e-6
    powered: bool = True
    brownout_count: int = 0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"index must be >= 0, got {self.index}")
        if self.backup_energy < 0 or self.restore_energy < 0:
            raise ValueError("backup/restore energies must be >= 0")

    def power_fail(self) -> float:
        """Transition to off; returns the backup energy spent."""
        if not self.powered:
            return 0.0
        self.powered = False
        self.brownout_count += 1
        return self.backup_energy

    def power_up(self) -> float:
        """Transition to on; returns the restore energy spent."""
        if self.powered:
            return 0.0
        self.powered = True
        return self.restore_energy
