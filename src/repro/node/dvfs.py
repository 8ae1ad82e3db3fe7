"""Dynamic voltage and frequency scaling (DVFS) model.

The paper's related work integrates DVFS into load matching ([5], [6]:
"load-matching adaptive task scheduling ... with DVFS for better
DMR").  We reproduce that capability as an optional node feature: an
NVP may run each task at a reduced frequency level, trading speed for
power.

Scaling laws (classic CMOS): running at normalised frequency ``f``
(with the supply voltage tracking frequency) scales dynamic power
roughly with ``f³`` while static power stays; execution *rate* scales
with ``f``.  Energy per unit of work therefore falls as ``f`` drops
until static power dominates — the sweet spot the energy-optimal level
picks.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, Optional, Tuple

__all__ = ["DVFSModel"]


@dataclasses.dataclass(frozen=True)
class DVFSModel:
    """Discrete frequency levels with cubic dynamic-power scaling.

    Parameters
    ----------
    levels:
        Available normalised frequencies, ascending, ending at 1.0.
    static_fraction:
        Fraction of a task's nominal power that does not scale with
        frequency (leakage, always-on peripherals).
    """

    levels: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    static_fraction: float = 0.15

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("need at least one frequency level")
        if list(self.levels) != sorted(self.levels):
            raise ValueError(f"levels must be ascending, got {self.levels}")
        if not 0.0 < self.levels[0] or self.levels[-1] != 1.0:
            raise ValueError(
                f"levels must be in (0, 1] and include 1.0, got {self.levels}"
            )
        if not 0.0 <= self.static_fraction < 1.0:
            raise ValueError(
                f"static_fraction must be in [0, 1), got "
                f"{self.static_fraction}"
            )

    # ------------------------------------------------------------------
    @functools.cached_property
    def _power_factors(self) -> Dict[float, float]:
        """Power factor of each table level, keyed by the exact level.

        A level equal to a table entry is valid by construction, so
        looking it up here skips the tolerance scan of :meth:`_check`;
        any other level a caller passes still goes through it.
        """
        return {level: self._scaled_power(level) for level in self.levels}

    def _scaled_power(self, level: float) -> float:
        dynamic = 1.0 - self.static_fraction
        return self.static_fraction + dynamic * level**3

    def rate(self, level: float) -> float:
        """Execution progress per wall-clock second at ``level``."""
        if level not in self._power_factors:
            self._check(level)
        return level

    def power_factor(self, level: float) -> float:
        """Power at ``level`` relative to nominal (level 1.0)."""
        factor = self._power_factors.get(level)
        if factor is None:
            self._check(level)
            factor = self._scaled_power(level)
        return factor

    def energy_factor(self, level: float) -> float:
        """Energy per unit of work relative to nominal."""
        return self.power_factor(level) / self.rate(level)

    # ------------------------------------------------------------------
    def slowest_meeting(self, required_rate: float) -> Optional[float]:
        """Slowest level with ``rate >= required_rate`` (None if > 1)."""
        if required_rate < 0:
            raise ValueError(
                f"required_rate must be >= 0, got {required_rate}"
            )
        for level in self.levels:
            if self.rate(level) >= required_rate - 1e-12:
                return level
        return None

    def most_efficient(self) -> float:
        """Level with the lowest energy per unit of work."""
        return self._most_efficient

    @functools.cached_property
    def _most_efficient(self) -> float:
        return min(self.levels, key=self.energy_factor)

    def _check(self, level: float) -> None:
        if not any(abs(level - l) < 1e-9 for l in self.levels):
            raise ValueError(
                f"level {level} is not one of {self.levels}"
            )

    def is_valid_level(self, level: float) -> bool:
        return any(abs(level - l) < 1e-9 for l in self.levels)
