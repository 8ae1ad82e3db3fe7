"""Energy migration: moving surplus solar energy through a capacitor.

"Energy migration" in the paper is the act of storing surplus daytime
energy in a super capacitor and releasing it later (e.g. at night).  A
migration *pattern* is characterised by its quantity (joules offered at
the input) and its distance (total duration); Table 2 of the paper
measures migration efficiency for {1, 10, 50, 100} F capacitors under
(7 J, 60 min) and (30 J, 400 min) patterns and validates the analytical
slot model against the physical node.

This module provides both sides of that validation:

* :func:`simulate_migration` — the paper's slot-level model
  (Eq. (1)–(3)): piecewise charge / hold / discharge at Δt resolution
  with voltage-dependent conversion efficiency and leakage;
* :class:`NonidealParams` + the ``nonideal=`` argument — a
  fine-timestep reference simulator standing in for the bench
  measurement: per-device parameter spread, dielectric-absorption
  transient after charging, and ESR-like extra loss at high current,
  so "model vs test" disagrees by a few percent the way the paper's
  Table 2 does (average error 5.38%).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .capacitor import SuperCapacitor

__all__ = [
    "MigrationPattern",
    "MigrationResult",
    "NonidealParams",
    "simulate_migration",
    "migration_efficiency",
]


@dataclasses.dataclass(frozen=True)
class MigrationPattern:
    """A charge / hold / discharge migration episode.

    Parameters
    ----------
    quantity:
        Energy offered at the input over the charge phase, joules.
    distance_seconds:
        Total episode duration ("migration distance" in the paper).
    charge_fraction / hold_fraction:
        Fractions of the distance spent charging and holding; the
        remainder is the discharge window.
    """

    quantity: float
    distance_seconds: float
    charge_fraction: float = 0.4
    hold_fraction: float = 0.3

    def __post_init__(self) -> None:
        if not self.quantity > 0:
            raise ValueError(f"quantity must be > 0, got {self.quantity}")
        if not self.distance_seconds > 0:
            raise ValueError(
                f"distance_seconds must be > 0, got {self.distance_seconds}"
            )
        if not 0.0 < self.charge_fraction < 1.0:
            raise ValueError(
                f"charge_fraction must be in (0, 1), got {self.charge_fraction}"
            )
        if not 0.0 <= self.hold_fraction < 1.0:
            raise ValueError(
                f"hold_fraction must be in [0, 1), got {self.hold_fraction}"
            )
        if self.charge_fraction + self.hold_fraction >= 1.0:
            raise ValueError(
                "charge_fraction + hold_fraction must leave room for the "
                "discharge window"
            )

    @property
    def charge_seconds(self) -> float:
        """Duration of the charge phase, seconds."""
        return self.charge_fraction * self.distance_seconds

    @property
    def hold_seconds(self) -> float:
        """Duration of the hold phase, seconds."""
        return self.hold_fraction * self.distance_seconds

    @property
    def discharge_seconds(self) -> float:
        """Duration of the discharge phase, seconds."""
        return (
            self.distance_seconds - self.charge_seconds - self.hold_seconds
        )

    @classmethod
    def table2(cls, quantity_j: float, distance_min: float) -> "MigrationPattern":
        """Pattern in the paper's Table 2 units (joules, minutes)."""
        return cls(quantity=quantity_j, distance_seconds=distance_min * 60.0)


@dataclasses.dataclass(frozen=True)
class NonidealParams:
    """Second-order effects for the "measurement" reference simulator.

    Parameters are relative perturbations / extra physics applied on
    top of the analytical model; a fixed ``seed`` derives per-device
    biases so the same capacitor always measures the same way.
    """

    seed: int = 42
    efficiency_spread: float = 0.04
    leak_spread: float = 0.10
    #: Dielectric absorption: extra self-discharge right after charge,
    #: as a fraction of the freshly stored energy, decaying with tau.
    dielectric_fraction: float = 0.015
    dielectric_tau_seconds: float = 900.0

    def device_bias(self, capacitor: SuperCapacitor) -> tuple[float, float]:
        """(efficiency multiplier, leakage multiplier) for one device."""
        key = int(capacitor.capacitance * 1000) ^ (self.seed * 0x9E3779B1)
        rng = np.random.default_rng(key & 0x7FFFFFFF)
        eff = 1.0 + rng.uniform(-1.0, 1.0) * self.efficiency_spread
        leak = 1.0 + rng.uniform(-1.0, 1.0) * self.leak_spread
        return eff, leak


@dataclasses.dataclass(frozen=True)
class MigrationResult:
    """Outcome of one migration episode."""

    delivered: float
    offered: float
    stored_peak: float
    conversion_loss: float
    leakage_loss: float
    overflow_loss: float
    stranded: float
    final_voltage: float

    @property
    def efficiency(self) -> float:
        """Delivered / offered energy."""
        return self.delivered / self.offered if self.offered > 0 else 0.0


def simulate_migration(
    capacitor: SuperCapacitor,
    pattern: MigrationPattern,
    time_step: float = 30.0,
    initial_voltage: Optional[float] = None,
    nonideal: Optional[NonidealParams] = None,
) -> MigrationResult:
    """Run one charge / hold / discharge episode.

    With ``nonideal=None`` this is the paper's analytical model at slot
    resolution Δt = ``time_step``; with a :class:`NonidealParams` it
    becomes the fine-grained "measurement" reference (callers should
    then also pass a small ``time_step``).
    """
    if not time_step > 0:
        raise ValueError(f"time_step must be > 0, got {time_step}")

    eff_bias, leak_bias = (1.0, 1.0)
    if nonideal is not None:
        eff_bias, leak_bias = nonideal.device_bias(capacitor)

    state = capacitor.fresh_state(initial_voltage)
    baseline = state.stored_energy

    offered = 0.0
    absorbed = 0.0  # energy actually stored (post conversion)
    delivered = 0.0
    drawn = 0.0  # energy removed from the capacitor for the load
    leakage_loss = 0.0
    overflow_loss = 0.0
    stored_peak = state.stored_energy
    time_since_charge = np.inf

    def leak_step(dt: float) -> None:
        nonlocal leakage_loss, time_since_charge
        before = state.stored_energy
        state.leak(dt)
        extra = 0.0
        if nonideal is not None:
            # Device leakage bias.
            extra = (before - state.stored_energy) * (leak_bias - 1.0)
            # Dielectric absorption transient after recent charging.
            if np.isfinite(time_since_charge):
                freshness = np.exp(
                    -time_since_charge / nonideal.dielectric_tau_seconds
                )
                extra += (
                    nonideal.dielectric_fraction
                    * freshness
                    * state.usable_energy
                    * (dt / nonideal.dielectric_tau_seconds)
                )
            if extra > 0:
                new_energy = max(state.stored_energy - extra, 0.0)
                state.voltage = capacitor.voltage_at(new_energy)
        leakage_loss += before - state.stored_energy + max(extra, 0.0)
        time_since_charge += dt

    # Charge phase: constant input power.
    p_in = pattern.quantity / pattern.charge_seconds
    steps = max(int(round(pattern.charge_seconds / time_step)), 1)
    dt = pattern.charge_seconds / steps
    for _ in range(steps):
        chunk = p_in * dt
        offered += chunk
        stored = state.charge(chunk * eff_bias)
        absorbed += stored
        if stored < chunk * 1e-6 or state.headroom <= 1e-12:
            overflow_loss += max(chunk - stored / max(eff_bias, 1e-9), 0.0)
        time_since_charge = 0.0
        leak_step(dt)
        stored_peak = max(stored_peak, state.stored_energy)

    # Hold phase.
    if pattern.hold_seconds > 0:
        steps = max(int(round(pattern.hold_seconds / time_step)), 1)
        dt = pattern.hold_seconds / steps
        for _ in range(steps):
            leak_step(dt)

    # Discharge phase: drain the usable energy evenly over the window.
    steps = max(int(round(pattern.discharge_seconds / time_step)), 1)
    dt = pattern.discharge_seconds / steps
    for step in range(steps):
        remaining_steps = steps - step
        want = state.usable_energy / remaining_steps
        before = state.stored_energy
        got = state.discharge(want) * eff_bias
        delivered += got
        drawn += before - state.stored_energy
        leak_step(dt)

    stranded = state.usable_energy
    conversion_loss = max(
        (offered - overflow_loss) - absorbed, 0.0
    ) + max(drawn - delivered, 0.0)
    return MigrationResult(
        delivered=delivered,
        offered=offered,
        stored_peak=stored_peak - baseline,
        conversion_loss=conversion_loss,
        leakage_loss=leakage_loss,
        overflow_loss=overflow_loss,
        stranded=stranded,
        final_voltage=state.voltage,
    )


def migration_efficiency(
    capacitor: SuperCapacitor,
    pattern: MigrationPattern,
    time_step: float = 30.0,
    nonideal: Optional[NonidealParams] = None,
) -> float:
    """Delivered / offered energy for one episode."""
    return simulate_migration(
        capacitor, pattern, time_step=time_step, nonideal=nonideal
    ).efficiency
