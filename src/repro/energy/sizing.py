"""Super capacitor sizing (Section 4.1 of the paper).

Design-time procedure with three steps:

1. compute the daily migration-energy profile ``ΔE_{i,j,m}`` from the
   solar trace and an ASAP load profile (:func:`migration_series`);
2. per day, find the capacitance minimising the total migration loss —
   conversion, cycle and leakage losses, Eq. (10)–(11) — via
   :func:`optimal_daily_capacity`;
3. cluster the per-day optima ``{C_i^opt}`` into ``H`` values, weighted
   by the day's solar energy, and use cluster means as the capacities
   of the distributed bank (:func:`cluster_capacities`).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .capacitor import (
    CapacitorColumns,
    SuperCapacitor,
    charge_columns,
    discharge_columns,
)

__all__ = [
    "migration_series",
    "DayMigrationResult",
    "simulate_day_migration",
    "optimal_daily_capacity",
    "cluster_capacities",
    "size_bank",
    "DEFAULT_CANDIDATES",
]

#: Default capacitance candidates for the sizing search, farads (the
#: E-series values a designer would actually order).  Capped at 47 F:
#: the node's volume/price constraints rule out larger parts
#: (Section 1 of the paper), which also keeps storage scarce relative
#: to the night workload — the regime all of the paper's experiments
#: operate in.
DEFAULT_CANDIDATES: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 3.3, 4.7, 6.8, 10.0, 15.0, 22.0, 33.0, 47.0,
)


def migration_series(
    solar_power: np.ndarray, load_power: np.ndarray, slot_seconds: float
) -> np.ndarray:
    """Per-slot migrated energy ``ΔE`` (Eq. 2), joules.

    Positive entries are surplus pushed into the capacitor; negative
    entries are deficits drawn from it.
    """
    solar = np.asarray(solar_power, dtype=float)
    load = np.asarray(load_power, dtype=float)
    if solar.shape != load.shape:
        raise ValueError(
            f"solar {solar.shape} and load {load.shape} shapes differ"
        )
    if not slot_seconds > 0:
        raise ValueError(f"slot_seconds must be > 0, got {slot_seconds}")
    return (solar - load) * slot_seconds


@dataclasses.dataclass(frozen=True)
class DayMigrationResult:
    """Losses and service of one day's migration through one capacitor."""

    total_loss: float
    conversion_loss: float
    leakage_loss: float
    overflow_loss: float
    served: float
    unserved: float
    final_voltage: float

    @property
    def service_ratio(self) -> float:
        """Fraction of the deficit demand actually served."""
        demand = self.served + self.unserved
        return self.served / demand if demand > 0 else 1.0


def _migrate_columns(
    devices: Sequence[SuperCapacitor],
    delta_e: np.ndarray,
    slot_seconds: float,
    initial_voltage: Optional[float] = None,
) -> List[DayMigrationResult]:
    """Run column ``j`` of a ``(slots, n)`` ``ΔE`` matrix through ``devices[j]``.

    Every column advances in lock step, slot by slot: surplus columns
    charge, deficit columns discharge (the masked recurrences of
    :mod:`repro.energy.capacitor`), every column leaks.  Each column's
    floats are those of a scalar :class:`CapacitorState` run.
    """
    cols = CapacitorColumns.of(devices)
    v = np.array(
        [d.fresh_state(initial_voltage).voltage for d in devices], dtype=float
    )
    baseline = cols.half_c * v * v
    leak_coeff_cap = np.array([d.leak_coeff * d.capacitance for d in devices])
    parasitic = np.array([d.parasitic_power for d in devices])
    exponents = [d.leak_exponent for d in devices]
    n = len(devices)
    leakage, overflow = np.zeros(n), np.zeros(n)
    served, unserved = np.zeros(n), np.zeros(n)
    for de in delta_e:
        surplus = de > 0
        if surplus.any():
            vp = v**cols.in_exp
            eta_before = (cols.in_eta * vp / (vp + cols.in_vh)) * cols.cyc
            stored = charge_columns(cols, v, surplus, de)
            # Input that the full capacitor rejected (approximately:
            # what an unconstrained charge at the slot-start efficiency
            # would have consumed beyond what was actually consumed).
            consumed = stored / np.maximum(eta_before, 1e-9)
            np.add(
                overflow, np.maximum(de - consumed, 0.0), out=overflow,
                where=surplus,
            )
        deficit = de < 0
        if deficit.any():
            need = -de
            got = discharge_columns(cols, v, deficit, need)
            np.add(served, got, out=served, where=deficit)
            np.add(
                unserved, np.maximum(need - got, 0.0), out=unserved,
                where=deficit,
            )
        # CapacitorState.leak; the voltage power stays libm ``pow``.
        before = cols.half_c * v * v
        powv = np.array(list(map(pow, v.tolist(), exponents)))
        lost = (leak_coeff_cap * powv + parasitic) * slot_seconds
        energy = np.minimum(np.maximum(before - lost, 0.0), cols.e_full)
        v[:] = np.sqrt(2.0 * energy / cols.c)
        leakage += before - cols.half_c * v * v

    # Conversion loss from the exact energy balance: surplus input is
    # either rejected (overflow), leaked, delivered to deficit slots,
    # still stored, or lost in conversion.
    residual = cols.half_c * v * v - baseline
    results = []
    for column, leak, over, got, short, resid, volt in zip(
        delta_e.T,
        leakage.tolist(),
        overflow.tolist(),
        served.tolist(),
        unserved.tolist(),
        residual.tolist(),
        v.tolist(),
    ):
        total_in = float(column[column > 0].sum())
        conversion = max(total_in - over - leak - got - resid, 0.0)
        results.append(
            DayMigrationResult(
                total_loss=conversion + leak + over,
                conversion_loss=conversion,
                leakage_loss=leak,
                overflow_loss=over,
                served=got,
                unserved=short,
                final_voltage=volt,
            )
        )
    return results


def _migrate_days(
    daily_delta_e: Sequence[np.ndarray],
    devices: Sequence[SuperCapacitor],
    slot_seconds: float,
    initial_voltage: Optional[float] = None,
) -> List[List[DayMigrationResult]]:
    """``results[day][j]``: each day's series through each device.

    Days of equal length share one :func:`_migrate_columns` pass, one
    column per (day, device) pair.
    """
    days = [np.asarray(de, dtype=float) for de in daily_delta_e]
    h = len(devices)
    results: List[List[DayMigrationResult]] = [[] for _ in days]
    for length in sorted({len(de) for de in days}):
        members = [i for i, de in enumerate(days) if len(de) == length]
        block = np.repeat(
            np.stack([days[i] for i in members], axis=1), h, axis=1
        )
        flat = _migrate_columns(
            list(devices) * len(members), block, slot_seconds, initial_voltage
        )
        for pos, i in enumerate(members):
            results[i] = flat[pos * h : (pos + 1) * h]
    return results


def simulate_day_migration(
    capacitor: SuperCapacitor,
    delta_e: np.ndarray,
    slot_seconds: float,
    initial_voltage: Optional[float] = None,
) -> DayMigrationResult:
    """Run one day's ``ΔE`` series through a capacitor (Eq. 1, 10, 11).

    Surplus slots charge, deficit slots discharge, every slot leaks.
    Losses follow Eq. (10): energy that entered or was requested but
    did not reach the load, split by mechanism.
    """
    results = _migrate_days([delta_e], [capacitor], slot_seconds, initial_voltage)
    return results[0][0]


def _best_candidate(
    candidates: Sequence[float], results: Sequence[DayMigrationResult]
) -> Tuple[float, DayMigrationResult]:
    """The least-loss candidate among those serving within 5% of the best."""
    best_served = max(r.served for r in results)
    tolerance = 0.05 * best_served if best_served > 0 else 0.0
    viable = [
        (c, r)
        for c, r in zip(candidates, results)
        if r.served >= best_served - tolerance
    ]
    return min(viable, key=lambda item: item[1].total_loss)


def optimal_daily_capacity(
    delta_e: np.ndarray,
    slot_seconds: float,
    candidates: Sequence[float] = DEFAULT_CANDIDATES,
    **capacitor_kwargs,
) -> Tuple[float, DayMigrationResult]:
    """Capacitance with the smallest migration loss for one day (Eq. 10).

    Candidates with worse *service* (energy actually delivered to
    deficit slots) are only preferred if no candidate serves more, so
    a tiny capacitor cannot win simply by storing (and thus losing)
    nothing.
    """
    if not candidates:
        raise ValueError("need at least one candidate capacitance")
    devices = [SuperCapacitor(capacitance=c, **capacitor_kwargs) for c in candidates]
    return _best_candidate(
        candidates, _migrate_days([delta_e], devices, slot_seconds)[0]
    )


def cluster_capacities(
    optima: Sequence[float],
    weights: Optional[Sequence[float]] = None,
    num_clusters: int = 4,
    max_iterations: int = 100,
) -> List[float]:
    """Cluster per-day optimal capacities into ``H`` bank values.

    Weighted 1-D k-means on log-capacitance (the paper clusters the
    per-day optima "based on the corresponding solar power", hence the
    solar-energy weights).  Returns the cluster means in ascending
    order; fewer clusters are returned when the optima take fewer
    distinct values.
    """
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    values = np.asarray(optima, dtype=float)
    if len(values) == 0:
        raise ValueError("need at least one per-day optimum")
    if np.any(values <= 0):
        raise ValueError("capacities must be > 0")
    w = (
        np.ones_like(values)
        if weights is None
        else np.asarray(weights, dtype=float)
    )
    if w.shape != values.shape:
        raise ValueError("weights must match optima in length")
    if np.any(w < 0) or w.sum() <= 0:
        raise ValueError("weights must be >= 0 with a positive sum")

    unique = np.unique(values)
    k = min(num_clusters, len(unique))
    log_v = np.log10(values)
    centres = np.quantile(log_v, np.linspace(0.0, 1.0, k))
    centres = np.unique(centres)
    k = len(centres)

    for _ in range(max_iterations):
        assign = np.argmin(np.abs(log_v[:, None] - centres[None, :]), axis=1)
        new_centres = centres.copy()
        for j in range(k):
            mask = assign == j
            if mask.any():
                new_centres[j] = np.average(log_v[mask], weights=w[mask])
        if np.allclose(new_centres, centres):
            break
        centres = new_centres

    assign = np.argmin(np.abs(log_v[:, None] - centres[None, :]), axis=1)
    means = []
    for j in range(k):
        mask = assign == j
        if mask.any():
            means.append(float(np.average(values[mask], weights=w[mask])))
    return sorted(means)


def size_bank(
    daily_delta_e: Sequence[np.ndarray],
    slot_seconds: float,
    num_capacitors: int = 4,
    candidates: Sequence[float] = DEFAULT_CANDIDATES,
    daily_weights: Optional[Sequence[float]] = None,
    **capacitor_kwargs,
) -> List[SuperCapacitor]:
    """Full Section 4.1 pipeline: per-day optima → clustered bank.

    Every (day, candidate) pair runs as one column of a single
    lock-step pass (:func:`_migrate_days`).
    """
    if not candidates:
        raise ValueError("need at least one candidate capacitance")
    devices = [SuperCapacitor(capacitance=c, **capacitor_kwargs) for c in candidates]
    optima = [
        _best_candidate(candidates, results)[0]
        for results in _migrate_days(daily_delta_e, devices, slot_seconds)
    ]
    weights = daily_weights
    if weights is None:
        weights = [float(np.abs(de).sum()) for de in daily_delta_e]
        if sum(weights) <= 0:
            weights = None
    capacities = cluster_capacities(
        optima, weights=weights, num_clusters=num_capacitors
    )
    return [
        SuperCapacitor(capacitance=c, **capacitor_kwargs) for c in capacities
    ]
