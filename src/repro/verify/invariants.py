"""Composable run-level invariant checkers.

Each checker consumes a finished :class:`~repro.sim.recorder.
SimulationResult` (and, where available, the run's observability event
stream) and returns a :class:`~repro.verify.report.CheckOutcome`.  The
checks encode what the paper's physics guarantees for *any* legal
scheduler:

``energy-conservation``
    Per-period accounting closes (load = direct + storage), no flow is
    negative, the load never consumes more than the harvest, storage
    never delivers more than was ever charged into it (global energy
    migration only time-shifts, with losses).
``voltage-bounds``
    Every observed capacitor voltage lies in ``[0, V_max]`` and every
    run fraction in ``[0, 1]``; load power never exceeds the
    workload's physical maximum.
``nvp-charge``
    Brownout bookkeeping is non-negative and self-consistent: the NVP
    backup path never delivers more energy than the slot needed, never
    a negative amount, and per-period brownout counts agree with the
    emitted brownout events.
``dmr-accounting``
    Per-period DMR is ``miss_count / |tasks|`` in ``[0, 1]`` and the
    accumulated DMR follows the Eq. (19) running-mean recurrence.
``brownout-discipline``
    No scheduled work during a full power failure: slots that chose no
    task draw no load power and see no brownout; every partial slot
    (run fraction < 1) has a matching brownout event and vice versa.
``slot-legality``
    Every emitted slot decision respects readiness (Eq. 7) and the
    one-task-per-NVP rule (Eq. 9), and the recorded load power equals
    the sum of the chosen tasks' powers (no-DVFS runs).

:func:`verify_run` applies every check to one finished run;
:func:`~repro.verify.runner.verified_simulation` is its observed-run
driver.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..sim.recorder import SimulationResult
from ..tasks.graph import TaskGraph
from .report import CheckOutcome, Violation

__all__ = [
    "RunContext",
    "INVARIANT_CHECKS",
    "check_energy_conservation",
    "check_voltage_bounds",
    "check_nvp_charge",
    "check_dmr_accounting",
    "check_brownout_discipline",
    "check_slot_legality",
    "verify_run",
]


@dataclasses.dataclass
class RunContext:
    """Everything a checker may consult about one finished run.

    ``events`` is the run's observability record stream (for example a
    :class:`~repro.obs.sinks.RingBufferSink`'s ``records``); checkers
    that need events degrade to a skipped outcome when it is empty.
    ``initial_usable_energy`` is the bank's usable energy at t=0
    (zero for the default cut-off start) — the storage-delivery bound
    allows it.  ``check_load_power`` is False for DVFS runs, where load
    power is legitimately below the sum of task powers
    (:func:`~repro.verify.runner.verified_simulation` sets it from the
    node).
    """

    result: SimulationResult
    graph: TaskGraph
    events: Sequence[dict] = ()
    v_max: Optional[float] = None
    label: str = ""
    initial_usable_energy: float = 0.0
    check_load_power: bool = True
    abs_tol: float = 1e-9
    energy_tol: float = 1e-6


def _outcome(name: str, ctx: RunContext) -> CheckOutcome:
    return CheckOutcome(name=name, subject=ctx.label)


def _events_of(ctx: RunContext, kind: str) -> List[dict]:
    return [e for e in ctx.events if e.get("kind") == kind]


# ----------------------------------------------------------------------
def check_energy_conservation(ctx: RunContext) -> CheckOutcome:
    out = _outcome("energy-conservation", ctx)
    solar_sum = load_sum = charged_sum = storage_sum = 0.0
    for p in ctx.result.periods:
        out.checked += 1
        if abs(p.load_energy - (p.direct_energy + p.storage_energy)) > (
            ctx.abs_tol
        ):
            out.violations.append(
                Violation(
                    check=out.name,
                    message=(
                        f"load {p.load_energy!r} J != direct "
                        f"{p.direct_energy!r} + storage "
                        f"{p.storage_energy!r} J"
                    ),
                    day=p.day,
                    period=p.period,
                )
            )
        for field in (
            "solar_energy",
            "load_energy",
            "direct_energy",
            "storage_energy",
            "charged_energy",
            "offered_surplus",
            "leakage_energy",
        ):
            value = getattr(p, field)
            if value < -ctx.abs_tol:
                out.violations.append(
                    Violation(
                        check=out.name,
                        message=f"negative {field}: {value!r} J",
                        day=p.day,
                        period=p.period,
                    )
                )
        if p.charged_energy > p.offered_surplus + ctx.energy_tol:
            out.violations.append(
                Violation(
                    check=out.name,
                    message=(
                        f"charged {p.charged_energy!r} J exceeds the "
                        f"offered surplus {p.offered_surplus!r} J"
                    ),
                    day=p.day,
                    period=p.period,
                )
            )
        solar_sum += p.solar_energy
        load_sum += p.load_energy
        charged_sum += p.charged_energy
        storage_sum += p.storage_energy
        if load_sum > solar_sum + ctx.energy_tol:
            out.violations.append(
                Violation(
                    check=out.name,
                    message=(
                        f"cumulative load {load_sum!r} J exceeds "
                        f"cumulative harvest {solar_sum!r} J"
                    ),
                    day=p.day,
                    period=p.period,
                )
            )
        if storage_sum > (
            charged_sum + ctx.initial_usable_energy + ctx.energy_tol
        ):
            out.violations.append(
                Violation(
                    check=out.name,
                    message=(
                        f"storage delivered {storage_sum!r} J but only "
                        f"{charged_sum!r} J was ever charged "
                        f"(+{ctx.initial_usable_energy!r} J initial)"
                    ),
                    day=p.day,
                    period=p.period,
                )
            )
    return out


def check_voltage_bounds(ctx: RunContext) -> CheckOutcome:
    out = _outcome("voltage-bounds", ctx)
    v_max = ctx.v_max
    for p in ctx.result.periods:
        out.checked += 1
        sv = np.asarray(p.start_voltages)
        if np.any(sv < -1e-9):
            out.violations.append(
                Violation(
                    check=out.name,
                    message=f"negative start voltage {sv.min()!r} V",
                    day=p.day,
                    period=p.period,
                )
            )
        if v_max is not None and np.any(sv > v_max + 1e-6):
            out.violations.append(
                Violation(
                    check=out.name,
                    message=(
                        f"start voltage {sv.max()!r} V above V_max "
                        f"{v_max!r} V"
                    ),
                    day=p.day,
                    period=p.period,
                )
            )
    slots = ctx.result.slots
    if slots is None:
        out.notes = "no per-slot arrays recorded; period-level only"
        return out
    tl = ctx.result.timeline
    max_load = ctx.graph.max_power()

    def _flag(mask: np.ndarray, message_of: Callable[[int], str]) -> None:
        for flat in np.flatnonzero(mask)[:10]:
            flat_p, slot = divmod(int(flat), tl.slots_per_period)
            day, period = tl.unflatten_period(flat_p)
            out.violations.append(
                Violation(
                    check=out.name,
                    message=message_of(int(flat)),
                    day=day,
                    period=period,
                    slot=slot,
                )
            )

    out.checked += len(slots.active_voltage)
    _flag(
        slots.active_voltage < -1e-9,
        lambda i: f"active voltage {slots.active_voltage[i]!r} V < 0",
    )
    if v_max is not None:
        _flag(
            slots.active_voltage > v_max + 1e-6,
            lambda i: (
                f"active voltage {slots.active_voltage[i]!r} V above "
                f"V_max {v_max!r} V"
            ),
        )
    _flag(
        (slots.run_fraction < -1e-12) | (slots.run_fraction > 1.0 + 1e-9),
        lambda i: f"run fraction {slots.run_fraction[i]!r} outside [0, 1]",
    )
    if ctx.check_load_power:
        _flag(
            slots.load_power > max_load + 1e-9,
            lambda i: (
                f"load power {slots.load_power[i]!r} W above the "
                f"workload maximum {max_load!r} W"
            ),
        )
    _flag(
        slots.solar_power < -1e-12,
        lambda i: f"negative solar power {slots.solar_power[i]!r} W",
    )
    return out


def check_nvp_charge(ctx: RunContext) -> CheckOutcome:
    out = _outcome("nvp-charge", ctx)
    tl = ctx.result.timeline
    for p in ctx.result.periods:
        out.checked += 1
        if not 0 <= p.brownout_slots <= tl.slots_per_period:
            out.violations.append(
                Violation(
                    check=out.name,
                    message=(
                        f"brownout_slots {p.brownout_slots} outside "
                        f"[0, {tl.slots_per_period}]"
                    ),
                    day=p.day,
                    period=p.period,
                )
            )
    events = _events_of(ctx, "brownout")
    if not ctx.events:
        out.notes = "no event stream; record-level only"
        return out
    per_period: Dict[tuple, int] = {}
    for e in events:
        out.checked += 1
        per_period[(e["day"], e["period"])] = (
            per_period.get((e["day"], e["period"]), 0) + 1
        )
        delivered = e["delivered_energy"]
        needed = e["needed_energy"]
        if delivered < -ctx.abs_tol:
            out.violations.append(
                Violation(
                    check=out.name,
                    message=f"negative brownout delivery {delivered!r} J",
                    day=e["day"],
                    period=e["period"],
                    slot=e["slot"],
                )
            )
        if delivered > needed + ctx.abs_tol:
            out.violations.append(
                Violation(
                    check=out.name,
                    message=(
                        f"brownout delivered {delivered!r} J, more than "
                        f"the {needed!r} J the slot needed"
                    ),
                    day=e["day"],
                    period=e["period"],
                    slot=e["slot"],
                )
            )
    for p in ctx.result.periods:
        observed = per_period.get((p.day, p.period), 0)
        if observed != p.brownout_slots:
            out.violations.append(
                Violation(
                    check=out.name,
                    message=(
                        f"{observed} brownout event(s) but the record "
                        f"counts {p.brownout_slots}"
                    ),
                    day=p.day,
                    period=p.period,
                )
            )
    return out


def check_dmr_accounting(ctx: RunContext) -> CheckOutcome:
    out = _outcome("dmr-accounting", ctx)
    n = len(ctx.graph)
    for p in ctx.result.periods:
        out.checked += 1
        if not 0 <= p.miss_count <= n:
            out.violations.append(
                Violation(
                    check=out.name,
                    message=f"miss_count {p.miss_count} outside [0, {n}]",
                    day=p.day,
                    period=p.period,
                )
            )
        if abs(p.dmr - p.miss_count / n) > 1e-12:
            out.violations.append(
                Violation(
                    check=out.name,
                    message=(
                        f"dmr {float(p.dmr)!r} != miss_count/{n} = "
                        f"{p.miss_count / n!r}"
                    ),
                    day=p.day,
                    period=p.period,
                )
            )
    # Eq. (19): the accumulated DMR is the running mean of the series,
    # so it must obey acc_t = (t*acc_{t-1} + dmr_t) / (t+1) exactly,
    # and, as a mean of rates, stay within [0, 1].
    acc = ctx.result.accumulated_dmr()
    series = ctx.result.dmr_series()
    out.checked += len(acc)
    prev = 0.0
    for t, (a, d) in enumerate(zip(acc.tolist(), series.tolist())):
        expected = (prev * t + d) / (t + 1)
        problems = []
        if not 0.0 <= a <= 1.0:
            problems.append(f"accumulated DMR {a!r} outside [0, 1]")
        if abs(a - expected) > 1e-9:
            problems.append(
                f"accumulated DMR {a!r} breaks the Eq. 19 recurrence "
                f"(expected {expected!r})"
            )
        for message in problems:
            day, period = ctx.result.timeline.unflatten_period(t)
            out.violations.append(
                Violation(
                    check=out.name, message=message,
                    day=day, period=period,
                )
            )
        prev = a
    return out


def check_brownout_discipline(ctx: RunContext) -> CheckOutcome:
    out = _outcome("brownout-discipline", ctx)
    if not ctx.events:
        out.notes = "no event stream; skipped"
        return out
    brownout_at = {
        (e["day"], e["period"], e["slot"])
        for e in _events_of(ctx, "brownout")
    }
    seen_partial = set()
    for e in _events_of(ctx, "slot_decision"):
        out.checked += 1
        key = (e["day"], e["period"], e["slot"])
        idle = not e["chosen"]
        if idle and ctx.check_load_power and e["load_power"] > ctx.abs_tol:
            out.violations.append(
                Violation(
                    check=out.name,
                    message=(
                        f"no task chosen but load power is "
                        f"{e['load_power']!r} W"
                    ),
                    day=e["day"],
                    period=e["period"],
                    slot=e["slot"],
                )
            )
        if idle and key in brownout_at:
            out.violations.append(
                Violation(
                    check=out.name,
                    message="brownout recorded in a slot with no work "
                    "scheduled",
                    day=e["day"],
                    period=e["period"],
                    slot=e["slot"],
                )
            )
        if e["run_fraction"] < 1.0 - 1e-9:
            seen_partial.add(key)
            if not idle and key not in brownout_at:
                out.violations.append(
                    Violation(
                        check=out.name,
                        message=(
                            f"run fraction {e['run_fraction']!r} < 1 "
                            "but no brownout event was emitted"
                        ),
                        day=e["day"],
                        period=e["period"],
                        slot=e["slot"],
                    )
                )
    for day, period, slot in sorted(brownout_at - seen_partial):
        out.violations.append(
            Violation(
                check=out.name,
                message="brownout event without a partial slot decision",
                day=day,
                period=period,
                slot=slot,
            )
        )
    return out


def check_slot_legality(ctx: RunContext) -> CheckOutcome:
    out = _outcome("slot-legality", ctx)
    if not ctx.events:
        out.notes = "no event stream; skipped"
        return out
    graph = ctx.graph
    powers = [t.power for t in graph.tasks]
    for e in _events_of(ctx, "slot_decision"):
        out.checked += 1
        chosen = list(e["chosen"])
        ready = set(e["ready"])
        illegal = [t for t in chosen if t not in ready]
        if illegal:
            out.violations.append(
                Violation(
                    check=out.name,
                    message=f"chosen tasks {illegal} were not ready (Eq. 7)",
                    day=e["day"],
                    period=e["period"],
                    slot=e["slot"],
                )
            )
        nvps = [graph.nvp_of(t) for t in chosen]
        if len(set(nvps)) != len(nvps):
            out.violations.append(
                Violation(
                    check=out.name,
                    message=f"two tasks share an NVP in {chosen} (Eq. 9)",
                    day=e["day"],
                    period=e["period"],
                    slot=e["slot"],
                )
            )
        if ctx.check_load_power:
            expected = float(sum(powers[t] for t in chosen))
            if abs(e["load_power"] - expected) > 1e-9:
                out.violations.append(
                    Violation(
                        check=out.name,
                        message=(
                            f"load power {e['load_power']!r} W != sum of "
                            f"chosen task powers {expected!r} W"
                        ),
                        day=e["day"],
                        period=e["period"],
                        slot=e["slot"],
                    )
                )
    return out


#: Registry used by :func:`verify_run` and the CLI runner.
INVARIANT_CHECKS: Dict[str, Callable[[RunContext], CheckOutcome]] = {
    "energy-conservation": check_energy_conservation,
    "voltage-bounds": check_voltage_bounds,
    "nvp-charge": check_nvp_charge,
    "dmr-accounting": check_dmr_accounting,
    "brownout-discipline": check_brownout_discipline,
    "slot-legality": check_slot_legality,
}


def verify_run(ctx: RunContext) -> List[CheckOutcome]:
    """Run every registered invariant checker over one finished run."""
    return [check(ctx) for check in INVARIANT_CHECKS.values()]
