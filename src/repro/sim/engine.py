"""Slot-by-slot simulation engine.

Drives a :class:`~repro.schedulers.base.Scheduler` over a solar trace
on a :class:`~repro.node.node.SensorNode`:

1. at each period start, a fresh :class:`PeriodRuntime` is created and
   the scheduler's coarse hook runs (it may request a capacitor switch
   through the PMU's Eq. (22) rule);
2. at each slot start, deadlines falling at this boundary are checked
   (Eq. 5), the scheduler picks tasks from the ready set, the engine
   validates the pick (readiness Eq. 7, one task per NVP Eq. 9), the
   PMU routes energy (direct channel first, storage for the deficit),
   task progress advances by the powered fraction of the slot, and all
   capacitors leak;
3. at period end, unfinished tasks are marked missed, the period DMR
   is recorded and the scheduler's feedback hook runs.

Energy semantics of a brownout: when storage cannot cover the deficit,
the load runs for the covered fraction of the slot and the NVPs retain
progress (nonvolatility); the panel keeps charging the capacitor for
the rest of the slot.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from ..node.node import SensorNode
from ..obs.events import (
    NULL_OBSERVER,
    BrownoutEvent,
    CheckpointEvent,
    DeadlineMissEvent,
    Observer,
    PeriodEndEvent,
    SlotDecisionEvent,
)
from ..schedulers.base import Scheduler
from ..solar.trace import SolarTrace
from ..tasks.graph import TaskGraph
from .checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointConfig,
    CheckpointError,
    SimulationInterrupted,
    checkpoint_path,
    load_checkpoint,
    prune_checkpoints,
    run_fingerprint,
    save_checkpoint,
)
from .recorder import PeriodRecord, SimulationResult, SlotArrays
from .state import PeriodRuntime
from .views import BankView, PeriodEndView, PeriodStartView, SlotView

__all__ = ["SimulationEngine", "simulate", "InvalidDecisionError"]


class InvalidDecisionError(RuntimeError):
    """A scheduler returned an illegal slot decision."""


class SimulationEngine:
    """Binds node, workload, trace and policy into one run.

    Parameters
    ----------
    node:
        The sensor node (panel, capacitor bank, PMU, NVPs).
    graph:
        The periodic task set.
    trace:
        Per-slot solar power at the panel output.
    scheduler:
        The policy under test.
    strict:
        When True (default) an illegal decision raises
        :class:`InvalidDecisionError`; when False illegal entries are
        silently dropped (useful for learned policies).
    record_slots:
        When True, dense per-slot arrays are kept in the result.
    observer:
        Observability hub (event sinks and counters).
        Defaults to the disabled :data:`~repro.obs.events.NULL_OBSERVER`,
        which adds no measurable cost and changes no behaviour.
    fault_injector:
        Optional runtime fault injector (a
        :class:`~repro.reliability.runtime.FaultInjector`): supply
        dropouts, capacitor leakage/ESR spikes, stuck regulator and
        online-stage faults fire mid-run per its seeded plan.
    checkpoint:
        Optional :class:`~repro.sim.checkpoint.CheckpointConfig`;
        when given, the run's mutable state is serialized at period
        boundaries so a crashed run can resume bit-identically.
    """

    def __init__(
        self,
        node: SensorNode,
        graph: TaskGraph,
        trace: SolarTrace,
        scheduler: Scheduler,
        strict: bool = True,
        record_slots: bool = False,
        observer: Optional[Observer] = None,
        fault_injector=None,
        checkpoint: Optional[CheckpointConfig] = None,
    ) -> None:
        if graph.num_nvps > node.num_nvps:
            raise ValueError(
                f"task set needs {graph.num_nvps} NVPs but the node has "
                f"{node.num_nvps}"
            )
        self.node = node
        self.graph = graph
        self.trace = trace
        self.timeline = trace.timeline
        self.scheduler = scheduler
        self.strict = strict
        self.record_slots = record_slots
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.fault_injector = fault_injector
        self.checkpoint = checkpoint

    # ------------------------------------------------------------------
    def _bank_view(self) -> BankView:
        bank = self.node.bank
        capacitances, voltages, usable = bank.view_arrays()
        return BankView(
            capacitances=capacitances,
            voltages=voltages,
            usable_energies=usable,
            active_index=bank.active_index,
        )

    def _validate(
        self, decision: Sequence, ready: Sequence[int]
    ) -> List[tuple]:
        """Normalise a decision to ``[(task, level), ...]``.

        Entries may be plain task indices (level 1.0) or
        ``(task, level)`` pairs when the node supports DVFS.
        """
        ready_set = set(ready)
        seen_nvps = set()
        valid: List[tuple] = []
        dvfs = self.node.dvfs
        for entry in decision:
            if isinstance(entry, tuple):
                task, level = entry
                task = int(task)
                level = float(level)
            else:
                task, level = int(entry), 1.0
            if level != 1.0 and (
                dvfs is None or not dvfs.is_valid_level(level)
            ):
                if self.strict:
                    raise InvalidDecisionError(
                        f"frequency level {level} is not supported by the "
                        "node"
                    )
                level = 1.0
            if task not in ready_set:
                if self.strict:
                    raise InvalidDecisionError(
                        f"task {task} is not ready (ready set: {sorted(ready_set)})"
                    )
                continue
            nvp = self.graph.nvp_of(task)
            if nvp in seen_nvps:
                if self.strict:
                    raise InvalidDecisionError(
                        f"two tasks scheduled on NVP {nvp} in one slot"
                    )
                continue
            seen_nvps.add(nvp)
            valid.append((task, level))
        return valid

    # ------------------------------------------------------------------
    def run(
        self,
        resume_from: Optional[Union[str, Path]] = None,
        stop_after_periods: Optional[int] = None,
    ) -> SimulationResult:
        """Run the simulation, optionally resuming from a checkpoint.

        Parameters
        ----------
        resume_from:
            Path to a checkpoint written by a previous run of the same
            configuration (verified by fingerprint).  The node must be
            freshly constructed; its mutable state is overwritten.
        stop_after_periods:
            Deterministic crash stand-in: after this many total
            periods are complete, write a checkpoint and raise
            :class:`~repro.sim.checkpoint.SimulationInterrupted`.
            Requires ``checkpoint`` to be configured.
        """
        tl = self.timeline
        dt = tl.slot_seconds
        obs = self.observer
        active = obs.enabled
        inj = self.fault_injector
        if stop_after_periods is not None:
            if stop_after_periods < 1:
                raise ValueError(
                    f"stop_after_periods must be >= 1, got "
                    f"{stop_after_periods}"
                )
            if self.checkpoint is None:
                raise ValueError(
                    "stop_after_periods requires a checkpoint config "
                    "(there would be nothing to resume from)"
                )
        fingerprint = run_fingerprint(
            tl, self.graph, self.trace, self.scheduler.name
        )

        period_records: List[PeriodRecord] = []
        slot_arrays: Optional[SlotArrays] = None
        if self.record_slots:
            n = tl.total_slots
            slot_arrays = SlotArrays(
                solar_power=np.zeros(n),
                load_power=np.zeros(n),
                run_fraction=np.zeros(n),
                active_voltage=np.zeros(n),
                active_index=np.zeros(n, dtype=int),
            )

        dmr_sum = 0.0
        periods_done = 0
        last_period_energy: Optional[float] = None
        last_period_powers: Optional[np.ndarray] = None
        start_flat = 0
        resumed = False

        if resume_from is not None:
            payload = load_checkpoint(resume_from)
            self._verify_payload(payload, fingerprint)
            self._restore_node(payload)
            self.scheduler = pickle.loads(payload["scheduler"])
            period_records = list(payload["period_records"])
            slot_arrays = payload["slot_arrays"]
            dmr_sum = payload["dmr_sum"]
            periods_done = payload["periods_done"]
            last_period_energy = payload["last_period_energy"]
            last_period_powers = payload["last_period_powers"]
            start_flat = payload["next_flat_period"]
            resumed = True

        # Attach the observer to the other emitters for this run.
        self.scheduler.observer = obs
        self.node.pmu.observer = obs
        if inj is not None:
            inj.observer = obs
            inj.attach(self.node)
        if not resumed:
            # A resumed scheduler keeps its bound state (bind() would
            # reset what it learned before the checkpoint).
            self.scheduler.bind(tl, self.graph)

        # Hot-loop hoists: everything here is invariant across slots
        # (the fault injector swaps capacitor *devices* in place, never
        # the bank/NVP/DVFS objects themselves).
        graph = self.graph
        bank = self.node.bank
        nvps = self.node.nvps
        pmu_supply = self.node.pmu.supply_slot
        dvfs = self.node.dvfs
        trace_power = self.trace.power
        task_powers = [t.power for t in graph.tasks]
        nvp_of = [graph.nvp_of(i) for i in range(len(graph))]
        slots_per_period = tl.slots_per_period

        for flat_p in range(start_flat, tl.total_periods):
            day, period = tl.unflatten_period(flat_p)
            period_start_slot = flat_p * tl.slots_per_period
            runtime = PeriodRuntime(self.graph, tl)
            accumulated = dmr_sum / periods_done if periods_done else 0.0
            if active:
                obs.set_time(day, period)
            fault_flags = None
            powers_for_view = last_period_powers
            if inj is not None:
                inj.sync(self.node, period_start_slot)
                fault_flags = inj.period_flags(flat_p)
                if (
                    fault_flags is not None
                    and fault_flags.corrupted_features
                    and last_period_powers is not None
                ):
                    powers_for_view = inj.corrupt_powers(
                        flat_p, last_period_powers
                    )
            start_view = PeriodStartView(
                timeline=tl,
                graph=self.graph,
                day=day,
                period=period,
                bank=self._bank_view(),
                accumulated_dmr=accumulated,
                last_period_energy=last_period_energy,
                last_period_powers=powers_for_view,
                request_capacitor=self.node.pmu.request_capacitor,
                force_capacitor=self.node.pmu.force_capacitor,
                faults=fault_flags,
            )
            self.scheduler.on_period_start(start_view)

            start_voltages = self.node.bank.voltages()
            active_at_start = self.node.bank.active_index
            solar_energy = load_energy = direct_energy = 0.0
            storage_energy = charged_energy = offered_surplus = 0.0
            leakage_energy = 0.0
            brownouts = 0
            # The whole period's solar input in one array read; with no
            # fault injector the per-slot store becomes a single copy.
            solar_row = trace_power[day, period]
            if inj is None:
                period_powers = solar_row.copy()
            else:
                period_powers = np.zeros(slots_per_period)

            for slot in range(slots_per_period):
                if active:
                    obs.set_time(day, period, slot)
                newly_missed = runtime.check_deadlines(slot)
                if active and newly_missed:
                    obs.emit(DeadlineMissEvent(newly_missed))
                solar_power = float(solar_row[slot])
                if inj is not None:
                    flat_slot = period_start_slot + slot
                    inj.sync(self.node, flat_slot)
                    solar_power = inj.transform_solar(flat_slot, solar_power)
                    period_powers[slot] = solar_power
                ready = runtime.ready_tasks(slot)
                decision = self.scheduler.on_slot(
                    SlotView(
                        timeline=tl,
                        graph=self.graph,
                        day=day,
                        period=period,
                        slot=slot,
                        solar_power=solar_power,
                        slot_seconds=dt,
                        remaining=runtime.remaining.copy(),
                        completed=runtime.completed,
                        missed=runtime.missed.copy(),
                        deadline_slots=runtime.deadline_slots.copy(),
                        ready=ready,
                        bank=self._bank_view(),
                    )
                )
                chosen = self._validate(decision, ready)
                # x * 1.0 is bitwise x, so the DVFS-less fast paths
                # reproduce the scaled expressions exactly.
                if dvfs is None:
                    load_power = float(
                        sum(task_powers[i] for i, _ in chosen)
                    )
                else:
                    load_power = float(
                        sum(
                            task_powers[i] * dvfs.power_factor(level)
                            for i, level in chosen
                        )
                    )
                flow = pmu_supply(solar_power, load_power, dt)
                if dvfs is None:
                    powered_seconds = flow.run_fraction * dt
                    runtime.advance_scaled(
                        [(i, powered_seconds) for i, _ in chosen]
                    )
                else:
                    runtime.advance_scaled(
                        [
                            (i, flow.run_fraction * dt * dvfs.rate(level))
                            for i, level in chosen
                        ]
                    )
                if active:
                    obs.emit(SlotDecisionEvent(
                        ready=ready,
                        chosen=tuple(i for i, _ in chosen),
                        solar_power=solar_power,
                        load_power=load_power,
                        run_fraction=flow.run_fraction,
                    ))
                # NVP nonvolatility bookkeeping: a brownout checkpoints
                # the affected cores (backup energy), the next powered
                # slot restores them.  The energies are tiny (µJ, [13])
                # but they come out of the storage path like any load.
                cycle_cost = 0.0
                active_nvps = {nvp_of[i] for i, _ in chosen}
                if flow.run_fraction < 1.0 - 1e-9 and chosen:
                    brownouts += 1
                    if active:
                        obs.emit(BrownoutEvent(
                            run_fraction=flow.run_fraction,
                            needed_energy=load_power * dt,
                            delivered_energy=flow.load_energy,
                            active_index=bank.active_index,
                            active_voltage=bank.active.voltage,
                        ))
                    for k in active_nvps:
                        cycle_cost += nvps[k].power_fail()
                else:
                    for k in active_nvps:
                        cycle_cost += nvps[k].power_up()
                if cycle_cost > 0:
                    bank.active.discharge(cycle_cost)
                lost = bank.leak_all(dt)

                solar_energy += solar_power * dt
                load_energy += flow.load_energy
                direct_energy += flow.direct_energy
                storage_energy += flow.storage_energy
                charged_energy += flow.charged_energy
                offered_surplus += flow.offered_surplus
                leakage_energy += lost

                if slot_arrays is not None:
                    flat = period_start_slot + slot
                    slot_arrays.solar_power[flat] = solar_power
                    slot_arrays.load_power[flat] = load_power
                    slot_arrays.run_fraction[flat] = flow.run_fraction
                    slot_arrays.active_voltage[flat] = bank.active.voltage
                    slot_arrays.active_index[flat] = bank.active_index

            if active:
                obs.set_time(day, period, tl.slots_per_period)
            boundary_missed = runtime.check_deadlines(tl.slots_per_period)
            sweep_missed = runtime.finalize()
            if active:
                obs.emit(DeadlineMissEvent(boundary_missed))
                obs.emit(DeadlineMissEvent(sweep_missed, final=True))
            dmr = runtime.dmr
            dmr_sum += dmr
            periods_done += 1
            last_period_energy = solar_energy
            last_period_powers = period_powers

            record = PeriodRecord(
                day=day,
                period=period,
                dmr=dmr,
                miss_count=runtime.miss_count,
                executed=runtime.started.copy(),
                solar_energy=solar_energy,
                load_energy=load_energy,
                direct_energy=direct_energy,
                storage_energy=storage_energy,
                charged_energy=charged_energy,
                offered_surplus=offered_surplus,
                leakage_energy=leakage_energy,
                brownout_slots=brownouts,
                start_voltages=start_voltages,
                active_index=active_at_start,
            )
            period_records.append(record)
            if active:
                obs.emit(PeriodEndEvent(
                    dmr=dmr,
                    miss_count=runtime.miss_count,
                    brownout_slots=brownouts,
                    solar_energy=solar_energy,
                    load_energy=load_energy,
                ))
            self.scheduler.on_period_end(
                PeriodEndView(
                    day=day,
                    period=period,
                    dmr=dmr,
                    missed=runtime.missed.copy(),
                    observed_energy=solar_energy,
                    observed_powers=period_powers.copy(),
                    bank=self._bank_view(),
                )
            )

            done = flat_p + 1
            stopping = (
                stop_after_periods is not None and done >= stop_after_periods
            )
            if (
                self.checkpoint is not None
                and done < tl.total_periods
                and (done % self.checkpoint.every_periods == 0 or stopping)
            ):
                path = self._write_checkpoint(
                    done,
                    fingerprint,
                    period_records,
                    slot_arrays,
                    dmr_sum,
                    periods_done,
                    last_period_energy,
                    last_period_powers,
                )
                if active:
                    obs.emit(CheckpointEvent(str(path), done))
                if stopping:
                    raise SimulationInterrupted(path, done)
            elif stopping:
                # stop_after_periods >= total_periods: fall through and
                # let the run complete normally.
                pass

        if inj is not None:
            inj.finish(self.node)
        result = SimulationResult(
            timeline=tl,
            scheduler_name=self.scheduler.name,
            periods=period_records,
            slots=slot_arrays,
        )
        if active:
            obs.finish(result.summary(), scheduler=result.scheduler_name)
        return result

    # ------------------------------------------------------------------
    # Checkpoint plumbing
    # ------------------------------------------------------------------
    def _verify_payload(self, payload: dict, fingerprint: str) -> None:
        if payload["fingerprint"] != fingerprint:
            raise CheckpointError(
                "checkpoint does not match this run configuration "
                "(different timeline, task set, trace or scheduler)"
            )
        if payload["record_slots"] != self.record_slots:
            raise CheckpointError(
                f"checkpoint was written with record_slots="
                f"{payload['record_slots']}, this engine has "
                f"record_slots={self.record_slots}"
            )

    def _restore_node(self, payload: dict) -> None:
        bank = self.node.bank
        voltages = payload["bank_voltages"]
        if len(voltages) != len(bank):
            raise CheckpointError(
                f"checkpoint has {len(voltages)} capacitors, the node "
                f"has {len(bank)}"
            )
        for state, voltage in zip(bank.states, voltages):
            state.voltage = float(voltage)
        bank.select(payload["bank_active_index"])
        bank.switch_count = payload["bank_switch_count"]
        nvp_states = payload["nvp_states"]
        if len(nvp_states) != len(self.node.nvps):
            raise CheckpointError(
                f"checkpoint has {len(nvp_states)} NVPs, the node has "
                f"{len(self.node.nvps)}"
            )
        for nvp, (powered, brownouts) in zip(self.node.nvps, nvp_states):
            nvp.powered = bool(powered)
            nvp.brownout_count = int(brownouts)

    def _write_checkpoint(
        self,
        next_flat_period: int,
        fingerprint: str,
        period_records: List[PeriodRecord],
        slot_arrays: Optional[SlotArrays],
        dmr_sum: float,
        periods_done: int,
        last_period_energy: Optional[float],
        last_period_powers: Optional[np.ndarray],
    ) -> Path:
        bank = self.node.bank
        # The scheduler is pickled without its observer (sinks hold
        # file handles); the engine re-attaches one at resume.
        had_observer = "observer" in self.scheduler.__dict__
        previous = self.scheduler.__dict__.pop("observer", None)
        try:
            scheduler_blob = pickle.dumps(
                self.scheduler, protocol=pickle.HIGHEST_PROTOCOL
            )
        finally:
            if had_observer:
                self.scheduler.observer = previous
        payload = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "record_slots": self.record_slots,
            "next_flat_period": next_flat_period,
            "dmr_sum": dmr_sum,
            "periods_done": periods_done,
            "last_period_energy": last_period_energy,
            "last_period_powers": last_period_powers,
            "period_records": list(period_records),
            "slot_arrays": slot_arrays,
            "bank_voltages": [s.voltage for s in bank.states],
            "bank_active_index": bank.active_index,
            "bank_switch_count": bank.switch_count,
            "nvp_states": [
                (nvp.powered, nvp.brownout_count) for nvp in self.node.nvps
            ],
            "scheduler": scheduler_blob,
        }
        path = save_checkpoint(
            checkpoint_path(self.checkpoint.path, next_flat_period), payload
        )
        prune_checkpoints(
            self.checkpoint.path, self.checkpoint.keep, protect=path
        )
        return path


def simulate(
    node: SensorNode,
    graph: TaskGraph,
    trace: SolarTrace,
    scheduler: Scheduler,
    strict: bool = True,
    record_slots: bool = False,
    observer: Optional[Observer] = None,
    fault_injector=None,
    checkpoint: Optional[CheckpointConfig] = None,
    resume_from: Optional[Union[str, Path]] = None,
    stop_after_periods: Optional[int] = None,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`SimulationEngine`.

    The run is wrapped in an ``engine_run`` span when a tracer is
    active (the observer's own, or the ambient one inside fleet/suite
    workers).  Tracing never touches the hot loop: the span opens and
    closes around the whole run, so the engine's numerics — and the
    NULL-path bit-identity guarantee — are unchanged.
    """
    from ..obs.trace import current_tracer

    engine = SimulationEngine(
        node,
        graph,
        trace,
        scheduler,
        strict=strict,
        record_slots=record_slots,
        observer=observer,
        fault_injector=fault_injector,
        checkpoint=checkpoint,
    )
    tracer = getattr(observer, "tracer", None) or current_tracer()
    if not tracer.enabled:
        return engine.run(
            resume_from=resume_from, stop_after_periods=stop_after_periods
        )
    with tracer.span(
        "engine_run",
        attrs={
            "scheduler": scheduler.name,
            "benchmark": graph.name,
            "total_slots": trace.timeline.total_slots,
        },
    ) as span:
        result = engine.run(
            resume_from=resume_from, stop_after_periods=stop_after_periods
        )
        span.annotate(dmr=result.dmr)
        return result
