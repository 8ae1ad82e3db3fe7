"""Runtime fault injection: deterministic faults *inside* the slot loop.

The trace-level faults of :mod:`repro.reliability.faults` degrade the
input before a run starts; real deployments also fail while running —
a connector browns out mid-afternoon, a super capacitor's leakage
spikes with temperature, the capacitor-selection mux sticks, the
feature vector feeding the coarse stage is corrupted by a bit flip, or
the DBN inference itself faults.  This module injects exactly those,
at slot granularity, from a seeded :class:`FaultPlan` so every chaos
run is reproducible.

A :class:`FaultPlan` is a set of slot-indexed :class:`FaultWindow`
activations.  The :class:`FaultInjector` consumes the plan inside
:class:`~repro.sim.engine.SimulationEngine`: per slot it synchronises
the node's component state with the windows covering that slot
(idempotently, so a checkpoint/resume lands in the identical state),
scales the solar supply for dropout windows, and raises per-period
flags for the online stage.  Every window transition emits a typed
``fault_injected`` event through the run's observer.

Fault kinds
-----------
``supply_dropout``
    The panel output is scaled by ``1 - severity`` for the window
    (1.0 = total dropout).
``leak_spike``
    The targeted capacitor's leakage coefficient is multiplied by
    ``1 + severity · (LEAK_SPIKE_MAX_MULTIPLIER - 1)``.
``esr_spike``
    The targeted capacitor's cycle efficiency (ESR loss) is scaled by
    ``1 - severity`` (floored so it stays physical).
``regulator_stuck``
    The PMU's capacitor-selection switch is stuck: every switch
    request is refused for the window.
``feature_corruption``
    The previous-period solar powers handed to the coarse stage are
    deterministically corrupted (NaNs, garbage scaling or zeroing).
``inference_failure``
    Inference-based coarse policies are instructed to fail this
    period, exercising their graceful-degradation ladder.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..energy.capacitor import SuperCapacitor
from ..node.node import SensorNode
from ..obs.events import NULL_OBSERVER, FaultInjectionEvent
from ..sim.views import PeriodFaultFlags
from ..timeline import Timeline

__all__ = [
    "FAULT_KINDS",
    "FaultWindow",
    "FaultPlan",
    "FaultInjector",
    "RUNTIME_SCENARIOS",
    "runtime_scenario",
]

#: Every supported runtime fault kind, in canonical order.
FAULT_KINDS = (
    "supply_dropout",
    "leak_spike",
    "esr_spike",
    "regulator_stuck",
    "feature_corruption",
    "inference_failure",
)

_COMPONENT_KINDS = frozenset({"leak_spike", "esr_spike"})
_SLOT_KINDS = frozenset(
    {"supply_dropout", "leak_spike", "esr_spike", "regulator_stuck"}
)
_PERIOD_KINDS = frozenset({"feature_corruption", "inference_failure"})

#: Worst-case leakage multiplier at severity 1.0 (thermal runaway of a
#: failing cell is orders of magnitude above datasheet self-discharge).
LEAK_SPIKE_MAX_MULTIPLIER = 100.0
#: Cycle efficiency never drops below this under an ESR spike (the
#: device model requires efficiency in (0, 1]).
ESR_SPIKE_MIN_EFFICIENCY = 0.05


@dataclasses.dataclass(frozen=True)
class FaultWindow:
    """One fault activation: ``kind`` over ``[start, start+duration)``.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    start:
        Flat slot index at which the fault activates.
    duration:
        Length of the activation in slots.
    severity:
        Fault intensity in ``[0, 1]`` (see the module docstring for
        the per-kind meaning).
    target:
        Capacitor index for component faults; ``-1`` targets every
        capacitor.  Ignored by non-component kinds.
    """

    kind: str
    start: int
    duration: int
    severity: float = 1.0
    target: int = -1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.duration < 1:
            raise ValueError(f"duration must be >= 1, got {self.duration}")
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError(
                f"severity must be in [0, 1], got {self.severity}"
            )
        if self.target < -1:
            raise ValueError(f"target must be >= -1, got {self.target}")

    @property
    def stop(self) -> int:
        """First flat slot *after* the window."""
        return self.start + self.duration

    def covers(self, flat_slot: int) -> bool:
        return self.start <= flat_slot < self.stop


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of runtime fault activations.

    Windows are stored sorted by ``(start, kind, target)`` so that any
    aggregation over overlapping windows is order-stable — a resumed
    run rebuilds the exact component state of the uninterrupted one.
    """

    windows: Tuple[FaultWindow, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.windows, key=lambda w: (w.start, w.kind, w.target))
        )
        object.__setattr__(self, "windows", ordered)

    def __len__(self) -> int:
        return len(self.windows)

    def of_kind(self, kind: str) -> Tuple[FaultWindow, ...]:
        return tuple(w for w in self.windows if w.kind == kind)

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        timeline: Timeline,
        seed: int = 0,
        *,
        dropouts_per_day: float = 0.0,
        dropout_slots: Tuple[int, int] = (1, 8),
        dropout_severity: Tuple[float, float] = (0.5, 1.0),
        leak_spikes_per_day: float = 0.0,
        esr_spikes_per_day: float = 0.0,
        spike_slots: Tuple[int, int] = (10, 60),
        spike_severity: Tuple[float, float] = (0.3, 1.0),
        regulator_stalls_per_day: float = 0.0,
        stall_slots: Tuple[int, int] = (20, 120),
        corrupted_periods_per_day: float = 0.0,
        inference_failures_per_day: float = 0.0,
    ) -> "FaultPlan":
        """Sample a plan from per-day fault rates, deterministically.

        Counts are Poisson in the horizon length; starts are uniform
        over the horizon; durations and severities are uniform in the
        given ranges.  Period-scoped faults (feature corruption,
        inference failure) snap to period boundaries.
        """
        rng = np.random.default_rng(seed)
        days = timeline.num_days
        total_slots = timeline.total_slots
        windows: List[FaultWindow] = []

        def slot_faults(kind, rate, dur_range, sev_range, cap=None):
            for _ in range(int(rng.poisson(rate * days))):
                start = int(rng.integers(total_slots))
                duration = int(rng.integers(dur_range[0], dur_range[1] + 1))
                severity = float(rng.uniform(*sev_range))
                windows.append(
                    FaultWindow(
                        kind=kind,
                        start=start,
                        duration=duration,
                        severity=severity,
                    )
                )

        slot_faults(
            "supply_dropout", dropouts_per_day, dropout_slots,
            dropout_severity,
        )
        slot_faults(
            "leak_spike", leak_spikes_per_day, spike_slots, spike_severity
        )
        slot_faults(
            "esr_spike", esr_spikes_per_day, spike_slots, spike_severity
        )
        slot_faults(
            "regulator_stuck", regulator_stalls_per_day, stall_slots,
            (1.0, 1.0),
        )

        def period_faults(kind, rate):
            for _ in range(int(rng.poisson(rate * days))):
                flat_period = int(rng.integers(timeline.total_periods))
                periods = int(rng.integers(1, 4))
                windows.append(
                    FaultWindow(
                        kind=kind,
                        start=flat_period * timeline.slots_per_period,
                        duration=periods * timeline.slots_per_period,
                        severity=float(rng.uniform(0.3, 1.0)),
                    )
                )

        period_faults("feature_corruption", corrupted_periods_per_day)
        period_faults("inference_failure", inference_failures_per_day)
        return cls(windows=tuple(windows), seed=seed)


# ----------------------------------------------------------------------
#: Named chaos scenarios for the soak matrix, CLI and CI: each maps a
#: (timeline, seed) pair to a :class:`FaultPlan`.
RUNTIME_SCENARIOS: Dict[str, Dict[str, float]] = {
    "supply-dropout": {"dropouts_per_day": 8.0},
    "leak-spike": {"leak_spikes_per_day": 5.0},
    "esr-spike": {"esr_spikes_per_day": 5.0},
    "regulator-stuck": {"regulator_stalls_per_day": 3.0},
    "feature-corruption": {"corrupted_periods_per_day": 10.0},
    "inference-failure": {"inference_failures_per_day": 10.0},
    "chaos": {
        "dropouts_per_day": 8.0,
        "leak_spikes_per_day": 5.0,
        "esr_spikes_per_day": 5.0,
        "regulator_stalls_per_day": 3.0,
        "corrupted_periods_per_day": 10.0,
        "inference_failures_per_day": 10.0,
    },
}


def runtime_scenario(
    name: str, timeline: Timeline, seed: int = 0
) -> FaultPlan:
    """Build the named chaos scenario's :class:`FaultPlan`."""
    try:
        rates = RUNTIME_SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown runtime scenario {name!r}; expected one of "
            f"{sorted(RUNTIME_SCENARIOS)}"
        ) from None
    return FaultPlan.generate(timeline, seed=seed, **rates)


# ----------------------------------------------------------------------
class FaultInjector:
    """Applies a :class:`FaultPlan` to a live simulation.

    The engine drives three hooks:

    * :meth:`sync` at every slot (and period) boundary — reconciles
      component state (capacitor devices, PMU switch lock) with the
      windows covering that slot and emits transition events;
    * :meth:`transform_solar` — scales the slot's supply for active
      dropout windows;
    * :meth:`period_flags` at every period start — reports
      period-scoped faults for the coarse stage.

    Synchronisation is *idempotent*: the desired state is recomputed
    from scratch against pristine device models each time, so a run
    resumed from a checkpoint mid-window reconstructs bit-identical
    component state.
    """

    def __init__(self, plan: FaultPlan, timeline: Timeline) -> None:
        self.plan = plan
        self.timeline = timeline
        self.observer = NULL_OBSERVER
        self._slot_windows = [
            w for w in plan.windows if w.kind in _SLOT_KINDS
        ]
        self._period_windows = [
            w for w in plan.windows if w.kind in _PERIOD_KINDS
        ]
        self._dropouts = [w for w in self._slot_windows
                          if w.kind == "supply_dropout"]
        self._active_slot_ids: Set[int] = set()
        self._active_period_ids: Set[int] = set()
        self._pristine: Tuple[SuperCapacitor, ...] = ()
        self._applied_mults: Tuple[Tuple[float, float], ...] = ()
        self._node: Optional[SensorNode] = None
        self.activation_counts: Dict[str, int] = {
            kind: 0 for kind in FAULT_KINDS
        }

    # ------------------------------------------------------------------
    @property
    def total_activations(self) -> int:
        return sum(self.activation_counts.values())

    def attach(self, node: SensorNode) -> None:
        """Capture the pristine device models; called at run start."""
        num_caps = len(node.bank)
        for w in self.plan.windows:
            if w.kind in _COMPONENT_KINDS and w.target >= num_caps:
                raise ValueError(
                    f"fault window targets capacitor {w.target} but the "
                    f"bank has {num_caps}"
                )
        self._node = node
        self._pristine = tuple(s.capacitor for s in node.bank.states)
        self._applied_mults = tuple((1.0, 1.0) for _ in range(num_caps))
        self._active_slot_ids = set()
        self._active_period_ids = set()

    # ------------------------------------------------------------------
    def sync(self, node: SensorNode, flat_slot: int) -> None:
        """Reconcile component state with the windows at ``flat_slot``."""
        active: Set[int] = set()
        for i, w in enumerate(self._slot_windows):
            if w.covers(flat_slot):
                active.add(i)
        if active != self._active_slot_ids:
            self._emit_transitions(
                self._slot_windows, self._active_slot_ids, active
            )
            self._active_slot_ids = active
        self._apply_component_state(node, active)

    def _emit_transitions(self, windows, previous: Set[int],
                          current: Set[int]) -> None:
        obs = self.observer
        for i in sorted(current - previous):
            w = windows[i]
            self.activation_counts[w.kind] += 1
            if obs.enabled:
                obs.emit(FaultInjectionEvent(
                    fault=w.kind, phase="start", severity=w.severity,
                    target=w.target, duration_slots=w.duration,
                ))
        if obs.enabled:
            for i in sorted(previous - current):
                w = windows[i]
                obs.emit(FaultInjectionEvent(
                    fault=w.kind, phase="end", severity=w.severity,
                    target=w.target, duration_slots=w.duration,
                ))

    def _apply_component_state(self, node: SensorNode,
                               active: Set[int]) -> None:
        num_caps = len(node.bank)
        # Aggregate desired multipliers per capacitor in plan order so
        # overlapping windows combine deterministically.
        mults = [[1.0, 1.0] for _ in range(num_caps)]  # (leak, esr)
        stuck = False
        for i in sorted(active):
            w = self._slot_windows[i]
            if w.kind == "regulator_stuck":
                stuck = True
                continue
            if w.kind not in _COMPONENT_KINDS:
                continue
            targets = (
                range(num_caps) if w.target < 0 else (w.target,)
            )
            for t in targets:
                if w.kind == "leak_spike":
                    mults[t][0] *= (
                        1.0 + w.severity * (LEAK_SPIKE_MAX_MULTIPLIER - 1.0)
                    )
                else:  # esr_spike
                    mults[t][1] *= 1.0 - w.severity
        desired = tuple((m[0], m[1]) for m in mults)
        if desired != self._applied_mults:
            for idx in range(num_caps):
                if desired[idx] == self._applied_mults[idx]:
                    continue
                base = self._pristine[idx]
                leak_mult, esr_mult = desired[idx]
                if leak_mult == 1.0 and esr_mult == 1.0:
                    node.bank.swap_device(idx, base)
                else:
                    node.bank.swap_device(
                        idx,
                        dataclasses.replace(
                            base,
                            leak_coeff=base.leak_coeff * leak_mult,
                            cycle_efficiency=max(
                                base.cycle_efficiency * esr_mult,
                                ESR_SPIKE_MIN_EFFICIENCY,
                            ),
                        ),
                    )
            self._applied_mults = desired
        node.pmu.switch_locked = stuck

    # ------------------------------------------------------------------
    def transform_solar(self, flat_slot: int, power: float) -> float:
        """Scale the slot's supply by every active dropout window."""
        for w in self._dropouts:
            if w.covers(flat_slot):
                power *= 1.0 - w.severity
        return max(power, 0.0)

    # ------------------------------------------------------------------
    def period_flags(self, flat_period: int) -> Optional[PeriodFaultFlags]:
        """Period-scoped faults covering this period (or None)."""
        start_slot = flat_period * self.timeline.slots_per_period
        active: Set[int] = set()
        corrupted = fail = False
        for i, w in enumerate(self._period_windows):
            if w.covers(start_slot):
                active.add(i)
                if w.kind == "feature_corruption":
                    corrupted = True
                else:
                    fail = True
        if active != self._active_period_ids:
            self._emit_transitions(
                self._period_windows, self._active_period_ids, active
            )
            self._active_period_ids = active
        if not (corrupted or fail):
            return None
        return PeriodFaultFlags(
            corrupted_features=corrupted, fail_inference=fail
        )

    def corrupt_powers(
        self, flat_period: int, powers: np.ndarray
    ) -> np.ndarray:
        """Deterministically corrupt a previous-period power vector.

        The corruption depends only on ``(plan.seed, flat_period)`` —
        never on call order — so checkpoint/resume reproduces it.
        """
        severity = max(
            (
                w.severity
                for w in self._period_windows
                if w.kind == "feature_corruption"
                and w.covers(flat_period * self.timeline.slots_per_period)
            ),
            default=1.0,
        )
        rng = np.random.default_rng((self.plan.seed, flat_period))
        corrupted = np.asarray(powers, dtype=float).copy()
        mode = int(rng.integers(3))
        hit = rng.random(corrupted.shape) < max(severity, 0.05)
        if mode == 0:
            corrupted[hit] = np.nan
        elif mode == 1:
            corrupted[hit] *= float(rng.uniform(1e3, 1e6))
        else:
            corrupted[hit] = 0.0
        return corrupted

    # ------------------------------------------------------------------
    def finish(self, node: SensorNode) -> None:
        """Restore pristine component state at run end."""
        if self._node is not node or not self._pristine:
            return
        for idx, base in enumerate(self._pristine):
            if node.bank.states[idx].capacitor is not base:
                node.bank.swap_device(idx, base)
        self._applied_mults = tuple(
            (1.0, 1.0) for _ in range(len(self._pristine))
        )
        node.pmu.switch_locked = False
