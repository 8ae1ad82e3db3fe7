"""Online deadline-aware scheduling (Section 5 of the paper).

Per period the **coarse** stage decides three things from the observed
state (last period's solar, capacitor voltages, accumulated DMR): which
capacitor to use, the scheduling-pattern index α, and the task subset
``te`` to attempt.  The paper computes this with the offline-trained
DBN; :class:`DBNPolicy` implements that, and two alternatives are
provided for ablation (:class:`NearestSamplePolicy` — LUT-style
nearest-neighbour over the training samples — and
:class:`HeuristicPolicy` — a hand-written rule).  The same stage also
replays the DP's decisions: Fig. 8's "Optimal" is
:class:`~repro.core.optimal.PlanPolicy` and Fig. 10(a)'s receding
horizon is :class:`~repro.core.horizon.HorizonPolicy`, each driving
this module's one :class:`ProposedScheduler`.

Per slot the **fine** stage executes the subset.  Following Section
5.2, when ``|1 - α| > δ`` the simple lazy inter-task pass is used (at
night or under abundant sun the fine matching buys nothing); otherwise
the intra-task load-matching pass runs.  Capacitor switches go through
the PMU's Eq. (22) threshold rule, except an offline plan's, which are
forced.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Set, Tuple

import numpy as np

from ..obs.events import (
    CoarseDecisionEvent,
    DeltaFallbackEvent,
    PolicyFallbackEvent,
)
from ..schedulers.base import Scheduler
from ..schedulers.intratask import fine_grained_decision
from ..sim.views import PeriodEndView, PeriodStartView, SlotView
from ..tasks.graph import TaskGraph
from ..timeline import Timeline
from .ann.dbn import DBN
from .features import FeatureCodec
from .longterm import TrainingSample

__all__ = [
    "CoarseDecision",
    "CoarsePolicy",
    "CoarseDecisionError",
    "InjectedInferenceFault",
    "DBNPolicy",
    "NearestSamplePolicy",
    "HeuristicPolicy",
    "ProposedScheduler",
    "close_subset",
    "validate_coarse_decision",
    "ALPHA_MAX",
]

#: Largest plausible scheduling-pattern index α.  The paper's α is the
#: ratio of attempted load to expected harvest — a handful at most; a
#: coarse-stage output beyond this is corrupt, not ambitious.
ALPHA_MAX = 100.0

#: One period's coarse decision ``(capacitor, α, te)``; a ``None``
#: capacitor makes no capacitor call this period.
CoarseDecision = Tuple[Optional[int], float, np.ndarray]


class CoarseDecisionError(RuntimeError):
    """A coarse policy produced an invalid (capacitor, α, te) triple."""


class InjectedInferenceFault(RuntimeError):
    """Raised when a runtime fault plan forces an inference failure."""


def validate_coarse_decision(
    num_tasks: int, num_capacitors: int, cap, alpha, te
) -> CoarseDecision:
    """Validate and normalise a coarse decision, or raise.

    Checks the three things a corrupted model output gets wrong: the
    capacitor index must address the bank (``None``, "no capacitor
    call", passes through), α must be a finite
    scheduling-pattern index in ``[0, ALPHA_MAX]``, and the task
    subset must be a finite boolean vector over the task set.  Raises
    :class:`CoarseDecisionError` with a one-line reason; never lets a
    malformed triple reach the slot loop.
    """
    if cap is not None:
        try:
            cap = int(cap)
        except (TypeError, ValueError) as exc:
            raise CoarseDecisionError(
                f"capacitor index {cap!r} is not an integer"
            ) from exc
        if not 0 <= cap < num_capacitors:
            raise CoarseDecisionError(
                f"capacitor index {cap} outside [0, {num_capacitors})"
            )
    try:
        alpha = float(alpha)
    except (TypeError, ValueError) as exc:
        raise CoarseDecisionError(f"alpha {alpha!r} is not a float") from exc
    if not np.isfinite(alpha) or not 0.0 <= alpha <= ALPHA_MAX:
        raise CoarseDecisionError(
            f"alpha {alpha} outside [0, {ALPHA_MAX}] or non-finite"
        )
    te_arr = np.asarray(te)
    if te_arr.shape != (num_tasks,):
        raise CoarseDecisionError(
            f"task subset has shape {te_arr.shape}, expected "
            f"({num_tasks},)"
        )
    if te_arr.dtype != bool:
        values = te_arr.astype(float)
        if not np.all(np.isfinite(values)):
            raise CoarseDecisionError("task subset contains non-finite values")
        te_arr = values >= 0.5
    return cap, alpha, te_arr


def close_subset(graph: TaskGraph, te: np.ndarray) -> np.ndarray:
    """Dependence-close a task subset by adding missing ancestors."""
    te = np.asarray(te, dtype=bool).copy()
    for i in graph.topological_order()[::-1]:
        if te[i]:
            for p in graph.predecessors(i):
                te[p] = True
    return te


class CoarsePolicy(abc.ABC):
    """Once-per-period decision: (capacitor, α, task subset).

    :class:`ProposedScheduler` binds its primary policy before a run,
    asks it once per period and feeds it each period's observed solar
    at the period end.  The
    policy type, not the scheduler, says how its capacitor choice is
    applied and whether a runtime ``inference_failure`` fault hits it.
    """

    #: True when the capacitor choice is an offline plan's, forced past
    #: the Eq. (22) threshold rule and a stuck mux; False requests it
    #: through the PMU.
    forces_capacitor = False
    #: True when the decision is a model inference that a runtime
    #: ``inference_failure`` fault makes fail; a plan lookup has none.
    inferred = True

    def bind(self, timeline: Timeline, graph: TaskGraph) -> None:
        """Reset per-run state before a run (default: none)."""

    @abc.abstractmethod
    def decide(
        self, view: PeriodStartView, prev_solar: np.ndarray
    ) -> Optional[CoarseDecision]:
        """Return ``(capacitor_index, alpha, te_bool_array)``.

        ``prev_solar`` is the previous period's per-slot solar power
        (zeros in the first period).  ``None`` means the policy has no
        decision for this period (its plan has ended): the scheduler
        then attempts every task in intra mode and makes no capacitor
        call.
        """

    def observe(self, view: PeriodEndView) -> None:
        """Period-end feedback (default: ignored)."""


class DBNPolicy(CoarsePolicy):
    """The paper's coarse stage: a trained DBN forward pass."""

    def __init__(self, dbn: DBN, codec: FeatureCodec) -> None:
        self.dbn = dbn
        self.codec = codec

    def decide(
        self, view: PeriodStartView, prev_solar: np.ndarray
    ) -> CoarseDecision:
        x = self.codec.encode_input(
            prev_solar, view.bank.voltages, view.accumulated_dmr
        )
        cap, alpha_scaled, te = self.dbn.predict_one(x)
        return cap, self.codec.decode_alpha(alpha_scaled), te


class NearestSamplePolicy(CoarsePolicy):
    """LUT-style ablation: nearest training sample in feature space.

    This is what Eq. (13) would do with the raw LUT ("we use the
    closest input in the LUT to approximate the real input"); the DBN
    replaces it with a compact learned map.
    """

    def __init__(
        self, samples: Sequence[TrainingSample], codec: FeatureCodec
    ) -> None:
        if not samples:
            raise ValueError("need at least one sample")
        self.samples = list(samples)
        self.codec = codec
        self._matrix, _, self._alphas, self._tes = codec.encode_samples(
            self.samples
        )
        self._caps = np.array([s.cap_index for s in self.samples])

    def decide(
        self, view: PeriodStartView, prev_solar: np.ndarray
    ) -> CoarseDecision:
        x = self.codec.encode_input(
            prev_solar, view.bank.voltages, view.accumulated_dmr
        )
        distances = ((self._matrix - x[None, :]) ** 2).sum(axis=1)
        best = int(np.argmin(distances))
        return (
            int(self._caps[best]),
            self.codec.decode_alpha(self._alphas[best]),
            self._tes[best] >= 0.5,
        )


class HeuristicPolicy(CoarsePolicy):
    """Hand-written coarse rule (no offline stage needed).

    Attempt everything when stored + expected solar covers the full
    set, otherwise shed the most expensive tasks; pick the capacitor
    whose usable capacity best matches the expected surplus.
    """

    def __init__(
        self,
        graph: TaskGraph,
        capacitors,
        period_seconds: float,
        reserve_factor: float = 0.7,
    ) -> None:
        self.graph = graph
        self.capacitors = tuple(capacitors)
        self.period_seconds = period_seconds
        self.reserve_factor = reserve_factor
        self._by_cost = sorted(
            range(len(graph)), key=lambda i: graph.tasks[i].energy
        )

    def decide(
        self, view: PeriodStartView, prev_solar: np.ndarray
    ) -> CoarseDecision:
        expected_solar = float(np.mean(prev_solar)) * self.period_seconds
        stored = sum(
            max(cap.energy_at(v) - cap.energy_at(cap.v_cutoff), 0.0)
            for cap, v in zip(self.capacitors, view.bank.voltages)
        )
        budget = expected_solar + self.reserve_factor * stored
        te = np.zeros(len(self.graph), dtype=bool)
        spent = 0.0
        for i in self._by_cost:
            cost = self.graph.tasks[i].energy
            if spent + cost <= budget:
                te[i] = True
                spent += cost
        te = close_subset(self.graph, te)
        alpha = spent / expected_solar if expected_solar > 0 else 5.0
        surplus = max(expected_solar - spent, 0.0)
        capacities = np.array(
            [c.usable_capacity for c in self.capacitors]
        )
        cap = int(np.argmin(np.abs(capacities - max(surplus, stored))))
        return cap, float(alpha), te


class ProposedScheduler(Scheduler):
    """The paper's online algorithm: coarse policy + δ-selected fine pass.

    This is the repository's one two-stage scheduler: the DBN, its
    ablations and the DP replays (:class:`~repro.core.optimal.PlanPolicy`,
    :class:`~repro.core.horizon.HorizonPolicy`) differ only in the
    :class:`CoarsePolicy` it runs.

    The coarse stage is wrapped in a graceful-degradation ladder
    mirroring the paper's δ-fallback philosophy: a failing or corrupt
    coarse model narrows the schedule, it never crashes the slot loop.
    On a primary-policy failure (exception or invalid output per
    :func:`validate_coarse_decision`) the stage retries once, then
    falls back to ``fallback_policy`` (typically the LUT-style
    :class:`NearestSamplePolicy`), then to inter-task-only scheduling
    of the full task set.  ``quarantine_threshold`` consecutive
    primary failures quarantine the primary for
    ``quarantine_periods`` periods so a persistently broken model
    stops being retried every period.
    """

    name = "proposed"

    def __init__(
        self,
        policy: CoarsePolicy,
        delta: float = 0.5,
        name: Optional[str] = None,
        fallback_policy: Optional[CoarsePolicy] = None,
        max_retries: int = 1,
        quarantine_threshold: int = 3,
        quarantine_periods: int = 10,
    ) -> None:
        """
        Parameters
        ----------
        policy:
            The coarse per-period decision model (DBN in the paper).
        delta:
            δ of Section 5.2: when ``|1 - α| > delta`` the cheap
            inter-task pass replaces the intra-task matching.
        fallback_policy:
            Second rung of the degradation ladder; None skips straight
            to inter-task-only scheduling.
        max_retries:
            Primary-policy retries per period before falling back.
        quarantine_threshold:
            Consecutive primary failures before quarantine kicks in.
        quarantine_periods:
            Periods the primary is skipped once quarantined.
        """
        if delta < 0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if quarantine_threshold < 1:
            raise ValueError(
                f"quarantine_threshold must be >= 1, got "
                f"{quarantine_threshold}"
            )
        if quarantine_periods < 1:
            raise ValueError(
                f"quarantine_periods must be >= 1, got {quarantine_periods}"
            )
        self.policy = policy
        self.delta = delta
        self.fallback_policy = fallback_policy
        self.max_retries = max_retries
        self.quarantine_threshold = quarantine_threshold
        self.quarantine_periods = quarantine_periods
        if name is not None:
            self.name = name
        self._selected: Set[int] = set()
        self._intra_mode = True
        self._failure_streak = 0
        self._quarantine_left = 0

    # ------------------------------------------------------------------
    @property
    def failure_streak(self) -> int:
        """Consecutive primary-policy failures (0 after any success)."""
        return self._failure_streak

    @property
    def quarantined(self) -> bool:
        """True while the primary policy is quarantined."""
        return self._quarantine_left > 0

    @property
    def selected(self) -> Set[int]:
        """This period's dependence-closed task subset ``te``."""
        return self._selected

    @property
    def intra_mode(self) -> bool:
        """True when this period's fine pass is the intra-task matching."""
        return self._intra_mode

    def bind(self, timeline: Timeline, graph: TaskGraph) -> None:
        super().bind(timeline, graph)
        self.policy.bind(timeline, graph)

    def _attempt(
        self, policy: CoarsePolicy, view: PeriodStartView,
        prev: np.ndarray, injected_failure: bool,
    ) -> Optional[CoarseDecision]:
        if injected_failure and policy.inferred:
            raise InjectedInferenceFault(
                "runtime fault plan forced an inference failure"
            )
        decision = policy.decide(view, prev)
        if decision is None:
            return None
        return validate_coarse_decision(
            len(view.graph), len(view.bank.capacitances), *decision
        )

    def _coarse_with_degradation(
        self, view: PeriodStartView, prev: np.ndarray
    ) -> Tuple[Optional[CoarseDecision], bool]:
        """Walk the degradation ladder; always returns a usable decision
        (``None`` only from a policy without one this period) and
        whether its capacitor is forced."""
        obs = self.observer
        injected = view.faults is not None and view.faults.fail_inference
        last_error: object = None

        if self._quarantine_left > 0:
            self._quarantine_left -= 1
            last_error = "primary policy quarantined"
            if obs.enabled:
                obs.emit(PolicyFallbackEvent(
                    stage="quarantine",
                    reason=(
                        f"primary skipped, {self._quarantine_left + 1} "
                        "period(s) of quarantine remaining"
                    ),
                    failure_streak=self._failure_streak,
                ))
        else:
            for attempt in range(1 + self.max_retries):
                if attempt > 0 and obs.enabled:
                    obs.emit(PolicyFallbackEvent(
                        stage="retry",
                        reason=str(last_error),
                        failure_streak=self._failure_streak,
                    ))
                try:
                    result = self._attempt(self.policy, view, prev, injected)
                except Exception as exc:  # degrade, never crash the loop
                    last_error = exc
                else:
                    self._failure_streak = 0
                    return result, self.policy.forces_capacitor
            self._failure_streak += 1
            if self._failure_streak >= self.quarantine_threshold:
                self._quarantine_left = self.quarantine_periods
                if obs.enabled:
                    obs.emit(PolicyFallbackEvent(
                        stage="quarantine",
                        reason=(
                            f"{self._failure_streak} consecutive failures; "
                            f"last: {last_error}"
                        ),
                        failure_streak=self._failure_streak,
                    ))

        if self.fallback_policy is not None:
            try:
                result = self._attempt(self.fallback_policy, view, prev, False)
            except Exception as exc:
                last_error = exc
            else:
                if obs.enabled:
                    obs.emit(PolicyFallbackEvent(
                        stage="fallback_policy",
                        reason=str(last_error),
                        failure_streak=self._failure_streak,
                    ))
                return result, self.fallback_policy.forces_capacitor

        # Terminal rung, always valid: keep the active capacitor,
        # attempt every task, and force |1 - α| > δ so the cheap
        # inter-task pass runs — the δ-fallback generalised to "the
        # coarse stage is down".
        if obs.enabled:
            obs.emit(PolicyFallbackEvent(
                stage="inter_task_only",
                reason=str(last_error),
                failure_streak=self._failure_streak,
            ))
        return (
            view.bank.active_index,
            1.0 + self.delta + 1.0,
            np.ones(len(view.graph), dtype=bool),
        ), False

    def on_period_start(self, view: PeriodStartView) -> None:
        prev = (
            view.last_period_powers
            if view.last_period_powers is not None
            else np.zeros(view.timeline.slots_per_period)
        )
        obs = self.observer
        decision, forced = self._coarse_with_degradation(view, prev)
        if decision is None:
            self._selected = set(range(len(view.graph)))
            self._intra_mode = True
            return
        cap, alpha, te = decision
        te = close_subset(view.graph, np.asarray(te, dtype=bool))
        self._selected = set(np.flatnonzero(te).tolist())
        self._intra_mode = abs(1.0 - alpha) <= self.delta
        if obs.enabled:
            obs.emit(CoarseDecisionEvent(
                # No capacitor call: the period runs on the active one.
                cap_index=view.bank.active_index if cap is None else cap,
                alpha=alpha,
                intra_mode=self._intra_mode,
                task_subset=tuple(sorted(self._selected)),
            ))
            if not self._intra_mode:
                obs.emit(DeltaFallbackEvent(alpha=alpha, delta=self.delta))
        if cap is None:
            return
        if forced:
            view.force_capacitor(cap)
        else:
            view.request_capacitor(cap)

    def on_slot(self, view: SlotView) -> Sequence[int]:
        return fine_grained_decision(view, self._selected, self._intra_mode)

    def on_period_end(self, view: PeriodEndView) -> None:
        self.policy.observe(view)
