"""Offline long-term DMR optimisation (Section 4.2 of the paper).

The paper replaces the intractable INLP with per-period DMR variables
``DMR_{i,j}`` and per-day capacitor choices ``C_{h,i}`` resolved
through a per-period LUT (Eq. 12–18).  That structure is exactly a
shortest-path problem over storage states, which we solve as a dynamic
program:

* **state** — which capacitor is active and how much usable energy it
  holds (discretised into buckets; idle capacitors are approximated as
  drained, which the Eq. (22) switching rule makes nearly true);
* **action** — per period, the number of tasks to complete ``k``
  (equivalently the period DMR ``(N-k)/N``), realised by the cheapest
  dependence-closed subset from :class:`PeriodProfiler`; per day
  boundary, an optional capacitor switch (allowed when the active
  capacitor is nearly drained, mirroring Eq. 22);
* **transition** — capacitor physics: discharge for the subset's
  storage need, charge with the leftover surplus, leak for the period;
* **cost** — the period DMR, with a tiny energy tie-break so equal-DMR
  plans prefer the one consuming the least storage (Eq. 15).

Solved backward over the horizon it yields the *static optimal*
schedule of this planning model (optimal for the fluid model and its
storage buckets, not a bound on the engine's DMR; see
:mod:`repro.core.optimal`); its forward extraction
produces the per-period coarse decisions (for
:class:`~repro.core.optimal.PlanPolicy` replay) and the training
samples for the DBN.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..energy.capacitor import SuperCapacitor
from ..tasks.graph import TaskGraph
from ..timeline import Timeline
from .period_profile import PeriodProfiler

__all__ = [
    "DPConfig",
    "StorageGrid",
    "TrainingSample",
    "LongTermPlan",
    "LongTermOptimizer",
    "trace_period_matrix",
]


def trace_period_matrix(trace) -> np.ndarray:
    """Flatten a :class:`~repro.solar.trace.SolarTrace` to
    ``(total_periods, slots_per_period)``."""
    tl = trace.timeline
    return trace.power.reshape(tl.total_periods, tl.slots_per_period)


@dataclasses.dataclass(frozen=True)
class DPConfig:
    """Tuning knobs of the long-term DP.

    Buckets round *down* (pessimistic): the DP can never conjure
    storage energy out of discretisation, at the price of losing up to
    one bucket of energy per period, so keep buckets fine relative to
    the per-period demand.
    """

    energy_buckets: int = 241
    switch_threshold: float = 2.0  # E_th (J) for day-boundary switches
    energy_tiebreak: float = 1e-9  # cost per joule drawn (Eq. 15 tie-break)

    def __post_init__(self) -> None:
        if self.energy_buckets < 2:
            raise ValueError(
                f"energy_buckets must be >= 2, got {self.energy_buckets}"
            )
        if self.switch_threshold < 0:
            raise ValueError("switch_threshold must be >= 0")
        if self.energy_tiebreak < 0:
            raise ValueError("energy_tiebreak must be >= 0")


class StorageGrid:
    """Discretised (capacitor, usable-energy) state space."""

    def __init__(
        self, capacitors: Sequence[SuperCapacitor], buckets: int
    ) -> None:
        if not capacitors:
            raise ValueError("need at least one capacitor")
        if buckets < 2:
            raise ValueError(f"buckets must be >= 2, got {buckets}")
        self.capacitors = tuple(capacitors)
        self.buckets = buckets
        h = len(capacitors)
        self.num_states = h * buckets

        cap_idx = np.repeat(np.arange(h), buckets)
        frac = np.tile(np.linspace(0.0, 1.0, buckets), h)
        usable_caps = np.array([c.usable_capacity for c in capacitors])
        floor_e = np.array(
            [c.energy_at(c.v_cutoff) for c in capacitors]
        )
        self.state_cap = cap_idx
        self.state_usable = frac * usable_caps[cap_idx]
        self.state_energy = floor_e[cap_idx] + self.state_usable
        caps_f = np.array([c.capacitance for c in capacitors])
        self.state_capacitance = caps_f[cap_idx]
        self.state_voltage = np.sqrt(
            2.0 * self.state_energy / self.state_capacitance
        )
        self._floor = floor_e
        self._usable_caps = usable_caps
        self._full_energy = np.array(
            [c.energy_at(c.v_full) for c in capacitors]
        )[cap_idx]

        # Vectorised per-state device parameters (curves differ per cap).
        self._cycle = np.array([c.cycle_efficiency for c in capacitors])[
            cap_idx
        ]
        self._in_eta_max = np.array(
            [c.input_regulator.eta_max for c in capacitors]
        )[cap_idx]
        self._in_v_half = np.array(
            [c.input_regulator.v_half for c in capacitors]
        )[cap_idx]
        self._in_exp = np.array(
            [c.input_regulator.exponent for c in capacitors]
        )[cap_idx]
        self._in_v_half_pow = self._in_v_half**self._in_exp
        self._leak_coeff = np.array([c.leak_coeff for c in capacitors])[
            cap_idx
        ]
        self._leak_exp = np.array([c.leak_exponent for c in capacitors])[
            cap_idx
        ]
        self._parasitic = np.array(
            [c.parasitic_power for c in capacitors]
        )[cap_idx]
        self._eta_dis = np.array(
            [
                capacitors[cap_idx[s]].discharge_efficiency(
                    self.state_voltage[s]
                )
                for s in range(self.num_states)
            ]
        )

    # ------------------------------------------------------------------
    def state_index(self, cap_index: int, usable_energy: float) -> int:
        """Closest state to the given capacitor + usable energy."""
        if not 0 <= cap_index < len(self.capacitors):
            raise IndexError(f"cap_index {cap_index} out of range")
        cap_usable = self._usable_caps[cap_index]
        frac = 0.0 if cap_usable <= 0 else usable_energy / cap_usable
        bucket = int(round(np.clip(frac, 0.0, 1.0) * (self.buckets - 1)))
        return cap_index * self.buckets + bucket

    def drained_state(self, cap_index: int) -> int:
        """State index of capacitor ``cap_index`` at zero usable energy."""
        return cap_index * self.buckets

    def transition(
        self, need, surplus, duration: float, states=None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply (need, surplus) pairs to every state, one row per pair.

        ``need`` and ``surplus`` are scalars or equal-shape arrays;
        returns ``(feasible, next_index, drawn)`` of shape
        ``need.shape + (num_states,)``.  ``feasible`` is False where
        the state cannot deliver ``need``.  A row with no need (or no
        surplus) skips the discharge (or charge) exactly.  ``states``
        (a sequence of state indices) evaluates only those states, in
        that order, with the same elementwise operations; the last
        axis then has ``len(states)`` entries.
        """
        at = slice(None) if states is None else np.asarray(states, dtype=int)
        cap = self.state_cap[at]
        shape = np.shape(need) + np.shape(cap)
        need = np.asarray(need, dtype=float).reshape(-1, 1)
        surplus = np.asarray(surplus, dtype=float).reshape(-1, 1)
        has_need = need > 0
        has_surplus = surplus > 0

        eta_dis = self._eta_dis[at]
        with np.errstate(divide="ignore"):
            want = np.where(
                eta_dis > 0, need / np.maximum(eta_dis, 1e-12), np.inf
            )
        feasible = ~has_need | (want <= self.state_usable[at] + 1e-9)
        drawn = np.where(has_need & feasible, want, 0.0)
        energy = self.state_energy[at] - drawn

        capacitance = self.state_capacitance[at]
        voltage = np.sqrt(np.maximum(2.0 * energy / capacitance, 0.0))
        vp = voltage**self._in_exp[at]
        eta_chr = (
            self._in_eta_max[at] * vp / (vp + self._in_v_half_pow[at])
            * self._cycle[at]
        )
        stored = np.minimum(
            surplus * eta_chr, np.maximum(self._full_energy[at] - energy, 0)
        )
        energy = np.where(has_surplus, energy + stored, energy)

        voltage = np.sqrt(np.maximum(2.0 * energy / capacitance, 0.0))
        leak = (
            self._leak_coeff[at] * capacitance * voltage**self._leak_exp[at]
            + self._parasitic[at]
        )
        energy = np.maximum(energy - leak * duration, 0.0)

        usable_next = np.maximum(energy - self._floor[cap], 0.0)
        frac = usable_next / np.maximum(self._usable_caps[cap], 1e-30)
        # Floor: never round stored energy upward (see DPConfig).
        bucket = np.floor(
            np.clip(frac, 0.0, 1.0) * (self.buckets - 1) + 1e-9
        ).astype(int)
        next_index = cap * self.buckets + bucket
        return (
            feasible.reshape(shape),
            next_index.reshape(shape),
            drawn.reshape(shape),
        )


@dataclasses.dataclass(frozen=True)
class TrainingSample:
    """One supervised sample for the DBN (Figure 6 inputs/outputs)."""

    prev_solar: np.ndarray  # per-slot power of the previous period, W
    voltages: np.ndarray  # per-capacitor voltage at period start, V
    accumulated_dmr: float
    cap_index: int  # C_{h,i}: capacitor of the day
    alpha: float  # scheduling-pattern index (Eq. 18), clipped
    te: np.ndarray  # tasks to execute this period (bool, N)


@dataclasses.dataclass
class LongTermPlan:
    """Output of the offline optimisation."""

    samples: List[TrainingSample]
    expected_dmr: float
    chosen_k: np.ndarray  # per period
    capacitor_by_day: np.ndarray
    transitions_evaluated: int
    te_by_period: np.ndarray = dataclasses.field(
        default_factory=lambda: np.zeros((0, 0), dtype=bool)
    )  # (P, N) chosen subset per period
    alpha_by_period: np.ndarray = dataclasses.field(
        default_factory=lambda: np.zeros(0)
    )  # (P,) pattern index per period


class LongTermOptimizer:
    """Dynamic program over (capacitor, energy) states and DMR targets."""

    #: alpha values are clipped here when the period has no solar.
    ALPHA_CLIP = 5.0

    def __init__(
        self,
        graph: TaskGraph,
        timeline: Timeline,
        capacitors: Sequence[SuperCapacitor],
        direct_efficiency: float = 0.98,
        config: Optional[DPConfig] = None,
    ) -> None:
        self.graph = graph
        self.timeline = timeline
        self.capacitors = tuple(capacitors)
        self.config = config or DPConfig()
        self.profiler = PeriodProfiler(
            graph, timeline, direct_efficiency=direct_efficiency
        )
        self.grid = StorageGrid(self.capacitors, self.config.energy_buckets)

    # ------------------------------------------------------------------
    def optimize(
        self,
        solar_periods: np.ndarray,
        start_cap: int = 0,
        start_usable: float = 0.0,
        periods_per_day: Optional[int] = None,
        augment_per_period: int = 0,
        augment_seed: int = 17,
    ) -> LongTermPlan:
        """Solve the DP over ``(num_periods, N_s)`` solar powers.

        ``periods_per_day`` controls where capacitor switches are
        allowed (defaults to the timeline's periods per day; pass 0 to
        forbid switching entirely).

        ``augment_per_period`` adds that many *off-trajectory* training
        samples per period: random storage states labelled with the
        DP's optimal action for that state (the backward pass computes
        it for every state anyway).  An online policy trained only on
        the optimal trajectory drifts — real deployments visit states
        the optimal plan never would — so these samples teach it what
        the oracle does everywhere, not just along its own path.
        """
        solar_periods = np.asarray(solar_periods, dtype=float)
        if solar_periods.ndim != 2 or solar_periods.shape[1] != (
            self.timeline.slots_per_period
        ):
            raise ValueError(
                f"solar_periods must be (P, {self.timeline.slots_per_period}), "
                f"got {solar_periods.shape}"
            )
        npd = (
            self.timeline.periods_per_day
            if periods_per_day is None
            else periods_per_day
        )
        num_periods = solar_periods.shape[0]
        n_tasks = len(self.graph)
        n_states = self.grid.num_states
        duration = self.timeline.period_seconds

        profiles = self.profiler.profile_many(solar_periods)

        # Per-period transitions are recomputed on the fly in both
        # passes (memoising the full (P, K+1, S) tables would need
        # hundreds of MB for monthly horizons).
        transitions = 0

        def period_transitions(t: int):
            nonlocal transitions
            prof = profiles[t]
            nxt = np.zeros((n_tasks + 1, n_states), dtype=np.int32)
            cost = np.full((n_tasks + 1, n_states), np.inf)
            ks = np.flatnonzero(prof.feasible)
            f, nx, drawn = self.grid.transition(
                prof.storage_need[ks], prof.surplus[ks], duration
            )
            transitions += len(ks) * n_states
            nxt[ks] = nx
            dmr = np.array([prof.dmr_of(int(k)) for k in ks])
            cost[ks] = np.where(
                f, dmr[:, None] + self.config.energy_tiebreak * drawn, np.inf
            )
            return nxt, cost

        # Backward pass.
        ctg = np.zeros(n_states)
        best_k = np.zeros((num_periods, n_states), dtype=np.int8)
        switch_to = np.full((num_periods, n_states), -1, dtype=np.int32)
        for t in range(num_periods - 1, -1, -1):
            nxt_t, cost_t = period_transitions(t)
            costs = cost_t + np.take(ctg, nxt_t)  # (K+1, S)
            best = np.argmin(costs, axis=0)
            value = costs[best, np.arange(n_states)]
            # Completing nothing (k=0) is always feasible, so value is
            # finite everywhere.
            best_k[t] = best
            ctg = value
            if npd and t % npd == 0:
                # Day boundary: optional switch before the period, only
                # from nearly-drained states (Eq. 22).
                drained_targets = np.array(
                    [
                        self.grid.drained_state(h)
                        for h in range(len(self.capacitors))
                    ]
                )
                target_vals = ctg[drained_targets]
                best_target = int(np.argmin(target_vals))
                can_switch = (
                    self.grid.state_usable < self.config.switch_threshold
                )
                improves = target_vals[best_target] < ctg - 1e-15
                do_switch = can_switch & improves
                switch_to[t] = np.where(
                    do_switch, drained_targets[best_target], -1
                )
                ctg = np.where(do_switch, target_vals[best_target], ctg)

        # Forward extraction.
        state = self.grid.state_index(start_cap, start_usable)
        samples: List[TrainingSample] = []
        chosen_k = np.zeros(num_periods, dtype=int)
        te_by_period = np.zeros((num_periods, n_tasks), dtype=bool)
        alpha_by_period = np.zeros(num_periods)
        num_days = (num_periods + npd - 1) // npd if npd else 1
        cap_by_day = np.zeros(max(num_days, 1), dtype=int)
        dmr_sum = 0.0
        n_slots = self.timeline.slots_per_period
        prev_solar = np.zeros(n_slots)
        acc_trajectory = np.zeros(num_periods)

        for t in range(num_periods):
            if npd and t % npd == 0:
                target = switch_to[t, state]
                if target >= 0:
                    state = int(target)
                cap_by_day[t // npd] = int(self.grid.state_cap[state])
            k = int(best_k[t, state])
            chosen_k[t] = k
            prof = profiles[t]
            te = prof.subsets[k]
            te_by_period[t] = te
            alpha_by_period[t] = (
                float(np.clip(prof.alpha[k], 0.0, self.ALPHA_CLIP))
                if k > 0
                else 0.0
            )

            voltages = np.array(
                [c.v_cutoff for c in self.capacitors], dtype=float
            )
            h = int(self.grid.state_cap[state])
            voltages[h] = self.grid.state_voltage[state]
            acc = dmr_sum / t if t else 0.0
            acc_trajectory[t] = acc
            alpha = float(prof.alpha[k]) if k > 0 else 0.0
            samples.append(
                TrainingSample(
                    prev_solar=prev_solar.copy(),
                    voltages=voltages,
                    accumulated_dmr=acc,
                    cap_index=h,
                    alpha=float(np.clip(alpha, 0.0, self.ALPHA_CLIP)),
                    te=te.copy(),
                )
            )

            dmr_sum += prof.dmr_of(k)
            prev_solar = solar_periods[t]
            # Only the current state's successor is needed.
            f, nx, _ = self.grid.transition(
                prof.storage_need[k], prof.surplus[k], duration, [state]
            )
            if not f[0]:  # defensive; k=0 is always feasible
                k = 0
                _, nx, _ = self.grid.transition(
                    prof.storage_need[0], prof.surplus[0], duration,
                    [state],
                )
            state = int(nx[0])

        if augment_per_period > 0:
            rng = np.random.default_rng(augment_seed)
            cutoffs = np.array([c.v_cutoff for c in self.capacitors])
            fulls = np.array([c.v_full for c in self.capacitors])
            for t in range(num_periods):
                prev = solar_periods[t - 1] if t > 0 else np.zeros(n_slots)
                prof = profiles[t]
                for _ in range(augment_per_period):
                    s = int(rng.integers(n_states))
                    h = int(self.grid.state_cap[s])
                    # The oracle's move from state s: at day boundaries
                    # it may first switch capacitors, then act from the
                    # post-switch state.
                    target = switch_to[t, s] if (npd and t % npd == 0) else -1
                    acting_state = int(target) if target >= 0 else s
                    k = int(best_k[t, acting_state])
                    cap_label = int(self.grid.state_cap[acting_state])
                    # Idle capacitors hold arbitrary residual voltage in
                    # deployment (Eq. 22 strands charge below E_th); the
                    # oracle ignores them, so randomise their inputs to
                    # teach the policy the same invariance.
                    voltages = rng.uniform(cutoffs, fulls)
                    voltages[h] = self.grid.state_voltage[s]
                    # The oracle's action does not depend on the
                    # accumulated DMR, but deployments visit the whole
                    # [0, 1] range (a fresh node has acc = 1.0 all
                    # night), so sample it uniformly.
                    acc = float(rng.uniform(0.0, 1.0))
                    alpha = float(prof.alpha[k]) if k > 0 else 0.0
                    samples.append(
                        TrainingSample(
                            prev_solar=prev.copy(),
                            voltages=voltages,
                            accumulated_dmr=acc,
                            cap_index=cap_label,
                            alpha=float(
                                np.clip(alpha, 0.0, self.ALPHA_CLIP)
                            ),
                            te=prof.subsets[k].copy(),
                        )
                    )

        return LongTermPlan(
            samples=samples,
            expected_dmr=dmr_sum / num_periods,
            chosen_k=chosen_k,
            capacitor_by_day=cap_by_day,
            transitions_evaluated=transitions,
            te_by_period=te_by_period,
            alpha_by_period=alpha_by_period,
        )
