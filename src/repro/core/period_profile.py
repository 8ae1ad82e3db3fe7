"""Per-period scheduling profiles (the LUT generator's inner problem).

Section 4.2 of the paper replaces the raw INLP with a per-period
subproblem: *given a DMR target, minimise the energy drawn from the
super capacitor* (Eq. 15–16).  With at most 8 tasks per period the
dependence-closed task subsets can be enumerated exactly; what remains
is estimating, per subset, how much storage a schedule needs under the
period's solar profile.

:meth:`PeriodProfiler.profile` answers with a **fluid bound**: tasks
are preemptible at slot granularity, so the minimum storage draw of a
subset is the worst cumulative shortfall of supply against the
demand-by-deadline curve.  This is exact for a single implicit
processor and a lower bound with NVP binding; it is fully vectorised
across subsets, which makes the long-term DP tractable.  The online
fine pass, not this module, decides which task runs in which slot.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from ..tasks.graph import TaskGraph
from ..timeline import Timeline

__all__ = [
    "closed_subsets",
    "PeriodProfile",
    "PeriodProfiler",
]


def closed_subsets(graph: TaskGraph) -> np.ndarray:
    """All dependence-closed task subsets as a boolean matrix.

    A subset is *closed* when every predecessor of a member is also a
    member — only closed subsets can complete entirely (Eq. 7).  The
    empty set is included (DMR = 1 periods).  Shape:
    ``(num_subsets, num_tasks)``.
    """
    n = len(graph)
    if n > 16:
        raise ValueError(
            f"subset enumeration supports up to 16 tasks, got {n}"
        )
    masks: List[int] = []
    pred_masks = np.zeros(n, dtype=np.int64)
    for i in range(n):
        m = 0
        for p in graph.predecessors(i):
            m |= 1 << p
        pred_masks[i] = m
    for mask in range(1 << n):
        ok = True
        for i in range(n):
            if mask & (1 << i) and (mask & pred_masks[i]) != pred_masks[i]:
                ok = False
                break
        if ok:
            masks.append(mask)
    out = np.zeros((len(masks), n), dtype=bool)
    for row, mask in enumerate(masks):
        for i in range(n):
            out[row, i] = bool(mask & (1 << i))
    return out


@dataclasses.dataclass(frozen=True)
class PeriodProfile:
    """Best schedule summary per completion count for one period.

    Arrays are indexed by ``k`` = number of completed tasks, 0..N;
    infeasible ``k`` (no closed subset of that size) have
    ``feasible[k] = False``.

    Attributes
    ----------
    storage_need:
        Minimum energy the load must draw from storage, joules (fluid
        bound).
    surplus:
        Solar energy left over for charging at the PMU rail, joules.
    alpha:
        Load/solar ratio of the subset (Eq. 18); ``inf`` when the
        period has no solar.
    subsets:
        Boolean ``(N+1, N)`` matrix: the chosen subset per ``k``
        (the paper's ``te_{i,j}(n)``).
    """

    feasible: np.ndarray
    storage_need: np.ndarray
    surplus: np.ndarray
    alpha: np.ndarray
    subsets: np.ndarray

    @property
    def num_tasks(self) -> int:
        """Size of the task set this profile describes."""
        return self.subsets.shape[1]

    def dmr_of(self, k: int) -> float:
        """Period DMR when exactly ``k`` tasks complete."""
        return (self.num_tasks - k) / self.num_tasks


class PeriodProfiler:
    """Vectorised per-period profile computation for one task set.

    Parameters
    ----------
    graph / timeline:
        Workload and time structure.
    direct_efficiency:
        Efficiency of the direct solar channel (must match the node).
    """

    def __init__(
        self,
        graph: TaskGraph,
        timeline: Timeline,
        direct_efficiency: float = 0.98,
    ) -> None:
        if not 0.0 < direct_efficiency <= 1.0:
            raise ValueError(
                f"direct_efficiency must be in (0, 1], got {direct_efficiency}"
            )
        self.graph = graph
        self.timeline = timeline
        self.direct_efficiency = direct_efficiency

        self.subsets = closed_subsets(graph)  # (S, N)
        self._sizes = self.subsets.sum(axis=1)  # tasks per subset
        energies = np.array([t.energy for t in graph.tasks])
        self._subset_energy = self.subsets @ energies  # (S,)

        # Demand-by-deadline: cum_demand[s, m] = energy of subset-s
        # tasks whose deadline is checked at slot <= m.
        n_slots = timeline.slots_per_period
        deadline_slots = np.array(
            [timeline.deadline_slot(t.deadline) for t in graph.tasks]
        )
        due_by = (
            deadline_slots[None, :] <= np.arange(1, n_slots + 1)[:, None]
        )  # (N_s, N)
        self._cum_demand = self.subsets @ (due_by * energies[None, :]).T
        # shape (S, N_s)

    # ------------------------------------------------------------------
    def profile(self, solar_powers: np.ndarray) -> PeriodProfile:
        """Profile one period given its per-slot solar power (W)."""
        solar = np.asarray(solar_powers, dtype=float)
        if solar.shape != (self.timeline.slots_per_period,):
            raise ValueError(
                f"solar_powers must have shape "
                f"({self.timeline.slots_per_period},), got {solar.shape}"
            )
        dt = self.timeline.slot_seconds
        supply = np.cumsum(solar) * dt * self.direct_efficiency  # (N_s,)
        total_solar = float(solar.sum() * dt)
        usable_solar = total_solar * self.direct_efficiency

        shortfall = self._cum_demand - supply[None, :]
        need = np.maximum(shortfall.max(axis=1), 0.0)  # (S,)
        need = np.minimum(need, self._subset_energy)
        direct_used = self._subset_energy - need
        surplus = np.maximum(usable_solar - direct_used, 0.0)
        with np.errstate(divide="ignore"):
            alpha = np.where(
                total_solar > 0, self._subset_energy / max(total_solar, 1e-30),
                np.inf,
            )

        n = len(self.graph)
        feasible = np.zeros(n + 1, dtype=bool)
        best_need = np.full(n + 1, np.inf)
        best_surplus = np.zeros(n + 1)
        best_alpha = np.zeros(n + 1)
        best_subsets = np.zeros((n + 1, n), dtype=bool)
        for s in range(len(self.subsets)):
            k = int(self._sizes[s])
            better = need[s] < best_need[k] - 1e-12 or (
                abs(need[s] - best_need[k]) <= 1e-12
                and surplus[s] > best_surplus[k]
            )
            if not feasible[k] or better:
                feasible[k] = True
                best_need[k] = need[s]
                best_surplus[k] = surplus[s]
                best_alpha[k] = alpha[s] if np.isfinite(alpha[s]) else np.inf
                best_subsets[k] = self.subsets[s]
        best_need[~feasible] = np.inf
        return PeriodProfile(
            feasible=feasible,
            storage_need=best_need,
            surplus=best_surplus,
            alpha=best_alpha,
            subsets=best_subsets,
        )

    def profile_many(self, solar_matrix: np.ndarray) -> List[PeriodProfile]:
        """Profiles for each row of ``(num_periods, N_s)`` solar powers."""
        matrix = np.asarray(solar_matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(
                f"solar_matrix must be 2-D, got shape {matrix.shape}"
            )
        return [self.profile(row) for row in matrix]

