"""Batched node-major engine core: one vectorized step per fleet shard.

The per-node :class:`~repro.sim.engine.SimulationEngine` advances one
node per Python slot iteration; fleets pay that Python overhead once
per node.  This module keeps the *same* simulation semantics but turns
the state into node-major numpy arrays shaped ``(n_nodes, ...)`` —
remaining work, deadline misses, bank voltages, NVP power states — so
one slot update advances every node of a shard simultaneously.

Bit-identity contract
---------------------
The batched engine is not "approximately" the per-node engine: every
floating-point operation is replayed elementwise in the same order, so
``result_fingerprint`` of a batched run equals the per-node run
byte-for-byte.  The layout decisions that make this work:

* **Task space vs position space.**  Runtime state (remaining, missed,
  started) lives in original task order; the static priority order the
  schedulers use — sorted by ``(deadline_slot, index)`` — is a
  precomputed per-node permutation, applied as one flat ``take`` with
  precomputed indices (and its inverse back into task space).
  Padded task slots (heterogeneous graph sizes) complete the
  permutation bijectively so scatters are exact.
* **Sequential masked sums.**  ``np.sum`` uses pairwise accumulation,
  which is *not* the left-to-right order of the scalar engine's
  ``sum(...)``; load power and leakage losses are therefore summed
  with ``np.add.accumulate`` along the position (or capacitor) axis,
  which adds strictly left to right, with a masked ``0.0`` where a
  node did not choose the task — exact, because ``x + 0.0`` is ``x``
  for every non-negative ``x``.
* **Static tables instead of per-position loops.**  A row's task set
  packs into one uint16 bitmask (``mask @ bit weights``), so the
  first-claim-wins NVP filter, the precedence test, the dependence
  cascade and the active-NVP set are each one AND against a static
  per-row table ("earlier position on the same NVP", predecessors,
  ancestors, tasks per NVP).  Each slot therefore costs a fixed number
  of numpy calls, whatever the task count, and that cost amortizes
  over the batch width.
* **Python pow where the scalar engine uses it, on live cells only.**
  numpy's pow ufunc is not bit-identical to libm's ``**`` on some
  platforms; the leakage voltage power keeps the per-element libm
  ``pow`` that the per-node engine's per-capacitor loop
  (:meth:`~repro.energy.bank.CapacitorBank.leak_all`) evaluates.
  A slot runs it only on the cells the run can change: each row's
  active column, and every column of a ``proposed`` row.  An idle
  column of any other row leaks from its cut-off voltage with no other
  input, so its powers come from one trajectory per distinct set of
  its own leak constants, computed once per run by the same elementwise
  expressions (:meth:`_BatchEngine._setup_leak`); padded columns keep
  ``pow(0, 1) = 0``.  The regulator curves go through the same
  ``np.power`` ufunc in both scalar and array form (see
  :class:`~repro.energy.regulator.RegulatorCurve`), so they vectorize
  directly.
* **Masked physics recurrences.**  Charge/discharge run the active
  column through :func:`~repro.energy.capacitor.charge_columns` /
  :func:`~repro.energy.capacitor.discharge_columns`: the 4-substep
  voltage recurrence of :class:`~repro.energy.capacitor.CapacitorState`
  with an ``alive`` mask standing in for the scalar ``break`` (bank
  sizing runs the same two functions).
* **Dark slots.**  Each period tests once which slots have zero solar
  on every row.  There, zero solar cannot change a decision: LSA,
  intra and lazy rows add no optional task to their must-run subset
  (each task power exceeds the 1e-12 tolerance of their solar test;
  a batch with a smaller one runs the general pass), so each row's
  load is one masked sum.  PMU routing reduces to the idle and the
  storage branch with nothing offered, stored or delivered directly,
  and the idle charge is :func:`~repro.energy.capacitor.charge_columns`'s
  zero-input round trip.
* **Per-slot tables built once.**  The deadline check, the open
  deadline mask and each position's whole slots to its deadline are
  ``(slots, n, t)`` tables, the same every period; whole slots of work
  left are recomputed only for the tasks a slot ran; a period's solar
  energy is one slot-ordered ``np.add.accumulate``.
* **Per-node Python only off the hot path.**  Coarse stages run per
  node once per *period* (below).  Each ``random`` row keeps its
  RandomScheduler's ``Generator``; once per period it tops a buffer up
  to the period's largest possible draw count (``slots × tasks``), and
  every slot consumes one draw per ready task through a cursor.
  ``Generator.random(k)`` yields the same doubles as ``k`` scalar
  draws, so the consumed stream is identical.
* **Per-row coarse stage, array fine pass.**  A *coarse row* — an
  ``inter-task`` or ``proposed`` row — runs its own, unchanged
  scheduler's ``on_period_start`` once per period on the
  :class:`~repro.sim.views.PeriodStartView` the per-node engine would
  build from its node (bank voltages, as read-only slices of one
  per-period snapshot; running DMR; last period's solar), and its
  ``on_period_end`` on the period's solar energy.  So
  WCMA prediction and admission, the DBN forward pass and the
  degradation ladder each have one implementation.  The scheduler's
  subset (``selected``: the admitted set, or the coarse ``te``) becomes
  the row's admission mask; a ``proposed`` row in intra mode joins the
  intra-task subset table, and one in δ-fallback takes the lazy greedy
  pass of :func:`~repro.schedulers.intratask.fine_grained_decision`.
* **Slot-hook rows.**  A row of a :data:`SLOT_HOOK_POLICIES` policy
  (``dvfs``) has no array fine pass: after the generic pass, every slot
  in which the row has a ready task, dark or lit, runs the row's own,
  unchanged scheduler's ``on_slot`` on the
  :class:`~repro.sim.views.SlotView` the per-node engine would build
  (the row's remaining work, misses and ready set as Python floats and
  bools, its static deadline slots), and normalises the decision with
  the per-node engine's :func:`~repro.sim.engine.normalize_decision`
  (non-strict, no DVFS model, as a fleet node has none: a reduced
  level falls back to 1.0).  The result overwrites the row's chosen
  tasks and load; the load is the engine's Python ``sum`` of unscaled
  task powers in decision order.  With no ready task the hook is
  skipped: the asap candidates it starts from are empty, and so is its
  decision.
* **Per-row active column, switched at period starts only.**  Eq. (22)
  capacitor requests of ``proposed`` rows move the row's active
  column; the active column's constants (capacitance, regulator
  curves, stop voltages) are re-gathered for the rows that switched,
  never inside the slot loop.  Every other policy's column is fixed
  for the whole run.
* **Node-major output.**  Each period's outcome is written into one
  column of a :class:`~repro.sim.recorder.PeriodTable`, the same table
  the per-node engine fills: ``(n, periods)`` arrays (miss counts, the
  seven energy terms, brownouts, active column) and ``(n, periods,
  tasks)`` / ``(n, periods, capacitors)`` blocks (executed sets, start
  voltages).  :func:`simulate_batch` returns the table; its rows are
  :class:`~repro.sim.recorder.SimulationResult` views whose metrics
  and fingerprint read the columns.

Eligibility: :func:`batch_ineligibility` names why a case cannot take
the batched path (a policy outside :data:`BATCH_POLICIES`, too many
tasks for the exact subset-enumeration table), and
:func:`simulate_batch` raises for such a case.  Every fleet node is
eligible (every fleet policy batches and no fleet graph exceeds the
table), so the fleet's shard executor
(:func:`repro.fleet.runner.simulate_shard_batch`) runs every node here.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..energy.capacitor import (
    COLUMN_CONSTANTS,
    CapacitorColumns,
    SuperCapacitor,
    charge_columns,
    discharge_columns,
)
from ..schedulers import make_scheduler
from ..solar.trace import SolarTrace
from ..tasks.graph import TaskGraph
from .engine import normalize_decision
from .recorder import ENERGY_TERMS, PeriodTable, SimulationResult
from .state import COMPLETION_EPS
from .views import BankView, PeriodEndView, PeriodStartView, SlotView

__all__ = [
    "BATCH_POLICIES",
    "MAX_BATCH_TASKS",
    "SLOT_HOOK_POLICIES",
    "BatchCase",
    "batch_ineligibility",
    "simulate_batch",
]

#: Policies the batched core runs: every fleet policy.  Each row
#: decides by its own scheduler's rule, as an array fine pass or, for
#: the slot-hook policies, its scheduler's own ``on_slot``.
BATCH_POLICIES: Tuple[str, ...] = (
    "asap",
    "inter-task",
    "intra-task",
    "dvfs",
    "random",
    "proposed",
)

#: Policies whose rows run their scheduler's ``on_slot`` per row per
#: slot.
SLOT_HOOK_POLICIES: Tuple[str, ...] = ("dvfs",)

#: Largest task count the batched intra-task subset table enumerates —
#: the same bound as ``best_power_match(max_exact=12)``.
MAX_BATCH_TASKS = 12


@dataclasses.dataclass(eq=False)
class BatchCase:
    """One node's configuration for a batched run.

    Defaults mirror what :func:`repro.fleet.runner.simulate_node`
    builds: a :class:`~repro.node.node.SensorNode` with default panel,
    PMU and NVPs — only the pieces that vary across a fleet (graph,
    weather, bank sizes, policy, seed) are parameters here.
    """

    graph: TaskGraph
    trace: SolarTrace
    capacitors: Tuple[SuperCapacitor, ...]
    policy: str
    scheduler_seed: int = 0
    #: ``proposed`` only: the offline stage's
    #: :class:`~repro.core.offline.TrainedPolicy` (anything with
    #: ``make_scheduler()`` and ``switch_threshold``, the ``E_th`` of
    #: Eq. 22).  ``capacitors`` is then its sized bank.
    trained: object = None


def batch_ineligibility(policy: str, graph: TaskGraph) -> Optional[str]:
    """Why a case cannot take the batched path; ``None`` when it can."""
    if policy not in BATCH_POLICIES:
        return f"policy {policy!r} not batched"
    if len(graph) > MAX_BATCH_TASKS:
        return f"{len(graph)} tasks exceeds MAX_BATCH_TASKS"
    return None


def _node_leak_row(
    node_index: int, devices: Sequence[SuperCapacitor]
) -> List[float]:
    """Per-capacitor ``leak_coeff * C`` products of one node's bank.

    Split out (rather than inlined into the constants setup) so the
    conformance suite can plant a deliberate corruption in a single
    node's leakage row and prove the batched-vs-per-node oracle
    pinpoints that node.
    """
    return [d.leak_coeff * d.capacitance for d in devices]


def simulate_batch(cases: Sequence[BatchCase]) -> Sequence[SimulationResult]:
    """Simulate every case in one node-major batch; results in order.

    Every case must be batch-eligible (see :func:`batch_ineligibility`)
    and share one timeline.  The result is the run's
    :class:`~repro.sim.recorder.PeriodTable` (``[]`` for no cases),
    a sequence of one :class:`SimulationResult` per case.
    """
    cases = list(cases)
    if not cases:
        return []
    for i, case in enumerate(cases):
        reason = batch_ineligibility(case.policy, case.graph)
        if reason is not None:
            raise ValueError(f"case {i} is not batch-eligible: {reason}")
    return _BatchEngine(cases).run()


#: Per-row task/position sets are uint16 bitmasks, bit ``j`` standing
#: for column ``j`` (``MAX_BATCH_TASKS`` < 16).  ``mask @ _BIT`` packs a
#: boolean ``(n, t)`` array; ``(bits[:, None] & table) != 0`` then asks
#: "does the set meet each table entry" for a whole row in one AND —
#: numpy's ``any`` over a short axis costs far more per call.
_BIT = (1 << np.arange(MAX_BATCH_TASKS)).astype(np.uint16)


def _bits(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(n, t)`` array into ``(n,)`` uint16 bitmasks."""
    return mask @ _BIT[: mask.shape[1]]


def _pack(rel: np.ndarray) -> np.ndarray:
    """Pack ``rel[row, i, j]`` over ``j`` into ``[row, i]`` bitmasks."""
    return (rel * _BIT[: rel.shape[2]]).sum(axis=2, dtype=np.uint16)


def _earlier_same(nvp: np.ndarray) -> np.ndarray:
    """``[row, p, q]``: column ``q`` precedes ``p`` on the same NVP."""
    cols = np.arange(nvp.shape[1])
    return (nvp[:, :, None] == nvp[:, None, :]) & (
        cols[None, :] < cols[:, None]
    )


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Left-to-right sum of each row, like the scalar ``sum(...)``."""
    return np.add.accumulate(terms, axis=1)[:, -1]


def _leak_terms(powv, v, leak_cc, parasitic, capacitance, dt):
    """The leak step of every cell as if idle, as CapacitorBank.leak_all
    computes it: ``(leak power, stored energy, energy after)``."""
    leak_power = leak_cc * powv + parasitic
    before = 0.5 * capacitance * v * v
    # The parasitic term is subtracted back out, not omitted.
    idle_power = np.maximum(leak_power - parasitic, 0.0)
    return leak_power, before, np.maximum(before - idle_power * dt, 0.0)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class _BatchEngine:
    """Node-major state and the vectorized slot update."""

    def __init__(self, cases: List[BatchCase]) -> None:
        self.cases = cases
        tl = cases[0].trace.timeline
        for i, case in enumerate(cases):
            if case.trace.timeline != tl:
                raise ValueError(
                    f"case {i} timeline differs from case 0; a batch "
                    "shares one timeline"
                )
        self.tl = tl
        self.n = len(cases)
        self._rows = np.arange(self.n)
        self._setup_tasks()
        self._setup_bank()
        self._setup_policies()
        self._setup_leak()
        # Per-node (total_periods, slots) views of the traces; each
        # period stacks its slice rather than the engine holding a
        # second copy of every trace.
        self._solar = [
            case.trace.power.reshape(tl.total_periods, tl.slots_per_period)
            for case in cases
        ]

    # ------------------------------------------------------------------
    def _setup_tasks(self) -> None:
        """Task-space constants and the priority-order permutation."""
        tl, n = self.tl, self.n
        graphs = [case.graph for case in self.cases]
        self.graphs = graphs
        self.t_ns = [len(g) for g in graphs]
        t_max = max(self.t_ns)
        self.t_max = t_max
        self.valid = np.zeros((n, t_max), dtype=bool)
        self.exec0 = np.zeros((n, t_max))
        powers = np.zeros((n, t_max))
        dls = np.full((n, t_max), -1, dtype=np.int64)
        nvp = np.zeros((n, t_max), dtype=np.int64)
        pred = np.zeros((n, t_max, t_max), dtype=bool)
        desc = np.zeros((n, t_max, t_max), dtype=bool)
        perm = np.zeros((n, t_max), dtype=np.int64)
        for row, g in enumerate(graphs):
            t_n = self.t_ns[row]
            self.valid[row, :t_n] = True
            self.exec0[row, :t_n] = [t.execution_time for t in g.tasks]
            powers[row, :t_n] = [t.power for t in g.tasks]
            row_dls = [tl.deadline_slot(t.deadline) for t in g.tasks]
            dls[row, :t_n] = row_dls
            for i in range(t_n):
                nvp[row, i] = g.nvp_of(i)
                for p in g.predecessors(i):
                    pred[row, i, p] = True
                for d in g.descendants(i):
                    desc[row, i, d] = True
            order = sorted(range(t_n), key=lambda i: (row_dls[i], i))
            perm[row, :t_n] = order
            perm[row, t_n:] = np.arange(t_n, t_max)
        self.powers = powers
        self.nvp = nvp
        # Whole slots of work left, ceil(remaining / dt), at a period
        # start; a slot recomputes it for the tasks it ran only.
        self.work0 = -np.floor_divide(-self.exec0, tl.slot_seconds)
        # In a slot where every row's solar is zero, a rule that matches
        # load to solar (LSA's run-all test, the intra subset search,
        # the lazy pass) adds no optional task when every task power
        # exceeds the rules' 1e-12 tolerance; otherwise such slots take
        # the general pass.
        self.dark_pass = bool((powers[self.valid] > 1e-12).all())
        # Task relations as per-row bitmasks over the task axis (see
        # _bits): a slot tests "any predecessor not done" with one AND.
        self.pred_bits = _pack(pred)
        self.anc_bits = _pack(desc.transpose(0, 2, 1))
        # Static priority-position views of the per-task constants.
        self.powers_pos = np.take_along_axis(powers, perm, axis=1)
        # Per-slot deadline tables, the same every period: ``due[s]``
        # the tasks checked at slot ``s``, ``open_[s]`` the valid tasks
        # whose deadline is still ahead, ``slack[s]`` each priority
        # position's whole slots left (the smallest signed dtype that
        # holds the ``-1 - slots .. slots`` range).
        slot_axis = np.arange(tl.slots_per_period)[:, None, None]
        self.due = dls == slot_axis
        self.any_due = self.due.any(axis=(1, 2)).tolist()
        self.open_ = self.valid & (slot_axis < dls)
        self.slack = (
            np.take_along_axis(dls, perm, axis=1) - slot_axis
        ).astype(np.min_scalar_type(-1 - tl.slots_per_period))
        self._pos_range = np.arange(t_max)
        # Flat gather indices: ``x.take(to_pos)`` is x in priority
        # position order, ``x_pos.take(to_task)`` the way back.
        offsets = (self._rows * t_max)[:, None]
        self.to_pos = perm + offsets
        self.to_task = np.argsort(perm, axis=1) + offsets
        # [row, p]: positions before p on the same NVP.  A candidate
        # survives first-claim-wins iff none of them is a candidate
        # (the first candidate on an NVP always claims it).
        self.earlier_same_bits = _pack(_earlier_same(
            np.take_along_axis(nvp, perm, axis=1)
        ))
        self.k_max = max(g.num_nvps for g in graphs)
        # [row, k]: the tasks that run on NVP k.
        self.nvp_task_bits = _pack(
            (nvp[:, None, :] == np.arange(self.k_max)[:, None])
            & self.valid[:, None, :]
        )
        # cycle_cost accumulates 3e-6 per transitioned NVP by repeated
        # addition in the scalar engine; precompute that prefix sum the
        # same way so k transitions index the identical float.
        costs = [0.0]
        for _ in range(self.k_max):
            costs.append(costs[-1] + 3.0e-6)
        self._cycle_table = np.array(costs)
        self._nvp_ones = np.ones(self.k_max, dtype=np.int64)

    def _setup_bank(self) -> None:
        """Bank constants, padded column-wise, and each row's active column.

        Baseline policies pin the largest capacitor at the first period
        and never switch (``StaticLargestCapacitorMixin``); the random
        policy never selects at all; a ``proposed`` row starts on the
        bank's default column 0 and may switch at any period start.
        The active column's constants are gathered per row from
        per-column tables (:meth:`_gather_active`), so charge and
        discharge touch one column per row.
        """
        n = self.n
        banks = [list(case.capacitors) for case in self.cases]
        self.c_ns = [len(b) for b in banks]
        c_max = max(self.c_ns)
        self.c_max = c_max
        self.cap_valid = np.zeros((n, c_max), dtype=bool)
        # Padded columns get capacitance 1 / zero volts / zero leak:
        # their leak update is exactly 0 -> 0 and costs nothing.  They
        # are never active, so their active-column constants stay 0.
        self.capacitance = np.ones((n, c_max))
        self.v0 = np.zeros((n, c_max))
        self.leak_coeff_cap = np.zeros((n, c_max))
        self.parasitic = np.zeros((n, c_max))
        self._col_tables = {
            name: np.zeros((n, c_max)) for name in COLUMN_CONSTANTS
        }
        self.leak_exp = np.ones((n, c_max))
        active = np.zeros(n, dtype=np.int64)
        for row, devices in enumerate(banks):
            c_n = self.c_ns[row]
            self.cap_valid[row, :c_n] = True
            self.capacitance[row, :c_n] = [d.capacitance for d in devices]
            self.v0[row, :c_n] = [d.v_cutoff for d in devices]
            self.leak_coeff_cap[row, :c_n] = _node_leak_row(row, devices)
            self.parasitic[row, :c_n] = [
                d.parasitic_power for d in devices
            ]
            for name, value in COLUMN_CONSTANTS.items():
                self._col_tables[name][row, :c_n] = [
                    value(d) for d in devices
                ]
            self.leak_exp[row, :c_n] = [d.leak_exponent for d in devices]
            if self.cases[row].policy not in ("random", "proposed"):
                caps = np.array([d.capacitance for d in devices])
                active[row] = int(caps.argmax())
        # Coarse rows' bank views hold slices of it.
        self.capacitance.flags.writeable = False
        self.active_col = active
        # Flat index of each row's active cell in an (n, c_max) array.
        self.active_flat = np.zeros(n, dtype=np.int64)
        self.active = CapacitorColumns(
            **{name: np.zeros(n) for name in COLUMN_CONSTANTS}
        )
        self._gather_active(self._rows)

    def _setup_leak(self) -> None:
        """Where the leak's per-cell ``pow`` runs, and the idle trajectories.

        Live cells (every column of a ``proposed`` row, the active
        column of any other row) run ``pow`` each slot.  An idle column
        of a row whose active column never moves only leaks, from its
        cut-off voltage: its per-slot powers are one trajectory per
        distinct ``(v0, leak * C, exponent, parasitic, C)`` of the row's
        own constants, run once here through the same elementwise
        expressions as :meth:`_leak`.  Padded columns stay at
        ``pow(0, 1) = 0``.
        """
        n, c_max = self.n, self.c_max
        live = self.cap_valid & self.is_prop[:, None]
        live.flat[self.active_flat] = True
        self.live_flat = np.flatnonzero(live)
        self.live_exps = self.leak_exp.take(self.live_flat).tolist()
        self.idle_flat = np.flatnonzero(self.cap_valid & ~live)
        self.powv = np.zeros((n, c_max))
        consts = np.stack(
            [
                table.take(self.idle_flat)
                for table in (
                    self.v0, self.leak_coeff_cap, self.leak_exp,
                    self.parasitic, self.capacitance,
                )
            ],
            axis=1,
        )
        # Distinct constant sets, compared byte for byte.
        raw = consts.view(np.dtype((np.void, consts.itemsize * 5))).ravel()
        _, first, self.idle_key = np.unique(
            raw, return_index=True, return_inverse=True
        )
        uniq = consts[first]
        v, leak_cc, e, parasitic, capacitance = uniq.T.copy()
        e = e.tolist()
        dt = self.tl.slot_seconds
        self.idle_pow = np.zeros((self.tl.total_slots, len(first)))
        for step in range(self.tl.total_slots if first.size else 0):
            powv = np.array(list(map(pow, v.tolist(), e)))
            self.idle_pow[step] = powv
            _, _, new_energy = _leak_terms(
                powv, v, leak_cc, parasitic, capacitance, dt
            )
            v = np.sqrt(2.0 * new_energy / capacitance)

    def _gather_active(self, rows: np.ndarray) -> None:
        """Re-gather the active-column constants of ``rows``."""
        cols = self.active_col[rows]
        self.active_flat[rows] = rows * self.c_max + cols
        for name, table in self._col_tables.items():
            getattr(self.active, name)[rows] = table[rows, cols]

    def _setup_policies(self) -> None:
        """Policy row groups, schedulers and the intra-task subset table."""
        policies = [case.policy for case in self.cases]
        # One scheduler per row from the policy table: it names the
        # result, a random row draws from its generator and a coarse
        # row runs its period hooks.
        self.schedulers = [
            make_scheduler(case.policy, case.scheduler_seed, case.trained)
            for case in self.cases
        ]
        self.is_asap = np.array([p == "asap" for p in policies])
        self.is_lsa = np.array([p == "inter-task" for p in policies])
        self.has_lsa = bool(self.is_lsa.any())
        self.is_intra = np.array([p == "intra-task" for p in policies])
        self.is_prop = np.array([p == "proposed" for p in policies])
        self.idx_prop = np.flatnonzero(self.is_prop)
        self.idx_coarse = np.flatnonzero(self.is_lsa | self.is_prop)
        # Proposed rows in δ-fallback mode this period.
        self.idx_lazy = self.idx_prop[:0]
        self.idx_random = np.flatnonzero(
            np.array([p == "random" for p in policies])
        )
        if self.idx_random.size:
            self._setup_random()
        if self.idx_coarse.size:
            self._setup_coarse()
        self.idx_hook = np.flatnonzero(
            np.array([p in SLOT_HOOK_POLICIES for p in policies])
        )
        if self.idx_hook.size:
            self._setup_hooks()
        # The intra group — intra-task rows, plus proposed rows in the
        # periods their coarse stage picks intra mode — enumerates
        # nonempty position subsets the way best_power_match does:
        # sizes ascending, lexicographic within a size.  Restricting
        # the table to the current optional set (bitmask inclusion)
        # visits the same combinations in the same order, because
        # relabeling optional positions is monotone.
        group = np.flatnonzero(self.is_intra | self.is_prop)
        self.intra_group = group
        if group.size:
            t_intra = max(self.t_ns[i] for i in group)
            combos = [
                combo
                for r in range(1, t_intra + 1)
                for combo in combinations(range(t_intra), r)
            ]
            # uint16 masks (see _bits) keep the per-slot
            # (n_intra, n_combos) availability test small.
            self.combo_bits = np.array(
                [sum(1 << p for p in combo) for combo in combos],
                dtype=np.uint16,
            )
            self.combo_masks = (
                (self.combo_bits[:, None] >> self._pos_range) & 1
            ).astype(bool)
            # Power sums are static per node: accumulate each combo in
            # ascending position order like the scalar sum(...) does.
            pos = self.powers_pos[group]
            sums = np.zeros((group.size, len(combos)))
            for j, combo in enumerate(combos):
                acc = pos[:, combo[0]].copy()
                for p in combo[1:]:
                    acc = acc + pos[:, p]
                sums[:, j] = acc
            self._group_sums = sums
            self._group_powers_pos = pos
        self._set_intra_rows(self.is_intra[group])

    def _set_intra_rows(self, member: np.ndarray) -> None:
        """Point the intra decision at the ``member`` rows of the group
        (intra-task rows always, proposed rows in intra-mode periods)."""
        self.idx_intra = self.intra_group[member]
        self.intra_rows = np.arange(self.idx_intra.size)
        if not self.idx_intra.size:
            return
        if member.all():
            self.combo_sums = self._group_sums
            self.intra_powers_pos = self._group_powers_pos
        else:
            self.combo_sums = self._group_sums[member]
            self.intra_powers_pos = self._group_powers_pos[member]

    def _setup_random(self) -> None:
        """Draw buffers and task-order tables of the random rows.

        Each row draws from its own RandomScheduler's generator: the
        stream carries across slots and periods exactly like
        RandomScheduler's.  The cursor starts at each row's capacity,
        so the first refill draws a full period's worth.
        """
        idx = self.idx_random
        slots = self.tl.slots_per_period
        self.rand_rngs = [self.schedulers[i].rng for i in idx]
        self.rand_cap = [slots * self.t_ns[i] for i in idx]
        width = slots * self.t_max
        self.rand_buf = np.zeros((idx.size, width))
        self.rand_cur = np.array(self.rand_cap, dtype=np.int64)
        self.rand_offsets = np.arange(idx.size) * width
        self.rand_powers = self.powers[idx]
        # [q, p]: q <= p, so ``ready @ upto`` counts ready tasks up to p.
        self.rand_upto = np.triu(
            np.ones((self.t_max, self.t_max), dtype=np.int64)
        )
        # RandomScheduler claims NVPs in ascending *task* order.
        self.rand_earlier_bits = _pack(_earlier_same(self.nvp[idx]))

    def _setup_coarse(self) -> None:
        """Bound schedulers and running state of the coarse rows."""
        self.coarse_rows = self.idx_coarse.tolist()
        for i in self.coarse_rows:
            self.schedulers[i].bind(self.tl, self.graphs[i])
        # A coarse row's mask before its scheduler's subset: padded
        # positions stay admitted (they are never ready anyway).
        self._coarse_pad = ~self.valid[self.idx_coarse]
        # Sum of finished periods' DMRs (the coarse stage's
        # accumulated-DMR input) and last period's solar energy.
        self.dmr_sum = np.zeros(self.n)
        self._t_n_arr = np.array(self.t_ns)
        self.last_solar_e = np.zeros(self.n)
        if self.idx_prop.size:
            self.t_prop = max(self.t_ns[i] for i in self.idx_prop)

    def _setup_hooks(self) -> None:
        """Bound schedulers and static view fields of the slot-hook rows."""
        tl = self.tl
        self.hooks = {}
        for i in self.idx_hook.tolist():
            graph = self.graphs[i]
            scheduler = self.schedulers[i]
            scheduler.bind(tl, graph)
            self.hooks[i] = (
                scheduler,
                graph,
                self.t_ns[i],
                tuple(tl.deadline_slot(t.deadline) for t in graph.tasks),
                [t.power for t in graph.tasks],
            )

    def _refill_random(self) -> None:
        """Top every random row's buffer up to one period's capacity.

        The unconsumed tail moves to the front and exactly the consumed
        count is drawn behind it, so a buffer never grows.
        """
        buf, cur = self.rand_buf, self.rand_cur
        for row, (rng, cap) in enumerate(zip(self.rand_rngs, self.rand_cap)):
            c = int(cur[row])
            left = cap - c
            buf[row, :left] = buf[row, c:cap]
            buf[row, left:cap] = rng.random(c)
        cur[:] = 0

    # ------------------------------------------------------------------
    # Masked bank physics (active column only)
    # ------------------------------------------------------------------
    def _charge(
        self, v: np.ndarray, mask: np.ndarray, energy_in: np.ndarray
    ) -> np.ndarray:
        """Masked CapacitorState.charge on the active column of ``v``.

        Returns the stored energy per node (0 outside ``mask``).
        """
        v_col = v.take(self.active_flat)
        stored = charge_columns(self.active, v_col, mask, energy_in)
        v.put(self.active_flat, v_col)
        return stored

    def _discharge(
        self, v: np.ndarray, mask: np.ndarray, energy_needed: np.ndarray
    ) -> np.ndarray:
        """Masked CapacitorState.discharge on the active column.

        Returns the delivered energy per node (0 outside ``mask``).
        """
        v_col = v.take(self.active_flat)
        delivered = discharge_columns(self.active, v_col, mask, energy_needed)
        v.put(self.active_flat, v_col)
        return delivered

    def _leak(self, v: np.ndarray, dt: float, step: int) -> np.ndarray:
        """CapacitorBank.leak_all over every row; returns lost energy.

        The voltage power term is per-element libm ``pow`` (same reason
        as leak_all) on the live cells and the precomputed idle
        trajectories elsewhere (:meth:`_setup_leak`; ``step`` counts
        the slots run so far); everything else is the identical
        elementwise expression.  Padded columns hold 0 V / zero leak
        constants, so their contribution is exactly ``+0.0`` and the
        per-column accumulation matches the scalar per-capacitor sum.
        """
        flat = self.active_flat
        powv = self.powv
        powv.put(self.idle_flat, self.idle_pow[step].take(self.idle_key))
        powv.put(
            self.live_flat,
            list(map(pow, v.take(self.live_flat).tolist(), self.live_exps)),
        )
        leak_power, before, new_energy = _leak_terms(
            powv, v, self.leak_coeff_cap, self.parasitic,
            self.capacitance, dt,
        )
        e_a = before.take(flat) - leak_power.take(flat) * dt
        e_a = np.minimum(np.maximum(e_a, 0.0), self.active.e_full)
        new_energy.put(flat, e_a)
        new_volts = np.sqrt(2.0 * new_energy / self.capacitance)
        after = 0.5 * self.capacitance * new_volts * new_volts
        diffs = before - after
        v[:] = new_volts
        return np.add.accumulate(diffs, axis=1)[:, -1]

    # ------------------------------------------------------------------
    def run(self) -> PeriodTable:
        tl = self.tl
        n, t_max, k_max = self.n, self.t_max, self.k_max
        dt = tl.slot_seconds
        slots = tl.slots_per_period
        to_pos, to_task = self.to_pos, self.to_task
        powers_pos = self.powers_pos
        has_random = self.idx_random.size > 0
        has_coarse = self.idx_coarse.size > 0
        has_hooks = self.idx_hook.size > 0
        # A dark slot's asap rows run their whole claimed queue; every
        # other non-random row runs its must-run subset only.
        dark_keep = self.is_asap[:, None]
        zeros = np.zeros(n)

        v = self.v0.copy()
        powered = np.ones((n, k_max), dtype=bool)
        # Admission filter: everything admitted except what each coarse
        # row's scheduler selects per period.
        admitted = np.ones((n, t_max), dtype=bool)
        out = PeriodTable(
            tl, [s.name for s in self.schedulers], self.t_ns, self.c_ns
        )
        energy_out = [out.energy[name] for name in ENERGY_TERMS]
        step = 0

        for flat_p in range(tl.total_periods):
            day, period = tl.unflatten_period(flat_p)
            if has_coarse:
                self._coarse_start(day, period, flat_p, v, admitted)
            if has_random:
                self._refill_random()
            out.start_voltages[:, flat_p] = v
            out.active_index[:, flat_p] = self.active_col
            remaining = self.exec0.copy()
            work = self.work0.copy()
            missed = np.zeros((n, t_max), dtype=bool)
            started = np.zeros((n, t_max), dtype=bool)
            load_e = np.zeros(n)
            direct_e = np.zeros(n)
            storage_e = np.zeros(n)
            charged_e = np.zeros(n)
            offered_e = np.zeros(n)
            leak_e = np.zeros(n)
            brownouts = np.zeros(n, dtype=np.int64)
            # (slots, n): one contiguous row per slot.
            solar_period = np.stack(
                [power[flat_p] for power in self._solar], axis=1
            )
            # The period's solar energy, summed in slot order from 0.0.
            solar_e = np.add.accumulate(
                np.concatenate([zeros[None], solar_period * dt]), axis=0
            )[-1]
            dark_slots = (
                (~solar_period.any(axis=1)).tolist()
                if self.dark_pass
                else [False] * slots
            )

            for slot in range(slots):
                # Deadline check at slot start, with the dependence
                # cascade (descendants of an incomplete missed task).
                done = remaining <= COMPLETION_EPS
                not_done = ~done
                if self.any_due[slot]:
                    newly = self.due[slot] & ~missed & not_done
                    if newly.any():
                        cascade = (
                            (self.anc_bits & _bits(newly)[:, None]) != 0
                        ) & ~missed & not_done
                        missed |= newly | cascade
                unblocked = (self.pred_bits & _bits(not_done)[:, None]) == 0
                ready = self.open_[slot] & not_done & ~missed & unblocked
                solar_vec = solar_period[slot]
                dark = dark_slots[slot]

                # Priority-position gathers + slack (must-run) test.
                ready_pos = ready.take(to_pos)
                must = self.slack[slot] - work.take(to_pos) <= 0.0

                # First-claim-wins NVP filter in priority order, then
                # the sequential load sums every policy reuses:
                # ``total_load`` adds the whole claimed queue position
                # by position — exactly the scalar ``sum(...)`` order —
                # and ``mand_load`` its must-run subsequence.
                cand = (
                    ready_pos & admitted.take(to_pos)
                    if has_coarse
                    else ready_pos
                )
                per_nvp = cand & (
                    (_bits(cand)[:, None] & self.earlier_same_bits) == 0
                )
                if dark:
                    # Zero solar on every row: LSA, intra and lazy rows
                    # add nothing to their must-run subset (see
                    # dark_pass), so each row's load is one masked sum.
                    chosen_pos = per_nvp & (must | dark_keep)
                    load = _row_sums(np.where(chosen_pos, powers_pos, 0.0))
                else:
                    chosen_pos, load = self._decide_lit(
                        per_nvp, must, solar_vec
                    )
                chosen = chosen_pos.take(to_task)

                if has_random:
                    self._decide_random(ready, chosen, load)
                if has_hooks:
                    self._slot_hooks(
                        day, period, slot, solar_vec,
                        remaining, done, missed, ready, chosen, load,
                    )

                # PMU routing: the three supply_slot branches as masks.
                if dark:
                    # Without solar only branches 1 (idle: a zero-input
                    # charge) and 3 (storage) remain; nothing is offered
                    # or delivered directly, and nothing is stored.
                    b3 = load > 0.0
                    needed = load * dt
                    delivered = self._discharge(v, b3, needed)
                    fraction = np.minimum(
                        delivered / np.where(b3, needed, 1.0), 1.0
                    )
                    run_fraction = np.where(b3, fraction, 1.0)
                    self._charge(v, ~b3, zeros)
                    storage = np.where(b3, delivered, 0.0)
                    load_e += storage
                else:
                    usable_solar = solar_vec * 0.98
                    b1 = load <= 0.0
                    b2 = ~b1 & (usable_solar >= load)
                    b3 = ~(b1 | b2)
                    needed = (load - usable_solar) * dt
                    delivered = self._discharge(v, b3, needed)
                    fraction = np.minimum(
                        delivered / np.where(b3, needed, 1.0), 1.0
                    )
                    run_fraction = np.where(b3, fraction, 1.0)
                    offered_idle = usable_solar * ((1.0 - fraction) * dt)
                    energy_in = np.where(
                        b1,
                        usable_solar * dt,
                        np.where(
                            b2, (usable_solar - load) * dt, offered_idle
                        ),
                    )
                    # Branches 1/2 always charge (even zero input: the
                    # below-v_stop sqrt round-trip must still happen);
                    # branch 3 charges only when idle surplus is
                    # positive.
                    do_charge = b1 | b2 | (b3 & (offered_idle > 0.0))
                    charged = self._charge(v, do_charge, energy_in)
                    direct = np.where(
                        b1,
                        0.0,
                        np.where(
                            b2, load * dt, usable_solar * fraction * dt
                        ),
                    )
                    storage = np.where(b3, delivered, 0.0)
                    load_e += direct + storage
                    direct_e += direct
                    charged_e += charged
                    offered_e += energy_in
                storage_e += storage

                # Task progress (chosen tasks are never missed).
                progressed = run_fraction * dt
                remaining = np.where(
                    chosen,
                    np.maximum(remaining - progressed[:, None], 0.0),
                    remaining,
                )
                work[chosen] = -np.floor_divide(-remaining[chosen], dt)
                started |= chosen

                # NVP nonvolatility bookkeeping: a brownout powers the
                # active NVPs down, a completed slot powers them up;
                # either way only the NVPs that change state cost.
                chosen_bits = _bits(chosen)
                brown = (run_fraction < 1.0 - 1e-9) & (chosen_bits != 0)
                active_nvp = (
                    chosen_bits[:, None] & self.nvp_task_bits
                ) != 0
                n_changed = (
                    active_nvp & (powered == brown[:, None])
                ) @ self._nvp_ones
                powered = np.where(active_nvp, ~brown[:, None], powered)
                cycle_cost = self._cycle_table[n_changed]
                cmask = cycle_cost > 0.0
                if cmask.any():
                    self._discharge(v, cmask, cycle_cost)
                brownouts += brown

                leak_e += self._leak(v, dt, step)
                step += 1

            # End of period: boundary deadline check + final sweep both
            # collapse to "every incomplete valid task is missed".
            missed |= self.valid & ~(remaining <= COMPLETION_EPS)
            miss_count = missed.sum(axis=1)
            out.miss_count[:, flat_p] = miss_count
            out.executed[:, flat_p] = started
            out.brownout_slots[:, flat_p] = brownouts
            for column, term in zip(energy_out, (
                solar_e, load_e, direct_e, storage_e,
                charged_e, offered_e, leak_e,
            )):
                column[:, flat_p] = term
            if has_coarse:
                # The next period start's running-DMR and last-solar
                # inputs, and each coarse row's own period-end hook.
                self.dmr_sum += miss_count / self._t_n_arr
                self.last_solar_e = solar_e
                energies = solar_e.tolist()
                for i in self.coarse_rows:
                    self.schedulers[i].on_period_end(
                        PeriodEndView(day, period, energies[i])
                    )

        return out

    def _decide_lit(
        self, per_nvp: np.ndarray, must: np.ndarray, solar_vec: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every non-random row's decision (position space) and load.

        The sequential sums equal the scalar engine's load for every
        single-segment decision (asap queue, LSA queue or mandatory
        subset); intra and lazy rows extend ``mand_load`` with their
        picked positions, in order.
        """
        idx_intra, idx_lazy = self.idx_intra, self.idx_lazy
        mand = per_nvp & must
        col_power = np.where(per_nvp, self.powers_pos, 0.0)
        total_load = _row_sums(col_power)
        mand_load = _row_sums(np.where(must, col_power, 0.0))
        chosen_pos = per_nvp & self.is_asap[:, None]
        load = np.where(self.is_asap, total_load, 0.0)
        if self.has_lsa:
            run_all = total_load <= solar_vec + 1e-12
            lsa_choice = np.where(run_all[:, None], per_nvp, mand)
            chosen_pos |= lsa_choice & self.is_lsa[:, None]
            load = np.where(
                self.is_lsa, np.where(run_all, total_load, mand_load), load
            )
        if idx_intra.size:
            picked, intra_load = self._decide_intra(
                per_nvp[idx_intra] & ~must[idx_intra],
                solar_vec[idx_intra],
                mand_load[idx_intra],
            )
            chosen_pos[idx_intra] = mand[idx_intra] | picked
            load[idx_intra] = intra_load
        if idx_lazy.size:
            picked, lazy_load = self._decide_lazy(
                per_nvp[idx_lazy] & ~must[idx_lazy],
                solar_vec[idx_lazy],
                mand_load[idx_lazy],
            )
            chosen_pos[idx_lazy] = mand[idx_lazy] | picked
            load[idx_lazy] = lazy_load
        return chosen_pos, load

    # ------------------------------------------------------------------
    def _coarse_start(
        self,
        day: int,
        period: int,
        flat_p: int,
        v: np.ndarray,
        admitted: np.ndarray,
    ) -> None:
        """Every coarse row's own ``on_period_start``, once per period.

        Each row's scheduler sees the PeriodStartView the per-node
        engine would build from its node: the row's bank voltages, its
        running DMR and last period's solar.  Its capacitor calls move
        the row's active column; its ``selected`` subset becomes the
        row's admission mask, and a proposed row's α picks intra or
        lazy mode for the period's fine pass.
        """
        first = flat_p == 0
        # CapacitorState.usable_energy, elementwise, for every cell.
        usable = np.maximum(
            0.5 * self.capacitance * v * v - self._col_tables["e_cutoff"],
            0.0,
        )
        # One read-only voltage snapshot: each row's bank view holds
        # slices of it and of the usable energies.
        volts = v.copy()
        volts.flags.writeable = False
        usable.flags.writeable = False
        switched: List[int] = []
        # Each row's inputs as of the period start (a row's hook moves
        # only its own active column).
        active = self.active_col.tolist()
        dmr_sum = self.dmr_sum.tolist()
        last_e = self.last_solar_e.tolist()
        sel_rows: List[int] = []
        sel_cols: List[int] = []
        for i in self.coarse_rows:
            c_n = self.c_ns[i]
            request, force = self._bank_callbacks(i, usable[i], switched)
            scheduler = self.schedulers[i]
            scheduler.on_period_start(
                PeriodStartView(
                    timeline=self.tl,
                    graph=self.graphs[i],
                    day=day,
                    period=period,
                    bank=BankView(
                        self.capacitance[i, :c_n],
                        volts[i, :c_n],
                        usable[i, :c_n],
                        active[i],
                    ),
                    accumulated_dmr=0.0 if first else dmr_sum[i] / flat_p,
                    last_period_energy=None if first else last_e[i],
                    last_period_powers=(
                        None if first else self._solar[i][flat_p - 1]
                    ),
                    request_capacitor=request,
                    force_capacitor=force,
                )
            )
            selected = scheduler.selected
            sel_rows += [i] * len(selected)
            sel_cols += selected
        # A new period replaces every coarse row's mask.
        admitted[self.idx_coarse] = self._coarse_pad
        admitted[sel_rows, sel_cols] = True
        if switched:
            self._gather_active(np.unique(switched))
        if self.idx_prop.size:
            intra_mode = np.zeros(self.n, dtype=bool)
            intra_mode[self.idx_prop] = [
                self.schedulers[i].intra_mode for i in self.idx_prop
            ]
            group = self.intra_group
            self._set_intra_rows(self.is_intra[group] | intra_mode[group])
            self.idx_lazy = self.idx_prop[~intra_mode[self.idx_prop]]
            self.lazy_powers_pos = self.powers_pos[self.idx_lazy]

    def _bank_callbacks(self, row: int, usable: np.ndarray, switched: list):
        """A row's ``(request_capacitor, force_capacitor)`` callbacks:
        CapacitorBank's ``request_switch`` (Eq. 22, with the row's
        trained ``E_th``) and ``select`` on the row's active column.
        Rows that switch are appended to ``switched``.
        """
        c_n = self.c_ns[row]

        def force(index: int) -> None:
            if not 0 <= index < c_n:
                raise IndexError(f"index {index} out of range [0, {c_n})")
            if index != self.active_col[row]:
                self.active_col[row] = index
                switched.append(row)

        def request(index: int) -> bool:
            active = self.active_col[row]
            if index == active:
                return True
            if usable[active] < self.cases[row].trained.switch_threshold:
                force(index)
                return True
            return False

        return request, force

    def _decide_lazy(
        self,
        optional: np.ndarray,
        solar: np.ndarray,
        mand_load: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """fine_grained_decision's lazy pass over the δ-fallback rows.

        From ``mand_load``, each optional position in priority order
        runs when the running load plus its power stays within solar —
        the scalar loop's exact sequence of additions.
        """
        powers = self.lazy_powers_pos
        limit = solar + 1e-12
        load = mand_load
        picked = np.zeros_like(optional)
        for p in range(self.t_prop):
            extra = load + powers[:, p]
            take = optional[:, p] & (extra <= limit)
            load = np.where(take, extra, load)
            picked[:, p] = take
        return picked, load

    def _decide_intra(
        self,
        optional: np.ndarray,
        solar: np.ndarray,
        mand_load: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """best_power_match over the intra-task rows' optional sets.

        Returns the picked positions and the slot load: ``mand_load``
        extended, in position order, by the picked powers.
        """
        budget = np.maximum(solar - mand_load, 0.0)
        opt_bits = _bits(optional)
        affordable = self.combo_sums <= (budget + 1e-12)[:, None]
        affordable &= (self.combo_bits & ~opt_bits[:, None]) == 0
        vals = np.where(affordable, self.combo_sums, -1.0)
        best = vals.argmax(axis=1)
        found = vals[self.intra_rows, best] > 0.0
        picked = self.combo_masks[best] & found[:, None]
        terms = np.where(picked, self.intra_powers_pos, 0.0)
        load = _row_sums(np.concatenate([mand_load[:, None], terms], axis=1))
        return picked, load

    def _slot_hooks(
        self,
        day: int,
        period: int,
        slot: int,
        solar_vec: np.ndarray,
        remaining: np.ndarray,
        done: np.ndarray,
        missed: np.ndarray,
        ready: np.ndarray,
        chosen: np.ndarray,
        load: np.ndarray,
    ) -> None:
        """Each slot-hook row's own ``on_slot``, on its per-node SlotView.

        Rows without a ready task are skipped.  A decision replaces the
        row's ``chosen`` tasks and ``load`` in place.
        """
        idx = self.idx_hook
        rows = idx[ready[idx].any(axis=1)].tolist()
        if not rows:
            return
        tl, dt = self.tl, self.tl.slot_seconds
        rem = remaining[rows].tolist()
        comp = done[rows].tolist()
        miss = missed[rows].tolist()
        flags = ready[rows].tolist()
        solar = solar_vec[rows].tolist()
        for k, i in enumerate(rows):
            scheduler, graph, t_n, deadline_slots, powers = self.hooks[i]
            row_flags = flags[k]
            ready_i = tuple(j for j in range(t_n) if row_flags[j])
            decision = normalize_decision(
                scheduler.on_slot(
                    SlotView(
                        timeline=tl,
                        graph=graph,
                        day=day,
                        period=period,
                        slot=slot,
                        solar_power=solar[k],
                        slot_seconds=dt,
                        remaining=tuple(rem[k][:t_n]),
                        completed=tuple(comp[k][:t_n]),
                        missed=tuple(miss[k][:t_n]),
                        deadline_slots=deadline_slots,
                        ready=ready_i,
                    )
                ),
                ready_i, graph, None, False,
            )
            chosen[i] = False
            load[i] = float(sum(powers[j] for j, _ in decision))
            for j, _ in decision:
                chosen[i, j] = True

    def _decide_random(
        self, ready: np.ndarray, chosen: np.ndarray, load: np.ndarray
    ) -> None:
        """RandomScheduler over every random row, from the draw buffers.

        RandomScheduler draws once per ready task (ascending task
        order, *before* the NVP-availability check), so the consumed
        stream depends only on the ready set: the k-th ready task of a
        row takes the row's k-th unconsumed draw.  A task below 0.5 is
        wanted, and the first wanted task on each NVP runs.
        """
        ready_r = ready[self.idx_random]
        rank = ready_r @ self.rand_upto - 1
        draws = self.rand_buf.take(
            (self.rand_offsets + self.rand_cur)[:, None] + rank
        )
        want = ready_r & (draws < 0.5)
        sel = want & ((_bits(want)[:, None] & self.rand_earlier_bits) == 0)
        self.rand_cur += rank[:, -1] + 1
        chosen[self.idx_random] = sel
        load[self.idx_random] = _row_sums(
            np.where(sel, self.rand_powers, 0.0)
        )
