"""Conformance wall for the batched node-major engine (`repro.sim.batch`).

The batched engine's contract is *bit-identity* with the per-node
scalar engine — not statistical agreement.  This suite pins it:

- differential conformance over the 4 canonical solar days and
  heterogeneous ``fleet_variations`` populations;
- ``dvfs`` slot-hook rows beside every other policy over the four
  canonical days at several widths;
- ``proposed`` rows (trained DBN and scripted coarse stages) beside
  the baseline rows: Eq. (22) switches accepted and refused, δ-fallback
  periods, a failing coarse stage, a sized 4-capacitor bank;
- degenerate batch shapes: a single node, a shard of identical nodes,
  a shard where every node differs;
- hypothesis properties: batch-split invariance, node-order
  permutation invariance, per-row physics invariants on batched state;
- "teeth": a deliberately corrupted leakage row must surface as a
  structured Violation naming exactly the offending node.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DEFAULT_BANK_FARADS, quick_node
from repro.core.offline import OfflinePipeline
from repro.core.online import CoarsePolicy, ProposedScheduler
from repro.energy.capacitor import SuperCapacitor
from repro.fleet import (
    FleetResult,
    FleetRunner,
    FleetSpec,
    simulate_node,
    simulate_shard_batch,
)
from repro.fleet.runner import _shard_policies, _simulate_case
from repro.fleet.spec import FLEET_POLICIES
from repro.node.node import SensorNode
from repro.obs import Observer
from repro.schedulers import DVFSLoadMatchingScheduler, IntraTaskScheduler
from repro.sim import result_fingerprint
from repro.sim.batch import (
    BATCH_POLICIES,
    MAX_BATCH_TASKS,
    SLOT_HOOK_POLICIES,
    BatchCase,
    _BatchEngine,
    batch_ineligibility,
    simulate_batch,
)
from repro.sim.engine import simulate
from repro.sim.recorder import PeriodRecord
from repro.solar import SolarTrace, four_day_trace, synthetic_trace
from repro.tasks import Task, TaskGraph, paper_benchmarks
from repro.timeline import Timeline
from repro.verify.oracles import oracle_batch_vs_per_node
from repro.verify.strategies import build_graph, fleet_variations, random_trace, tiny_timeline


@pytest.fixture(autouse=True)
def _no_default_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


def _default_bank():
    return tuple(
        SuperCapacitor(capacitance=c) for c in DEFAULT_BANK_FARADS
    )


_TRAINED = {}


def _trained_for(graph):
    """The fleet-sized offline stage for ``graph``, trained once."""
    if graph.name not in _TRAINED:
        train = synthetic_trace(Timeline(2, 24, 20, 30.0), seed=0)
        _TRAINED[graph.name] = OfflinePipeline(
            graph, pretrain_epochs=5, finetune_epochs=5,
            augment_per_period=1, seed=0,
        ).run(train)
    return _TRAINED[graph.name]


def _make_case(graph, trace, farads, policy, seed=0, trained=None):
    """A BatchCase; a ``proposed`` row runs on its policy's own bank
    (by default the graph's trained DBN policy)."""
    if policy == "proposed":
        trained = trained or _trained_for(graph)
        capacitors = tuple(trained.capacitors)
    else:
        capacitors = tuple(SuperCapacitor(capacitance=c) for c in farads)
    return BatchCase(
        graph=graph, trace=trace, capacitors=capacitors, policy=policy,
        scheduler_seed=seed, trained=trained,
    )


class _ScriptedCoarse(CoarsePolicy):
    """A coarse stage on a fixed script: it walks the bank, alternates
    intra mode (α = 1) with δ-fallback periods (α = 3), leaves one
    rotating task out of ``te`` and raises on every ``fail_every``-th
    call (every call for 1, never for 0)."""

    def __init__(self, n_tasks, n_caps, fail_every):
        self.n_tasks, self.n_caps = n_tasks, n_caps
        self.fail_every = fail_every
        self.calls = 0

    def decide(self, view, prev_solar):
        k = self.calls
        self.calls += 1
        if self.fail_every and (k + 1) % self.fail_every == 0:
            raise RuntimeError("scripted coarse failure")
        te = np.ones(self.n_tasks, dtype=bool)
        te[k % self.n_tasks] = False
        return (k // 2) % self.n_caps, (1.0, 3.0)[k % 2], te


@dataclasses.dataclass
class _ScriptedPolicy:
    """Stands in for a TrainedPolicy: bank, ``E_th`` and a scripted
    ProposedScheduler."""

    graph: TaskGraph
    farads: tuple
    switch_threshold: float = 2.0
    fail_every: int = 0

    @property
    def capacitors(self):
        return tuple(SuperCapacitor(capacitance=c) for c in self.farads)

    def make_scheduler(self):
        return ProposedScheduler(
            _ScriptedCoarse(len(self.graph), len(self.farads), self.fail_every)
        )


def _case_from_variation(var, trace):
    return _make_case(
        build_graph(var["graph_kind"]), trace, var["bank_farads"],
        var["policy"], var["scheduler_seed"],
    )


def _per_node_reference(case):
    """The scalar engine run the batched result must match bit-for-bit."""
    return _simulate_case(dataclasses.replace(case))


def _assert_identical(batched, reference, label=""):
    got = result_fingerprint(batched)
    want = result_fingerprint(reference)
    assert got == want, f"{label}: batched engine diverged from per-node"


# ----------------------------------------------------------------------
# Differential conformance: canonical days, fault scenarios, fleets
# ----------------------------------------------------------------------
class TestCanonicalConformance:
    def test_four_canonical_days_bit_identical(self):
        """All 4 canonical days, batched as one shard, vs per-node."""
        graph = paper_benchmarks()["WAM"]
        tl = Timeline(4, 144, 20, 30.0)
        four = four_day_trace(tl)
        cases = [
            BatchCase(
                graph=graph,
                trace=four.day_slice(day),
                capacitors=_default_bank(),
                policy="intra-task",
            )
            for day in range(4)
        ]
        results = simulate_batch(cases)
        for day, batched in enumerate(results):
            reference = simulate(
                quick_node(graph), graph, four.day_slice(day),
                IntraTaskScheduler(), strict=False,
            )
            _assert_identical(batched, reference, f"canonical-day{day + 1}")

    def test_heterogeneous_fleet_population(self):
        """Mixed policies, banks, panel scales: the fleet shard adapter
        equals a simulate_node map, summary for summary."""
        fleet = FleetSpec(n_nodes=12, seed=5)
        base = fleet.base_trace()
        specs = [fleet.node_spec(i) for i in range(fleet.n_nodes)]
        batched, failed = simulate_shard_batch(fleet, base, specs)
        assert set(batched) == {s.node_id for s in specs} and not failed
        for spec in specs:
            assert batched[spec.node_id] == simulate_node(
                fleet, base, spec
            ), f"node {spec.node_id} ({spec.policy}/{spec.graph_kind})"


class TestDegenerateShapes:
    def _clean_case(self, seed=0, policy="asap"):
        tl = tiny_timeline()
        return BatchCase(
            graph=paper_benchmarks()["ECG"],
            trace=synthetic_trace(tl, seed=seed),
            capacitors=_default_bank(),
            policy=policy,
        )

    def test_single_node_batch(self):
        case = self._clean_case()
        (batched,) = simulate_batch([case])
        _assert_identical(batched, _per_node_reference(case), "n=1")

    def test_identical_shard(self):
        case = self._clean_case(policy="intra-task")
        results = simulate_batch([case, case, case])
        reference = _per_node_reference(case)
        fps = {result_fingerprint(r) for r in results}
        assert fps == {result_fingerprint(reference)}

    def test_all_different_shard(self):
        tl = tiny_timeline()
        cases = [
            BatchCase(
                graph=build_graph(kind),
                trace=synthetic_trace(tl, seed=i),
                capacitors=tuple(
                    SuperCapacitor(capacitance=c) for c in farads
                ),
                policy=policy,
                scheduler_seed=i,
            )
            for i, (kind, policy, farads) in enumerate(
                [
                    ("wam", "asap", (1.0, 47.0)),
                    ("ecg", "inter-task", (4.7,)),
                    ("shm", "intra-task", (2.0, 10.0, 47.0)),
                    ("random:11", "random", (0.5, 1.0)),
                ]
            )
        ]
        for case, batched in zip(cases, simulate_batch(cases)):
            _assert_identical(
                batched, _per_node_reference(case), case.policy
            )

    def test_empty_batch(self):
        assert simulate_batch([]) == []

    def test_shard_batch_builds_no_period_record(self, monkeypatch):
        """A fleet shard summarizes every batched row from the period
        table's columns; a PeriodRecord exists only when a caller reads
        a row's ``periods``."""
        built = []
        init = PeriodRecord.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PeriodRecord, "__init__", counting)
        fleet = FleetSpec(n_nodes=8, seed=2)
        base = fleet.base_trace()
        specs = [fleet.node_spec(i) for i in range(fleet.n_nodes)]
        summaries, _ = simulate_shard_batch(fleet, base, specs)
        assert len(summaries) == fleet.n_nodes and built == []
        results = simulate_batch([self._clean_case(policy="random")])
        assert built == []
        periods = results[0].periods
        assert len(built) == len(periods) == (
            results[0].timeline.total_periods
        )

    def test_ineligible_case_raises(self):
        case = self._clean_case(policy="dvfs")
        case.graph = _oversized_graph()
        with pytest.raises(ValueError, match="not batch-eligible"):
            simulate_batch([case])


def _oversized_graph():
    """One task more than the batched engine's subset table holds."""
    return TaskGraph(
        [
            Task(f"t{i}", 60.0, 600.0, 0.01, nvp=0)
            for i in range(MAX_BATCH_TASKS + 1)
        ]
    )


class TestEligibility:
    def test_reasons(self):
        graph = paper_benchmarks()["WAM"]
        for policy in FLEET_POLICIES:
            assert batch_ineligibility(policy, graph) is None
        assert "not batched" in batch_ineligibility("optimal", graph)
        wide = _oversized_graph()
        assert "MAX_BATCH_TASKS" in batch_ineligibility("asap", wide)
        assert "MAX_BATCH_TASKS" in batch_ineligibility("dvfs", wide)
        assert set(BATCH_POLICIES) == set(FLEET_POLICIES)
        assert set(SLOT_HOOK_POLICIES) == {"dvfs"}


# ----------------------------------------------------------------------
# Width conformance: the per-slot tables at every batch width
# ----------------------------------------------------------------------
def _shared_nvp_graph(reverse):
    """Three tasks on NVP 0 (plus one on NVP 1 that depends on the
    first), with deadlines rising in index order or, ``reverse``,
    falling — so priority order runs with or against task order."""
    deadlines = (600.0, 450.0, 300.0) if reverse else (300.0, 450.0, 600.0)
    tasks = [
        Task(f"s{i}", 90.0 + 30.0 * i, d, 0.004 + 0.002 * i, nvp=0)
        for i, d in enumerate(deadlines)
    ]
    tasks.append(Task("s3", 60.0, 540.0, 0.003, nvp=1))
    return TaskGraph(
        tasks, edges=[("s0", "s3")],
        name="shared-nvp-" + ("rev" if reverse else "fwd"),
    )


def _twelve_task_graph():
    """MAX_BATCH_TASKS tasks over three NVPs with two dependence
    chains: the widest intra-task subset table, and ready sets that
    change from slot to slot as chains unblock and deadlines pass."""
    tasks = [
        Task(
            f"w{i}", 30.0 + 15.0 * (i % 4), 150.0 + 40.0 * i,
            0.002 + 0.0015 * (i % 5), nvp=i % 3,
        )
        for i in range(MAX_BATCH_TASKS)
    ]
    edges = [("w0", "w3"), ("w3", "w6"), ("w1", "w4"), ("w4", "w9")]
    return TaskGraph(tasks, edges=edges, name="twelve")


def _conformance_shard(n_rows=128):
    """A shard mixing every per-slot table the engine uses.

    Proposed rows alternate, in blocks, between the graph's trained
    DBN policy and a scripted coarse stage on a 4-capacitor bank that
    switches, falls back to the lazy pass and fails now and then.
    """
    tl = tiny_timeline(periods_per_day=4)
    graphs = [
        _shared_nvp_graph(False),
        _shared_nvp_graph(True),
        _twelve_task_graph(),
        build_graph("wam"),
    ]
    banks = [(1.0, 47.0), (4.7,), (2.0, 10.0, 47.0), (0.5, 1.0, 2.0, 4.7)]
    policies = BATCH_POLICIES
    cases = []
    for row in range(n_rows):
        graph = graphs[row % len(graphs)]
        policy = policies[(row // len(graphs)) % len(policies)]
        scripted = None
        if policy == "proposed" and (row // 20) % 2:
            scripted = _ScriptedPolicy(graph, banks[3], fail_every=5)
        cases.append(
            _make_case(
                graph,
                random_trace(tl, 1000 + row % 11),
                banks[(row + row // 16) % len(banks)],
                policy,
                seed=row,
                trained=scripted,
            )
        )
    return cases


@pytest.fixture(scope="module")
def conformance_shard():
    cases = _conformance_shard()
    reference = [
        result_fingerprint(_per_node_reference(case)) for case in cases
    ]
    return cases, reference


class TestWidthConformance:
    def test_shard_covers_the_cases(self, conformance_shard):
        cases, _ = conformance_shard
        combos = {(c.graph.name, c.policy) for c in cases}
        for name in ("shared-nvp-fwd", "shared-nvp-rev", "twelve"):
            for policy in BATCH_POLICIES:
                assert (name, policy) in combos
        assert len(_twelve_task_graph()) == MAX_BATCH_TASKS
        kinds = {
            type(c.trained).__name__ for c in cases if c.policy == "proposed"
        }
        assert kinds == {"TrainedPolicy", "_ScriptedPolicy"}

    @pytest.mark.parametrize("width", [1, 7, 33, 128])
    def test_every_row_matches_per_node(self, conformance_shard, width):
        cases, reference = conformance_shard
        got = []
        for lo in range(0, len(cases), width):
            got += [
                result_fingerprint(r)
                for r in simulate_batch(cases[lo : lo + width])
            ]
        bad = [
            f"row {i} ({cases[i].graph.name}/{cases[i].policy})"
            for i, (a, b) in enumerate(zip(got, reference))
            if a != b
        ]
        assert not bad, f"width {width}: " + ", ".join(bad)

    def test_random_row_independent_of_batch_composition(self):
        """A random row's draw buffer is its own: the same node over
        several periods gives the same bytes whatever shares its batch
        (different task widths, other random rows, other positions)."""
        tl = tiny_timeline(periods_per_day=5)
        assert tl.total_periods >= 3
        target = BatchCase(
            graph=_shared_nvp_graph(True),
            trace=random_trace(tl, 5),
            capacitors=_default_bank(),
            policy="random",
            scheduler_seed=42,
        )

        def neighbour(graph, policy, seed):
            return BatchCase(
                graph=graph, trace=random_trace(tl, seed),
                capacitors=_default_bank(), policy=policy,
                scheduler_seed=seed,
            )

        narrow = [target, neighbour(_shared_nvp_graph(False), "random", 1)]
        wide = [
            neighbour(_twelve_task_graph(), "random", 2),
            neighbour(build_graph("wam"), "intra-task", 3),
            neighbour(_twelve_task_graph(), "random", 4),
            target,
        ]
        first = result_fingerprint(simulate_batch(narrow)[0])
        second = result_fingerprint(simulate_batch(wide)[-1])
        assert first == second
        assert first == result_fingerprint(_per_node_reference(target))


def _per_node_events(case):
    """Observer events of ``case``'s per-node reference run."""
    events = []

    class Spy:
        def write(self, record):
            events.append(record)

    node = SensorNode(
        list(case.capacitors), num_nvps=case.graph.num_nvps,
        switch_threshold=case.trained.switch_threshold,
    )
    simulate(
        node, case.graph, case.trace, case.trained.make_scheduler(),
        strict=False, observer=Observer(sinks=[Spy()]),
    )
    return events


class TestProposedRows:
    """One proposed row between intra-task, inter-task and random rows
    on 2-capacitor banks: every row must equal its per-node run, and
    the per-node run must show the case under test happening."""

    def _batched_events(self, policy, seed=21):
        tl = tiny_timeline(periods_per_day=24)
        graph = build_graph("wam")
        target = _make_case(
            graph, random_trace(tl, seed), (), "proposed", trained=policy
        )
        cases = [
            _make_case(graph, random_trace(tl, seed + k), (1.0, 47.0), p, k)
            for k, p in enumerate(("intra-task", "inter-task", "random"))
        ]
        cases.insert(1, target)
        results = simulate_batch(cases)
        for case, got in zip(cases, results):
            _assert_identical(got, _per_node_reference(case), case.policy)
        return _per_node_events(target), results[1]

    def test_eq22_request_refused_and_accepted(self):
        graph = build_graph("wam")
        events, _ = self._batched_events(_ScriptedPolicy(graph, (1.0, 47.0)))
        asks = [
            e for e in events
            if e["kind"] == "capacitor_switch"
            and e["requested"] != e["previous"]
        ]
        assert any(e["accepted"] for e in asks)
        assert any(not e["accepted"] for e in asks)

    def test_delta_fallback_period(self):
        graph = build_graph("wam")
        events, _ = self._batched_events(_ScriptedPolicy(graph, (1.0, 47.0)))
        modes = {
            e["intra_mode"] for e in events if e["kind"] == "coarse_decision"
        }
        assert modes == {True, False}
        assert any(e["kind"] == "delta_fallback" for e in events)

    def test_failing_coarse_stage_reaches_inter_task_only(self):
        graph = build_graph("wam")
        events, _ = self._batched_events(
            _ScriptedPolicy(graph, (1.0, 47.0), fail_every=1)
        )
        stages = {e["stage"] for e in events if e["kind"] == "policy_fallback"}
        assert {"retry", "quarantine", "inter_task_only"} <= stages

    def test_sized_four_capacitor_bank_beside_two(self):
        graph = build_graph("wam")
        _, result = self._batched_events(
            _ScriptedPolicy(graph, (0.5, 1.0, 4.7, 10.0), switch_threshold=1e9)
        )
        assert all(len(r.start_voltages) == 4 for r in result.periods)
        assert {r.active_index for r in result.periods} == {0, 1, 2, 3}


class TestSlotHookRows:
    """``dvfs`` rows run their own scheduler's ``on_slot`` per slot.

    Every graph kind, one row per batch policy (``proposed`` on a
    scripted coarse stage), over the four canonical days — night slots
    dark on every row, day slots lit — split into batches of 1, 7 and
    33 rows.  No row has a DVFS model, so the reduced levels the
    scheduler asks for fall back to 1.0, as on the per-node engine.
    """

    TL = Timeline(4, 12, 20, 30.0)
    KINDS = ("ecg", "shm", "wam", "random:3", "random:8")
    BANKS = ((1.0, 47.0), (4.7,), (2.0, 10.0, 47.0))
    _REFERENCE = []

    def _cases(self):
        four = four_day_trace(self.TL)
        cases = []
        for g, kind in enumerate(self.KINDS):
            graph = build_graph(kind)
            for policy in BATCH_POLICIES:
                row = len(cases)
                bank = self.BANKS[row % len(self.BANKS)]
                trained = None
                if policy == "proposed":
                    trained = _ScriptedPolicy(graph, bank)
                trace = SolarTrace(self.TL, four.power * (0.5 + 0.25 * g))
                cases.append(
                    _make_case(graph, trace, bank, policy, row, trained)
                )
        return cases

    def _reference(self):
        if not self._REFERENCE:
            self._REFERENCE.extend(
                result_fingerprint(_per_node_reference(case))
                for case in self._cases()
            )
        return self._REFERENCE

    @pytest.mark.parametrize("width", [1, 7, 33])
    def test_dvfs_rows_match_per_node(self, monkeypatch, width):
        power = four_day_trace(self.TL).power
        assert (power == 0.0).any() and (power > 0.0).any()
        levels = []
        on_slot = DVFSLoadMatchingScheduler.on_slot

        def recording(self, view):
            decision = on_slot(self, view)
            levels.extend(level for _, level in decision)
            return decision

        cases = self._cases()
        got = []
        with monkeypatch.context() as patch:
            patch.setattr(DVFSLoadMatchingScheduler, "on_slot", recording)
            for lo in range(0, len(cases), width):
                got += [
                    result_fingerprint(r)
                    for r in simulate_batch(cases[lo : lo + width])
                ]
        # The scheduler asked for reduced levels, which the normaliser
        # reset to 1.0.
        assert min(levels) < 1.0
        bad = [
            f"row {i} ({cases[i].graph.name}/{cases[i].policy})"
            for i, (a, b) in enumerate(zip(got, self._reference()))
            if a != b
        ]
        assert not bad, f"width {width}: " + ", ".join(bad)


class TestCoarseRowHooks:
    def test_inter_task_rows_run_their_scheduler_hooks(self, monkeypatch):
        """Each inter-task row's own InterTaskScheduler runs the
        period hooks — one ``on_period_start`` and one
        ``on_period_end`` per period — and the rows stay bit-identical
        to the per-node engine."""
        from repro.schedulers import InterTaskScheduler

        calls = {}

        def counted(hook, kind):
            def wrapper(self, view):
                per_row = calls.setdefault(id(self), {"start": 0, "end": 0})
                per_row[kind] += 1
                return hook(self, view)
            return wrapper

        for name, kind in (("on_period_start", "start"),
                           ("on_period_end", "end")):
            monkeypatch.setattr(
                InterTaskScheduler, name,
                counted(getattr(InterTaskScheduler, name), kind),
            )
        tl = tiny_timeline(periods_per_day=6)
        graph = build_graph("wam")
        cases = [
            _make_case(graph, random_trace(tl, 30 + k), (1.0, 47.0), p, k)
            for k, p in enumerate(("inter-task", "intra-task", "inter-task"))
        ]
        results = simulate_batch(cases)
        periods = tl.total_periods
        assert list(calls.values()) == [
            {"start": periods, "end": periods}
        ] * 2
        calls.clear()
        for case, got in zip(cases, results):
            _assert_identical(got, _per_node_reference(case), case.policy)


class TestDarkSlots:
    """Slots with zero solar on every row take the batch-wide dark pass
    (the must-run subset, storage-only routing, zero-input charge).
    Every policy's rows must stay bit-identical to the per-node engine
    on a trace without dark slots, an all-dark trace, and dark slots
    between lit ones."""

    TL = tiny_timeline(periods_per_day=8)
    #: Not powers of two, so the zero-input charge's ½CV² round trip
    #: moves voltages and a skipped one shows.
    FARADS = (0.47, 2.2)

    def _cases(self, graph, lit):
        """Two rows per batch policy on small banks, each scaling its
        own noise by the shared ``lit`` mask; ``proposed`` rows run a
        scripted coarse stage that alternates intra and δ-fallback
        periods."""
        tl = self.TL
        shape = (tl.num_days, tl.periods_per_day, tl.slots_per_period)
        cases = []
        for k, policy in enumerate(BATCH_POLICIES * 2):
            rng = np.random.default_rng(40 + k)
            trace = SolarTrace(tl, rng.uniform(0.02, 0.15, shape) * lit)
            trained = None
            if policy == "proposed":
                trained = _ScriptedPolicy(graph, self.FARADS)
            cases.append(
                _make_case(graph, trace, self.FARADS, policy, k, trained)
            )
        return cases

    def _lit(self, kind):
        tl = self.TL
        lit = np.ones((tl.num_days, tl.periods_per_day, tl.slots_per_period))
        if kind == "all-dark":
            lit[:] = 0.0
        elif kind == "mixed":
            lit[:, :, 10:] = 0.0  # dusk inside every period
            lit[:, 4:, :] = 0.0  # then whole dark periods
        return lit

    @pytest.mark.parametrize("kind", ["no-dark", "all-dark", "mixed"])
    def test_every_policy_bit_identical(self, kind):
        graph = build_graph("wam")
        lit = self._lit(kind)
        cases = self._cases(graph, lit)
        results = simulate_batch(cases)
        references = [_per_node_reference(case) for case in cases]
        for case, got, want in zip(cases, results, references):
            _assert_identical(got, want, f"{kind}/{case.policy}")
        powers = np.stack([case.trace.power for case in cases])
        dark_slots = int((powers == 0.0).all(axis=0).sum())
        assert dark_slots == int((lit == 0.0).sum())
        assert (dark_slots > 0) == (kind != "no-dark")
        if kind == "mixed":
            # The dark periods draw on storage and brown out.
            dark = [
                r for ref in references for r in ref.periods if r.period >= 4
            ]
            assert sum(r.storage_energy for r in dark) > 0.0
            assert sum(r.brownout_slots for r in dark) > 0

    def test_proposed_rows_in_both_modes(self):
        graph = build_graph("wam")
        cases = self._cases(graph, self._lit("mixed"))
        proposed = [c for c in cases if c.policy == "proposed"]
        for case in proposed:
            modes = {
                e["intra_mode"] for e in _per_node_events(case)
                if e["kind"] == "coarse_decision"
            }
            assert modes == {True, False}
        results = simulate_batch(proposed)
        for case, got in zip(proposed, results):
            _assert_identical(got, _per_node_reference(case), "proposed")

    def test_task_power_within_tolerance_takes_general_pass(self):
        """A 1e-12 W task fits a zero solar budget under the 1e-12
        tolerance, so dark slots must run the general pass."""
        graph = TaskGraph(
            [
                Task("tiny", 30.0, 600.0, 1e-12, nvp=0),
                Task("load", 60.0, 300.0, 0.03, nvp=1),
            ],
            name="tiny-power",
        )
        cases = self._cases(graph, self._lit("mixed"))
        assert not _BatchEngine(cases).dark_pass
        results = simulate_batch(cases)
        for case, got in zip(cases, results):
            _assert_identical(got, _per_node_reference(case), case.policy)


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------
def _tiny_cases(seed, n_nodes):
    """n heterogeneous eligible cases sharing one tiny timeline."""
    tl = tiny_timeline(periods_per_day=3)
    variations = fleet_variations(
        seed, n_nodes, policies=BATCH_POLICIES
    )
    return [
        _case_from_variation(var, random_trace(tl, seed + i))
        for i, var in enumerate(variations)
    ]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(0, 10_000), st.integers(2, 5), st.data())
def test_batch_split_invariance(seed, n_nodes, data):
    """Running {A,B,C} as one batch equals {A}+{B,C} merged."""
    cases = _tiny_cases(seed, n_nodes)
    cut = data.draw(st.integers(1, n_nodes - 1))
    whole = [result_fingerprint(r) for r in simulate_batch(cases)]
    split = [
        result_fingerprint(r)
        for part in (cases[:cut], cases[cut:])
        for r in simulate_batch(part)
    ]
    assert whole == split


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(0, 10_000), st.integers(2, 5), st.randoms())
def test_batch_order_permutation_invariance(seed, n_nodes, rnd):
    """A node's result never depends on where it sits in the batch."""
    cases = _tiny_cases(seed, n_nodes)
    order = list(range(n_nodes))
    rnd.shuffle(order)
    base = [result_fingerprint(r) for r in simulate_batch(cases)]
    shuffled = simulate_batch([cases[i] for i in order])
    assert [result_fingerprint(r) for r in shuffled] == [
        base[i] for i in order
    ]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_batched_rows_respect_physics_invariants(seed, n_nodes):
    """Per-row accounting on batched state: rates, signs, bounds."""
    cases = _tiny_cases(seed, n_nodes)
    for case, result in zip(cases, simulate_batch(cases)):
        v_full = max(c.v_full for c in case.capacitors)
        assert 0.0 <= result.dmr <= 1.0
        for rec in result.periods:
            assert 0.0 <= rec.dmr <= 1.0
            assert 0 <= rec.miss_count <= len(case.graph)
            assert rec.solar_energy >= 0.0
            assert rec.load_energy >= 0.0
            assert rec.leakage_energy >= -1e-12
            assert rec.charged_energy >= 0.0
            # Load splits exactly into its two supply channels.
            assert rec.load_energy == pytest.approx(
                rec.direct_energy + rec.storage_energy, abs=1e-9
            )
            assert 0 <= rec.brownout_slots <= (
                case.trace.timeline.slots_per_period
            )
            assert np.all(rec.start_voltages >= 0.0)
            assert np.all(rec.start_voltages <= v_full + 1e-12)


# ----------------------------------------------------------------------
# Teeth: the conformance wall must actually bite
# ----------------------------------------------------------------------
class TestOracleTeeth:
    # Seed 1's six-node population: asap, dvfs, intra-task, random,
    # proposed, asap.  Every node is batched (the dvfs node is row 1),
    # so batch row 4 is node 4, the proposed node.
    def test_clean_oracle_passes(self):
        out = oracle_batch_vs_per_node(n_nodes=6, seed=1, label="clean")
        assert out.passed
        assert out.checked == 6
        assert not out.violations

    def test_corrupted_leak_row_names_the_node(self, monkeypatch):
        """An off-by-one planted in one batched leakage row must come
        back as a structured Violation naming that node."""
        import repro.sim.batch as batch_mod

        target_row, target_node = 4, 4
        real = batch_mod._node_leak_row

        def corrupt(node_index, devices):
            row = real(node_index, devices)
            if node_index == target_row:
                row = [x * 1.5 + 1e-7 for x in row]
            return row

        monkeypatch.setattr(batch_mod, "_node_leak_row", corrupt)
        out = oracle_batch_vs_per_node(n_nodes=6, seed=1, label="teeth")
        assert not out.passed
        assert {v.details["node_id"] for v in out.violations} == {
            target_node
        }
        v = out.violations[0]
        assert "fingerprint" in v.details["differing_fields"]
        assert v.details["policy"] == "proposed"
        assert v.details["graph_kind"]

    def test_corrupted_idle_column_names_the_node(self, monkeypatch):
        """A corruption planted only in an idle column of a baseline
        row (node 0, asap, bank 10/47/0.5 F: the 47 F column is active)
        must still come back naming that node and no other.  Idle
        columns of such rows leak along precomputed trajectories, so
        this proves the trajectories follow each row's own constants
        (node 5's idle 10 F column shares the clean constants)."""
        import repro.sim.batch as batch_mod

        real = batch_mod._node_leak_row

        def corrupt(node_index, devices):
            row = real(node_index, devices)
            if node_index == 0:
                assert [d.capacitance for d in devices] == [10.0, 47.0, 0.5]
                row[0] = row[0] * 1.5 + 1e-7
            return row

        monkeypatch.setattr(batch_mod, "_node_leak_row", corrupt)
        out = oracle_batch_vs_per_node(n_nodes=6, seed=1, label="idle")
        assert not out.passed
        assert {v.details["node_id"] for v in out.violations} == {0}
        assert out.violations[0].details["policy"] == "asap"


# ----------------------------------------------------------------------
# Fleet-level engine equivalence
# ----------------------------------------------------------------------
class TestFleetEngines:
    def test_engine_fingerprints_identical(self, monkeypatch):
        """The runner's shard executor equals the per-node reference
        mapped over every node, and never calls the per-node engine."""
        import repro.fleet.runner as runner_mod

        spec = FleetSpec(n_nodes=24, seed=9)
        assert all(
            batch_ineligibility(s.policy, build_graph(s.graph_kind)) is None
            for s in spec.node_specs()
        )
        per_node_runs = []
        reference = runner_mod._simulate_case

        def counting(case):
            per_node_runs.append(case.policy)
            return reference(case)

        with monkeypatch.context() as patch:
            patch.setattr(runner_mod, "_simulate_case", counting)
            fleet = FleetRunner(spec, workers=1, cache=False).run()
        assert per_node_runs == []
        base = spec.base_trace()
        per_node = FleetResult(
            [simulate_node(spec, base, s) for s in spec.node_specs()]
        )
        assert fleet.fingerprint() == per_node.fingerprint()

    def test_every_fleet_policy_runs_batched(self, monkeypatch):
        """A fleet of every policy, dvfs and proposed included, reaches
        the per-node engine for no node and equals the per-node
        reference mapped over every node."""
        import repro.fleet.runner as runner_mod

        spec = FleetSpec(n_nodes=12, seed=1, policies=FLEET_POLICIES)
        assert {s.policy for s in spec.node_specs()} == set(FLEET_POLICIES)
        per_node_runs = []
        reference = runner_mod._simulate_case

        def counting(case):
            per_node_runs.append(case.policy)
            return reference(case)

        with monkeypatch.context() as patch:
            patch.setattr(runner_mod, "_simulate_case", counting)
            fleet = FleetRunner(spec, workers=1, cache=False).run()
        assert per_node_runs == []
        base = spec.base_trace()
        policy_of = _shard_policies(spec)
        per_node = FleetResult(
            [
                simulate_node(spec, base, s, policy_of(s))
                for s in spec.node_specs()
            ]
        )
        assert fleet.fingerprint() == per_node.fingerprint()
