"""Tests for the task model, DAG and benchmark sets."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.tasks import (
    CycleError,
    Task,
    TaskGraph,
    ecg,
    paper_benchmarks,
    random_benchmark,
    random_case,
    shm,
    task_mw,
    wam,
)
from repro.timeline import Timeline


def simple_task(name="t", exec_s=30.0, deadline=120.0, power=0.02, nvp=0):
    return Task(
        name=name,
        execution_time=exec_s,
        deadline=deadline,
        power=power,
        nvp=nvp,
    )


def predecessors(graph):
    return [graph.predecessors(i) for i in range(len(graph))]


class TestTask:
    def test_energy(self):
        t = simple_task(exec_s=60.0, power=0.05)
        assert t.energy == pytest.approx(3.0)

    def test_task_mw_converts(self):
        t = task_mw("x", 60.0, 120.0, power_mw=25.0)
        assert t.power == pytest.approx(0.025)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"execution_time": 0.0},
            {"deadline": 0.0},
            {"power": 0.0},
            {"power": -1.0},
            {"nvp": -1},
            {"execution_time": 200.0, "deadline": 100.0},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(
            name="t", execution_time=30.0, deadline=120.0, power=0.02, nvp=0
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            Task(**base)

    def test_slots_needed_exact(self):
        assert simple_task(exec_s=60.0).slots_needed(30.0) == 2

    def test_slots_needed_rounds_up(self):
        assert simple_task(exec_s=61.0).slots_needed(30.0) == 3

    def test_slots_needed_minimum_one(self):
        assert simple_task(exec_s=1.0).slots_needed(30.0) == 1


class TestTaskGraph:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TaskGraph([simple_task("a"), simple_task("a")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TaskGraph([])

    def test_unknown_edge_endpoint(self):
        with pytest.raises(KeyError):
            TaskGraph([simple_task("a")], edges=[("a", "b")])

    def test_self_edge_rejected(self):
        with pytest.raises(CycleError):
            TaskGraph([simple_task("a")], edges=[("a", "a")])

    def test_cycle_detected(self):
        tasks = [simple_task("a"), simple_task("b", deadline=150.0)]
        with pytest.raises(CycleError):
            TaskGraph(tasks, edges=[("a", "b"), ("b", "a")])

    def test_topological_order_respects_edges(self):
        g = wam()
        order = g.topological_order()
        position = {t: i for i, t in enumerate(order)}
        for j in range(len(g)):
            for i in g.predecessors(j):
                assert position[i] < position[j]

    def test_predecessors_successors_consistent(self):
        g = ecg()
        for i in range(len(g)):
            for p in g.predecessors(i):
                assert i in g.successors(p)

    def test_nvp_partition_covers_all_tasks(self):
        g = shm()
        partition = g.nvp_partition()
        all_tasks = sorted(t for group in partition.values() for t in group)
        assert all_tasks == list(range(len(g)))

    def test_descendants_transitive(self):
        g = wam()
        voice = g.index("voice_record")
        descendants = {g.tasks[d].name for d in g.descendants(voice)}
        assert {"audio_process", "audio_compress", "storage", "transmit"} <= (
            descendants
        )

    def test_max_power_one_task_per_nvp(self):
        tasks = [
            simple_task("a", power=0.05, nvp=0),
            simple_task("b", power=0.03, nvp=0),
            simple_task("c", power=0.02, nvp=1),
        ]
        g = TaskGraph(tasks)
        assert g.max_power() == pytest.approx(0.07)

    def test_total_aggregates(self):
        g = ecg()
        assert g.total_energy() == pytest.approx(
            sum(t.energy for t in g.tasks)
        )


class TestBenchmarks:
    @pytest.mark.parametrize("factory", [wam, ecg, shm])
    def test_real_benchmarks_feasible(self, factory):
        g = factory()
        assert g.feasible_in(600.0, 30.0)

    def test_paper_task_counts(self):
        assert len(wam()) == 8
        assert len(ecg()) == 6
        assert len(shm()) == 5

    def test_producers_have_earlier_deadlines(self):
        for g in (wam(), ecg(), shm()):
            for j in range(len(g)):
                for i in g.predecessors(j):
                    assert g.tasks[i].deadline <= g.tasks[j].deadline

    def test_paper_benchmarks_registry(self):
        registry = paper_benchmarks()
        assert set(registry) == {
            "random1",
            "random2",
            "random3",
            "WAM",
            "ECG",
            "SHM",
        }

    def test_random_case_fixed(self):
        a = random_case(1)
        b = random_case(1)
        assert [t.name for t in a.tasks] == [t.name for t in b.tasks]
        assert predecessors(a) == predecessors(b)

    def test_random_case_bad_index(self):
        with pytest.raises(ValueError):
            random_case(4)

    @given(st.integers(0, 500))
    def test_random_benchmark_ranges(self, seed):
        g = random_benchmark(seed)
        assert 4 <= len(g) <= 8
        assert 0 <= g.num_edges <= 2
        assert 1 <= g.num_nvps <= 6
        # Deadlines fit the period and tasks can meet them.
        for t in g.tasks:
            assert t.deadline <= 600.0 + 1e-9
            assert t.execution_time <= t.deadline

    @given(st.integers(0, 200))
    def test_random_benchmark_deterministic(self, seed):
        a = random_benchmark(seed)
        b = random_benchmark(seed)
        assert [t.name for t in a.tasks] == [t.name for t in b.tasks]
        assert [t.power for t in a.tasks] == [t.power for t in b.tasks]

    @given(st.integers(0, 200))
    def test_random_benchmark_edges_consistent(self, seed):
        g = random_benchmark(seed)
        for j in range(len(g)):
            for i in g.predecessors(j):
                producer, consumer = g.tasks[i], g.tasks[j]
                assert (
                    producer.deadline + consumer.execution_time
                    <= consumer.deadline + 1e-9
                )
