"""Direct tests of the shared fine-grained slot pass (Section 5.2)."""

import numpy as np
import pytest

from repro.schedulers.intratask import fine_grained_decision
from repro.sim.views import BankView, SlotView
from repro.tasks import Task, TaskGraph
from repro.timeline import Timeline


def make_view(graph, remaining, slot=0, solar=0.05, slots=10, dt=30.0):
    tl = Timeline(1, 1, slots, dt)
    remaining = np.asarray(remaining, dtype=float)
    completed = remaining <= 1e-9
    deadline_slots = np.array(
        [tl.deadline_slot(t.deadline) for t in graph.tasks]
    )
    done = completed
    ready = tuple(
        i
        for i in range(len(graph))
        if not done[i]
        and slot < deadline_slots[i]
        and all(done[p] for p in graph.predecessors(i))
    )
    bank = BankView(
        capacitances=np.array([10.0]),
        voltages=np.array([3.0]),
        usable_energies=np.array([40.0]),
        active_index=0,
    )
    return SlotView(
        timeline=tl,
        graph=graph,
        day=0,
        period=0,
        slot=slot,
        solar_power=solar,
        slot_seconds=dt,
        remaining=remaining,
        completed=completed,
        missed=np.zeros(len(graph), dtype=bool),
        deadline_slots=deadline_slots,
        ready=ready,
        bank=bank,
    )


def two_tasks(p1=0.02, p2=0.04, d1=300.0, d2=300.0):
    return TaskGraph(
        [
            Task("a", 60.0, d1, p1, nvp=0),
            Task("b", 60.0, d2, p2, nvp=1),
        ]
    )


class TestFineGrainedDecision:
    def test_empty_selection_runs_nothing(self):
        graph = two_tasks()
        view = make_view(graph, [60.0, 60.0])
        assert fine_grained_decision(view, set(), True) == []

    def test_intra_mode_matches_solar(self):
        graph = two_tasks(p1=0.02, p2=0.04)
        view = make_view(graph, [60.0, 60.0], solar=0.045)
        chosen = fine_grained_decision(view, {0, 1}, intra_mode=True)
        # Best match under 45 mW is task b alone (40 mW beats 20 mW).
        assert chosen == [1]

    def test_intra_mode_takes_both_when_they_fit(self):
        graph = two_tasks(p1=0.02, p2=0.04)
        view = make_view(graph, [60.0, 60.0], solar=0.07)
        chosen = fine_grained_decision(view, {0, 1}, intra_mode=True)
        assert set(chosen) == {0, 1}

    def test_inter_mode_lazy_without_solar(self):
        graph = two_tasks()
        view = make_view(graph, [60.0, 60.0], solar=0.0)
        # Plenty of slack, no solar: the lazy pass idles.
        assert fine_grained_decision(view, {0, 1}, intra_mode=False) == []

    def test_urgent_runs_regardless_of_solar(self):
        graph = two_tasks(d1=90.0)  # deadline slot 3
        # Task a needs 2 slots of work and 2 slots remain: urgent.
        view = make_view(graph, [60.0, 60.0], slot=1, solar=0.0)
        chosen = fine_grained_decision(view, {0, 1}, intra_mode=True)
        assert 0 in chosen

    def test_selection_filters_ready(self):
        graph = two_tasks()
        view = make_view(graph, [60.0, 60.0], solar=1.0)
        chosen = fine_grained_decision(view, {1}, intra_mode=False)
        assert chosen == [1]

    def test_one_task_per_nvp(self):
        graph = TaskGraph(
            [
                Task("a", 60.0, 300.0, 0.02, nvp=0),
                Task("b", 60.0, 240.0, 0.03, nvp=0),
            ]
        )
        view = make_view(graph, [60.0, 60.0], solar=1.0)
        chosen = fine_grained_decision(view, {0, 1}, intra_mode=True)
        assert len(chosen) == 1
        assert chosen[0] == 1  # earlier deadline wins the NVP
