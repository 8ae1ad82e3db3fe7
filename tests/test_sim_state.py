"""Tests for the per-period runtime state (Eq. 4, 5, 7)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import COMPLETION_EPS, PeriodRuntime
from repro.tasks import Task, TaskGraph, wam
from repro.timeline import Timeline
from repro.verify.strategies import engine_setups


def timeline(slots=20, dt=30.0):
    return Timeline(
        num_days=1, periods_per_day=2, slots_per_period=slots, slot_seconds=dt
    )


def chain_graph():
    """a -> b on one NVP, c independent on another."""
    tasks = [
        Task("a", 60.0, 180.0, 0.02, nvp=0),
        Task("b", 60.0, 360.0, 0.02, nvp=0),
        Task("c", 30.0, 300.0, 0.03, nvp=1),
    ]
    return TaskGraph(tasks, edges=[("a", "b")])


class TestReadiness:
    def test_initial_ready_excludes_dependents(self):
        rt = PeriodRuntime(chain_graph(), timeline())
        ready = rt.ready_tasks(0)
        names = {rt.graph.tasks[i].name for i in ready}
        assert names == {"a", "c"}

    def test_dependent_ready_after_producer_completes(self):
        rt = PeriodRuntime(chain_graph(), timeline())
        rt.advance_scaled([(0, 60.0)])  # finish a
        assert rt.is_completed(0)
        assert 1 in rt.ready_tasks(2)

    def test_completed_not_ready(self):
        rt = PeriodRuntime(chain_graph(), timeline())
        rt.advance_scaled([(2, 30.0)])
        assert 2 not in rt.ready_tasks(1)

    def test_past_deadline_not_ready(self):
        rt = PeriodRuntime(chain_graph(), timeline())
        # a's deadline slot is 180/30 = 6.
        assert 0 in rt.ready_tasks(5)
        assert 0 not in rt.ready_tasks(6)


class TestProgress:
    def test_advance_reduces_remaining(self):
        rt = PeriodRuntime(chain_graph(), timeline())
        rt.advance_scaled([(0, 25.0)])
        assert rt.remaining[0] == pytest.approx(35.0)
        assert rt.started[0]

    def test_advance_clamps_at_zero(self):
        rt = PeriodRuntime(chain_graph(), timeline())
        rt.advance_scaled([(2, 500.0)])
        assert rt.remaining[2] == 0.0

    def test_advance_negative_rejected(self):
        rt = PeriodRuntime(chain_graph(), timeline())
        with pytest.raises(ValueError):
            rt.advance_scaled([(0, -1.0)])

    def test_missed_task_does_not_progress(self):
        rt = PeriodRuntime(chain_graph(), timeline())
        rt.missed[0] = True
        rt.advance_scaled([(0, 30.0)])
        assert rt.remaining[0] == pytest.approx(60.0)


class TestDeadlines:
    def test_incomplete_at_deadline_is_missed(self):
        rt = PeriodRuntime(chain_graph(), timeline())
        rt.advance_scaled([(0, 30.0)])  # half done
        missed = rt.check_deadlines(6)  # a's deadline slot
        assert 0 in missed
        assert rt.missed[0]

    def test_complete_at_deadline_not_missed(self):
        rt = PeriodRuntime(chain_graph(), timeline())
        rt.advance_scaled([(0, 60.0)])
        assert rt.check_deadlines(6) == ()

    def test_miss_cascades_to_dependents(self):
        rt = PeriodRuntime(chain_graph(), timeline())
        missed = rt.check_deadlines(6)  # a missed, untouched
        assert set(missed) == {0, 1}  # b is doomed too
        assert rt.missed[1]

    def test_cascade_skips_completed_dependents(self):
        graph = chain_graph()
        rt = PeriodRuntime(graph, timeline())
        rt.advance_scaled([(0, 60.0)])  # a done
        rt.advance_scaled([(1, 60.0)])  # b done early
        # c misses its own deadline at slot 10 but has no dependents.
        missed = rt.check_deadlines(10)
        assert set(missed) == {2}

    def test_finalize_marks_stragglers(self):
        rt = PeriodRuntime(chain_graph(), timeline())
        rt.advance_scaled([(0, 60.0)])
        newly = rt.finalize()
        assert set(newly) == {1, 2}
        assert rt.miss_count == 2
        assert rt.dmr == pytest.approx(2 / 3)

    def test_dmr_zero_when_all_complete(self):
        rt = PeriodRuntime(chain_graph(), timeline())
        rt.advance_scaled([(0, 60.0)])
        rt.advance_scaled([(1, 60.0), (2, 60.0)])
        rt.finalize()
        assert rt.dmr == 0.0


class TestWithRealBenchmark:
    def test_wam_full_completion_possible(self):
        """Serially completing WAM in dependence order meets all deadlines
        (sanity of the benchmark's demand bounds)."""
        graph = wam()
        tl = Timeline(1, 1, 20, 30.0)
        rt = PeriodRuntime(graph, tl)
        for slot in range(tl.slots_per_period):
            rt.check_deadlines(slot)
            ready = rt.ready_tasks(slot)
            # run one task per NVP, earliest deadline first
            by_deadline = sorted(ready, key=lambda i: rt.deadline_slots[i])
            chosen, used = [], set()
            for i in by_deadline:
                if graph.nvp_of(i) not in used:
                    chosen.append(i)
                    used.add(graph.nvp_of(i))
            rt.advance_scaled([(i, tl.slot_seconds) for i in chosen])
        rt.finalize()
        assert rt.dmr == 0.0


# ----------------------------------------------------------------------
# The scalar state against the numpy-mask formulation it replaced
# ----------------------------------------------------------------------
def mask_ready(pred_mask, remaining, missed, deadline_slots, slot):
    """Eq. 7 readiness as boolean masks over every task at once."""
    done = np.asarray(remaining) <= COMPLETION_EPS
    blocked = (pred_mask & ~done).any(axis=1)
    ready = (
        ~done & ~np.asarray(missed) & (slot < np.asarray(deadline_slots))
        & ~blocked
    )
    return tuple(np.flatnonzero(ready).tolist())


def mask_check_deadlines(graph, remaining, missed, deadline_slots, slot):
    """Eq. 5 misses due at ``slot``, then the dependent cascade; returns
    the new misses in order and the updated flags."""
    missed = np.array(missed, dtype=bool)
    done = np.asarray(remaining) <= COMPLETION_EPS
    due = (np.asarray(deadline_slots) == slot) & ~missed & ~done
    newly = np.flatnonzero(due).tolist()
    missed |= due
    for i in list(newly):
        for d in graph.descendants(i):
            if not missed[d] and not done[d]:
                missed[d] = True
                newly.append(d)
    return tuple(newly), missed.tolist()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(setup=engine_setups(), data=st.data())
def test_scalar_state_matches_mask_formulas(setup, data):
    graph, tl, _, _ = setup
    n = len(graph)
    pred_mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for p in graph.predecessors(i):
            pred_mask[i, p] = True
    rt = PeriodRuntime(graph, tl)
    deadline_slots = [tl.deadline_slot(t.deadline) for t in graph.tasks]
    assert list(rt.deadline_slots) == deadline_slots
    for _ in range(2):  # the second period runs on the reset state
        assert rt.remaining == [t.execution_time for t in graph.tasks]
        assert not any(rt.missed) and not any(rt.started)
        for slot in range(tl.slots_per_period + 1):
            expected, flags = mask_check_deadlines(
                graph, rt.remaining, rt.missed, deadline_slots, slot
            )
            assert rt.check_deadlines(slot) == expected
            assert rt.missed == flags
            if slot == tl.slots_per_period:
                break
            ready = rt.ready_tasks(slot)
            assert ready == mask_ready(
                pred_mask, rt.remaining, rt.missed, deadline_slots, slot
            )
            chosen = (
                data.draw(st.lists(st.sampled_from(ready), unique=True))
                if ready else []
            )
            seconds = data.draw(
                st.sampled_from([0.0, 7.5, tl.slot_seconds])
            )
            rt.advance_scaled([(i, seconds) for i in chosen])
        rt.finalize()
        rt.reset()
