"""Energy-conservation regression tests on recorded runs.

Instrumentation refactors must not skew the books: per period, the
load's energy is exactly the direct-channel part plus the storage
part, and the direct-channel deliveries plus what went into storage
can never exceed the harvested solar energy.
"""

import pytest

from repro import quick_node, simulate
from repro.obs import Observer, RingBufferSink
from repro.schedulers import GreedyEDFScheduler, IntraTaskScheduler
from repro.solar import synthetic_trace
from repro.tasks import paper_benchmarks
from repro.timeline import Timeline


def recorded_run(scheduler, benchmark="WAM", days=1, seed=11):
    graph = paper_benchmarks()[benchmark]
    tl = Timeline(days, 24, 20, 30.0)
    trace = synthetic_trace(tl, seed=seed)
    return simulate(
        quick_node(graph), graph, trace, scheduler, strict=False
    )


@pytest.mark.parametrize(
    "scheduler_factory", [GreedyEDFScheduler, IntraTaskScheduler]
)
def test_per_period_energy_identities(scheduler_factory):
    result = recorded_run(scheduler_factory())
    assert result.total_solar_energy > 0
    for p in result.periods:
        scale = max(p.solar_energy, p.load_energy, 1.0)
        tol = 1e-9 * scale
        # The load is served by exactly two channels.
        assert p.load_energy == pytest.approx(
            p.direct_energy + p.storage_energy, abs=tol
        )
        # Direct deliveries + storage intake cannot exceed the harvest.
        assert p.direct_energy + p.charged_energy <= p.solar_energy + tol
        # Storage never keeps more than it was offered.
        assert p.charged_energy <= p.offered_surplus + tol
        for field in (
            "solar_energy",
            "load_energy",
            "direct_energy",
            "storage_energy",
            "charged_energy",
            "offered_surplus",
            "leakage_energy",
        ):
            assert getattr(p, field) >= -tol, field


def test_identities_hold_under_observation():
    """Tracing a run must not perturb the energy accounting."""
    ring = RingBufferSink()
    graph = paper_benchmarks()["SHM"]
    tl = Timeline(1, 24, 20, 30.0)
    trace = synthetic_trace(tl, seed=11)
    result = simulate(
        quick_node(graph),
        graph,
        trace,
        GreedyEDFScheduler(),
        strict=False,
        observer=Observer(sinks=[ring]),
    )
    for p in result.periods:
        tol = 1e-9 * max(p.solar_energy, p.load_energy, 1.0)
        assert p.load_energy == pytest.approx(
            p.direct_energy + p.storage_energy, abs=tol
        )
    assert len(ring.of_kind("slot_decision")) == tl.total_slots
