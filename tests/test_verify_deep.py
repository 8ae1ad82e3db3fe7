"""Deep conformance sweeps.

Everything here is ``slow``-marked — deselected from tier-1 by the
default ``-m 'not slow'`` addopts; run with ``pytest -m slow`` (CI's
nightly-style job does).  The sweeps draw from the shared strategy
library in :mod:`repro.verify.strategies` and push the invariant suite
well past the curated instances the quick level replays."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro import quick_node, simulate  # noqa: E402
from repro.reliability import FaultInjector, FaultPlan  # noqa: E402
from repro.verify import (  # noqa: E402
    RunContext,
    run_verification,
    verify_run,
)
from repro.verify.strategies import engine_setups  # noqa: E402

pytestmark = pytest.mark.slow

SWEEP = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _verify_clean(graph, node, result):
    ctx = RunContext(
        result=result,
        graph=graph,
        v_max=max(s.capacitor.v_full for s in node.bank.states),
        initial_usable_energy=float(
            sum(s.usable_energy for s in node.bank.states)
        ),
    )
    failed = [o for o in verify_run(ctx) if not o.passed]
    assert not failed, [
        v.message for o in failed for v in o.errors
    ]


class TestInvariantSweeps:
    @SWEEP
    @given(setup=engine_setups())
    def test_invariants_hold_for_random_setups(self, setup):
        """Any legal scheduler on any weather: physics must hold."""
        graph, tl, trace, scheduler = setup
        node = quick_node(graph)
        result = simulate(
            node, graph, trace, scheduler, strict=False,
            record_slots=True,
        )
        _verify_clean(graph, node, result)

    @SWEEP
    @given(setup=engine_setups(), fault_seed=st.integers(0, 100))
    def test_invariants_hold_under_random_faults(self, setup, fault_seed):
        """Faults mutate devices and supply, never the physics."""
        graph, tl, trace, scheduler = setup
        plan = FaultPlan.generate(
            tl, seed=fault_seed, dropouts_per_day=20.0,
            leak_spikes_per_day=10.0,
        )
        node = quick_node(graph)
        result = simulate(
            node, graph, trace, scheduler, strict=False,
            record_slots=True, fault_injector=FaultInjector(plan, tl),
        )
        _verify_clean(graph, node, result)


class TestEndToEnd:
    def test_deep_verification_is_clean(self):
        """The full ``repro verify --level deep`` pipeline, in-process."""
        report = run_verification(level="deep", seed=0)
        assert report.ok, report.render()
        names = {o.name for o in report.outcomes}
        assert {
            "energy-conservation",
            "oracle/reference-fingerprint",
            "oracle/plan-vs-bruteforce",
            "oracle/checkpoint-resume",
            "metamorphic/more-sun-never-hurts",
            "metamorphic/capacity-never-hurts",
            "metamorphic/permutation-invariance",
        } <= names
        # Deep adds the randomized sweeps on top of the quick matrix.
        subjects = {o.subject for o in report.outcomes}
        assert any(s.startswith("sweep-") for s in subjects)
