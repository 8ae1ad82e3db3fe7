#!/usr/bin/env python
"""Structure health monitoring: long deployments and solar prediction.

A bridge-mounted SHM node (temperature + acceleration sensing, FFT,
radio) runs unattended for months.  This example focuses on the
long-horizon aspects of the paper:

1. how well the WCMA predictor (the engine behind the inter-task LSA
   and the receding-horizon planner) forecasts per-period solar energy
   on synthetic multi-week weather;
2. how the prediction length changes the proposed family's DMR — the
   balance point of Figure 10(a).

Run:  python examples/structural_health.py
Fast: REPRO_EXAMPLE_FAST=1 python examples/structural_health.py
"""

import os

import numpy as np

from repro.core import DPConfig, HorizonPolicy, ProposedScheduler
from repro.sim.engine import simulate
from repro.solar import EWMAPredictor, WCMAPredictor, synthetic_trace
from repro.tasks import shm
from repro.timeline import Timeline

# Smoke-test knob: a shorter deployment on a coarser day, one horizon.
FAST = bool(os.environ.get("REPRO_EXAMPLE_FAST"))


def main() -> None:
    graph = shm()
    timeline = Timeline(
        num_days=9 if FAST else 14, periods_per_day=24 if FAST else 144,
        slots_per_period=20, slot_seconds=30.0,
    )
    trace = synthetic_trace(timeline, seed=31)

    # -------------------------------------------------- predictor quality
    print("=== per-period solar prediction error (last 7 days) ===")
    for label, predictor in (
        ("WCMA [3]", WCMAPredictor(timeline)),
        ("EWMA", EWMAPredictor(timeline)),
    ):
        errors = []
        for day in range(timeline.num_days):
            for period in range(timeline.periods_per_day):
                actual = trace.period_energy(day, period)
                if day >= 7:
                    errors.append(abs(predictor.predict(day, period) - actual))
                predictor.observe(day, period, actual)
        peak = trace.power.max() * timeline.period_seconds
        print(
            f"  {label:10s} mean abs error "
            f"{np.mean(errors):6.2f} J ({100 * np.mean(errors) / peak:.1f}% "
            "of the brightest period)"
        )

    # ------------------------------------------- prediction-length sweep
    print("\n=== prediction length vs DMR (receding-horizon planner) ===")
    from repro.core.offline import OfflinePipeline

    pipeline = OfflinePipeline(graph, num_capacitors=3)
    capacitors = pipeline.size_capacitors(
        synthetic_trace(timeline.with_days(10), seed=99)
    )
    sizes = ", ".join(f"{c.capacitance:g}F" for c in capacitors)
    print(f"  sized bank: [{sizes}]")
    for hours in (24,) if FAST else (6, 24, 48):
        horizon = hours * timeline.periods_per_day // 24
        scheduler = ProposedScheduler(
            HorizonPolicy(
                capacitors,
                horizon_periods=horizon,
                replan_every=12,
                config=DPConfig(energy_buckets=41),
            ),
            name="receding-horizon",
        )
        from repro.node import SensorNode

        node = SensorNode(capacitors, num_nvps=graph.num_nvps)
        result = simulate(node, graph, trace, scheduler, strict=False)
        print(
            f"  horizon {hours:3d}h: DMR={result.dmr:.3f} "
            f"(DP transitions {scheduler.policy.transitions_evaluated:,})"
        )
    print(
        "\nLonger prediction sees the night coming but leans on less "
        "accurate forecasts — the trade-off behind Figure 10(a)."
    )


if __name__ == "__main__":
    main()
