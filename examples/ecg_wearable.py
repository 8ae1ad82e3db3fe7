#!/usr/bin/env python
"""ECG wearable: capacitor sizing study for a medical sensor patch.

A solar-powered ECG patch (filter chain, QRS detection, FFT, AES
encryption) is highly volume-constrained, so picking the right super
capacitors matters more than anywhere else.  This example walks the
Section 4.1 sizing machinery step by step:

1. extract the per-slot migration profile ``ΔE`` of each historical
   day under an ASAP schedule;
2. find each day's loss-optimal capacitance (Eq. 10–11);
3. cluster the per-day optima into banks of 1..6 capacitors and show
   how the achievable DMR responds (Figure 10(b)'s effect).

Run:  python examples/ecg_wearable.py
Fast: REPRO_EXAMPLE_FAST=1 python examples/ecg_wearable.py
"""

import os

import numpy as np

from repro.core import (
    LongTermOptimizer,
    PlanPolicy,
    ProposedScheduler,
    asap_load_profile,
    trace_period_matrix,
)
from repro.core.offline import OfflinePipeline
from repro.energy import (
    DEFAULT_CANDIDATES,
    migration_series,
    optimal_daily_capacity,
)
from repro.node import SensorNode
from repro.sim.engine import simulate
from repro.solar import four_day_trace, synthetic_trace
from repro.tasks import ecg
from repro.timeline import Timeline

# Smoke-test knob: short history, coarse periods, fewer bank sizes.
FAST = bool(os.environ.get("REPRO_EXAMPLE_FAST"))


def main() -> None:
    graph = ecg()
    timeline = Timeline(
        num_days=3 if FAST else 12, periods_per_day=24 if FAST else 144,
        slots_per_period=20, slot_seconds=30.0,
    )
    history = synthetic_trace(timeline, seed=99)

    # Step 1 + 2: per-day optimal capacitance from the ΔE profile.
    print("=== per-day optimal capacitance (Section 4.1) ===")
    load_period = asap_load_profile(graph, timeline)
    load_day = np.tile(load_period, timeline.periods_per_day)
    optima = []
    for day in range(timeline.num_days):
        solar_day = history.power[day].reshape(-1)
        delta_e = migration_series(solar_day, load_day, timeline.slot_seconds)
        best, result = optimal_daily_capacity(
            delta_e, timeline.slot_seconds, DEFAULT_CANDIDATES
        )
        optima.append(best)
        print(
            f"  day {day:2d}: harvest {history.daily_energy(day):7.1f} J, "
            f"C_opt = {best:5.1f} F "
            f"(loss {result.total_loss:6.1f} J, "
            f"served {result.served:6.1f} J)"
        )
    print(f"  spread of optima: {min(optima):g}F .. {max(optima):g}F")

    # Step 3: bank cardinality vs achievable DMR on the 4-day test.
    print("\n=== bank size vs DMR (static optimal, 4 canonical days) ===")
    eval_trace = four_day_trace(timeline.with_days(4))
    for h in (1, 3) if FAST else (1, 2, 3, 4, 6):
        pipe = OfflinePipeline(graph, num_capacitors=h)
        capacitors = pipe.size_capacitors(history)
        optimizer = LongTermOptimizer(
            graph, eval_trace.timeline, capacitors
        )
        plan = optimizer.optimize(trace_period_matrix(eval_trace))
        node = SensorNode(capacitors, num_nvps=graph.num_nvps)
        result = simulate(
            node, graph, eval_trace,
            ProposedScheduler(PlanPolicy(plan), name="optimal"),
            strict=False,
        )
        sizes = "/".join(f"{c.capacitance:g}" for c in capacitors)
        print(
            f"  H={h}: bank [{sizes}]F  DMR={result.dmr:.3f}  "
            f"migration-eff={result.migration_efficiency:.2f}"
        )
    print(
        "\nDMR improves with more capacitor sizes and saturates — "
        "the paper's Figure 10(b)."
    )


if __name__ == "__main__":
    main()
