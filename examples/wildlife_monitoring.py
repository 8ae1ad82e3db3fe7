#!/usr/bin/env python
"""Wild animal monitoring: the paper's full offline + online flow.

A WAM collar node (GPS locating, heart-rate sampling, audio pipeline,
emergency response, storage, radio) must keep missing as few deadlines
as possible through day/night cycles.  This example runs the complete
method of the paper:

1. offline — size the distributed super capacitors on historical
   weather, solve the long-term DMR optimisation, train the DBN;
2. online — deploy on unseen weather and compare against the
   inter-task LSA [3], the intra-task scheduler [9] and the static
   optimal upper bound.

Run:  python examples/wildlife_monitoring.py            (fast, 4 days)
      python examples/wildlife_monitoring.py --days 30  (monthly)
Fast: REPRO_EXAMPLE_FAST=1 python examples/wildlife_monitoring.py
"""

import argparse
import os

from repro.core import (
    LongTermOptimizer,
    OfflinePipeline,
    PlanPolicy,
    ProposedScheduler,
    trace_period_matrix,
)
from repro.schedulers import InterTaskScheduler, IntraTaskScheduler
from repro.sim.engine import simulate
from repro.solar import four_day_trace, synthetic_trace
from repro.tasks import wam
from repro.timeline import Timeline

# Smoke-test knob: coarse periods, short training, tiny DBN budget.
FAST = bool(os.environ.get("REPRO_EXAMPLE_FAST"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--days", type=int, default=4,
        help="evaluation days (4 = the paper's four canonical days; "
        "more = synthetic weather)",
    )
    parser.add_argument("--train-days", type=int,
                        default=2 if FAST else 12)
    args = parser.parse_args()

    graph = wam()
    timeline = Timeline(
        num_days=args.days, periods_per_day=24 if FAST else 144,
        slots_per_period=20, slot_seconds=30.0,
    )

    # ---------------------------------------------------------------- offline
    print("=== offline stage (historical weather) ===")
    train_trace = synthetic_trace(
        timeline.with_days(args.train_days), seed=99
    )
    if FAST:
        pipeline = OfflinePipeline(
            graph, num_capacitors=4, pretrain_epochs=2, finetune_epochs=5,
        )
    else:
        pipeline = OfflinePipeline(graph, num_capacitors=4)
    policy = pipeline.run(train_trace)
    sizes = ", ".join(f"{c.capacitance:g}F" for c in policy.capacitors)
    print(f"sized capacitor bank: [{sizes}]")
    print(
        f"training-plan expected DMR: "
        f"{policy.training_plan.expected_dmr:.3f} over "
        f"{args.train_days} days"
    )

    # ----------------------------------------------------------------- online
    if args.days == 4:
        eval_trace = four_day_trace(timeline)
        print("\n=== online stage (the paper's four canonical days) ===")
    else:
        eval_trace = synthetic_trace(timeline, seed=2016)
        print(f"\n=== online stage ({args.days} synthetic days) ===")

    optimizer = LongTermOptimizer(
        graph, timeline, list(policy.capacitors)
    )
    plan = optimizer.optimize(trace_period_matrix(eval_trace))

    schedulers = {
        "inter-task [3]": InterTaskScheduler(),
        "intra-task [9]": IntraTaskScheduler(),
        "proposed (DBN)": policy.make_scheduler(),
        "optimal (oracle)": ProposedScheduler(
            PlanPolicy(plan), name="optimal"
        ),
    }
    results = {}
    for label, scheduler in schedulers.items():
        node = policy.make_node()
        results[label] = simulate(
            node, graph, eval_trace, scheduler, strict=False
        )

    print(f"\n{'scheduler':18s} {'DMR':>6s} {'util':>6s} {'stored J':>9s}")
    for label, r in results.items():
        print(
            f"{label:18s} {r.dmr:6.3f} {r.energy_utilization:6.3f} "
            f"{r.total_storage_energy:9.0f}"
        )

    inter = results["inter-task [3]"]
    prop = results["proposed (DBN)"]
    if inter.dmr > 0:
        gain = 100 * (inter.dmr - prop.dmr) / inter.dmr
        print(f"\nproposed reduces DMR by {gain:.1f}% vs the inter-task LSA")
    print(
        "per-day DMR (proposed): "
        + ", ".join(f"{x:.2f}" for x in prop.dmr_by_day())
    )


if __name__ == "__main__":
    main()
