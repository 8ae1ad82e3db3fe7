"""Section 6.5: algorithm overhead on the node.

The paper measures the coarse-grained (DBN) and fine-grained
(per-slot) procedures at 14.6 s / 3.0 mW and 3.47 s / 2.94 mW on the
93.5 kHz node, concluding the algorithm costs less than 3% of total
energy.  ``run`` evaluates our operation-count model against a
simulated WAM deployment.
"""

from __future__ import annotations

from typing import List

from ..core import OverheadModel
from ..sim.engine import simulate
from ..solar import four_day_trace
from ..tasks import wam
from .common import Check, ExperimentTable, default_timeline, train_policy

__all__ = ["run", "checks"]


def run() -> ExperimentTable:
    """Coarse/fine procedure costs against a simulated deployment."""
    graph = wam()
    trace = four_day_trace(default_timeline(4))
    policy = train_policy(graph)
    result = simulate(
        policy.make_node(), graph, trace, policy.make_scheduler(),
        strict=False,
    )
    model = OverheadModel()
    report = model.report(policy.dbn, graph, trace.timeline, result)

    rows = [
        [
            "coarse (DBN) per period",
            f"{report.coarse_seconds:.3f}s",
            f"{report.coarse_power * 1e3:.2f}mW",
            f"{report.coarse_energy * 1e3:.2f}mJ",
        ],
        [
            "fine (per-slot) per period",
            f"{report.fine_seconds:.3f}s",
            f"{report.fine_power * 1e3:.2f}mW",
            f"{report.fine_energy * 1e3:.2f}mJ",
        ],
        [
            "total per day",
            "-",
            "-",
            f"{report.energy_per_day * 1e3:.1f}mJ",
        ],
    ]
    notes = [
        f"DBN forward pass: {policy.dbn.mac_count():,} MACs at "
        f"{model.clock_hz / 1e3:.1f} kHz",
        f"relative overhead: {report.relative_overhead * 100:.3f}% of total "
        "energy (paper: < 3%) — "
        f"{'OK' if report.relative_overhead < 0.03 else 'VIOLATED'}",
        "paper's measured reference: coarse 14.6s/3.0mW, fine 3.47s/2.94mW",
    ]
    return ExperimentTable(
        title="Section 6.5: algorithm overhead",
        headers=["procedure", "time", "power", "energy"],
        rows=rows,
        notes=notes,
    )


def checks(table: ExperimentTable) -> List[Check]:
    """The algorithms cost under 3% of the node's energy."""
    rel_note = [n for n in table.notes if "relative overhead" in n][0]
    rel = float(rel_note.split(":")[1].split("%")[0])
    return [("relative_overhead", rel < 3.0, f"{rel}% >= 3%")]
