"""Robustness harness: replay schedulers under injected faults.

``robustness_report`` runs a set of schedulers on a clean trace and on
fault-degraded variants of it and reports the DMR deltas — how much of
each policy's margin survives dust, shading and glitches.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Sequence

import numpy as np

from ..obs import NULL_OBSERVER, FaultScenarioEvent, Observer
from ..schedulers.base import Scheduler
from ..sim.engine import simulate
from ..solar.trace import SolarTrace
from ..node.node import SensorNode
from ..tasks.graph import TaskGraph
from .faults import TraceFault

__all__ = ["FaultScenario", "RobustnessRow", "robustness_report"]


@dataclasses.dataclass(frozen=True)
class FaultScenario:
    """A named stack of trace faults applied in order."""

    name: str
    faults: Sequence[TraceFault]
    seed: int = 0

    def degrade(self, trace: SolarTrace) -> SolarTrace:
        rng = np.random.default_rng(self.seed)
        for fault in self.faults:
            trace = fault.apply(trace, rng)
        return trace


@dataclasses.dataclass(frozen=True)
class RobustnessRow:
    """One (scheduler, scenario) outcome."""

    scheduler: str
    scenario: str
    dmr: float
    dmr_clean: float
    lost_energy_fraction: float

    @property
    def dmr_increase(self) -> float:
        return self.dmr - self.dmr_clean


def robustness_report(
    graph: TaskGraph,
    trace: SolarTrace,
    node_factory: Callable[[], SensorNode],
    scheduler_factories: Dict[str, Callable[[], Scheduler]],
    scenarios: Sequence[FaultScenario],
    observer: Observer = NULL_OBSERVER,
) -> List[RobustnessRow]:
    """Evaluate every scheduler on the clean trace and every scenario.

    ``scheduler_factories`` and ``node_factory`` are callables because
    schedulers and nodes carry state across a run — each cell of the
    report needs a fresh pair.  ``observer`` receives one
    ``fault_scenario`` event per degraded scenario so chaos sweeps
    show up on the same event bus as the runs they wrap.
    """
    clean_energy = trace.total_energy()
    clean_dmr: Dict[str, float] = {}
    rows: List[RobustnessRow] = []

    for name, make_scheduler in scheduler_factories.items():
        result = simulate(
            node_factory(), graph, trace, make_scheduler(), strict=False
        )
        clean_dmr[name] = result.dmr
        rows.append(
            RobustnessRow(
                scheduler=name,
                scenario="clean",
                dmr=result.dmr,
                dmr_clean=result.dmr,
                lost_energy_fraction=0.0,
            )
        )

    for scenario in scenarios:
        degraded = scenario.degrade(trace)
        lost = 1.0 - degraded.total_energy() / max(clean_energy, 1e-12)
        if observer.enabled:
            observer.emit(FaultScenarioEvent(
                scenario=scenario.name,
                faults=tuple(type(f).__name__ for f in scenario.faults),
                lost_energy_fraction=lost,
            ))
        for name, make_scheduler in scheduler_factories.items():
            result = simulate(
                node_factory(), graph, degraded, make_scheduler(),
                strict=False,
            )
            rows.append(
                RobustnessRow(
                    scheduler=name,
                    scenario=scenario.name,
                    dmr=result.dmr,
                    dmr_clean=clean_dmr[name],
                    lost_energy_fraction=lost,
                )
            )
    return rows
