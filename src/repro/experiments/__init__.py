"""Experiment harness: one runner per table/figure of the paper.

:data:`EXPERIMENTS` is the one registry of committed tables.  Each
name is the ``repro experiment`` target and the stem of its results
file, ``benchmarks/results/<name>.txt`` (plus
``<name>.manifest.json``).  Each entry pairs the table's ``run`` with
its ``checks``, which return ``(check, ok, detail)`` shape checks that
``repro experiment`` runs every time it produces the table.

| Name                    | Paper item   | Module                  |
|-------------------------|--------------|-------------------------|
| ``fig1``                | Figure 1     | ``fig1_motivation``     |
| ``fig2``                | Figure 2     | ``fig2_sizing``         |
| ``fig5``                | Figure 5     | ``fig5_regulators``     |
| ``fig6``                | Figure 6     | ``fig6_dbn``            |
| ``fig7``                | Figure 7     | ``fig7_solar``          |
| ``table2``              | Table 2      | ``table2_migration``    |
| ``fig8``                | Figure 8     | ``fig8_daily``          |
| ``fig9``                | Figure 9     | ``fig9_monthly``        |
| ``fig10a``              | Figure 10(a) | ``fig10a_prediction``   |
| ``fig10b``              | Figure 10(b) | ``fig10b_capacitors``   |
| ``overhead``            | Section 6.5  | ``overhead``            |
| ``ablation_*``          | (ablations)  | ``ablations``           |
| ``utilization``         | (extension)  | ``utilization_sweep``   |
| ``fault_robustness``    | (extension)  | ``fault_robustness``    |
| ``fleet``               | (extension)  | ``fleet_study``         |
"""

from typing import Callable, Dict, List, NamedTuple

from .common import (
    Check,
    ExperimentTable,
    default_timeline,
    evaluation_suite,
    train_policy,
    training_trace,
)
from . import (
    ablations,
    report,
    fault_robustness,
    fig1_motivation,
    fig2_sizing,
    fig5_regulators,
    fig6_dbn,
    fig7_solar,
    fig8_daily,
    fig9_monthly,
    fig10a_prediction,
    fig10b_capacitors,
    fleet_study,
    overhead,
    table2_migration,
    utilization_sweep,
)


class Experiment(NamedTuple):
    """One committed table: how to render it and how to check it."""

    run: Callable[[], ExperimentTable]
    checks: Callable[[ExperimentTable], List[Check]]


#: Every committed table, in the order ``repro experiment all`` runs
#: them and EXPERIMENTS.md lists them.
EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment(fig1_motivation.run, fig1_motivation.checks),
    "fig2": Experiment(fig2_sizing.run, fig2_sizing.checks),
    "fig5": Experiment(fig5_regulators.run, fig5_regulators.checks),
    "fig6": Experiment(fig6_dbn.run, fig6_dbn.checks),
    "fig7": Experiment(fig7_solar.run, fig7_solar.checks),
    "table2": Experiment(table2_migration.run, table2_migration.checks),
    "fig8": Experiment(fig8_daily.run, fig8_daily.checks),
    "fig9": Experiment(fig9_monthly.run, fig9_monthly.checks),
    "fig10a": Experiment(fig10a_prediction.run, fig10a_prediction.checks),
    "fig10b": Experiment(fig10b_capacitors.run, fig10b_capacitors.checks),
    "overhead": Experiment(overhead.run, overhead.checks),
    "ablation_eth": Experiment(ablations.run_eth, ablations.check_eth),
    "ablation_delta": Experiment(ablations.run_delta, ablations.check_delta),
    "ablation_coarse_model": Experiment(
        ablations.run_coarse_model, ablations.check_coarse_model
    ),
    "ablation_dvfs": Experiment(ablations.run_dvfs, ablations.check_dvfs),
    "utilization": Experiment(utilization_sweep.run, utilization_sweep.checks),
    "fault_robustness": Experiment(
        fault_robustness.run, fault_robustness.checks
    ),
    "fleet": Experiment(fleet_study.run, fleet_study.checks),
}

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "Check",
    "ExperimentTable",
    "default_timeline",
    "training_trace",
    "train_policy",
    "evaluation_suite",
    "fig1_motivation",
    "fig2_sizing",
    "fig5_regulators",
    "fig6_dbn",
    "fig7_solar",
    "table2_migration",
    "fig8_daily",
    "fig9_monthly",
    "fig10a_prediction",
    "fig10b_capacitors",
    "overhead",
    "ablations",
    "fault_robustness",
    "fleet_study",
    "utilization_sweep",
    "report",
]
