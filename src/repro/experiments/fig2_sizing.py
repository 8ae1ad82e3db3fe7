"""Figure 2 (motivation): why distributed super capacitors need sizing.

The paper's motivating example: a small capacitor wins a small/short
migration, a large one wins a large/long migration, so a single size
cannot be right for both — hence the distributed bank.  ``run`` sweeps
capacitance for the two ends of the pattern space.
"""

from __future__ import annotations

from typing import List

from ..energy import MigrationPattern, SuperCapacitor, migration_efficiency
from .common import Check, ExperimentTable

__all__ = ["run", "checks", "SWEEP"]

SWEEP = (0.5, 1.0, 2.0, 4.7, 10.0, 22.0, 47.0, 100.0)


def run() -> ExperimentTable:
    """Migration efficiency vs capacitance for a small and a large pattern."""
    small = MigrationPattern.table2(5.0, 45.0)
    large = MigrationPattern.table2(40.0, 500.0)
    rows = []
    eff_small, eff_large = {}, {}
    for c in SWEEP:
        cap = SuperCapacitor(capacitance=c)
        eff_small[c] = migration_efficiency(cap, small, time_step=15.0)
        eff_large[c] = migration_efficiency(cap, large, time_step=30.0)
        rows.append(
            [
                f"{c:g}F",
                f"{eff_small[c] * 100:.1f}%",
                f"{eff_large[c] * 100:.1f}%",
            ]
        )
    best_small = max(eff_small, key=eff_small.get)
    best_large = max(eff_large, key=eff_large.get)
    return ExperimentTable(
        title="Figure 2: migration efficiency vs capacitor size",
        headers=["capacity", "small pattern (5J/45min)", "large pattern (40J/500min)"],
        rows=rows,
        notes=[
            f"optimum moves from {best_small:g}F (small pattern) to "
            f"{best_large:g}F (large pattern) "
            f"({'OK' if best_large > best_small else 'VIOLATED'}) — "
            "the paper's case for distributed capacitor sizing",
        ],
    )


def checks(table: ExperimentTable) -> List[Check]:
    """The optimum moves to a larger capacitance for the large pattern."""
    small = [float(r[1].rstrip("%")) for r in table.rows]
    large = [float(r[2].rstrip("%")) for r in table.rows]
    best_small = small.index(max(small))
    best_large = large.index(max(large))
    return [
        (
            "optimum_moves_larger",
            best_large > best_small,
            f"best row {best_small} (small) vs {best_large} (large)",
        )
    ]
