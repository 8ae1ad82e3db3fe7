"""Figure 5: tested efficiencies of the input and output regulators.

The paper's Figure 5 plots regulator conversion efficiency against the
super-capacitor voltage, the data-fit behind η_chr / η_dis in Eq. (3).
``run`` tabulates our fitted curves over the operating range.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..energy import default_input_regulator, default_output_regulator
from .common import Check, ExperimentTable

__all__ = ["run", "checks"]


def run(v_min: float = 0.5, v_max: float = 5.0, points: int = 10) -> ExperimentTable:
    """Tabulate the fitted regulator efficiency curves."""
    input_reg = default_input_regulator()
    output_reg = default_output_regulator()
    voltages = np.linspace(v_min, v_max, points)
    rows = [
        [
            f"{v:.2f}",
            f"{input_reg.efficiency(v) * 100:.1f}%",
            f"{output_reg.efficiency(v) * 100:.1f}%",
        ]
        for v in voltages
    ]
    rising_in = input_reg.efficiency(v_max) > input_reg.efficiency(v_min)
    rising_out = output_reg.efficiency(v_max) > output_reg.efficiency(v_min)
    return ExperimentTable(
        title="Figure 5: regulator efficiency vs capacitor voltage",
        headers=["V_sc (V)", "eta_chr (input)", "eta_dis (output)"],
        rows=rows,
        notes=[
            "shape target: both curves rise with voltage and collapse "
            f"near the cut-off ({'OK' if rising_in and rising_out else 'VIOLATED'})"
        ],
    )


def checks(table: ExperimentTable) -> List[Check]:
    """Input efficiency rises monotonically with voltage."""
    etas = [float(r[1].rstrip("%")) for r in table.rows]
    return [("efficiency_monotone", etas == sorted(etas), f"etas {etas}")]
