"""Energy substrate: regulators, super capacitors, migration, sizing."""

from .regulator import (
    RegulatorCurve,
    default_input_regulator,
    default_output_regulator,
)
from .capacitor import CapacitorState, SuperCapacitor
from .migration import (
    MigrationPattern,
    MigrationResult,
    NonidealParams,
    migration_efficiency,
    simulate_migration,
)
from .sizing import (
    DEFAULT_CANDIDATES,
    DayMigrationResult,
    cluster_capacities,
    migration_series,
    optimal_daily_capacity,
    simulate_day_migration,
    size_bank,
)
from .bank import CapacitorBank

__all__ = [
    "RegulatorCurve",
    "default_input_regulator",
    "default_output_regulator",
    "SuperCapacitor",
    "CapacitorState",
    "MigrationPattern",
    "MigrationResult",
    "NonidealParams",
    "simulate_migration",
    "migration_efficiency",
    "migration_series",
    "DayMigrationResult",
    "simulate_day_migration",
    "optimal_daily_capacity",
    "cluster_capacities",
    "size_bank",
    "DEFAULT_CANDIDATES",
    "CapacitorBank",
]
