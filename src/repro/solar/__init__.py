"""Solar substrate: irradiance, clouds, panel, traces and predictors."""

from .irradiance import (
    ClearSkyModel,
    clear_sky_ghi,
    solar_declination,
    solar_elevation,
)
from .clouds import CloudProcess, SkyState, constant_transmittance
from .panel import SolarPanel
from .trace import SolarTrace
from .days import (
    FOUR_DAYS,
    DayArchetype,
    archetype_trace,
    four_day_trace,
    synthetic_trace,
)
from .prediction import (
    EWMAPredictor,
    PerfectPredictor,
    SolarPredictor,
    WCMAPredictor,
)

__all__ = [
    "ClearSkyModel",
    "clear_sky_ghi",
    "solar_declination",
    "solar_elevation",
    "CloudProcess",
    "SkyState",
    "constant_transmittance",
    "SolarPanel",
    "SolarTrace",
    "DayArchetype",
    "FOUR_DAYS",
    "archetype_trace",
    "four_day_trace",
    "synthetic_trace",
    "SolarPredictor",
    "WCMAPredictor",
    "EWMAPredictor",
    "PerfectPredictor",
]
