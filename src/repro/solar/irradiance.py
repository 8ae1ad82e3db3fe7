"""Clear-sky solar irradiance from solar geometry.

The paper drives its experiments from measured irradiance (NREL's
Measurement and Instrumentation Data Center [15]).  No measured data
ships with this repository, so this module builds the deterministic
clear-sky component from first principles: solar declination and hour
angle give the solar elevation for a site latitude and day of year,
and the Haurwitz clear-sky model maps elevation to global horizontal
irradiance (GHI).  Stochastic cloud attenuation is
layered on top by :mod:`repro.solar.clouds`.

All irradiance values are W/m²; all times are seconds since local
midnight (solar time).
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "solar_declination",
    "solar_elevation",
    "clear_sky_ghi",
    "ClearSkyModel",
]

_SECONDS_PER_DAY = 86_400.0
#: Haurwitz model coefficients (GHI = A * sin(el) * exp(-B / sin(el))).
_HAURWITZ_A = 1098.0
_HAURWITZ_B = 0.057


def solar_declination(day_of_year: int) -> float:
    """Solar declination in radians (Cooper's equation)."""
    return np.deg2rad(23.45) * np.sin(
        2.0 * np.pi * (284 + day_of_year) / 365.0
    )


def solar_elevation(
    time_of_day: np.ndarray | float,
    day_of_year: int,
    latitude_deg: float,
) -> np.ndarray:
    """Solar elevation angle in radians (negative below the horizon).

    Parameters
    ----------
    time_of_day:
        Seconds since local solar midnight; scalar or array.
    day_of_year:
        1–365.
    latitude_deg:
        Site latitude in degrees (positive north).
    """
    t = np.asarray(time_of_day, dtype=float)
    hour_angle = (t / _SECONDS_PER_DAY - 0.5) * 2.0 * np.pi
    lat = np.deg2rad(latitude_deg)
    dec = solar_declination(day_of_year)
    sin_el = np.sin(lat) * np.sin(dec) + np.cos(lat) * np.cos(dec) * np.cos(
        hour_angle
    )
    return np.arcsin(np.clip(sin_el, -1.0, 1.0))


def clear_sky_ghi(elevation_rad: np.ndarray | float) -> np.ndarray:
    """Haurwitz clear-sky GHI (W/m²) from solar elevation (radians)."""
    el = np.asarray(elevation_rad, dtype=float)
    sin_el = np.sin(np.clip(el, 0.0, np.pi / 2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ghi = _HAURWITZ_A * sin_el * np.exp(
            -_HAURWITZ_B / np.where(sin_el > 0, sin_el, 1.0)
        )
    return np.where(sin_el > 0, ghi, 0.0)


@dataclasses.dataclass(frozen=True)
class ClearSkyModel:
    """Clear-sky GHI for a fixed site.

    Parameters
    ----------
    latitude_deg:
        Site latitude; the default (39.74° N) matches NREL's Solar
        Radiation Research Laboratory in Golden, CO, the flagship
        station of the network the paper's dataset [15] comes from.
    """

    latitude_deg: float = 39.74

    def ghi(
        self, time_of_day: np.ndarray | float, day_of_year: int
    ) -> np.ndarray:
        """Clear-sky GHI (W/m²) at the given times of a given day."""
        if not 1 <= day_of_year <= 366:
            raise ValueError(
                f"day_of_year must be in [1, 366], got {day_of_year}"
            )
        el = solar_elevation(time_of_day, day_of_year, self.latitude_deg)
        return clear_sky_ghi(el)

    def daylight_hours(self, day_of_year: int) -> float:
        """Approximate daylight duration in hours."""
        lat = np.deg2rad(self.latitude_deg)
        dec = solar_declination(day_of_year)
        cos_h0 = -np.tan(lat) * np.tan(dec)
        cos_h0 = float(np.clip(cos_h0, -1.0, 1.0))
        return 2.0 * np.rad2deg(np.arccos(cos_h0)) / 15.0
