"""Stochastic cloud attenuation processes.

Measured irradiance differs from the clear-sky curve by a cloud
transmittance factor in (0, 1].  This module models that factor with a
regime-switching process: a small Markov chain over sky states (clear /
scattered / broken / overcast), each with its own transmittance range
and mean dwell time, plus smooth within-state fluctuation from a
mean-reverting random walk.  The combination reproduces the qualitative
texture of real traces — long clear stretches, bursty mid-day cloud
fields, and fully overcast days — which is what the schedulers react
to.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Tuple

import numpy as np

__all__ = ["SkyState", "CloudProcess"]


@dataclasses.dataclass(frozen=True)
class SkyState:
    """One cloud regime.

    Parameters
    ----------
    name:
        Label used in reports.
    mean_transmittance:
        Centre of the transmittance band for this regime.
    spread:
        Half-width of within-regime fluctuation.
    dwell_seconds:
        Mean sojourn time before the chain re-draws a state.
    """

    name: str
    mean_transmittance: float
    spread: float
    dwell_seconds: float

    def __post_init__(self) -> None:
        if not 0.0 < self.mean_transmittance <= 1.0:
            raise ValueError(
                f"{self.name}: mean_transmittance must be in (0, 1], "
                f"got {self.mean_transmittance}"
            )
        if self.spread < 0:
            raise ValueError(f"{self.name}: spread must be >= 0")
        if not self.dwell_seconds > 0:
            raise ValueError(f"{self.name}: dwell_seconds must be > 0")


#: Default sky regimes, roughly following okta-band statistics.
DEFAULT_STATES: Tuple[SkyState, ...] = (
    SkyState("clear", 0.97, 0.02, 5400.0),
    SkyState("scattered", 0.80, 0.10, 3600.0),
    SkyState("broken", 0.55, 0.15, 2700.0),
    SkyState("overcast", 0.22, 0.08, 7200.0),
)

#: Default transition preferences between regimes (row: from, col: to).
DEFAULT_TRANSITIONS = np.array(
    [
        [0.00, 0.70, 0.25, 0.05],
        [0.45, 0.00, 0.45, 0.10],
        [0.15, 0.45, 0.00, 0.40],
        [0.05, 0.20, 0.75, 0.00],
    ]
)


class CloudProcess:
    """Regime-switching cloud transmittance sampler.

    Parameters
    ----------
    states:
        Sky regimes; defaults to :data:`DEFAULT_STATES`.
    transitions:
        Row-stochastic (after normalisation) matrix of regime-switch
        preferences; the diagonal is ignored because dwell times handle
        self-persistence.
    smoothness_seconds:
        Time constant of the within-regime mean-reverting fluctuation.
    """

    def __init__(
        self,
        states: Sequence[SkyState] = DEFAULT_STATES,
        transitions: np.ndarray | None = None,
        smoothness_seconds: float = 600.0,
    ) -> None:
        if len(states) < 1:
            raise ValueError("need at least one sky state")
        self.states = tuple(states)
        matrix = (
            np.asarray(transitions, dtype=float)
            if transitions is not None
            else DEFAULT_TRANSITIONS[: len(states), : len(states)].copy()
        )
        if matrix.shape != (len(states), len(states)):
            raise ValueError(
                f"transition matrix shape {matrix.shape} does not match "
                f"{len(states)} states"
            )
        np.fill_diagonal(matrix, 0.0)
        row_sums = matrix.sum(axis=1, keepdims=True)
        if len(states) == 1:
            matrix = np.ones((1, 1))
        else:
            if np.any(row_sums <= 0):
                raise ValueError("every state needs a positive exit weight")
            matrix = matrix / row_sums
        self.transitions = matrix
        if not smoothness_seconds > 0:
            raise ValueError("smoothness_seconds must be > 0")
        self.smoothness_seconds = smoothness_seconds

    def sample(
        self,
        times: np.ndarray,
        rng: np.random.Generator,
        initial_state: int | None = None,
    ) -> np.ndarray:
        """Transmittance factor at each time point.

        ``times`` must be increasing; values are clipped to (0.02, 1.0].
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("times must be a non-empty 1-D array")
        if np.any(np.diff(times) < 0):
            raise ValueError("times must be non-decreasing")

        n_states = len(self.states)
        state = (
            int(rng.integers(n_states))
            if initial_state is None
            else int(initial_state)
        )
        if not 0 <= state < n_states:
            raise ValueError(f"initial_state {state} out of range")

        # Walk the times segment by segment between regime switches:
        # a segment's normals come from one ``rng.normal(size=k)`` call,
        # the same stream as k scalar draws, and the switch draws follow
        # it exactly where the per-sample loop would make them.
        dts = np.maximum(np.diff(times, prepend=times[0]), 0.0).tolist()
        out = np.empty_like(times)
        next_switch = times[0] + rng.exponential(
            self.states[state].dwell_seconds
        )
        steps = {}
        fluctuation = 0.0
        i, n = 0, len(times)
        while i < n:
            if n_states > 1:
                while times[i] >= next_switch:
                    state = int(rng.choice(n_states, p=self.transitions[state]))
                    next_switch += rng.exponential(
                        self.states[state].dwell_seconds
                    )
                end = max(
                    int(np.searchsorted(times, next_switch, side="left")),
                    i + 1,
                )
            else:
                end = n
            regime = self.states[state]
            normals = rng.normal(0.0, 1.0, size=end - i).tolist()
            mean = regime.mean_transmittance
            for j, z in enumerate(normals, start=i):
                dt = dts[j]
                step = steps.get((dt, state))
                if step is None:
                    # Ornstein-Uhlenbeck-style mean-reverting fluctuation.
                    decay = np.exp(-dt / self.smoothness_seconds)
                    noise_scale = regime.spread * np.sqrt(
                        max(1.0 - decay**2, 0.0)
                    )
                    step = steps[(dt, state)] = (
                        float(decay),
                        float(noise_scale),
                    )
                decay, noise_scale = step
                fluctuation = fluctuation * decay + z * noise_scale
                out[j] = mean + fluctuation
            i = end
        return np.clip(out, 0.02, 1.0, out=out)
