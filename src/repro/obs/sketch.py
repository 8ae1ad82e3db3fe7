"""Counters and mergeable fixed-bin histograms.

* :class:`CounterBag` — named integer/float counters (the observer's
  ``metrics``).
* :class:`FixedHistogram` — fixed-bin counts with exact ``count`` /
  ``min`` / ``max``; quantile queries interpolate inside a bin, so the
  error is bounded by one bin width.  Linear bins suit DMR and
  utilization on [0, 1].  ``merge()`` is associative and commutative
  and exact (bin counts are integers, min/max are order-free), so the
  fleet runner folds per-shard histograms in whatever order the shards
  land and every reported number stays the same.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["CounterBag", "FixedHistogram"]


class CounterBag:
    """Named counters (an :class:`~repro.obs.events.Observer`'s metrics)."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}

    def inc(self, name: str, value: float = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + value

    def __getitem__(self, name: str) -> float:
        return self._counts.get(name, 0)

    def items(self):
        return sorted(self._counts.items())


class FixedHistogram:
    """Fixed-bin histogram with exact count/min/max sidecars.

    Values outside ``[edges[0], edges[-1]]`` are clamped into the
    first/last bin (``min``/``max`` stay exact, so the clamp is
    visible).  Bin assignment matches ``np.histogram``: each inner
    boundary belongs to the bin on its right, the top edge to the last
    bin.
    """

    __slots__ = ("edges", "counts", "count", "min", "max")

    def __init__(self, edges: Sequence[float]) -> None:
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or len(edges) < 2:
            raise ValueError("need at least two bin edges")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("bin edges must be strictly increasing")
        self.edges = edges
        self.counts = np.zeros(len(edges) - 1, dtype=np.int64)
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    # -- constructors ---------------------------------------------------
    @classmethod
    def linear(cls, lo: float, hi: float, bins: int) -> "FixedHistogram":
        """``bins`` equal-width bins over ``[lo, hi]`` (DMR on [0, 1])."""
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        return cls(np.linspace(float(lo), float(hi), bins + 1))

    # -- ingestion ------------------------------------------------------
    def add_many(self, values: Iterable[float]) -> "FixedHistogram":
        arr = np.asarray(list(values) if not isinstance(
            values, np.ndarray) else values, dtype=float)
        if arr.size == 0:
            return self
        idx = np.clip(
            np.searchsorted(self.edges, arr, side="right") - 1,
            0,
            len(self.counts) - 1,
        )
        np.add.at(self.counts, idx, 1)
        self.count += int(arr.size)
        self.min = min(self.min, float(arr.min()))
        self.max = max(self.max, float(arr.max()))
        return self

    @property
    def bin_width(self) -> float:
        """Widest bin: the quantile error bound."""
        return float(np.diff(self.edges).max())

    # -- merge contract -------------------------------------------------
    def merge(self, other: "FixedHistogram") -> "FixedHistogram":
        """Associative, commutative fold; edges must match exactly."""
        if not isinstance(other, FixedHistogram):
            raise TypeError(f"cannot merge with {type(other).__name__}")
        if not np.array_equal(self.edges, other.edges):
            raise ValueError("cannot merge histograms with different edges")
        merged = FixedHistogram(self.edges)
        merged.counts = self.counts + other.counts
        merged.count = self.count + other.count
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged

    # -- queries --------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile.

        Guaranteed within one bin width of the nearest-rank sample
        (``sorted(values)[floor(q * (n - 1))]``, numpy's
        ``method="lower"``): the estimate interpolates the rank inside
        the bin that *contains* that sample and clamps to the exact
        observed ``[min, max]``.  Monotone in ``q``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            raise ValueError("empty histogram has no quantiles")
        rank = q * (self.count - 1)
        cum = 0
        for i, c in enumerate(self.counts):
            c = int(c)
            if c and rank < cum + c:
                frac = (rank - cum + 1.0) / (c + 1.0)
                width = self.edges[i + 1] - self.edges[i]
                value = float(self.edges[i] + frac * width)
                return min(max(value, self.min), self.max)
            cum += c
        return self.max

    def percentiles(
        self, percentiles: Sequence[float] = (5, 25, 50, 75, 95, 99)
    ) -> Dict[str, float]:
        return {
            f"p{p:g}": self.quantile(p / 100.0) for p in percentiles
        }

    def downsample(self, bins: int) -> Tuple[List[int], List[float]]:
        """Coarse ``(counts, edges)`` view; ``bins`` must divide ours."""
        ours = len(self.counts)
        if bins < 1 or ours % bins:
            raise ValueError(
                f"requested {bins} bins do not evenly divide {ours}"
            )
        factor = ours // bins
        counts = self.counts.reshape(bins, factor).sum(axis=1)
        return counts.astype(int).tolist(), self.edges[::factor].tolist()
