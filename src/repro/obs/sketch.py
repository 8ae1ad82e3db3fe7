"""Memory-bounded mergeable aggregates: counters, histograms, quantiles.

ROADMAP item 3 (fleet aggregation at 100k–1M nodes) cannot hold every
per-node number in memory; these sketches are the streaming
replacement.  Each one is O(bins) / O(1) in memory regardless of how
many values it absorbs, and the two mergeable kinds obey an
**associative, commutative ``merge()`` contract**:

``a.merge(b).merge(c)`` equals ``a.merge(b.merge(c))`` — exactly for
every integer field (bin counts, totals, min/max) and up to float
summation order for ``sum`` — so shard-level sketches fold into fleet
aggregates in any grouping or order (guarded by hypothesis tests).

* :class:`CounterBag` — named integer/float counters; merge adds.
* :class:`FixedHistogram` — fixed-bin counts with exact ``count`` /
  ``min`` / ``max`` / ``sum``; quantile queries interpolate inside a
  bin, so the error is bounded by one bin width.  Linear bins suit
  DMR/utilization on [0, 1].
* :class:`P2Quantile` — the classic P² streaming estimator (Jain &
  Chlamtac 1985): five markers, one quantile, no stored samples.
  **Not mergeable** — it is a per-stream estimator for live readouts
  (e.g. the fleet heartbeat's running median DMR); cross-shard
  aggregation uses :class:`FixedHistogram`.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SKETCH_SCHEMA", "CounterBag", "FixedHistogram", "P2Quantile"]

#: Version stamp for serialized sketches.
SKETCH_SCHEMA = 1


class CounterBag:
    """Named counters with an additive merge."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[Dict[str, float]] = None) -> None:
        self._counts: Dict[str, float] = dict(counts or {})

    def inc(self, name: str, value: float = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + value

    def __getitem__(self, name: str) -> float:
        return self._counts.get(name, 0)

    def items(self):
        return sorted(self._counts.items())

    def merge(self, other: "CounterBag") -> "CounterBag":
        merged = dict(self._counts)
        for name, value in other._counts.items():
            merged[name] = merged.get(name, 0) + value
        return CounterBag(merged)

    def to_dict(self) -> Dict[str, object]:
        return {"schema": SKETCH_SCHEMA, "counts": dict(self._counts)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CounterBag":
        return cls(dict(data.get("counts") or {}))


class FixedHistogram:
    """Fixed-bin histogram with exact count/sum/min/max sidecars.

    Values outside ``[edges[0], edges[-1]]`` are clamped into the
    first/last bin (``min``/``max`` stay exact, so the clamp is
    visible).  Bin assignment matches ``np.histogram``: each inner
    boundary belongs to the bin on its right, the top edge to the last
    bin.
    """

    __slots__ = ("edges", "counts", "count", "total", "min", "max")

    def __init__(self, edges: Sequence[float]) -> None:
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or len(edges) < 2:
            raise ValueError("need at least two bin edges")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("bin edges must be strictly increasing")
        self.edges = edges
        self.counts = np.zeros(len(edges) - 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0
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
    def add(self, value: float) -> "FixedHistogram":
        return self.add_many((value,))

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
        self.total += float(arr.sum())
        self.min = min(self.min, float(arr.min()))
        self.max = max(self.max, float(arr.max()))
        return self

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

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
        merged.total = self.total + other.total
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

    # -- persistence ----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SKETCH_SCHEMA,
            "edges": self.edges.tolist(),
            "counts": self.counts.tolist(),
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FixedHistogram":
        hist = cls(data["edges"])
        hist.counts = np.asarray(data["counts"], dtype=np.int64)
        hist.count = int(data["count"])
        hist.total = float(data["total"])
        hist.min = math.inf if data.get("min") is None else float(data["min"])
        hist.max = (
            -math.inf if data.get("max") is None else float(data["max"])
        )
        return hist


class P2Quantile:
    """Streaming single-quantile estimator (the P² algorithm).

    Five markers track the target quantile without storing samples;
    below five observations the estimate is exact (sorted-list
    interpolation).  Per-stream only — see the module docstring for
    why merging across streams goes through :class:`FixedHistogram`.
    """

    __slots__ = ("p", "count", "_init", "_q", "_n", "_np", "_dn")

    def __init__(self, p: float = 0.5) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = float(p)
        self.count = 0
        self._init: List[float] = []
        self._q: List[float] = []
        self._n: List[float] = []
        self._np: List[float] = []
        self._dn: List[float] = []

    def add(self, value: float) -> "P2Quantile":
        v = float(value)
        self.count += 1
        if not self._q:
            bisect.insort(self._init, v)
            if len(self._init) == 5:
                p = self.p
                self._q = list(self._init)
                self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._np = [
                    1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0,
                ]
                self._dn = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
            return self

        q, n = self._q, self._n
        if v < q[0]:
            q[0] = v
            k = 0
        elif v >= q[4]:
            q[4] = v
            k = 3
        else:
            k = 0
            for i in range(1, 4):
                if v >= q[i]:
                    k = i
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            self._np[i] += self._dn[i]

        for i in (1, 2, 3):
            d = self._np[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                d = 1.0 if d > 0 else -1.0
                candidate = self._parabolic(i, d)
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    q[i] = self._linear(i, d)
                n[i] += d
        return self

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current estimate; exact while fewer than five samples."""
        if self.count == 0:
            raise ValueError("empty sketch has no quantile")
        if self._q:
            return float(self._q[2])
        rank = self.p * (len(self._init) - 1)
        lo = int(math.floor(rank))
        hi = min(lo + 1, len(self._init) - 1)
        frac = rank - lo
        return float(
            self._init[lo] + frac * (self._init[hi] - self._init[lo])
        )

    def estimate(self, default: float = math.nan) -> float:
        """Like :meth:`value` but returns ``default`` when empty."""
        return self.value() if self.count else default
