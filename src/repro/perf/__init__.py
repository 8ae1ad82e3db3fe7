"""Performance layer: artifact cache and benchmarks.

``repro.perf`` keeps the reproduction fast without touching its
numerics:

- :mod:`repro.perf.cache` — content-addressed disk cache for the
  expensive offline artifacts (trained DBN policies and everything
  bundled with them: sized capacitor banks, LUT samples, solar-class
  centroids);
- :mod:`repro.perf.bench` — the ``repro bench`` perf-regression
  harness behind ``BENCH_perf.json``.
"""

from .cache import (
    ArtifactCache,
    cache_enabled,
    default_cache,
    default_cache_dir,
    hash_key,
)

__all__ = [
    "ArtifactCache",
    "cache_enabled",
    "default_cache",
    "default_cache_dir",
    "hash_key",
]
