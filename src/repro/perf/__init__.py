"""Performance layer: the offline-artifact cache.

``repro.perf`` keeps the reproduction fast without touching its
numerics: :mod:`repro.perf.cache` is a content-addressed disk cache
for the expensive offline artifacts (trained DBN policies and
everything bundled with them: sized capacitor banks, LUT samples,
solar-class centroids).  Speed is measured outside the package, by
the repository benchmark in ``perfbench/``.
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
