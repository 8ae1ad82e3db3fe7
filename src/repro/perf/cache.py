"""Content-addressed disk cache for expensive offline artifacts.

The offline stage (capacitor sizing, the long-term DP, RBM pretraining
and backprop fine-tuning) costs orders of magnitude more than the
simulations it feeds, yet its output is a pure function of the task
graph, the pipeline hyper-parameters and the training trace.  This
module stores those artifacts on disk under a sha256 of exactly that
input description, so a second experiment run — same process or not —
loads the trained policy instead of retraining it.

Keys are *content-addressed*: any change to the task set, the trace
bytes, an epoch count or the cache schema version produces a different
digest, so stale entries are never returned — they are merely never hit
again.  Explicit invalidation (``repro cache clear``) only reclaims
disk space.

Environment knobs:

- ``REPRO_CACHE_DIR`` — cache root (default ``.repro-cache`` in the
  working directory);
- ``REPRO_NO_CACHE`` — any non-empty value disables the disk cache
  (same effect as the CLI ``--no-cache`` flag).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from ..obs.events import CacheWriteFailedEvent

logger = logging.getLogger(__name__)

__all__ = [
    "CACHE_VERSION",
    "ArtifactCache",
    "cache_enabled",
    "default_cache",
    "default_cache_dir",
    "describe_graph",
    "describe_timeline",
    "hash_key",
    "trace_digest",
]

#: Bump to invalidate every previously written artifact (schema change).
CACHE_VERSION = 1

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_NO_CACHE = "REPRO_NO_CACHE"


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache`` in the cwd."""
    env = os.environ.get(ENV_CACHE_DIR)
    return Path(env) if env else Path(".repro-cache")


def cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` is set to a non-empty value."""
    return not os.environ.get(ENV_NO_CACHE)


# ----------------------------------------------------------------------
# Key construction
# ----------------------------------------------------------------------
def _jsonify(obj: Any) -> Any:
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for hashing")


def hash_key(parts: Dict[str, Any]) -> str:
    """sha256 over a canonical JSON encoding of ``parts``.

    The schema version is mixed in so a layout change invalidates all
    prior entries.  Values must be JSON-representable (numpy scalars
    and arrays are converted).
    """
    payload = json.dumps(
        {"cache_version": CACHE_VERSION, **parts},
        sort_keys=True,
        separators=(",", ":"),
        default=_jsonify,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def describe_graph(graph) -> Dict[str, Any]:
    """Canonical description of a :class:`~repro.tasks.graph.TaskGraph`."""
    tasks = graph.tasks
    return {
        "name": graph.name,
        "tasks": [
            [t.name, t.execution_time, t.deadline, t.power, t.nvp]
            for t in tasks
        ],
        "edges": [
            [tasks[p].name, tasks[i].name]
            for i in range(len(tasks))
            for p in graph.predecessors(i)
        ],
    }


def describe_timeline(timeline) -> Dict[str, Any]:
    """Canonical description of a :class:`~repro.timeline.Timeline`."""
    return {
        "num_days": timeline.num_days,
        "periods_per_day": timeline.periods_per_day,
        "slots_per_period": timeline.slots_per_period,
        "slot_seconds": timeline.slot_seconds,
    }


def trace_digest(trace) -> Dict[str, Any]:
    """Timeline shape plus a sha256 of the trace's power bytes."""
    power = np.ascontiguousarray(trace.power)
    return {
        "timeline": describe_timeline(trace.timeline),
        "power_sha256": hashlib.sha256(power.tobytes()).hexdigest(),
    }


# ----------------------------------------------------------------------
# The cache itself
# ----------------------------------------------------------------------
class ArtifactCache:
    """Pickle store addressed by ``(kind, sha256 digest)``.

    ``kind`` namespaces artifact types into subdirectories (``policy``
    for trained policies today; anything picklable works).  Writes are
    atomic (tmp file + rename) so concurrent experiment processes can
    share one cache; corrupt or unreadable entries are treated as
    misses and removed.

    The cache is an accelerator, never a dependency: a write that
    fails with :class:`OSError` (read-only mount, full disk, a
    ``REPRO_CACHE_DIR`` that is not a directory) is logged, counted in
    ``write_failures``, surfaced as a ``cache_write_failed`` obs event
    when an ``observer`` is attached — and the run continues exactly
    as if caching were disabled.
    """

    def __init__(self, root: Optional[Path] = None, observer=None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.observer = observer
        #: OSError-swallowed writes this process (each one a miss on
        #: the next read, never a crash).
        self.write_failures = 0

    def path_for(self, kind: str, digest: str) -> Path:
        return self.root / kind / f"{digest}.pkl"

    def get(self, kind: str, digest: str) -> Optional[Any]:
        """The cached object, or None on a miss."""
        path = self.path_for(kind, digest)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            # A truncated write from a killed process: drop and retrain.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, kind: str, digest: str, obj: Any) -> Optional[Path]:
        """Atomically store ``obj``; returns the entry path.

        An :class:`OSError` anywhere in the write path degrades to a
        logged no-op returning ``None``: the entry is simply not
        cached.  Pickling errors still raise — an unpicklable artifact
        is a caller bug, not an environment fault.
        """
        path = self.path_for(kind, digest)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError as exc:
            self.write_failures += 1
            logger.warning(
                "cache write failed for %s/%s (%s); continuing uncached",
                kind, digest[:12], exc,
            )
            if self.observer is not None and self.observer.enabled:
                self.observer.emit(CacheWriteFailedEvent(
                    artifact_kind=kind,
                    digest=digest,
                    reason=f"{type(exc).__name__}: {exc}",
                ))
            return None
        finally:
            try:
                if tmp.exists():
                    tmp.unlink()
            except OSError:
                pass
        return path

    def clear(self, kind: Optional[str] = None) -> int:
        """Remove every entry (of one kind, or all); returns the count."""
        removed = 0
        roots = [self.root / kind] if kind else [self.root]
        for root in roots:
            if not root.is_dir():
                continue
            for entry in sorted(root.rglob("*.pkl")):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def info(self) -> Dict[str, Any]:
        """Per-kind entry counts and byte totals for ``repro cache info``."""
        kinds: Dict[str, Dict[str, int]] = {}
        if self.root.is_dir():
            for sub in sorted(p for p in self.root.iterdir() if p.is_dir()):
                entries = list(sub.glob("*.pkl"))
                kinds[sub.name] = {
                    "entries": len(entries),
                    "bytes": sum(e.stat().st_size for e in entries),
                }
        return {"root": str(self.root), "kinds": kinds}


def default_cache() -> ArtifactCache:
    """An :class:`ArtifactCache` rooted at :func:`default_cache_dir`."""
    return ArtifactCache()
