"""Event sinks: JSONL trace files, ring buffers, progress heartbeats.

Sinks receive plain dict records from an
:class:`~repro.obs.events.Observer` — one dict per event plus a final
``run_summary`` trailer.  The JSONL format is the interchange point:
``repro obs summarize trace.jsonl`` renders event counts and the
headline result from the file alone (span timings: ``repro obs trace``).
"""

from __future__ import annotations

import collections
import json
import sys
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

__all__ = [
    "OBS_SCHEMA",
    "JsonlSink",
    "RingBufferSink",
    "HeartbeatSink",
    "read_jsonl",
    "summarize_jsonl",
]

#: Version of the JSONL record layout; :class:`JsonlSink` stamps it on
#: every record that does not already carry one, so a trace file is
#: self-describing and future readers can dispatch on it.
OBS_SCHEMA = 1


class JsonlSink:
    """Appends one JSON line per record to ``path``.

    Records are buffered and written in batches of ``buffer_records``
    lines, so a ``--trace`` run pays one file write per batch instead
    of two per event.  The buffer drains on :meth:`flush` (the
    observer calls it at every checkpoint, so a crash loses at most
    one checkpoint interval of events) and on :meth:`close`.
    """

    def __init__(
        self, path: Union[str, Path], buffer_records: int = 512
    ) -> None:
        if buffer_records < 1:
            raise ValueError(
                f"buffer_records must be >= 1, got {buffer_records}"
            )
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._buffer: List[str] = []
        self._buffer_records = buffer_records

    def write(self, record: Dict[str, object]) -> None:
        if "schema" not in record:
            record = {**record, "schema": OBS_SCHEMA}
        self._buffer.append(json.dumps(record, separators=(",", ":")))
        if len(self._buffer) >= self._buffer_records:
            self._drain()

    def _drain(self) -> None:
        if self._buffer:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()

    def flush(self) -> None:
        if not self._fh.closed:
            self._drain()
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._drain()
            self._fh.close()


class RingBufferSink:
    """Keeps the last ``capacity`` records in memory."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.records: Deque[Dict[str, object]] = collections.deque(
            maxlen=capacity
        )

    def write(self, record: Dict[str, object]) -> None:
        self.records.append(record)

    def kinds(self) -> List[str]:
        """Event kinds in arrival order (handy in tests)."""
        return [str(r.get("kind")) for r in self.records]

    def of_kind(self, kind: str) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("kind") == kind]

    def __len__(self) -> int:
        return len(self.records)


class HeartbeatSink:
    """Live one-line progress heartbeats (``repro fleet run --progress``).

    Prints a line per ``fleet_shard`` record as it lands and keeps the
    last ``capacity`` records in an internal :class:`RingBufferSink`,
    so the progress surface doubles as a recent-events window.  Writes
    go to ``stream`` (default stderr) immediately — no buffering — so
    a long multi-worker fleet run shows a pulse instead of silence.
    """

    def __init__(self, stream=None, capacity: int = 256) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.ring = RingBufferSink(capacity=capacity)
        self._done = 0

    def write(self, record: Dict[str, object]) -> None:
        self.ring.write(record)
        kind = record.get("kind")
        if kind == "fleet_shard":
            self._done += 1
            n = len(record.get("node_ids") or ())
            cached = record.get("cached")
            took = (
                "cache hit"
                if cached
                else f"{float(record.get('seconds', 0.0)):.2f}s"
            )
            p50 = float(record.get("p50_dmr_est", -1.0))
            est = f"  p50 dmr ~{p50:.3f}" if p50 >= 0.0 else ""
            print(
                f"[fleet {self._done}/{record.get('num_shards')}] "
                f"shard {record.get('shard_index')}: {n} node(s) "
                f"{took}{est}",
                file=self.stream,
                flush=True,
            )
        elif kind == "pool_decision":
            print(
                f"[pool] {record.get('mode')} x{record.get('workers')} "
                f"({record.get('reason')})",
                file=self.stream,
                flush=True,
            )
        elif kind == "task_retry":
            print(
                f"[retry] {record.get('label')} attempt "
                f"{record.get('attempt')}: {record.get('reason')}",
                file=self.stream,
                flush=True,
            )
        elif kind == "worker_lost":
            print(
                f"[worker lost] rebuild #{record.get('rebuilds')}: "
                f"{record.get('reason')}",
                file=self.stream,
                flush=True,
            )
        elif kind == "shard_timeout":
            print(
                f"[timeout] {record.get('label')} exceeded "
                f"{record.get('timeout_s')}s: {record.get('reason')}",
                file=self.stream,
                flush=True,
            )
        elif kind == "node_quarantined":
            print(
                f"[quarantine] node {record.get('node_id')} "
                f"({record.get('node_policy')}): "
                f"{record.get('error_type')} after "
                f"{record.get('retries')} retr(y/ies)",
                file=self.stream,
                flush=True,
            )


# ----------------------------------------------------------------------
def read_jsonl(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Load every record of a JSONL trace file."""
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _render_trailer(trailer: Dict[str, object]) -> str:
    lines: List[str] = []
    result = trailer.get("result") or {}
    if result:
        lines.append("headline result:")
        for key, value in result.items():
            if isinstance(value, float):
                lines.append(f"  {key:<24} {value:.6g}")
            else:
                lines.append(f"  {key:<24} {value}")
    return "\n".join(lines)


def summarize_jsonl(path: Union[str, Path]) -> str:
    """Render a trace file the way ``repro obs summarize`` prints it.

    Records are counted per kind.  Record kinds this build does not
    know (traces written by a newer build, hand-edited files) are
    *skipped and counted* rather than mixed into the event table, so
    a trace written by a newer build still summarizes; malformed JSON
    still raises — a corrupt file is an error, a forward-compatible
    one is not.
    """
    from .events import KNOWN_RECORD_KINDS

    records = read_jsonl(path)
    counts: Dict[str, int] = collections.Counter()
    unknown: Dict[str, int] = collections.Counter()
    trailer: Optional[Dict[str, object]] = None
    for record in records:
        if not isinstance(record, dict):
            unknown["<not a record>"] += 1
            continue
        kind = str(record.get("kind"))
        if kind == "run_summary":
            trailer = record
        elif kind in KNOWN_RECORD_KINDS:
            counts[kind] += 1
        else:
            unknown[kind] += 1

    lines = [f"trace: {path}", f"records: {len(records)}"]
    scheduler = trailer.get("scheduler") if trailer else None
    if scheduler:
        lines.append(f"scheduler: {scheduler}")
    lines.append("event counts:")
    for kind, count in sorted(counts.items()):
        lines.append(f"  {kind:<24} {count}")
    if not counts:
        lines.append("  (none)")
    if unknown:
        total = sum(unknown.values())
        kinds = ", ".join(sorted(unknown))
        lines.append(f"skipped {total} record(s) of unknown kind: {kinds}")
    if trailer is not None:
        lines.append(_render_trailer(trailer))
    return "\n".join(lines)
