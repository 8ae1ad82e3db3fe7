"""Hierarchical tracing: spans with parent identity across processes.

The event bus of :mod:`repro.obs.events` sees *flat* per-process
streams; this module adds the missing structure.  A :class:`Tracer`
opens nested spans (offline training, long-term DP, fleet run → shard →
node, verify sections, experiment cells) and emits one ``span`` record
per closed span through whatever sink the observer already has.  Span
records carry ``trace`` / ``span`` / ``parent`` identifiers, so a run
that fanned out over a process pool reassembles into a single rooted
tree afterwards (:func:`build_span_tree` / :func:`render_span_tree`,
surfaced as ``repro obs trace``).

Two properties keep this compatible with the repo's determinism
contracts:

* **Replay-stable IDs.**  Span ids are *derived*, not random:
  ``span_id = sha256(trace_id, parent_id, name, key)[:16]`` where
  ``key`` is an explicit stable discriminator (shard index, node id)
  or, by default, the span's per-``(parent, name)`` sequence number.
  The trace id itself derives from run inputs (seeds, sizes), so the
  same run produces the same tree — wall-clock timings are the only
  nondeterministic fields.
* **Zero cost when off.**  :data:`NULL_TRACER` is the disabled
  singleton; its ``span()`` returns a shared no-op handle after one
  attribute check, mirroring ``NULL_OBSERVER``.  The engine hot loop
  is never touched — spans wrap whole stages, and the existing
  bit-identity tests guard the disabled path.

Cross-process propagation uses a tiny wire format:
``SpanContext.to_wire()`` → ``"<trace_id>/<span_id>"`` travels inside
the pickled work item; the worker rebuilds a :func:`collecting_tracer`
whose records are returned with the result and re-emitted by the
parent, parented under the originating span.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import hashlib
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SPAN_SCHEMA",
    "SpanContext",
    "Tracer",
    "NULL_TRACER",
    "derive_trace_id",
    "derive_span_id",
    "current_tracer",
    "activate",
    "collecting_tracer",
    "SpanTree",
    "build_span_tree",
    "render_span_tree",
]

#: Version stamp of the ``span`` record layout.
SPAN_SCHEMA = 1

#: Hex chars kept from the sha256 digest (64 bits of id space).
_ID_HEX = 16


def _digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()[:_ID_HEX]


def derive_trace_id(*parts: object) -> str:
    """Deterministic trace id from run inputs (seeds, sizes, names)."""
    return _digest("trace", *parts)


def derive_span_id(
    trace_id: str, parent_id: Optional[str], name: str, key: object
) -> str:
    """Deterministic span id: pure function of position in the tree."""
    return _digest("span", trace_id, parent_id or "", name, key)


def _json_safe(value):
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


@dataclasses.dataclass(frozen=True)
class SpanContext:
    """The propagatable part of a tracer: trace id + active span id."""

    trace_id: str
    span_id: Optional[str]

    def to_wire(self) -> str:
        """Serialize for a worker payload (``"<trace>/<span>"``)."""
        return f"{self.trace_id}/{self.span_id or ''}"

    @classmethod
    def from_wire(cls, wire: str) -> "SpanContext":
        trace_id, _, span_id = wire.partition("/")
        return cls(trace_id=trace_id, span_id=span_id or None)


class _SpanHandle:
    """One open span; a context manager that emits its record on exit."""

    __slots__ = (
        "_tracer", "id", "parent", "name", "key", "explicit_key",
        "attrs", "_start_unix", "_start_perf",
    )

    def __init__(self, tracer, sid, parent, name, key, explicit_key, attrs):
        self._tracer = tracer
        self.id = sid
        self.parent = parent
        self.name = name
        self.key = key
        self.explicit_key = explicit_key
        self.attrs = attrs

    def annotate(self, **attrs) -> "_SpanHandle":
        """Attach result attributes (dmr, cache_hit, ...) to the span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        self._start_unix = time.time()
        self._start_perf = time.perf_counter()
        self._tracer._stack.append(self.id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._stack.pop()
        record: Dict[str, object] = {
            "kind": "span",
            "schema": SPAN_SCHEMA,
            "trace": self._tracer.trace_id,
            "span": self.id,
            "parent": self.parent,
            "name": self.name,
            "key": _json_safe(self.key) if self.explicit_key else None,
            "start_unix": self._start_unix,
            "dur_s": time.perf_counter() - self._start_perf,
        }
        if self.attrs:
            record["attrs"] = {
                str(k): _json_safe(v) for k, v in self.attrs.items()
            }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        self._tracer.emit(record)
        return False


class _NullSpanHandle:
    """Stateless no-op span; shared singleton, nestable."""

    __slots__ = ()
    id = None
    name = None
    key = None
    attrs: Dict[str, object] = {}

    def annotate(self, **attrs) -> "_NullSpanHandle":
        return self

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN_HANDLE = _NullSpanHandle()


class Tracer:
    """Opens spans, derives their ids, emits their records.

    Parameters
    ----------
    emit:
        Called with each closed span's record dict (typically
        ``Observer.emit_record`` or ``records.append`` in a worker).
    trace_id:
        The run's trace id (see :func:`derive_trace_id`).
    parent:
        Span id this tracer's top-level spans hang under — ``None``
        for the process that owns the root, the propagated span id in
        workers (see :func:`collecting_tracer`).
    """

    enabled = True

    def __init__(
        self,
        emit: Callable[[Dict[str, object]], None],
        trace_id: str,
        parent: Optional[str] = None,
    ) -> None:
        self._emit_fn = emit
        self.trace_id = trace_id
        self._stack: List[Optional[str]] = [parent]
        self._seq: Dict[Tuple[Optional[str], str], int] = {}

    # ------------------------------------------------------------------
    def span(self, name: str, key: object = None, attrs=None) -> _SpanHandle:
        """Open a span under the currently active one.

        ``key`` disambiguates siblings deterministically across
        processes (pass the shard index / node id); without it the
        per-``(parent, name)`` sequence number is used, which is
        stable for any fixed call order.
        """
        parent = self._stack[-1]
        explicit = key is not None
        if not explicit:
            seq = self._seq.get((parent, name), 0)
            self._seq[(parent, name)] = seq + 1
            key = seq
        sid = derive_span_id(self.trace_id, parent, name, key)
        return _SpanHandle(
            self, sid, parent, name, key, explicit, dict(attrs or {})
        )

    def context(self) -> SpanContext:
        """The propagatable (trace id, active span id) pair."""
        return SpanContext(self.trace_id, self._stack[-1])

    def emit(self, record: Dict[str, object]) -> None:
        """Forward a span record (own or re-emitted from a worker)."""
        self._emit_fn(record)


class _NullTracer:
    """Disabled tracer: one attribute check per call, no records."""

    enabled = False
    trace_id = None

    def span(self, name: str, key: object = None, attrs=None):
        return _NULL_SPAN_HANDLE

    def context(self) -> Optional[SpanContext]:
        return None

    def emit(self, record: Dict[str, object]) -> None:
        return None


#: Disabled singleton — the ambient default, mirroring NULL_OBSERVER.
NULL_TRACER = _NullTracer()


# ----------------------------------------------------------------------
# Ambient tracer (so deep call sites need no threading of arguments)
# ----------------------------------------------------------------------
_ACTIVE: contextvars.ContextVar = contextvars.ContextVar(
    "repro_active_tracer", default=NULL_TRACER
)


def current_tracer():
    """The ambient tracer (:data:`NULL_TRACER` unless activated)."""
    return _ACTIVE.get()


@contextlib.contextmanager
def activate(tracer) -> Iterator:
    """Make ``tracer`` ambient for the duration of the block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


def collecting_tracer(wire: Optional[str]):
    """Worker-side tracer parented at a propagated :class:`SpanContext`.

    Returns ``(tracer, records)``: the tracer appends every closed
    span to ``records``, which the worker returns with its result so
    the parent process can re-emit them into the real sinks.  A
    ``None``/empty wire string yields ``(NULL_TRACER, [])`` — the
    untraced path stays free.
    """
    if not wire:
        return NULL_TRACER, []
    ctx = SpanContext.from_wire(wire)
    records: List[Dict[str, object]] = []
    tracer = Tracer(records.append, ctx.trace_id, parent=ctx.span_id)
    return tracer, records


# ----------------------------------------------------------------------
# Reassembly + rendering (the ``repro obs trace`` surface)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SpanTree:
    """Span records indexed into a parent/child structure."""

    roots: List[Dict[str, object]]
    orphans: List[Dict[str, object]]
    children: Dict[str, List[Dict[str, object]]]
    by_id: Dict[str, Dict[str, object]]

    @property
    def n_spans(self) -> int:
        return len(self.by_id)

    def child_spans(self, span: Dict[str, object]) -> List[Dict[str, object]]:
        return self.children.get(str(span.get("span")), [])

    def self_seconds(self, span: Dict[str, object]) -> float:
        """Span duration minus its direct children's durations."""
        total = float(span.get("dur_s", 0.0))
        kids = sum(
            float(c.get("dur_s", 0.0)) for c in self.child_spans(span)
        )
        return max(0.0, total - kids)

    def walk(self) -> Iterator[Tuple[int, Dict[str, object]]]:
        """Depth-first ``(depth, span)`` over every rooted span."""
        stack = [(0, root) for root in reversed(self.roots)]
        while stack:
            depth, span = stack.pop()
            yield depth, span
            for child in reversed(self.child_spans(span)):
                stack.append((depth + 1, child))


def _span_order(record: Dict[str, object]):
    return (
        float(record.get("start_unix", 0.0)),
        str(record.get("name")),
        str(record.get("key")),
    )


def build_span_tree(records) -> SpanTree:
    """Index ``span`` records into roots / children / orphans.

    A span whose ``parent`` is ``None`` is a root; one whose parent id
    is missing from the record set is an *orphan* — for a complete
    single-run trace the contract is one root, zero orphans (this is
    what the CI obs job asserts).
    """
    spans = [r for r in records if r.get("kind") == "span"]
    by_id = {str(r["span"]): r for r in spans}
    children: Dict[str, List[Dict[str, object]]] = {}
    roots: List[Dict[str, object]] = []
    orphans: List[Dict[str, object]] = []
    for record in spans:
        parent = record.get("parent")
        if parent is None:
            roots.append(record)
        elif str(parent) in by_id:
            children.setdefault(str(parent), []).append(record)
        else:
            orphans.append(record)
    roots.sort(key=_span_order)
    for siblings in children.values():
        siblings.sort(key=_span_order)
    return SpanTree(
        roots=roots, orphans=orphans, children=children, by_id=by_id
    )


def _label(record: Dict[str, object]) -> str:
    name = str(record.get("name"))
    key = record.get("key")
    return f"{name}[{key}]" if key is not None else name


def render_span_tree(
    records, top: int = 10, max_children: int = 16
) -> str:
    """Human-readable tree + hot-span table for ``repro obs trace``.

    ``total`` is the span's wall-clock, ``self`` the part not covered
    by its direct children.  Sibling lists longer than
    ``max_children`` are elided to keep big fleets readable; the hot
    table below ranks *every* span by self time regardless.
    """
    tree = build_span_tree(records)
    if not tree.by_id:
        return "no span records"
    trace_ids = sorted({str(r.get("trace")) for r in tree.by_id.values()})
    lines = [
        f"trace {', '.join(trace_ids)}: {tree.n_spans} span(s), "
        f"{len(tree.roots)} root(s), {len(tree.orphans)} orphan(s)"
    ]
    wall = sum(float(r.get("dur_s", 0.0)) for r in tree.roots)
    lines.append(f"{'span':<44} {'total s':>10} {'self s':>10}")
    shown: Dict[Optional[str], int] = {}
    for depth, span in tree.walk():
        parent = span.get("parent")
        shown[parent] = shown.get(parent, 0) + 1
        siblings = (
            len(tree.children.get(str(parent), []))
            if parent is not None
            else len(tree.roots)
        )
        if shown[parent] == max_children + 1:
            pad = "  " * depth
            lines.append(f"{pad}... (+{siblings - max_children} more)")
        if shown[parent] > max_children:
            continue
        pad = "  " * depth
        label = f"{pad}{_label(span)}"
        err = " !" + str(span["error"]) if "error" in span else ""
        lines.append(
            f"{label:<44} {float(span.get('dur_s', 0.0)):>10.4f} "
            f"{tree.self_seconds(span):>10.4f}{err}"
        )
    if tree.orphans:
        lines.append("orphan spans (parent record missing):")
        for record in sorted(tree.orphans, key=_span_order):
            lines.append(
                f"  {_label(record)} (parent {record.get('parent')})"
            )
    hot = sorted(
        tree.by_id.values(), key=tree.self_seconds, reverse=True
    )[: max(0, top)]
    if hot:
        lines.append("")
        lines.append(f"hot spans (top {len(hot)} by self time):")
        for rank, span in enumerate(hot, 1):
            self_s = tree.self_seconds(span)
            share = 100.0 * self_s / wall if wall > 0 else 0.0
            lines.append(
                f"  {rank:>2}. {_label(span):<40} {self_s:>10.4f}s "
                f"{share:>5.1f}%"
            )
    return "\n".join(lines)
