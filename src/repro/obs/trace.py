"""Structured tracing: nested spans with monotonic timings, JSON-lines out.

The runtime is **off by default** and costs one global-flag check when
disabled — :func:`span` returns a shared no-op context manager, so
instrumented code never pays for tracing it did not ask for.

Enabled (:func:`enable`), every ``with span(name, **attrs):`` block
records a :class:`SpanRecord` carrying a process-unique id, its parent's
id (spans nest through a runtime stack), a start offset relative to the
trace epoch, and a monotonic duration.  Records are serialised to the
trace file as one JSON object per line *when the span closes* — children
therefore appear before their parents in the file, and readers rebuild
the tree from the ``(id, parent)`` edges (:mod:`repro.obs.render`).

Two extra entry points integrate pool workers:

* :func:`collect` — a context manager that redirects the runtime into an
  in-memory buffer with a fresh metrics registry; the worker returns the
  resulting :class:`ChunkObservations` alongside its chunk results.  The
  scope's metrics leave as a drained delta
  (:meth:`~repro.obs.metrics.MetricsRegistry.drain`), so code inside the
  scope may drain the registry itself at finer grain (per event, per
  actor) and the exit hands back only what is left.
* :func:`absorb` — replays a worker's buffered spans into the parent's
  trace (ids remapped, roots attached under the parent's active span)
  and merges its metrics snapshot into the parent registry.  Absorbing
  chunks in chunk-index order keeps the aggregate independent of the
  worker count.

The final metrics snapshot is appended to the trace file as a
``{"type": "metrics", ...}`` line by :func:`shutdown`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TextIO

from repro.obs.metrics import MetricsRegistry, Snapshot

__all__ = [
    "SpanRecord",
    "ChunkObservations",
    "enabled",
    "enable",
    "shutdown",
    "span",
    "get_registry",
    "collect",
    "absorb",
    "TRACE_SCHEMA_VERSION",
]

#: Bump when the trace line schema changes shape.
TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: identity, nesting edge, and timing."""

    span_id: int
    parent_id: Optional[int]
    name: str
    attrs: Dict[str, Any]
    start: float
    seconds: float

    def to_dict(self) -> Dict[str, Any]:
        """The record as the JSON-lines wire dict."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "attrs": self.attrs,
            "start": self.start,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        """Parse one span wire dict back into a record."""
        return cls(
            span_id=int(data["id"]),
            parent_id=None if data.get("parent") is None else int(data["parent"]),
            name=str(data["name"]),
            attrs=dict(data.get("attrs", {})),
            start=float(data.get("start", 0.0)),
            seconds=float(data.get("seconds", 0.0)),
        )


@dataclass
class ChunkObservations:
    """What one :func:`collect` scope captured (picklable for the pool)."""

    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: What the scope's registry held undrained at exit (sparse delta).
    metrics: Snapshot = field(default_factory=dict)


class _Runtime:
    """The process-local tracing runtime (one per process)."""

    def __init__(self) -> None:
        self.enabled = False
        self.sink: Optional[TextIO] = None
        self.buffer: Optional[List[Dict[str, Any]]] = None
        self.stack: List[int] = []
        self.next_id = 1
        self.epoch = 0.0
        self.registry = MetricsRegistry()

    def elapsed(self) -> float:
        return time.perf_counter() - self.epoch

    def emit(self, record: Dict[str, Any]) -> None:
        if self.buffer is not None:
            self.buffer.append(record)
        elif self.sink is not None:
            json.dump(record, self.sink, separators=(",", ":"), default=str)
            self.sink.write("\n")


_RUNTIME = _Runtime()


def enabled() -> bool:
    """Whether observability is currently recording in this process."""
    return _RUNTIME.enabled


def get_registry() -> MetricsRegistry:
    """The process's current metrics registry.

    Instrumented code should guard writes with :func:`enabled` — the
    registry always exists, but only an enabled runtime reports it.
    """
    return _RUNTIME.registry


def enable(trace_path: Optional[str] = None) -> None:
    """Turn observability on, optionally streaming spans to ``trace_path``.

    Resets the span stack, the id counter, the trace epoch, and the
    metrics registry, so back-to-back runs do not bleed into each other.
    """
    shutdown()
    _RUNTIME.enabled = True
    _RUNTIME.stack = []
    _RUNTIME.next_id = 1
    _RUNTIME.epoch = time.perf_counter()
    _RUNTIME.registry = MetricsRegistry()
    _RUNTIME.buffer = None
    if trace_path is not None:
        _RUNTIME.sink = open(trace_path, "w", encoding="utf-8")
        _RUNTIME.emit(
            {"type": "trace", "version": TRACE_SCHEMA_VERSION, "clock": "perf_counter"}
        )


def shutdown() -> Optional[Snapshot]:
    """Flush the final metrics snapshot, close the sink, and disable.

    Returns the final snapshot when the runtime was enabled (None
    otherwise).  Safe to call twice.
    """
    if not _RUNTIME.enabled:
        return None
    snapshot = _RUNTIME.registry.snapshot()
    if _RUNTIME.sink is not None:
        _RUNTIME.emit({"type": "metrics", "metrics": snapshot})
        _RUNTIME.sink.close()
        _RUNTIME.sink = None
    _RUNTIME.enabled = False
    _RUNTIME.buffer = None
    _RUNTIME.stack = []
    # The snapshot is the hand-off; a disabled runtime holds no state.
    _RUNTIME.registry = MetricsRegistry()
    return snapshot


class _NullSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        """Discard attributes (disabled runtime)."""


_NULL_SPAN = _NullSpan()


class Span:
    """An active span; use via ``with span(name, **attrs):``."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_start")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self._start = 0.0

    def annotate(self, **attrs: Any) -> None:
        """Attach/overwrite attributes while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        rt = _RUNTIME
        self.span_id = rt.next_id
        rt.next_id += 1
        self.parent_id = rt.stack[-1] if rt.stack else None
        rt.stack.append(self.span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        rt = _RUNTIME
        if rt.stack and rt.stack[-1] == self.span_id:
            rt.stack.pop()
        rt.emit(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                attrs=self.attrs,
                start=self._start - rt.epoch,
                seconds=end - self._start,
            ).to_dict()
        )


def span(name: str, **attrs: Any) -> "Span | _NullSpan":
    """A nested-timing context manager (no-op while disabled)."""
    if not _RUNTIME.enabled:
        return _NULL_SPAN
    return Span(name, attrs)


class _Collector:
    """Context manager behind :func:`collect`: swap the runtime, restore it."""

    def __init__(self) -> None:
        self.observations = ChunkObservations()
        self._saved: Optional[Dict[str, Any]] = None

    def __enter__(self) -> ChunkObservations:
        rt = _RUNTIME
        self._saved = {
            "enabled": rt.enabled,
            "sink": rt.sink,
            "buffer": rt.buffer,
            "stack": rt.stack,
            "next_id": rt.next_id,
            "epoch": rt.epoch,
            "registry": rt.registry,
        }
        rt.enabled = True
        rt.sink = None
        rt.buffer = self.observations.spans
        rt.stack = []
        rt.next_id = 1
        rt.epoch = time.perf_counter()
        rt.registry = MetricsRegistry()
        return self.observations

    def __exit__(self, *exc: object) -> None:
        rt = _RUNTIME
        self.observations.metrics = rt.registry.drain()
        saved = self._saved or {}
        rt.enabled = bool(saved.get("enabled", False))
        rt.sink = saved.get("sink")
        rt.buffer = saved.get("buffer")
        rt.stack = saved.get("stack", [])
        rt.next_id = int(saved.get("next_id", 1))
        rt.epoch = float(saved.get("epoch", 0.0))
        rt.registry = saved.get("registry") or MetricsRegistry()


def collect() -> _Collector:
    """Capture spans + metrics into a :class:`ChunkObservations` buffer.

    Used by :mod:`repro.parallel.pool` inside each chunk execution — in
    the worker *and* on the serial fallback path, so both produce the
    same per-chunk observations for the parent to absorb in chunk order.
    """
    return _Collector()


def absorb(observations: Optional[ChunkObservations]) -> None:
    """Replay collected worker observations into this process's runtime.

    Span ids are remapped onto the parent's id sequence; buffered roots
    hang off the parent's currently active span.  Start offsets are
    rebased so the chunk's earliest span lands at the absorb time — the
    durations are authoritative, the offsets only order siblings.
    """
    rt = _RUNTIME
    if observations is None or not rt.enabled:
        return
    if observations.spans:
        parent = rt.stack[-1] if rt.stack else None
        id_map: Dict[int, int] = {}
        for record in observations.spans:
            id_map[int(record["id"])] = rt.next_id
            rt.next_id += 1
        rebase = rt.elapsed() - min(r.get("start", 0.0) for r in observations.spans)
        for record in observations.spans:
            old_parent = record.get("parent")
            rt.emit(
                {
                    **record,
                    "id": id_map[int(record["id"])],
                    "parent": parent if old_parent is None else id_map[int(old_parent)],
                    "start": record.get("start", 0.0) + rebase,
                }
            )
    if observations.metrics:
        rt.registry.merge(observations.metrics)
