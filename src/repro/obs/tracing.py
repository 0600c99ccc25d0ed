"""Nestable span tracing and lifecycle events in one bounded log.

A span brackets one phase of work — a simulator run, one pyramid
level, one served batch::

    from repro.obs import event, span

    with span("pyramid.level", level=3):
        ...
        event("retry", attempt=2)

Spans nest per thread: the record carries the slash-joined path of
enclosing span names (``detect.scan/pyramid.level``) and its depth, so
a trace dump reads like a call tree. Every completed span lands in two
places:

- a per-name duration histogram ``span_<name>_seconds`` in the target
  :class:`~repro.obs.metrics.MetricsRegistry` (the process-wide default
  unless one is passed), which is what ``snapshot()`` and the
  Prometheus exposition report as "per-span timings";
- the process-wide :class:`TraceLog` ring buffer of the most recent
  :class:`SpanRecord` entries.

An :func:`event` narrates a lifecycle moment — enqueue, cache hit,
batch formation, retry, breaker transition, failure (see
:data:`EVENT_KINDS`). It is a zero-duration record in the same ring
with no histogram, whose ``parent_id`` is the enclosing span, so spans
and events share one sequence, one drop counter and one timeline. The
ring doubles as the flight recorder: :meth:`TraceLog.dump` writes it
as one JSON document (``python -m repro serve --flight-dump PATH``, and
automatically on request failure or breaker-open; DESIGN.md §12).

Spans also participate in distributed tracing: each span is minted a
``span_id`` (fork-safe, see :mod:`repro.obs.ids`) and records the
``span_id`` of its enclosing span as ``parent_id``, and a
:func:`trace_context` block stamps every record inside it with the
request's ``trace_id``. Ids cross the shard-worker process boundary
explicitly (the parent ships its ids in the work message, the worker
passes them to :func:`span`), and workers ship their records back,
which is how :mod:`repro.obs.traces` reassembles one tree per request
from records minted in different processes.

Recording can be globally disabled with :func:`configure`; a disabled
``span`` or ``event`` costs one attribute read and no timestamps.
"""

import collections
import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.ids import new_span_id
from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    sanitize_metric_name,
)

SPAN_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
"""Duration bucket bounds (seconds) for span histograms."""

LOG_CAPACITY = 16384
"""Records the process log retains (spans and events together)."""

SPAN_KIND = "span"
"""The ``kind`` of a timed span record; any other kind is an event."""

# Canonical event kinds emitted by the serving layer. :func:`event`
# accepts any string, so subsystems may add their own; these are the
# ones DESIGN.md §12 documents and tests rely on.
EVENT_KINDS: Tuple[str, ...] = (
    "enqueue",
    "cache_hit",
    "cache_miss",
    "queue_full",
    "expired_queued",
    "batch_form",
    "score",
    "retry",
    "breaker_transition",
    "deadline_expired",
    "request_failed",
    "degraded",
    "dump",
)


@dataclass(frozen=True)
class SpanRecord:
    """One completed span, or one lifecycle event.

    Attributes:
        name: the span's own name (``"pyramid.level"``); an event's
            kind.
        path: slash-joined names of the enclosing spans plus this one.
        duration_s: wall-clock duration in seconds.
        depth: number of enclosing spans on this thread (0 = root).
        thread: name of the thread that ran the span.
        attrs: keyword attributes passed at the call site.
        trace_id: owning request's trace id ("" outside any
            :func:`trace_context`).
        span_id: this span's own id ("" for externally timed spans
            that did not mint one).
        parent_id: the enclosing span's id ("" for roots).
        start_ts: wall-clock start (``time.time()``), 0.0 when the span
            was timed externally via :func:`observe_span`.
        pid: id of the process that ran the span (how assembled traces
            distinguish parent-side from shard-side work).
        kind: :data:`SPAN_KIND` for a timed span, else the event kind
            of a zero-duration lifecycle event (:func:`event`).
    """

    name: str
    path: str
    duration_s: float
    depth: int
    thread: str
    attrs: Dict = field(default_factory=dict)
    trace_id: str = ""
    span_id: str = ""
    parent_id: str = ""
    start_ts: float = 0.0
    pid: int = 0
    kind: str = SPAN_KIND

    @property
    def instant(self) -> bool:
        """Whether this is a lifecycle event rather than a timed span."""
        return self.kind != SPAN_KIND


class SpanHandle:
    """What :func:`span` yields: the live span's identity.

    Exposes the minted ``span_id`` (and the effective ``trace_id``) so
    the body can hand them to child work in another thread or process —
    the sharded serve tier ships ``handle.span_id`` to workers so
    worker-side spans can name it as their ``parent_id``. ``trace_ids``
    is the span's batch attr, which events inside it inherit.
    """

    __slots__ = ("name", "span_id", "trace_id", "parent_id", "trace_ids")

    def __init__(
        self,
        name: str,
        span_id: str,
        trace_id: str,
        parent_id: str,
        trace_ids: Optional[List[str]] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.trace_ids = trace_ids


class TraceLog:
    """Bounded, thread-safe ring buffer of recent :class:`SpanRecord`\\ s.

    Spans and events share the ring. Every appended record is stamped
    with a monotonically increasing sequence number (0, 1, 2, ... in
    arrival order, assigned under the lock), so a reader can tell
    exactly what fell off the far end: the retained records always
    carry the contiguous range ``[dropped, total)`` — ``dropped`` is
    the watermark below which records were evicted, and is exact by
    construction.

    Args:
        maxlen: entries kept; older records fall off the far end, so a
            long-running service holds a constant-size trace tail.
    """

    def __init__(self, maxlen: int = LOG_CAPACITY) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = maxlen
        self._lock = threading.Lock()
        self._entries: "collections.deque[Tuple[int, SpanRecord]]" = (
            collections.deque(maxlen=maxlen)
        )
        self._next_seq = 0

    def append(self, record: SpanRecord) -> int:
        """Add a finished span or an event, evicting the oldest past
        ``maxlen``.

        Returns:
            the sequence number assigned to ``record``.
        """
        with self._lock:
            seq = self._next_seq
            self._next_seq = seq + 1
            self._entries.append((seq, record))
        return seq

    def entries(self) -> List[SpanRecord]:
        """The retained records, oldest first (a copy)."""
        with self._lock:
            return [record for _, record in self._entries]

    def records(self) -> List[Tuple[int, SpanRecord]]:
        """Retained ``(seq, record)`` pairs, oldest first (a copy)."""
        with self._lock:
            return list(self._entries)

    @property
    def total(self) -> int:
        """Records ever appended (== the next sequence number)."""
        with self._lock:
            return self._next_seq

    @property
    def dropped(self) -> int:
        """Records evicted from the far end of the ring so far.

        Equals the lowest retained sequence number (the drop
        watermark) whenever any records are retained.
        """
        with self._lock:
            return self._next_seq - len(self._entries)

    def clear(self) -> None:
        """Drop every buffered record and reset counters and sequencing."""
        with self._lock:
            self._entries.clear()
            self._next_seq = 0

    def dump(self, path: str, reason: str = "on_demand") -> int:
        """Write the ring to ``path`` as one JSON document.

        The document carries ``reason``, ``dropped``, ``total``,
        ``retained`` and the retained records as ``events`` (each
        record's fields plus its ``seq``). The dump itself is recorded
        as a ``dump`` event *after* the snapshot is taken, so a dump
        never contains itself.

        Args:
            path: destination file (overwritten).
            reason: why the dump happened (``"on_demand"``,
                ``"request_failed"``, ``"breaker_open"``, ...).

        Returns:
            The number of records written.
        """
        with self._lock:
            records = list(self._entries)
            total = self._next_seq
        document = {
            "reason": reason,
            "dropped": total - len(records),
            "total": total,
            "retained": len(records),
            "events": [{"seq": seq, **vars(record)} for seq, record in records],
        }
        with open(path, "w", encoding="utf-8") as handle:
            # Attrs are free-form: a dump taken on a failure path must
            # not raise on a value JSON cannot encode.
            json.dump(document, handle, indent=2, default=repr)
            handle.write("\n")
        if _enabled:
            self.append(_event_record("dump", "", {"reason": reason, "path": str(path)}))
        return len(records)


_trace_log = TraceLog()
_local = threading.local()
_enabled = True


def trace_log() -> TraceLog:
    """The process-wide ring buffer of spans and events."""
    return _trace_log


def configure(enabled: bool) -> None:
    """Globally enable or disable span and event recording."""
    global _enabled
    _enabled = bool(enabled)


def enabled() -> bool:
    """Whether span and event recording is currently on."""
    return _enabled


def current_trace_id() -> str:
    """The thread's active request trace id ("" outside any context)."""
    return getattr(_local, "trace_id", "")


def current_span_id() -> str:
    """The innermost active span's id on this thread ("" outside spans)."""
    handles = getattr(_local, "handles", None)
    return handles[-1].span_id if handles else ""


@contextmanager
def trace_context(trace_id: str) -> Iterator[str]:
    """Stamp every span and event recorded in this block with ``trace_id``.

    Nestable; the previous trace id is restored on exit. The video
    pipeline scopes each frame this way; batch-scoped serve spans list
    their requests in a ``trace_ids`` attr instead.
    """
    previous = getattr(_local, "trace_id", "")
    _local.trace_id = trace_id
    try:
        yield trace_id
    finally:
        _local.trace_id = previous


def reset_thread_state() -> None:
    """Forget this thread's span nesting and trace context.

    Forked shard workers call this right after fork: the surviving
    thread inherits the parent's span stack and trace context, which
    would otherwise prefix every worker span path with whatever the
    parent happened to be doing at fork time.
    """
    _local.handles = []
    _local.trace_id = ""


@functools.lru_cache(maxsize=1024)
def span_metric_name(name: str) -> str:
    """Registry histogram name for span ``name``.

    Memoized: span names are fixed strings in code, so sanitizing each
    one once spares every span two regex passes.
    """
    return f"span_{sanitize_metric_name(name)}_seconds"


def observe_span(
    name: str,
    seconds: float,
    registry: Optional[MetricsRegistry] = None,
    path: Optional[str] = None,
    depth: int = 0,
    trace_id: str = "",
    span_id: str = "",
    parent_id: str = "",
    start_ts: float = 0.0,
    **attrs,
) -> None:
    """Record one externally timed span (the low-level hook).

    Use this where a context manager does not fit — e.g. timing a
    blocking queue drain but only recording non-empty drains.
    """
    if not _enabled:
        return
    (registry if registry is not None else get_registry()).histogram(
        span_metric_name(name),
        help=f"wall-clock seconds of span {name}",
        buckets=SPAN_BUCKETS,
    ).observe(seconds)
    _trace_log.append(
        SpanRecord(
            name=name,
            path=path or name,
            duration_s=seconds,
            depth=depth,
            thread=threading.current_thread().name,
            attrs=attrs,
            trace_id=trace_id or current_trace_id(),
            span_id=span_id,
            parent_id=parent_id,
            start_ts=start_ts,
            pid=os.getpid(),
        )
    )


@contextmanager
def span(
    name: str,
    registry: Optional[MetricsRegistry] = None,
    parent_id: Optional[str] = None,
    **attrs,
) -> Iterator[Optional[SpanHandle]]:
    """Time a block of work as a nestable named span.

    Yields a :class:`SpanHandle` carrying the minted ``span_id`` (or
    ``None`` while tracing is disabled). ``parent_id`` overrides the
    thread-local nesting parent — shard workers pass the parent
    process's dispatch span id here to stitch the cross-process tree.
    """
    if not _enabled:
        yield None
        return
    handles: Optional[List[SpanHandle]] = getattr(_local, "handles", None)
    if handles is None:
        handles = _local.handles = []
    span_id = new_span_id()
    effective_parent = parent_id if parent_id is not None else (
        handles[-1].span_id if handles else ""
    )
    handle = SpanHandle(
        name, span_id, current_trace_id(), effective_parent,
        attrs.get("trace_ids"),
    )
    handles.append(handle)
    path = "/".join([open_span.name for open_span in handles])
    depth = len(handles) - 1
    start_ts = time.time()
    started = time.perf_counter()
    try:
        yield handle
    finally:
        duration = time.perf_counter() - started
        handles.pop()
        observe_span(
            name,
            duration,
            registry=registry,
            path=path,
            depth=depth,
            trace_id=handle.trace_id or current_trace_id(),
            span_id=span_id,
            parent_id=effective_parent,
            start_ts=start_ts,
            **attrs,
        )


def _event_record(kind: str, trace_id: str, attrs: Dict) -> SpanRecord:
    """A zero-duration record of ``kind`` nested in this thread's spans.

    Without an explicit ``trace_id`` or ``trace_ids`` attr the event
    takes the thread's trace context and the ``trace_ids`` of the
    innermost enclosing span that carries them, so an event raised
    inside a batch (a retry, a worker-side model event) belongs to the
    batch's requests.
    """
    handles = getattr(_local, "handles", None) or []
    if not trace_id and "trace_ids" not in attrs:
        claims = next(
            (handle.trace_ids for handle in reversed(handles) if handle.trace_ids),
            None,
        )
        if claims:
            attrs["trace_ids"] = claims
    return SpanRecord(
        name=kind,
        path="/".join([handle.name for handle in handles] + [kind]),
        duration_s=0.0,
        depth=len(handles),
        thread=threading.current_thread().name,
        attrs=attrs,
        trace_id=trace_id or current_trace_id(),
        parent_id=handles[-1].span_id if handles else "",
        start_ts=time.time(),
        pid=os.getpid(),
        kind=kind,
    )


def event(kind: str, trace_id: str = "", **attrs) -> Optional[SpanRecord]:
    """Record one lifecycle event in the process log.

    Appends a zero-duration record (no histogram) whose ``parent_id``
    is the enclosing span's id, so the event nests in the span tree.

    Args:
        kind: event kind (see :data:`EVENT_KINDS`).
        trace_id: the owning request's trace id; events that concern
            several requests pass a ``trace_ids`` list attr instead.
        **attrs: free-form JSON-serialisable payload.

    Returns:
        The appended record, or ``None`` while recording is disabled.
    """
    if not _enabled:
        return None
    record = _event_record(kind, trace_id, attrs)
    _trace_log.append(record)
    return record


def summarize_spans(registry: Optional[MetricsRegistry] = None) -> Dict[str, Dict]:
    """Per-span aggregate timings from ``registry`` (JSON-ready).

    Returns:
        ``{span_histogram_name: {count, sum, mean, p50, p99, max}}`` for
        every ``span_*_seconds`` histogram in the registry.
    """
    reg = registry if registry is not None else get_registry()
    out: Dict[str, Dict] = {}
    for name, data in reg.snapshot()["histograms"].items():
        if name.startswith("span_") and name.endswith("_seconds"):
            out[name] = {
                key: data[key]
                for key in ("count", "sum", "mean", "p50", "p99", "max")
            }
    return out


__all__ = [
    "EVENT_KINDS",
    "LOG_CAPACITY",
    "SPAN_BUCKETS",
    "SPAN_KIND",
    "SpanHandle",
    "SpanRecord",
    "TraceLog",
    "configure",
    "current_span_id",
    "current_trace_id",
    "enabled",
    "event",
    "observe_span",
    "reset_thread_state",
    "span",
    "span_metric_name",
    "summarize_spans",
    "trace_context",
    "trace_log",
]
