"""Nestable wall-clock span tracing with a bounded ring-buffer log.

A span brackets one phase of work — a simulator run, one pyramid
level, one served batch::

    from repro.obs import span

    with span("pyramid.level", level=3):
        ...

Spans nest per thread: the record carries the slash-joined path of
enclosing span names (``detect.scan/pyramid.level``) and its depth, so
a trace dump reads like a call tree. Every completed span lands in two
places:

- a per-name duration histogram ``span_<name>_seconds`` in the target
  :class:`~repro.obs.metrics.MetricsRegistry` (the process-wide default
  unless one is passed), which is what ``snapshot()`` and the
  Prometheus exposition report as "per-span timings";
- the process-wide :class:`TraceLog` ring buffer of the most recent
  :class:`SpanRecord` entries, for ``python -m repro trace <cmd>``.

Spans also participate in distributed tracing: each span is minted a
``span_id`` (fork-safe, see :mod:`repro.obs.ids`) and records the
``span_id`` of its enclosing span as ``parent_id``, and a
:func:`trace_context` block stamps every span inside it with the
request's ``trace_id``. Ids cross the shard-worker process boundary
explicitly (the parent ships its ids in the work message, the worker
passes them to :func:`span` / :func:`observe_span`), which is how
:mod:`repro.obs.traces` reassembles one tree per request from records
minted in different processes.

Tracing can be globally disabled with :func:`configure`; a disabled
``span`` costs one attribute read and no timestamps.
"""

import functools
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


@dataclass(frozen=True)
class SpanRecord:
    """One completed span.

    Attributes:
        name: the span's own name (``"pyramid.level"``).
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


class SpanHandle:
    """What :func:`span` yields: the live span's identity.

    Exposes the minted ``span_id`` (and the effective ``trace_id``) so
    the body can hand them to child work in another thread or process —
    the sharded serve tier ships ``handle.span_id`` to workers so
    worker-side spans can name it as their ``parent_id``.
    """

    __slots__ = ("name", "span_id", "trace_id", "parent_id")

    def __init__(self, name: str, span_id: str, trace_id: str, parent_id: str) -> None:
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id


class TraceLog:
    """Bounded, thread-safe ring buffer of recent :class:`SpanRecord`\\ s.

    Every appended record is stamped with a monotonically increasing
    sequence number (0, 1, 2, ... in arrival order, assigned under the
    lock), so a reader can tell exactly what fell off the far end: the
    retained records always carry the contiguous range
    ``[dropped, total)`` — ``dropped`` is the watermark below which
    records were evicted, and is exact by construction.

    Args:
        maxlen: entries kept; older spans fall off the far end, so a
            long-running service holds a constant-size trace tail.
    """

    def __init__(self, maxlen: int = 1024) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = maxlen
        self._lock = threading.Lock()
        self._entries: List[Tuple[int, SpanRecord]] = []
        self._next_seq = 0
        self._dropped = 0

    def append(self, record: SpanRecord) -> int:
        """Add a finished span, evicting the oldest past ``maxlen``.

        Returns:
            the sequence number assigned to ``record``.
        """
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            self._entries.append((seq, record))
            if len(self._entries) > self.maxlen:
                del self._entries[0]
                self._dropped += 1
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
        """Spans ever appended (== the next sequence number)."""
        with self._lock:
            return self._next_seq

    @property
    def dropped(self) -> int:
        """Spans evicted from the far end of the ring so far.

        Equals the lowest retained sequence number (the drop
        watermark) whenever any records are retained.
        """
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        """Drop every buffered span and reset counters and sequencing."""
        with self._lock:
            self._entries.clear()
            self._next_seq = 0
            self._dropped = 0


_trace_log = TraceLog(1024)
_local = threading.local()
_enabled = True


def trace_log() -> TraceLog:
    """The process-wide span ring buffer."""
    return _trace_log


def configure(enabled: bool) -> None:
    """Globally enable or disable span recording."""
    global _enabled
    _enabled = bool(enabled)


def enabled() -> bool:
    """Whether span recording is currently on."""
    return _enabled


def _id_stack() -> List[str]:
    ids: Optional[List[str]] = getattr(_local, "ids", None)
    if ids is None:
        ids = _local.ids = []
    return ids


def current_trace_id() -> str:
    """The thread's active request trace id ("" outside any context)."""
    return getattr(_local, "trace_id", "")


def current_span_id() -> str:
    """The innermost active span's id on this thread ("" outside spans)."""
    ids = getattr(_local, "ids", None)
    return ids[-1] if ids else ""


@contextmanager
def trace_context(trace_id: str) -> Iterator[str]:
    """Stamp every span opened in this block with ``trace_id``.

    Nestable; the previous trace id is restored on exit. Used by the
    serve dispatch loop (per-batch, with the batch's request trace ids
    as span attrs) and the video pipeline (per-frame).
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
    _local.stack = []
    _local.ids = []
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
    stack: Optional[List[str]] = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    ids = _id_stack()
    span_id = new_span_id()
    effective_parent = parent_id if parent_id is not None else (
        ids[-1] if ids else ""
    )
    stack.append(name)
    ids.append(span_id)
    path = "/".join(stack)
    depth = len(stack) - 1
    handle = SpanHandle(name, span_id, current_trace_id(), effective_parent)
    start_ts = time.time()
    started = time.perf_counter()
    try:
        yield handle
    finally:
        duration = time.perf_counter() - started
        stack.pop()
        ids.pop()
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
    "SPAN_BUCKETS",
    "SpanHandle",
    "SpanRecord",
    "TraceLog",
    "configure",
    "current_span_id",
    "current_trace_id",
    "enabled",
    "observe_span",
    "reset_thread_state",
    "span",
    "span_metric_name",
    "summarize_spans",
    "trace_context",
    "trace_log",
]
