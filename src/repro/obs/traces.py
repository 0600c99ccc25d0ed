"""Per-request trace assembly and Chrome trace-event export.

Spans and lifecycle events are one flat stream of
:class:`~repro.obs.tracing.SpanRecord`\\ s in the process trace log,
possibly minted in different processes — shard workers ship their
records back to the parent, which appends them to its own log. This
module groups that stream into one :class:`RequestTrace` per
``trace_id``:

- a record whose own ``trace_id`` matches is claimed directly
  (per-request events: enqueue, cache hit, deadline expiry);
- a record carrying a ``trace_ids`` attr list is claimed by *every*
  trace in the list (batch-scoped spans and events: ``batch_form``,
  ``score``, ``serve.shard.execute``, the worker-side scoring span and
  the events raised inside it) — micro-batching means one record
  legitimately belongs to many requests.

Inside a trace the spans form a tree over ``span_id``/``parent_id``
(edges may cross process boundaries: the worker scoring span's parent
is the parent process's dispatch span), which :func:`to_chrome_trace`
exports as Chrome trace-event JSON — load it in ``chrome://tracing``
or Perfetto to see every request's life across the fleet on one
timeline. ``python -m repro obs --export PATH <cmd>`` writes it.

:func:`frame_stage_breakdown` is the video-pipeline view: per-stage
(extract / pool / serve / nms) latency summaries per pyramid level,
read from the labeled ``video_stage_seconds`` histograms.
"""

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import HistogramMetric, MetricsRegistry, get_registry
from repro.obs.tracing import SpanRecord, trace_log

VIDEO_STAGE_METRIC = "video_stage_seconds"
"""Labeled histogram (``stage``, ``level``) behind the frame breakdown."""


@dataclass
class RequestTrace:
    """Everything recorded about one traced request.

    Attributes:
        trace_id: the request's id, minted at submission.
        records: ``(seq, record)`` pairs claimed by this trace, spans
            and events alike, in arrival order.
    """

    trace_id: str
    records: List[Tuple[int, SpanRecord]] = field(default_factory=list)

    @property
    def spans(self) -> List[SpanRecord]:
        """The trace's timed spans, in arrival order."""
        return [record for _, record in self.records if not record.instant]

    @property
    def events(self) -> List[SpanRecord]:
        """The trace's lifecycle events, in arrival order."""
        return [record for _, record in self.records if record.instant]


def assemble_traces(
    records: Optional[Sequence[Tuple[int, SpanRecord]]] = None,
) -> List[RequestTrace]:
    """Group the flat span/event stream into one trace per request.

    Args:
        records: ``(seq, record)`` pairs to group; defaults to the
            process trace log's retained records (worker-shipped
            records included).

    Returns:
        Traces ordered by first appearance. Records carrying neither a
        ``trace_id`` nor a ``trace_ids`` attr belong to no request and
        are left out.
    """
    if records is None:
        records = trace_log().records()
    traces: Dict[str, RequestTrace] = {}
    for seq, record in records:
        owners = [record.trace_id] if record.trace_id else []
        for claimed in record.attrs.get("trace_ids") or ():
            if claimed and claimed not in owners:
                owners.append(claimed)
        for owner in owners:
            traces.setdefault(owner, RequestTrace(owner)).records.append(
                (seq, record)
            )
    return list(traces.values())


def to_chrome_trace(traces: Iterable[RequestTrace]) -> Dict:
    """``traces`` as a Chrome trace-event JSON document.

    Spans become complete (``ph: "X"``) events with microsecond
    ``ts``/``dur``; lifecycle events become instant (``ph: "i"``)
    events on the pid that recorded them; process/thread metadata
    events name each pid and map thread names onto stable integer tids.
    A record shared by several traces (a batch span or event) is
    emitted once, by its ``seq``. Load the result in
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    out: List[Dict] = []
    tids: Dict[Tuple[int, str], int] = {}
    named_pids = set()
    parent_pid = os.getpid()
    seen = set()
    for trace in traces:
        for seq, record in trace.records:
            if seq in seen:
                continue
            seen.add(seq)
            pid = record.pid or parent_pid
            if pid not in named_pids:
                named_pids.add(pid)
                role = "serve parent" if pid == parent_pid else "shard worker"
                out.append(
                    {
                        "ph": "M",
                        "name": "process_name",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": f"{role} (pid {pid})"},
                    }
                )
            key = (pid, record.thread)
            if key not in tids:
                tids[key] = len(tids) + 1
                out.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": pid,
                        "tid": tids[key],
                        "args": {"name": record.thread},
                    }
                )
            entry = {
                "ph": "i" if record.instant else "X",
                "name": record.name,
                "cat": record.path.split("/", 1)[0],
                "pid": pid,
                "tid": tids[key],
                "ts": record.start_ts * 1e6,
                "args": {
                    "trace_id": record.trace_id,
                    "span_id": record.span_id,
                    "parent_id": record.parent_id,
                    "path": record.path,
                    "depth": record.depth,
                    **record.attrs,
                },
            }
            if record.instant:
                entry["s"] = "t"
            else:
                entry["dur"] = record.duration_s * 1e6
            out.append(entry)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def validate_chrome_trace(document: Dict) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid export.

    Checks the containered trace-event format: a ``traceEvents`` list
    whose entries carry a known phase, integer ``pid``/``tid``, and
    numeric non-negative ``ts`` (plus ``dur`` for complete events).
    Shared by the export tests and the CI smoke.
    """
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if event.get("ph") not in ("X", "i", "M", "B", "E", "C"):
            raise ValueError(f"{where}: unknown phase {event.get('ph')!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{where}: name must be a string")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where}: {key} must be an integer")
        if event["ph"] == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where}: ts must be a non-negative number")
        if event["ph"] == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"{where}: dur must be a non-negative number"
                )


def export_chrome_trace(
    path: str, traces: Optional[Iterable[RequestTrace]] = None
) -> int:
    """Assemble (if needed), validate, and write Chrome trace JSON.

    Args:
        path: destination file (overwritten).
        traces: traces to export; ``None`` assembles from the process
            trace log.

    Returns:
        The number of trace events written.
    """
    if traces is None:
        traces = assemble_traces()
    document = to_chrome_trace(traces)
    validate_chrome_trace(document)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return len(document["traceEvents"])


def frame_stage_breakdown(
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, Dict[str, Dict]]:
    """Per-stage, per-pyramid-level latency summaries for video frames.

    Reads every ``video_stage_seconds{stage=..., level=...}`` histogram
    series the pipeline recorded and returns
    ``{stage: {level: {count, sum, mean, p50, p99, max}}}`` — the
    extract / pool / serve / nms split per pyramid level that
    ``python -m repro obs video ...`` prints.
    """
    reg = registry if registry is not None else get_registry()
    out: Dict[str, Dict[str, Dict]] = {}
    with reg._lock:
        series = [
            metric
            for metric in reg._metrics.values()
            if isinstance(metric, HistogramMetric)
            and metric.name == VIDEO_STAGE_METRIC
        ]
    for metric in series:
        labels = dict(metric.labels)
        stage = labels.get("stage", "?")
        level = labels.get("level", "?")
        data = metric.snapshot()
        out.setdefault(stage, {})[level] = {
            key: data[key]
            for key in ("count", "sum", "mean", "p50", "p99", "max")
        }
    return out


__all__ = [
    "VIDEO_STAGE_METRIC",
    "RequestTrace",
    "assemble_traces",
    "export_chrome_trace",
    "frame_stage_breakdown",
    "to_chrome_trace",
    "validate_chrome_trace",
]
