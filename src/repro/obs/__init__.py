"""``repro.obs`` — the process-wide observability layer.

One lightweight, thread-safe subsystem behind every number this repo
reports (DESIGN.md §10, §16): counters/gauges/histograms in a
:class:`MetricsRegistry`, nestable :func:`span` wall-clock tracing with
lifecycle :func:`event` records in the same bounded ring-buffer
:class:`TraceLog` (which doubles as the flight recorder), fork-safe
trace/span ids (:mod:`repro.obs.ids`), cross-process trace assembly and Chrome
trace-event export (:mod:`repro.obs.traces`), declarative latency and
energy SLOs (:mod:`repro.obs.slo`), a JSON ``snapshot()`` and a
Prometheus-style text exposition. The simulator, batch engine,
detection pipeline, and serving stack all instrument through this
package; ``repro.serve.ServiceStats`` is a thin facade over a registry.

Quick start::

    from repro.obs import get_registry, span

    with span("pyramid.level", level=0):
        ...
    get_registry().counter("detect_windows_scored_total").inc(n)
    print(get_registry().render_prometheus())
"""

from repro.obs import hwcounters, ids, slo, traces
from repro.obs.hwcounters import ActivityCollector, RunActivity, record_run
from repro.obs.ids import configure_namespace, new_span_id, new_trace_id
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    DROPPED_SERIES_COUNTER,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    escape_label_value,
    get_registry,
    naming_violations,
    normalize_labels,
    parse_prometheus,
    parse_sample_name,
    render_labels,
    sanitize_metric_name,
    set_registry,
    unescape_label_value,
)
from repro.obs.slo import SLObjective, SLOResult, default_objectives, evaluate_objectives
from repro.obs.traces import RequestTrace, assemble_traces, to_chrome_trace
from repro.obs.tracing import (
    EVENT_KINDS,
    SPAN_BUCKETS,
    SpanHandle,
    SpanRecord,
    TraceLog,
    configure,
    current_span_id,
    current_trace_id,
    enabled,
    event,
    observe_span,
    span,
    span_metric_name,
    summarize_spans,
    trace_context,
    trace_log,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DROPPED_SERIES_COUNTER",
    "EVENT_KINDS",
    "SPAN_BUCKETS",
    "ActivityCollector",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "RequestTrace",
    "RunActivity",
    "SLOResult",
    "SLObjective",
    "SpanHandle",
    "SpanRecord",
    "TraceLog",
    "assemble_traces",
    "configure",
    "configure_namespace",
    "current_span_id",
    "current_trace_id",
    "default_objectives",
    "enabled",
    "escape_label_value",
    "evaluate_objectives",
    "event",
    "get_registry",
    "hwcounters",
    "ids",
    "naming_violations",
    "new_span_id",
    "new_trace_id",
    "normalize_labels",
    "observe_span",
    "parse_prometheus",
    "parse_sample_name",
    "record_run",
    "render_labels",
    "sanitize_metric_name",
    "set_registry",
    "slo",
    "span",
    "span_metric_name",
    "summarize_spans",
    "to_chrome_trace",
    "trace_context",
    "trace_log",
    "traces",
]
