"""Thread-safe metric primitives and the process-wide registry.

Every subsystem that counts something — simulator ticks, spikes
delivered, pyramid windows scored, serve batches — registers its metric
here instead of keeping an ad-hoc attribute, so one `snapshot()` (JSON)
or `render_prometheus()` (text exposition) covers the whole process.
Three primitive kinds cover everything the paper's quantitative claims
need:

- :class:`CounterMetric` — monotonically increasing event counts
  (``sim_ticks_total``, ``detect_windows_scored_total``);
- :class:`GaugeMetric` — set-to-current values, optionally backed by a
  live callback (``serve_queue_depth`` bound to ``queue.qsize``);
- :class:`HistogramMetric` — value distributions with fixed cumulative
  buckets for exposition, a bounded reservoir for percentiles, and an
  optional exact value-count table for small-cardinality integers
  (batch sizes).

Updates take one short lock per metric; the hot paths bump counters
once per *run*, *batch*, or *level* (never per tick per core), which is
how the no-observer overhead stays inside the serving benchmark's 5%
budget (DESIGN.md §10).
"""

import math
import re
import threading
from bisect import bisect_left
from collections import Counter, deque
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")

DROPPED_SERIES_COUNTER = "repro_obs_dropped_series_total"
"""Counter bumped instead of registering a series past the cardinality cap."""

DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
"""Latency-shaped default bucket bounds in seconds (upper-inclusive)."""


def sanitize_metric_name(name: str) -> str:
    """``name`` with every exposition-illegal character mapped to ``_``."""
    cleaned = _SANITIZE_RE.sub("_", name)
    if not cleaned or not _NAME_RE.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    """``value`` escaped per the exposition format.

    Backslash, double quote, and newline become ``\\\\``, ``\\"`` and
    ``\\n`` respectively, so any string — including one spanning lines —
    stays a single, parseable sample line.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n"}


def unescape_label_value(value: str) -> str:
    """The inverse of :func:`escape_label_value`.

    Unknown escape sequences are preserved verbatim (backslash and all),
    matching the Prometheus text-format reference parser.
    """
    return _ESCAPE_RE.sub(
        lambda match: _UNESCAPES.get(match.group(1), match.group(0)), value
    )


def normalize_labels(labels) -> Tuple[Tuple[str, str], ...]:
    """``labels`` as a sorted, validated ``((name, value), ...)`` tuple.

    Raises:
        ValueError: on an exposition-illegal label name.
    """
    if not labels:
        return ()
    items = []
    for key in sorted(labels):
        if not _LABEL_NAME_RE.match(key):
            raise ValueError(
                f"label name {key!r} is not exposition-legal "
                "([a-zA-Z_][a-zA-Z0-9_]*)"
            )
        items.append((key, str(labels[key])))
    return tuple(items)


def render_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    """``{k="v",...}`` with escaped values, or ``""`` for no labels."""
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in labels
    )
    return "{" + inner + "}"


def parse_sample_name(sample: str) -> Tuple[str, Dict[str, str]]:
    """Split an exposition sample id into ``(base_name, labels)``.

    The inverse of ``name + render_labels(labels)``: label values are
    unescaped, so this round-trips everything
    :meth:`MetricsRegistry.render_prometheus` can emit.

    Raises:
        ValueError: on malformed label syntax.
    """
    brace = sample.find("{")
    if brace == -1:
        return sample, {}
    if not sample.endswith("}"):
        raise ValueError(f"malformed sample name: {sample!r}")
    base = sample[:brace]
    body = sample[brace + 1 : -1]
    labels: Dict[str, str] = {}
    i, n = 0, len(body)
    while i < n:
        eq = body.find("=", i)
        if eq == -1 or body[eq + 1 : eq + 2] != '"':
            raise ValueError(f"malformed labels in sample: {sample!r}")
        key = body[i:eq]
        j = eq + 2
        while j < n and body[j] != '"':
            j += 2 if body[j] == "\\" else 1
        if j >= n:
            raise ValueError(f"unterminated label value in sample: {sample!r}")
        labels[key] = unescape_label_value(body[eq + 2 : j])
        i = j + 1
        if i < n:
            if body[i] != ",":
                raise ValueError(f"malformed labels in sample: {sample!r}")
            i += 1
    return base, labels


class CounterMetric:
    """A monotonically increasing count (optionally a labeled series)."""

    __slots__ = ("name", "help", "labels", "_lock", "_value")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0

    @property
    def sample_name(self) -> str:
        """The exposition sample id (name plus rendered labels)."""
        return self.name + render_labels(self.labels)

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (>= 0) to the counter."""
        if n < 0:
            raise ValueError(f"counter increments must be >= 0, got {n}")
        with self._lock:
            self._value += n

    def inc_many(self, increments: Iterable[float]) -> None:
        """Add each increment in order under one lock acquisition.

        The running total sums the increments in the same order as one
        :meth:`inc` per increment, so a float counter stays
        bit-identical to the one-at-a-time path.
        """
        increments = list(increments)
        if any(n < 0 for n in increments):
            raise ValueError("counter increments must be >= 0")
        with self._lock:
            for n in increments:
                self._value += n

    @property
    def value(self) -> int:
        """The current monotonically accumulated count."""
        with self._lock:
            return self._value


class GaugeMetric:
    """A set-to-current value, optionally computed by a live callback."""

    __slots__ = ("name", "help", "labels", "_lock", "_value", "_fn")

    def __init__(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
        labels: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn = fn

    @property
    def sample_name(self) -> str:
        """The exposition sample id (name plus rendered labels)."""
        return self.name + render_labels(self.labels)

    def set(self, value: float) -> None:
        """Set the gauge to ``value`` (replaces any bound callback's role)."""
        with self._lock:
            self._value = float(value)

    def bind(self, fn: Callable[[], float]) -> None:
        """Back the gauge with a callback read at snapshot time."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        """The current reading (live callback when bound, else last set)."""
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        try:
            return float(fn())
        except Exception:
            return float("nan")


class HistogramMetric:
    """A value distribution: buckets + reservoir + optional value counts.

    Args:
        name: metric name (exposition-legal).
        help: one-line description.
        buckets: cumulative upper bounds (``+Inf`` is implicit).
        reservoir: most-recent observations kept for percentile
            estimates (bounded, so a long-running service never grows).
        track_values: also keep an exact ``value -> count`` table —
            only sensible for small-cardinality integers such as batch
            sizes.
    """

    __slots__ = (
        "name", "help", "labels", "_lock", "_bounds", "_bucket_counts",
        "_count", "_sum", "_min", "_max", "_reservoir", "_values",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        reservoir: int = 2048,
        track_values: bool = False,
        labels: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        if reservoir < 1:
            raise ValueError(f"reservoir must be >= 1, got {reservoir}")
        bounds = tuple(sorted(float(b) for b in buckets))
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds in {buckets}")
        self.name = name
        self.help = help
        self.labels = labels
        self._lock = threading.Lock()
        self._bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._reservoir = deque(maxlen=reservoir)
        self._values = Counter() if track_values else None

    def observe(self, value: float) -> None:
        """Record one observation."""
        v = float(value)
        index = bisect_left(self._bounds, v)
        with self._lock:
            self._record(index, v, value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Record every value, in order, under one lock acquisition.

        Equivalent to calling :meth:`observe` once per value: the
        running sum adds the values in the same order, so it is
        bit-identical to the one-at-a-time path.
        """
        points = [(float(value), value) for value in values]
        indices = [bisect_left(self._bounds, v) for v, _ in points]
        with self._lock:
            for index, (v, value) in zip(indices, points):
                self._record(index, v, value)

    def _record(self, index: int, v: float, value: float) -> None:
        """Fold one observation in (caller holds the lock)."""
        self._bucket_counts[index] += 1
        self._count += 1
        self._sum += v
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v
        self._reservoir.append(v)
        if self._values is not None:
            self._values[value] += 1

    @property
    def count(self) -> int:
        """Total observations recorded since creation."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of every observed value since creation."""
        with self._lock:
            return self._sum

    @property
    def sample_name(self) -> str:
        """The exposition sample id (name plus rendered labels)."""
        return self.name + render_labels(self.labels)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the reservoir (0.0 when empty).

        ``q`` is clamped into ``[0, 100]`` — out-of-range requests
        return the reservoir minimum/maximum instead of raising or
        producing NaN, so dashboards asking for e.g. ``q=99.99`` typos
        like ``q=9999`` stay finite.

        Raises:
            ValueError: when ``q`` is NaN (there is no sane clamp).
        """
        q = float(q)
        if math.isnan(q):
            raise ValueError("percentile q must not be NaN")
        q = min(100.0, max(0.0, q))
        with self._lock:
            if not self._reservoir:
                return 0.0
            data = np.asarray(self._reservoir, dtype=np.float64)
        return float(np.percentile(data, q))

    def value_counts(self) -> Dict[float, int]:
        """The exact value table (empty unless ``track_values``)."""
        with self._lock:
            return dict(self._values) if self._values is not None else {}

    def snapshot(self) -> Dict:
        """JSON-ready summary of the distribution."""
        with self._lock:
            count = self._count
            total = self._sum
            minimum = self._min
            maximum = self._max
            data = (
                np.asarray(self._reservoir, dtype=np.float64)
                if self._reservoir
                else None
            )
            buckets = {
                str(bound): cumulative
                for bound, cumulative in zip(
                    list(self._bounds) + ["+Inf"],
                    np.cumsum(self._bucket_counts).tolist(),
                )
            }
        out = {
            "count": count,
            "sum": total,
            "min": minimum if count else 0.0,
            "max": maximum if count else 0.0,
            "mean": (total / count) if count else 0.0,
            "buckets": buckets,
        }
        if data is not None:
            out["p50"] = float(np.percentile(data, 50))
            out["p99"] = float(np.percentile(data, 99))
        else:
            out["p50"] = 0.0
            out["p99"] = 0.0
        return out

    def export_state(self) -> Dict:
        """The raw distribution state as a picklable dict.

        Carries per-bucket (non-cumulative) counts, the running
        count/sum/min/max, the percentile reservoir, and the exact
        value table when tracked — everything :meth:`merge_state`
        needs to fold this histogram into another one with identical
        bounds. Shard workers ship these across the fork boundary.
        """
        with self._lock:
            return {
                "bounds": list(self._bounds),
                "bucket_counts": list(self._bucket_counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "reservoir": list(self._reservoir),
                "reservoir_maxlen": self._reservoir.maxlen,
                "values": dict(self._values) if self._values is not None else None,
            }

    def merge_state(self, state: Dict) -> None:
        """Fold an exported (or diffed) histogram state into this one.

        Raises:
            ValueError: when ``state`` was exported from a histogram
                with different bucket bounds — merging those would
                silently misbucket, so it is refused.
        """
        bounds = tuple(float(b) for b in state["bounds"])
        if bounds != self._bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds "
                f"{bounds} != {self._bounds}"
            )
        with self._lock:
            for index, count in enumerate(state["bucket_counts"]):
                self._bucket_counts[index] += count
            self._count += state["count"]
            self._sum += state["sum"]
            if state["count"]:
                if state["min"] < self._min:
                    self._min = state["min"]
                if state["max"] > self._max:
                    self._max = state["max"]
            self._reservoir.extend(state["reservoir"])
            values = state.get("values")
            if values is not None and self._values is not None:
                for value, count in values.items():
                    self._values[value] += count

    def _exposition_rows(self) -> List[Tuple[str, float]]:
        suffix = render_labels(self.labels)

        def bucket(le: str) -> str:
            return f"{self.name}_bucket" + render_labels(
                self.labels + (("le", le),)
            )

        with self._lock:
            cumulative = np.cumsum(self._bucket_counts).tolist()
            rows = [
                (bucket(f"{bound:g}"), cum)
                for bound, cum in zip(self._bounds, cumulative[:-1])
            ]
            rows.append((bucket("+Inf"), cumulative[-1]))
            rows.append((f"{self.name}_sum{suffix}", self._sum))
            rows.append((f"{self.name}_count{suffix}", self._count))
        return rows


class MetricsRegistry:
    """A named collection of metrics with one-stop snapshot/exposition.

    Metrics are created lazily by :meth:`counter` / :meth:`gauge` /
    :meth:`histogram` (get-or-create, type-checked), so instrumented
    code never needs registration boilerplate and two call sites naming
    the same metric share it. Each call may carry a ``labels`` mapping;
    every distinct label set is an independent series under the shared
    base name (one TYPE line, many samples). A cardinality guard caps
    the distinct label sets per metric at ``max_label_sets``: past the
    cap, new series are *not* registered — the returned metric is a
    detached instance whose updates go nowhere, and the
    ``repro_obs_dropped_series_total`` counter is bumped instead of the
    registry growing without bound (a runaway label such as a request id
    cannot take the process down).

    Args:
        max_label_sets: distinct label sets allowed per metric name.
    """

    def __init__(self, max_label_sets: int = 1000) -> None:
        if max_label_sets < 1:
            raise ValueError(
                f"max_label_sets must be >= 1, got {max_label_sets}"
            )
        self.max_label_sets = max_label_sets
        self._lock = threading.Lock()
        self._metrics: "Dict[str, object]" = {}
        self._kinds: Dict[str, type] = {}
        self._series_count: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, kind, factory, labels=None):
        if not _NAME_RE.match(name):
            raise ValueError(
                f"metric name {name!r} is not exposition-legal "
                "([a-zA-Z_:][a-zA-Z0-9_:]*)"
            )
        label_items = normalize_labels(labels)
        key = name + render_labels(label_items)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is not None:
                if not isinstance(metric, kind):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(metric).__name__}, not {kind.__name__}"
                    )
                return metric
            existing_kind = self._kinds.get(name)
            if existing_kind is not None and existing_kind is not kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing_kind.__name__}, not {kind.__name__}"
                )
            if (
                label_items
                and self._series_count.get(name, 0) >= self.max_label_sets
            ):
                self._dropped_series_locked().inc()
                return factory(label_items)  # detached: never registered
            metric = factory(label_items)
            self._metrics[key] = metric
            self._kinds[name] = kind
            self._series_count[name] = self._series_count.get(name, 0) + 1
            return metric

    def _dropped_series_locked(self) -> CounterMetric:
        """The cardinality-guard counter (caller holds ``self._lock``)."""
        dropped = self._metrics.get(DROPPED_SERIES_COUNTER)
        if dropped is None:
            dropped = CounterMetric(
                DROPPED_SERIES_COUNTER,
                help="label sets refused by the per-metric cardinality cap",
            )
            self._metrics[DROPPED_SERIES_COUNTER] = dropped
            self._kinds[DROPPED_SERIES_COUNTER] = CounterMetric
            self._series_count[DROPPED_SERIES_COUNTER] = 1
        return dropped

    def counter(self, name: str, help: str = "", labels=None) -> CounterMetric:
        """Get or create the counter ``name`` (series per label set)."""
        return self._get_or_create(
            name,
            CounterMetric,
            lambda items: CounterMetric(name, help, labels=items),
            labels,
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
        labels=None,
    ) -> GaugeMetric:
        """Get or create the gauge ``name`` (binding ``fn`` if given)."""
        gauge = self._get_or_create(
            name,
            GaugeMetric,
            lambda items: GaugeMetric(name, help, fn=fn, labels=items),
            labels,
        )
        if fn is not None:
            gauge.bind(fn)
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        reservoir: int = 2048,
        track_values: bool = False,
        labels=None,
    ) -> HistogramMetric:
        """Get or create the histogram ``name`` (series per label set)."""
        return self._get_or_create(
            name,
            HistogramMetric,
            lambda items: HistogramMetric(
                name,
                help,
                buckets=buckets,
                reservoir=reservoir,
                track_values=track_values,
                labels=items,
            ),
            labels,
        )

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """All registered sample ids (labeled series included), sorted."""
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str, labels=None):
        """The metric behind ``name`` (and ``labels``), or ``None``."""
        key = name + render_labels(normalize_labels(labels))
        with self._lock:
            return self._metrics.get(key)

    def _items(self) -> List[Tuple[str, object]]:
        with self._lock:
            return sorted(self._metrics.items())

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        """``{name: value}`` of every counter starting with ``prefix``."""
        return {
            name: metric.value
            for name, metric in self._items()
            if isinstance(metric, CounterMetric) and name.startswith(prefix)
        }

    def snapshot(self) -> Dict:
        """One JSON-ready view of every registered metric."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict] = {}
        for name, metric in self._items():
            if isinstance(metric, CounterMetric):
                counters[name] = metric.value
            elif isinstance(metric, GaugeMetric):
                gauges[name] = metric.value
            elif isinstance(metric, HistogramMetric):
                histograms[name] = metric.snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def export_state(self) -> Dict:
        """Every registered series as one picklable document.

        Each series record carries ``kind``, ``name``, ``labels`` (as a
        list of ``[name, value]`` pairs), ``help``, and its raw payload:
        the counter/gauge ``value`` or the histogram's
        :meth:`HistogramMetric.export_state` under ``state``. This is
        the wire format shard workers ship to the parent (exported and
        then :meth:`reset` after each reply, so each export is that
        reply's delta) and the input to :meth:`merge_state`.
        """
        series: List[Dict] = []
        for _, metric in self._items():
            record: Dict = {
                "name": metric.name,
                "labels": [list(pair) for pair in metric.labels],
                "help": metric.help,
            }
            if isinstance(metric, CounterMetric):
                record["kind"] = "counter"
                record["value"] = metric.value
            elif isinstance(metric, GaugeMetric):
                record["kind"] = "gauge"
                record["value"] = metric.value
            elif isinstance(metric, HistogramMetric):
                record["kind"] = "histogram"
                record["state"] = metric.export_state()
            else:  # pragma: no cover - no other kinds exist
                continue
            series.append(record)
        return {"series": series}

    def merge_state(self, state: Dict, extra_labels=None) -> int:
        """Fold an exported state (usually one reply's) into this registry.

        Counters are incremented by the shipped value, gauges set to it,
        histograms merged bucket-by-bucket (bounds must match). When
        ``extra_labels`` is given (e.g. ``{"shard": "0"}``) every merged
        series lands under its original labels *plus* those — which is
        how worker-side ``serve_hw_*`` and ``span_*`` series appear in
        the parent exposition with a ``shard`` label. Merging goes
        through the normal get-or-create path, so the per-metric
        cardinality guard applies to merged series exactly as it does
        to locally created ones.

        Returns:
            the number of series records merged.
        """
        extra = dict(extra_labels) if extra_labels else {}
        merged = 0
        for record in state["series"]:
            labels = {name: value for name, value in record["labels"]}
            labels.update(extra)
            label_arg = labels or None
            kind = record["kind"]
            help_text = record.get("help", "")
            if kind == "counter":
                self.counter(record["name"], help=help_text, labels=label_arg).inc(
                    record["value"]
                )
            elif kind == "gauge":
                self.gauge(record["name"], help=help_text, labels=label_arg).set(
                    record["value"]
                )
            elif kind == "histogram":
                hist_state = record["state"]
                self.histogram(
                    record["name"],
                    help=help_text,
                    buckets=hist_state["bounds"],
                    reservoir=hist_state["reservoir_maxlen"],
                    track_values=hist_state.get("values") is not None,
                    labels=label_arg,
                ).merge_state(hist_state)
            else:
                raise ValueError(f"unknown series kind {kind!r}")
            merged += 1
        return merged

    def render_prometheus(self) -> str:
        """Prometheus-style text exposition of every metric.

        Series sharing a base name are grouped under one ``# TYPE`` line;
        label values are escaped per the exposition format
        (:func:`escape_label_value`), so :func:`parse_prometheus` plus
        :func:`parse_sample_name` round-trip every emitted sample.
        """
        type_names = {
            CounterMetric: "counter",
            GaugeMetric: "gauge",
            HistogramMetric: "histogram",
        }
        with self._lock:
            metrics = sorted(
                self._metrics.values(), key=lambda m: (m.name, m.labels)
            )
        lines: List[str] = []
        last_name = None
        for metric in metrics:
            if metric.name != last_name:
                last_name = metric.name
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(
                    f"# TYPE {metric.name} {type_names[type(metric)]}"
                )
            if isinstance(metric, HistogramMetric):
                for row_name, value in metric._exposition_rows():
                    lines.append(f"{row_name} {_format_value(value)}")
            elif isinstance(metric, CounterMetric):
                lines.append(f"{metric.sample_name} {metric.value}")
            else:
                lines.append(
                    f"{metric.sample_name} {_format_value(metric.value)}"
                )
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every registered metric.

        Shard workers call it right after :meth:`export_state`, so each
        export holds only what was recorded since the last; a metric
        object kept across a reset is no longer in the registry.
        """
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()
            self._series_count.clear()


def _format_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


_default_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    with _registry_lock:
        return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _default_registry
    if not isinstance(registry, MetricsRegistry):
        raise TypeError(
            f"registry must be a MetricsRegistry, got {type(registry).__name__}"
        )
    with _registry_lock:
        previous = _default_registry
        _default_registry = registry
        return previous


METRIC_BASE_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
"""Convention for base metric names: lowercase snake_case, no colons."""

COUNTER_SUFFIXES: Tuple[str, ...] = ("_total",)
"""Counters are monotone accumulations and must say so."""

HISTOGRAM_SUFFIXES: Tuple[str, ...] = (
    "_seconds", "_nj", "_joules", "_bytes", "_size", "_ratio",
)
"""Histograms carry their unit (or dimension, for ``_size``)."""

GAUGE_SUFFIXES: Tuple[str, ...] = (
    "_depth", "_state", "_shards", "_seconds", "_ratio", "_rate",
    "_watts", "_joules", "_fraction", "_bytes",
)
"""Gauges end in a unit or the dimension noun they measure."""


def naming_violations(registry: MetricsRegistry) -> List[str]:
    """Convention violations among ``registry``'s base metric names.

    Checks every registered base name against
    :data:`METRIC_BASE_NAME_RE` and the per-kind unit-suffix lists, and
    every label name against the exposition-internal convention (no
    uppercase). Returns human-readable ``"name: problem"`` strings —
    empty means the registry is clean. ``tests/test_obs_naming.py``
    runs this over a fully exercised registry so new series cannot
    drift from the existing exposition style.
    """
    suffixes = {
        CounterMetric: COUNTER_SUFFIXES,
        HistogramMetric: HISTOGRAM_SUFFIXES,
        GaugeMetric: GAUGE_SUFFIXES,
    }
    problems: List[str] = []
    seen_names = set()
    with registry._lock:
        items = sorted(registry._metrics.items())
    for _, metric in items:
        for label_name, _ in metric.labels:
            if not re.match(r"^[a-z][a-z0-9_]*$", label_name):
                problems.append(
                    f"{metric.sample_name}: label {label_name!r} is not "
                    "lowercase snake_case"
                )
        if metric.name in seen_names:
            continue
        seen_names.add(metric.name)
        if not METRIC_BASE_NAME_RE.match(metric.name):
            problems.append(
                f"{metric.name}: not lowercase snake_case "
                f"({METRIC_BASE_NAME_RE.pattern})"
            )
            continue
        allowed = suffixes[type(metric)]
        if not metric.name.endswith(allowed):
            kind = type(metric).__name__.replace("Metric", "").lower()
            problems.append(
                f"{metric.name}: {kind} must end in one of {allowed}"
            )
    return problems


def parse_prometheus(text: str) -> Dict[str, float]:
    """``{sample_name: value}`` parsed back from an exposition text.

    The inverse of :meth:`MetricsRegistry.render_prometheus` for the
    subset this module emits; used by the CI ``obs-smoke`` scraper and
    the exposition round-trip tests.

    Raises:
        ValueError: on a malformed sample line or non-numeric value.
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name, raw = line.rsplit(" ", 1)
        except ValueError:
            raise ValueError(f"malformed exposition line: {line!r}") from None
        if raw == "+Inf":
            value = math.inf
        elif raw == "-Inf":
            value = -math.inf
        elif raw == "NaN":
            value = math.nan
        else:
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(
                    f"non-numeric value {raw!r} for sample {name!r}"
                ) from None
        samples[name] = value
    return samples


__all__: Iterable[str] = [
    "COUNTER_SUFFIXES",
    "DEFAULT_BUCKETS",
    "DROPPED_SERIES_COUNTER",
    "GAUGE_SUFFIXES",
    "HISTOGRAM_SUFFIXES",
    "METRIC_BASE_NAME_RE",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "escape_label_value",
    "get_registry",
    "naming_violations",
    "normalize_labels",
    "parse_prometheus",
    "parse_sample_name",
    "render_labels",
    "sanitize_metric_name",
    "set_registry",
    "unescape_label_value",
]
