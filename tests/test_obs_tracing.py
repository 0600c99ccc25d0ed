"""Unit tests for ``repro.obs`` span tracing and the trace ring buffer.

The ring holding spans and events in one sequence, and its dumps, are
covered by ``tests/test_obs_flight.py``.
"""

import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    SpanRecord,
    TraceLog,
    configure,
    enabled,
    observe_span,
    span,
    span_metric_name,
    summarize_spans,
    trace_log,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture(autouse=True)
def clean_trace_log():
    trace_log().clear()
    yield
    trace_log().clear()


class TestSpan:
    def test_records_duration_histogram(self, registry):
        with span("sim.run", registry=registry):
            pass
        metric = registry.get(span_metric_name("sim.run"))
        assert metric is not None
        assert metric.count == 1
        assert metric.sum >= 0.0

    def test_metric_name_sanitized(self):
        assert span_metric_name("pyramid.level") == "span_pyramid_level_seconds"

    def test_nesting_builds_path_and_depth(self, registry):
        with span("outer", registry=registry):
            with span("inner", registry=registry):
                pass
        records = trace_log().entries()
        inner, outer = records[-2], records[-1]  # inner closes first
        assert inner.path == "outer/inner" and inner.depth == 1
        assert outer.path == "outer" and outer.depth == 0

    def test_exception_still_recorded_and_stack_unwound(self, registry):
        with pytest.raises(RuntimeError):
            with span("fails", registry=registry):
                raise RuntimeError("boom")
        assert registry.get(span_metric_name("fails")).count == 1
        with span("after", registry=registry):
            pass
        assert trace_log().entries()[-1].path == "after"  # not fails/after

    def test_attrs_carried_on_record(self, registry):
        with span("lvl", registry=registry, scale=1.1):
            pass
        assert trace_log().entries()[-1].attrs == {"scale": 1.1}

    def test_threads_have_independent_stacks(self, registry):
        paths = []

        def worker():
            with span("worker.outer", registry=registry):
                pass
            paths.append(trace_log().entries()[-1].path)

        with span("main.outer", registry=registry):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert paths == ["worker.outer"]  # no cross-thread nesting

    def test_observe_span_low_level_hook(self, registry):
        observe_span("drain", 0.25, registry=registry)
        metric = registry.get(span_metric_name("drain"))
        assert metric.count == 1
        assert metric.sum == pytest.approx(0.25)

    def test_configure_disables_recording(self, registry):
        assert enabled()
        configure(False)
        try:
            with span("quiet", registry=registry):
                pass
            observe_span("quiet2", 1.0, registry=registry)
            assert registry.get(span_metric_name("quiet")) is None
            assert registry.get(span_metric_name("quiet2")) is None
            assert trace_log().entries() == []
        finally:
            configure(True)
        assert enabled()


class TestTraceLog:
    def test_ring_buffer_bounded_and_counts_drops(self):
        log = TraceLog(maxlen=3)
        for i in range(5):
            log.append(
                SpanRecord(
                    name=f"s{i}", path=f"s{i}", duration_s=0.0,
                    depth=0, thread="t",
                )
            )
        entries = log.entries()
        assert [r.name for r in entries] == ["s2", "s3", "s4"]
        assert log.dropped == 2

    def test_rejects_bad_maxlen(self):
        with pytest.raises(ValueError):
            TraceLog(maxlen=0)

    def test_clear(self):
        log = TraceLog(maxlen=2)
        log.append(
            SpanRecord(name="s", path="s", duration_s=0.0, depth=0, thread="t")
        )
        log.clear()
        assert log.entries() == [] and log.dropped == 0

    def test_concurrent_appends_keep_seqs_contiguous(self):
        """8 threads hammering append: no lost or duplicated seqs.

        The lock assigns sequence numbers, so after the dust settles the
        retained records must carry exactly the contiguous range
        ``[dropped, total)`` and the drop counter must be exact — no
        interleaving may lose a span silently.
        """
        log = TraceLog(maxlen=64)
        per_thread = 50
        n_threads = 8

        def worker(name):
            for i in range(per_thread):
                log.append(
                    SpanRecord(
                        name=f"w{name}.{i}", path=f"w{name}.{i}",
                        duration_s=0.0, depth=0, thread=f"w{name}",
                    )
                )

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = n_threads * per_thread
        assert log.total == total
        assert log.dropped == total - 64
        seqs = [seq for seq, _ in log.records()]
        assert seqs == list(range(total - 64, total))
        # Every retained record is a distinct appended span.
        names = {record.name for _, record in log.records()}
        assert len(names) == 64


class TestSummarizeSpans:
    def test_aggregates_only_span_histograms(self, registry):
        registry.histogram("serve_latency_seconds").observe(0.1)
        with span("a.b", registry=registry):
            pass
        summary = summarize_spans(registry)
        assert set(summary) == {"span_a_b_seconds"}
        entry = summary["span_a_b_seconds"]
        assert entry["count"] == 1
        assert set(entry) == {"count", "sum", "mean", "p50", "p99", "max"}
