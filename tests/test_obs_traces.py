"""Per-request trace assembly and Chrome trace-event export.

Grouping the flat span/event stream (possibly minted in different
processes) into per-request trees, batch-span multi-ownership via the
``trace_ids`` attr, the Chrome trace-event document shape, and the
video frame stage breakdown.
"""

import json
import os

import pytest

from repro.obs import MetricsRegistry, span, trace_context, trace_log
from repro.obs.tracing import SpanRecord
from repro.obs.traces import (
    VIDEO_STAGE_METRIC,
    RequestTrace,
    assemble_traces,
    export_chrome_trace,
    frame_stage_breakdown,
    to_chrome_trace,
    validate_chrome_trace,
)


def _record(name, trace_id="", span_id="", parent_id="", pid=0, **attrs):
    return SpanRecord(
        name=name,
        path=name,
        duration_s=0.001,
        depth=0,
        thread="t",
        attrs=attrs,
        trace_id=trace_id,
        span_id=span_id,
        parent_id=parent_id,
        start_ts=100.0,
        pid=pid or os.getpid(),
    )


def _event(kind, trace_id="", **attrs):
    return SpanRecord(
        name=kind, path=kind, duration_s=0.0, depth=0, thread="t",
        attrs=attrs, trace_id=trace_id, start_ts=100.0, pid=os.getpid(),
        kind=kind,
    )


def _stream(*records):
    """``(seq, record)`` pairs, as the trace log hands them out."""
    return list(enumerate(records))


@pytest.fixture(autouse=True)
def clean_obs_state():
    trace_log().clear()
    yield
    trace_log().clear()


class TestAssembly:
    def test_spans_group_by_own_trace_id(self):
        spans = [
            _record("a", trace_id="t1", span_id="s1"),
            _record("b", trace_id="t2", span_id="s2"),
            _record("c", trace_id="t1", span_id="s3", parent_id="s1"),
        ]
        traces = assemble_traces(_stream(*spans))
        assert [t.trace_id for t in traces] == ["t1", "t2"]
        assert [r.name for r in traces[0].spans] == ["a", "c"]

    def test_batch_spans_claimed_by_every_listed_trace(self):
        batch = _record("batch", span_id="sb", trace_ids=["t1", "t2"])
        traces = assemble_traces(_stream(batch))
        assert {t.trace_id for t in traces} == {"t1", "t2"}
        assert all(t.spans == [batch] for t in traces)

    def test_events_attach_to_their_trace(self):
        (t1, t9) = assemble_traces(_stream(
            _record("a", trace_id="t1", span_id="s1"),
            _event("enqueue", trace_id="t1"),
            _event("batch_form", trace_ids=["t1"]),
            _event("unrelated", trace_id="t9"),
        ))
        assert [r.name for r in t1.spans] == ["a"]
        assert [e.kind for e in t1.events] == ["enqueue", "batch_form"]
        assert t9.trace_id == "t9"

    def test_unowned_records_are_dropped(self):
        traces = assemble_traces(_stream(_record("anon")))
        assert traces == []

    def test_defaults_read_the_process_log(self):
        with trace_context("t-live"):
            with span("live.work"):
                pass
        traces = assemble_traces()
        assert any(
            t.trace_id == "t-live" and t.spans[0].name == "live.work"
            for t in traces
        )


class TestChromeExport:
    def _trace(self):
        return RequestTrace(
            trace_id="t1",
            records=_stream(
                _record("execute", span_id="sp", trace_ids=["t1"], pid=os.getpid()),
                _record("score", trace_id="t1", span_id="sc", parent_id="sp",
                        pid=os.getpid() + 1),
                _event("enqueue", trace_id="t1"),
            ),
        )

    def test_document_shape_validates(self):
        document = to_chrome_trace([self._trace()])
        validate_chrome_trace(document)
        phases = [e["ph"] for e in document["traceEvents"]]
        assert phases.count("X") == 2 and phases.count("i") == 1
        assert "M" in phases  # process/thread metadata present

    def test_worker_processes_are_named(self):
        document = to_chrome_trace([self._trace()])
        names = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert any("serve parent" in n for n in names)
        assert any("shard worker" in n for n in names)

    def test_shared_batch_spans_emitted_once(self):
        batch = _record("batch", span_id="sb", trace_ids=["t1", "t2"])
        traces = assemble_traces(_stream(batch))
        document = to_chrome_trace(traces)
        xs = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 1

    def test_events_are_instants_on_their_own_pid_emitted_once(self):
        worker_pid = os.getpid() + 1
        shared = _event("model_call", trace_ids=["t1", "t2"])
        shared = SpanRecord(**{**vars(shared), "pid": worker_pid})
        document = to_chrome_trace(assemble_traces(_stream(shared)))
        validate_chrome_trace(document)
        (instant,) = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert instant["name"] == "model_call"
        assert instant["pid"] == worker_pid
        assert instant["args"]["trace_ids"] == ["t1", "t2"]

    def test_timestamps_are_microseconds(self):
        document = to_chrome_trace([self._trace()])
        (x, _) = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert x["ts"] == pytest.approx(100.0 * 1e6)
        assert x["dur"] == pytest.approx(0.001 * 1e6)

    def test_validation_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="list"):
            validate_chrome_trace({})
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace({"traceEvents": [{"ph": "?"}]})
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": 0}
                    ]
                }
            )

    def test_export_writes_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        count = export_chrome_trace(str(path), [self._trace()])
        document = json.loads(path.read_text())
        validate_chrome_trace(document)
        assert count == len(document["traceEvents"]) > 0


class TestFrameStageBreakdown:
    def test_reads_labeled_stage_histograms(self):
        registry = MetricsRegistry()
        for stage, level, value in (
            ("extract", "0", 0.010),
            ("extract", "0", 0.030),
            ("serve", "1", 0.200),
        ):
            registry.histogram(
                VIDEO_STAGE_METRIC, labels={"stage": stage, "level": level}
            ).observe(value)
        breakdown = frame_stage_breakdown(registry)
        assert set(breakdown) == {"extract", "serve"}
        extract0 = breakdown["extract"]["0"]
        assert extract0["count"] == 2
        assert extract0["mean"] == pytest.approx(0.020)
        assert breakdown["serve"]["1"]["count"] == 1

    def test_empty_registry_gives_empty_breakdown(self):
        assert frame_stage_breakdown(MetricsRegistry()) == {}
