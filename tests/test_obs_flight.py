"""Flight recording: the one trace-log ring, its dumps, and serve
auto-dump triggers.

Spans and lifecycle events share one ring (DESIGN.md §12): monotonic
sequence numbers assigned under the lock, a bounded ring retaining
exactly the contiguous range ``[dropped, total)``, an exact drop
counter, and single-document JSON dumps that never contain themselves.
The service integration half: ``flight_dump_path`` makes the dump
automatic on request failure and on breaker-open.
"""

import json
import threading

import numpy as np
import pytest

from repro.errors import TransientScorerError
from repro.obs import SpanRecord, TraceLog, event, new_trace_id, trace_log
from repro.serve import CircuitBreaker, InferenceService


def _record(kind, trace_id="", **attrs):
    """An event record as :func:`repro.obs.event` would build it."""
    return SpanRecord(
        name=kind, path=kind, duration_s=0.0, depth=0,
        thread=threading.current_thread().name, attrs=attrs,
        trace_id=trace_id, kind=kind,
    )


def _span(name):
    return SpanRecord(name=name, path=name, duration_s=0.0, depth=0, thread="t")


class TestRingSemantics:
    def test_sequences_are_monotonic_and_contiguous(self):
        log = TraceLog(maxlen=8)
        for i in range(5):
            assert log.append(_record("enqueue", index=i)) == i
        assert [seq for seq, _ in log.records()] == list(range(5))
        assert log.total == 5
        assert log.dropped == 0

    def test_eviction_keeps_exact_window(self):
        log = TraceLog(maxlen=4)
        for i in range(11):
            log.append(_span(f"s{i}") if i % 2 else _record("score", index=i))
        assert log.total == 11
        assert log.dropped == 7
        # Retained records are exactly the contiguous [dropped, total),
        # spans and events in one sequence.
        assert [seq for seq, _ in log.records()] == [7, 8, 9, 10]
        assert [r.name for r in log.entries()] == ["s7", "score", "s9", "score"]

    def test_record_returns_the_event(self):
        trace_log().clear()
        try:
            record = event("retry", trace_id="t1", attempt=2)
            assert record.kind == "retry" and record.instant
            assert record.trace_id == "t1"
            assert record.attrs == {"attempt": 2}
            assert record.duration_s == 0.0
            assert record.thread == threading.current_thread().name
            assert trace_log().entries() == [record]
        finally:
            trace_log().clear()

    def test_clear_resets_counters(self):
        log = TraceLog(maxlen=2)
        for _ in range(5):
            log.append(_record("score"))
        log.clear()
        assert log.total == 0
        assert log.dropped == 0
        assert log.entries() == []
        assert log.append(_record("score")) == 0

    def test_maxlen_validation(self):
        with pytest.raises(ValueError, match="maxlen"):
            TraceLog(maxlen=0)

    def test_concurrent_appends_keep_the_contract(self):
        """8 threads hammering append: no lost or duplicated seqs.

        The lock assigns sequence numbers, so after the dust settles the
        retained records must carry exactly the contiguous range
        ``[dropped, total)`` and the drop counter must be exact — no
        interleaving may lose a record silently.
        """
        log = TraceLog(maxlen=64)
        per_thread = 50
        n_threads = 8

        def worker(name):
            for i in range(per_thread):
                log.append(_record("enqueue", worker=name, index=i))

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = n_threads * per_thread
        assert log.total == total
        assert log.dropped == total - 64
        assert [seq for seq, _ in log.records()] == list(
            range(total - 64, total)
        )
        # Every retained record is a distinct appended event.
        keys = {(r.attrs["worker"], r.attrs["index"]) for r in log.entries()}
        assert len(keys) == 64

    def test_new_trace_ids_unique(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(t) == 16 for t in ids)


class TestDump:
    def test_dump_document_shape(self, tmp_path):
        log = TraceLog(maxlen=4)
        for i in range(6):
            log.append(_record("score", trace_id=f"t{i}", index=i))
        path = tmp_path / "flight.json"
        written = log.dump(str(path), reason="unit_test")

        document = json.loads(path.read_text())
        assert written == 4
        assert document["reason"] == "unit_test"
        assert document["dropped"] == 2
        assert document["total"] == 6
        assert document["retained"] == 4
        assert [e["seq"] for e in document["events"]] == [2, 3, 4, 5]
        assert document["events"][0]["attrs"] == {"index": 2}

    def test_dump_never_contains_itself(self, tmp_path):
        log = TraceLog(maxlen=8)
        log.append(_record("score"))
        path = tmp_path / "flight.json"
        log.dump(str(path))
        document = json.loads(path.read_text())
        assert all(e["kind"] != "dump" for e in document["events"])
        # ... but the dump is on the record for the *next* dump.
        assert log.entries()[-1].kind == "dump"


class _FailingScorer:
    """Raises a transient fault on every call."""

    model_id = "flight-test-down"
    cacheable = False

    def decision_function(self, matrix):
        raise TransientScorerError("scorer down")


class _HealthyScorer:
    model_id = "flight-test-up"
    cacheable = False

    def decision_function(self, matrix):
        return np.asarray(matrix)[:, 0]


class TestServeAutoDump:
    def setup_method(self):
        trace_log().clear()

    def test_auto_dump_on_request_failure(self, tmp_path):
        path = tmp_path / "failure.json"
        service = InferenceService(
            _FailingScorer(),
            max_batch_size=2,
            max_wait_ms=0.5,
            cache_capacity=0,
            flight_dump_path=str(path),
        )
        with service:
            with pytest.raises(TransientScorerError):
                service.score(np.zeros(3), timeout_s=5.0)
        document = json.loads(path.read_text())
        assert document["reason"] == "request_failed"
        kinds = [e["kind"] for e in document["events"]]
        assert "request_failed" in kinds
        assert "enqueue" in kinds
        failed = next(
            e for e in document["events"] if e["kind"] == "request_failed"
        )
        assert failed["trace_id"]
        assert "TransientScorerError" in failed["attrs"]["error"]

    def test_auto_dump_on_breaker_open(self, tmp_path):
        path = tmp_path / "breaker.json"
        service = InferenceService(
            _FailingScorer(),
            max_batch_size=2,
            max_wait_ms=0.5,
            cache_capacity=0,
            circuit_breaker=CircuitBreaker(
                failure_threshold=1, reset_timeout_s=60.0
            ),
            degraded_value=-1.0,
            flight_dump_path=str(path),
        )
        with service:
            assert service.score(np.zeros(3), timeout_s=5.0) == -1.0
        document = json.loads(path.read_text())
        assert document["reason"] in ("breaker_open", "request_failed")
        transitions = [
            e
            for e in document["events"]
            if e["kind"] == "breaker_transition"
        ]
        assert any(e["attrs"]["to_state"] == "open" for e in transitions)

    def test_no_dump_path_no_file(self, tmp_path):
        service = InferenceService(
            _FailingScorer(),
            max_batch_size=2,
            max_wait_ms=0.5,
            cache_capacity=0,
        )
        with service:
            with pytest.raises(TransientScorerError):
                service.score(np.zeros(3), timeout_s=5.0)
        assert list(tmp_path.iterdir()) == []

    def test_healthy_run_records_lifecycle(self):
        service = InferenceService(
            _HealthyScorer(),
            max_batch_size=4,
            max_wait_ms=0.5,
            cache_capacity=0,
        )
        with service:
            assert service.score(np.full(3, 2.0), timeout_s=5.0) == 2.0
        kinds = [e.kind for e in trace_log().entries()]
        for expected in ("enqueue", "batch_form", "score"):
            assert expected in kinds
        score_event = next(
            e for e in trace_log().entries() if e.kind == "score"
        )
        assert score_event.attrs["size"] == 1
        assert score_event.attrs["trace_ids"]
