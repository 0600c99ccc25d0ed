"""Tests for the inference service: batching, backpressure, deadlines."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    TransientScorerError,
)
from repro.serve import InferenceService, ServiceBackedScorer, closed_loop
from repro.serve.loadgen import LoadReport


def _sum_model(matrix):
    return matrix.sum(axis=1)


class _BlockingModel:
    """Scores sums, but only after `release` is set (deterministic tests)."""

    cacheable = True

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def __call__(self, matrix):
        self.entered.set()
        assert self.release.wait(timeout=10.0), "test forgot to release"
        return matrix.sum(axis=1)


class TestLifecycle:
    def test_submit_before_start_rejected(self):
        service = InferenceService(_sum_model)
        with pytest.raises(ServiceClosedError):
            service.submit(np.zeros(3))

    def test_submit_after_close_rejected(self):
        with InferenceService(_sum_model) as service:
            pass
        with pytest.raises(ServiceClosedError):
            service.submit(np.zeros(3))

    def test_close_drains_queued_requests(self):
        with InferenceService(_sum_model, max_wait_ms=0.0) as service:
            futures = [service.submit(np.full(2, i)) for i in range(20)]
        assert [f.result(timeout=1) for f in futures] == [2.0 * i for i in range(20)]

    def test_close_without_drain_fails_queued(self):
        model = _BlockingModel()
        service = InferenceService(
            model, max_batch_size=1, max_wait_ms=0.0, cache_capacity=0
        ).start()
        first = service.submit(np.zeros(2))
        assert model.entered.wait(timeout=5.0)  # worker is inside the model
        stuck = service.submit(np.ones(2))
        # Unblock the model shortly after close() has emptied the queue.
        threading.Timer(0.2, model.release.set).start()
        service.close(drain=False)
        assert first.result(timeout=5) == 0.0
        with pytest.raises(ServiceClosedError):
            stuck.result(timeout=5)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            InferenceService(_sum_model, queue_capacity=0)
        with pytest.raises(ConfigurationError):
            InferenceService(_sum_model, cache_capacity=-1)
        with pytest.raises(ConfigurationError):
            InferenceService(object())


class TestScoring:
    def test_results_match_direct_calls(self):
        rows = np.random.default_rng(0).random((50, 6))
        with InferenceService(_sum_model, max_batch_size=8) as service:
            served = service.score_many(rows)
        np.testing.assert_array_equal(served, rows.sum(axis=1))

    def test_single_row_scalar_result(self):
        with InferenceService(_sum_model) as service:
            value = service.score(np.array([1.0, 2.0]))
        assert value == 3.0
        assert isinstance(value, float)

    def test_vector_results_supported(self):
        def doubler(matrix):
            return np.stack([matrix * 2.0])[0]

        rows = np.random.default_rng(1).random((5, 3))
        with InferenceService(doubler, cache_capacity=0) as service:
            futures = [service.submit(row) for row in rows]
            results = np.stack([f.result(timeout=5) for f in futures])
        np.testing.assert_array_equal(results, rows * 2.0)

    def test_requests_coalesce_into_batches(self):
        model = _BlockingModel()
        with InferenceService(
            model, max_batch_size=16, max_wait_ms=50.0, cache_capacity=0
        ) as service:
            futures = [service.submit(np.full(2, i)) for i in range(8)]
            model.release.set()
            for future in futures:
                future.result(timeout=5)
            histogram = service.stats.snapshot()["batch_size_histogram"]
        # The first request may dispatch alone before the rest enqueue,
        # but far fewer batches than requests must have been needed.
        assert sum(histogram.values()) < 8

    def test_model_exception_propagates(self):
        def broken(matrix):
            raise RuntimeError("boom")

        with InferenceService(broken, cache_capacity=0) as service:
            future = service.submit(np.zeros(2))
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=5)
        assert service.stats.counter("failed") == 1

    def test_row_count_mismatch_is_configuration_error(self):
        def truncating(matrix):
            return matrix.sum(axis=1)[:-1] if matrix.shape[0] > 1 else np.zeros(0)

        with InferenceService(
            truncating, max_batch_size=4, cache_capacity=0
        ) as service:
            future = service.submit(np.zeros(2))
            with pytest.raises(ConfigurationError):
                future.result(timeout=5)

    def test_non_1d_features_rejected(self):
        with InferenceService(_sum_model) as service:
            with pytest.raises(ValueError):
                service.submit(np.zeros((2, 2)))


class TestBackpressure:
    def test_saturated_queue_raises_queue_full(self):
        model = _BlockingModel()
        service = InferenceService(
            model,
            max_batch_size=1,
            max_wait_ms=0.0,
            queue_capacity=2,
            cache_capacity=0,
        ).start()
        try:
            in_flight = service.submit(np.zeros(2))
            assert model.entered.wait(timeout=5.0)
            queued = [service.submit(np.zeros(2)) for _ in range(2)]
            with pytest.raises(QueueFullError):
                service.submit(np.zeros(2))
            assert service.stats.counter("rejected_queue_full") == 1
        finally:
            model.release.set()
            service.close()
        for future in [in_flight] + queued:
            assert future.result(timeout=5) == 0.0

    def test_queue_never_grows_beyond_capacity(self):
        model = _BlockingModel()
        service = InferenceService(
            model,
            max_batch_size=1,
            max_wait_ms=0.0,
            queue_capacity=4,
            cache_capacity=0,
        ).start()
        try:
            service.submit(np.zeros(2))
            assert model.entered.wait(timeout=5.0)
            accepted = 0
            for _ in range(50):
                try:
                    service.submit(np.zeros(2))
                    accepted += 1
                except QueueFullError:
                    pass
            assert accepted == 4
            assert service.stats.queue_depth <= 4
        finally:
            model.release.set()
            service.close()


class TestDeadlines:
    def test_expired_in_queue_returns_timeout_without_batch_slot(self):
        model = _BlockingModel()
        service = InferenceService(
            model,
            max_batch_size=1,
            max_wait_ms=0.0,
            cache_capacity=0,
        ).start()
        try:
            blocker = service.submit(np.zeros(2))
            assert model.entered.wait(timeout=5.0)
            doomed = service.submit(np.ones(2), timeout_s=0.01)
            time.sleep(0.05)  # deadline lapses while the worker is busy
        finally:
            model.release.set()
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=5)
        assert blocker.result(timeout=5) == 0.0
        service.close()
        assert service.stats.counter("expired_before_batch") == 1
        # Only the blocker's batch ran: the expired request never
        # occupied a slot.
        assert service.stats.counter("completed") == 1

    def test_expired_after_batch_returns_timeout(self):
        def slow(matrix):
            time.sleep(0.05)
            return matrix.sum(axis=1)

        with InferenceService(slow, max_wait_ms=0.0, cache_capacity=0) as service:
            future = service.submit(np.zeros(2), timeout_s=0.01)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=5)
        assert service.stats.counter("expired_after_batch") == 1

    def test_unexpired_deadline_completes(self):
        with InferenceService(_sum_model) as service:
            assert service.score(np.ones(3), timeout_s=30.0) == 3.0


class TestCacheIntegration:
    def test_duplicate_requests_hit_cache(self):
        calls = []

        def counting(matrix):
            calls.append(matrix.shape[0])
            return matrix.sum(axis=1)

        row = np.random.default_rng(2).random(4)
        with InferenceService(counting, max_wait_ms=0.0) as service:
            first = service.score(row)
            second = service.score(row)
        assert first == second
        assert sum(calls) == 1  # the duplicate never reached the model
        assert service.stats.counter("cache_hits") == 1

    def test_cache_disabled_for_noncacheable_model(self):
        class Stateful:
            cacheable = False

            def __call__(self, matrix):
                return matrix.sum(axis=1)

        service = InferenceService(Stateful(), cache_capacity=128)
        assert service.cache is None
        assert service.stats.counter("cache_disabled") == 1

    def test_cache_capacity_zero_disables(self):
        service = InferenceService(_sum_model, cache_capacity=0)
        assert service.cache is None


def _accounting(service):
    """Everything chunk admission must keep equal to row-by-row serving."""
    snapshot = service.stats.snapshot()
    counters = snapshot["counters"]
    return {
        "counters": {
            name: counters.get(name, 0)
            for name in ("submitted", "completed", "cache_hits", "cache_misses")
        },
        "latency_count": snapshot["latency_ms"]["count"],
        "energy_count": snapshot["energy_nj"]["count"],
        "energy_histogram_sum": snapshot["energy_nj"]["total"],
        "energy_counter": service.stats.counter("energy_nanojoules"),
    }


class TestChunkAdmission:
    """``score_many`` admits and completes a chunk as one operation."""

    @staticmethod
    def _energy_model():
        from repro.serve import NApproxCellModel

        return NApproxCellModel(window=8)

    def test_chunk_equals_row_by_row(self):
        from repro.serve import random_patch_rows

        rows = random_patch_rows(10, rng=11)
        with InferenceService(self._energy_model(), max_batch_size=4) as chunked:
            first = chunked.score_many(rows)
            second = chunked.score_many(rows)  # every row hits the cache
            chunk_stats = _accounting(chunked)
        with InferenceService(self._energy_model(), max_batch_size=4) as single:
            per_row = []
            for _ in range(2):
                futures = [single.submit(row) for row in rows]
                per_row.append(np.asarray([f.result(timeout=30) for f in futures]))
            row_stats = _accounting(single)
        assert np.array_equal(first, per_row[0])
        assert np.array_equal(second, per_row[1])
        assert chunk_stats == row_stats
        assert chunk_stats["counters"] == {
            "submitted": 20, "completed": 20, "cache_hits": 10, "cache_misses": 10,
        }
        assert chunk_stats["energy_count"] == 10
        assert chunk_stats["energy_counter"] > 0.0

    def test_one_trace_per_row(self):
        from repro.obs import trace_log
        from repro.obs.traces import assemble_traces

        trace_log().clear()
        rows = np.random.default_rng(12).random((5, 3))
        with InferenceService(_sum_model, max_batch_size=2) as service:
            service.score_many(rows)
            service.score_many(rows)
        traces = [
            trace
            for trace in assemble_traces()
            if any(record.name == "serve.submit" for record in trace.spans)
        ]
        assert len(traces) == 10
        kinds = [{event.kind for event in trace.events} for trace in traces]
        assert all({"cache_miss", "enqueue", "score"} <= k for k in kinds[:5])
        assert all(k == {"cache_hit"} for k in kinds[5:])
        submit_spans = [
            record for record in trace_log().entries()
            if record.name == "serve.submit"
        ]
        assert len(submit_spans) == 2  # one admission span per chunk
        assert len(submit_spans[0].attrs["trace_ids"]) == 5
        trace_log().clear()

    def test_chunk_beyond_free_space_enqueues_nothing(self):
        model = _BlockingModel()
        service = InferenceService(
            model, max_batch_size=1, max_wait_ms=0.0, queue_capacity=4,
            cache_capacity=0,
        ).start()
        try:
            service.submit(np.zeros(2))
            assert model.entered.wait(timeout=5.0)
            queued = [service.submit(np.zeros(2)) for _ in range(2)]
            with pytest.raises(QueueFullError, match="no room for 3"):
                service.score_many(np.ones((3, 2)))
            assert service.stats.queue_depth == 2
            assert service.stats.counter("rejected_queue_full") == 3
        finally:
            model.release.set()
            service.close()
        assert [future.result(timeout=5) for future in queued] == [0.0, 0.0]

    def test_chunk_larger_than_queue_is_sliced(self):
        from repro.obs import trace_log

        trace_log().clear()
        rows = np.random.default_rng(16).random((11, 3))
        with InferenceService(
            _sum_model, max_batch_size=2, queue_capacity=4, cache_capacity=0
        ) as service:
            served = service.score_many(rows)
            adapted = ServiceBackedScorer(service).decision_function(rows)
        assert np.array_equal(served, rows.sum(axis=1))
        assert np.array_equal(adapted, served)
        assert service.stats.counter("completed") == 22
        assert service.stats.counter("rejected_queue_full") == 0
        enqueues = [
            event for event in trace_log().entries()
            if event.kind == "enqueue"
        ]
        assert [len(event.attrs["trace_ids"]) for event in enqueues] == [
            4, 4, 3, 4, 4, 3,
        ]
        trace_log().clear()

    def test_concurrent_chunks_are_all_or_nothing(self):
        """8 producers race 3-row chunks into 8 free slots: exactly two
        chunks fit, and every queued chunk is whole."""
        model = _BlockingModel()
        service = InferenceService(
            model, max_batch_size=1, max_wait_ms=0.0, queue_capacity=8,
            cache_capacity=0,
        ).start()
        chunks = [np.full((3, 2), float(c)) for c in range(8)]
        outcomes = {}
        barrier = threading.Barrier(8)

        def produce(c):
            barrier.wait()
            try:
                outcomes[c] = service.score_many(chunks[c])
            except QueueFullError:
                outcomes[c] = "rejected"

        threads = [threading.Thread(target=produce, args=(c,)) for c in range(8)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the producers finely
        try:
            service.submit(np.zeros(2))
            assert model.entered.wait(timeout=5.0)
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10.0
            while (
                service.stats.queue_depth
                + service.stats.counter("rejected_queue_full")
                < 24
            ):
                assert time.monotonic() < deadline, "producers never settled"
                time.sleep(0.01)
            queued = [
                row[0]
                for block in service._lanes[0].batcher._blocks
                for row in block.matrix
            ]
            assert len(queued) == 6
            for c in set(queued):
                assert queued.count(c) == 3  # a chunk is queued whole
            assert service.stats.counter("rejected_queue_full") == 18
        finally:
            sys.setswitchinterval(switch_interval)
            model.release.set()
            for thread in threads:
                thread.join(timeout=10)
            service.close()
        assert not any(thread.is_alive() for thread in threads)
        admitted = sorted(
            c for c, out in outcomes.items() if not isinstance(out, str)
        )
        assert admitted == sorted(int(c) for c in set(queued))
        for c in admitted:
            assert np.array_equal(outcomes[c], chunks[c].sum(axis=1))

    def test_chunk_deadline_expires_row_by_row(self):
        from repro.obs import trace_log

        trace_log().clear()
        model = _BlockingModel()
        service = InferenceService(
            model, max_batch_size=1, max_wait_ms=0.0, cache_capacity=0
        ).start()
        errors = []

        def score_chunk():
            try:
                service.score_many(np.ones((3, 2)), timeout_s=0.01)
            except DeadlineExceededError as exc:
                errors.append(exc)

        caller = threading.Thread(target=score_chunk)
        try:
            blocker = service.submit(np.zeros(2))
            assert model.entered.wait(timeout=5.0)
            caller.start()
            settle_by = time.monotonic() + 10.0
            while service.stats.queue_depth < 3:
                assert time.monotonic() < settle_by, "chunk never queued"
                time.sleep(0.005)
            time.sleep(0.05)  # the deadline lapses while the worker is busy
        finally:
            model.release.set()
            caller.join(timeout=10)
        assert len(errors) == 1
        assert blocker.result(timeout=5) == 0.0
        service.close()
        assert service.stats.counter("expired_before_batch") == 3
        assert service.stats.counter("completed") == 1
        expired = [
            event for event in trace_log().entries()
            if event.kind == "deadline_expired"
        ]
        assert len({event.trace_id for event in expired}) == 3
        assert all(event.attrs["phase"] == "queued" for event in expired)


class TestReleasedCallers:
    """Batches wait for ``score_many`` callers a batch has just released."""

    def test_slow_closed_loop_caller_still_shares_each_batch(self, monkeypatch):
        """One of two closed-loop callers picks up its results 100 ms
        late, far past the 10 ms wait; every batch still holds both."""
        from repro.serve.batcher import ScoreCall

        picked_up = ScoreCall.picked_up

        def slow_pickup(call):
            if threading.current_thread().name == "slow-caller":
                time.sleep(0.1)
            picked_up(call)

        monkeypatch.setattr(ScoreCall, "picked_up", slow_pickup)

        def model(matrix):
            time.sleep(0.01)
            return matrix.sum(axis=1)

        rows = np.random.default_rng(21).random((2, 4, 4, 3))
        outputs = {}
        barrier = threading.Barrier(2)
        with InferenceService(
            model, max_batch_size=8, max_wait_ms=10.0, cache_capacity=0
        ) as service:

            def client(c):
                barrier.wait()
                outputs[c] = [service.score_many(chunk) for chunk in rows[c]]

            threads = [
                threading.Thread(target=client, args=(c,), name=name)
                for c, name in enumerate(("fast-caller", "slow-caller"))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            histogram = service.stats.snapshot()["batch_size_histogram"]
            assert service._lanes[0].batcher._released == 0
        assert histogram == {"8": 4}
        for c in range(2):
            assert np.array_equal(np.stack(outputs[c]), rows[c].sum(axis=2))

    def test_every_release_is_picked_up(self):
        """Hits, slices, expiries and rejections leave no caller counted
        as released."""
        model = _BlockingModel()
        rows = np.random.default_rng(22).random((6, 2))
        service = InferenceService(
            model, max_batch_size=2, max_wait_ms=0.0, queue_capacity=4
        ).start()
        try:
            model.release.set()
            service.score_many(rows)  # sliced: 4 + 2 rows
            service.score_many(rows[:3])  # all cache hits
            model.release.clear()
            model.entered.clear()
            blocker = service.submit(np.full(2, 7.0))
            assert model.entered.wait(timeout=5.0)
            with pytest.raises(DeadlineExceededError):
                threading.Timer(0.1, model.release.set).start()
                service.score_many(np.full((2, 2), 3.0), timeout_s=0.01)
            assert blocker.result(timeout=5) == 14.0
            assert service._lanes[0].batcher._released == 0
        finally:
            model.release.set()
            service.close()

    def test_degraded_calls_are_never_released(self, monkeypatch):
        """A slice answered with the degraded fallback value is not
        counted as released, so no batch holds for its caller."""
        from repro.serve.batcher import ScoreCall

        releasers = []
        picked_up = ScoreCall.picked_up

        def record(call):
            releasers.append(call.releaser)
            picked_up(call)

        monkeypatch.setattr(ScoreCall, "picked_up", record)

        def down(matrix):
            raise TransientScorerError("down")

        with InferenceService(
            down, max_batch_size=4, cache_capacity=0, degraded_value=-1.0
        ) as service:
            scores = service.score_many(np.ones((6, 2)))
            assert service._lanes[0].batcher._last_pickup == float("-inf")
        assert scores.tolist() == [-1.0] * 6
        assert releasers == [None]

class TestLoadGenerator:
    def test_hundred_concurrent_requests_all_accounted(self):
        """The CI smoke contract: complete or cleanly reject, never hang."""
        rows = np.random.default_rng(3).random((100, 5))
        with InferenceService(
            _sum_model, max_batch_size=16, queue_capacity=32
        ) as service:
            report = closed_loop(service, rows, concurrency=10, chunk_size=2)
        assert report.accounted
        assert report.completed == 100
        assert report.requests == 100

    def test_report_accounting_detects_loss(self):
        report = LoadReport(requests=5, completed=4)
        assert not report.accounted
        report = LoadReport(requests=5, completed=3, rejected_queue_full=2)
        assert report.accounted
