"""Tests for the micro-batching scheduler."""

import queue
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve.batcher import BatchPolicy, MicroBatcher, ScoreCall, ServeRequest


def _request(deadline=None):
    return ServeRequest(features=np.zeros(4), deadline=deadline)


def _filled_queue(requests):
    source = queue.Queue()
    for request in requests:
        source.put(request)
    return source


class TestBatchPolicy:
    def test_defaults(self):
        policy = BatchPolicy()
        assert policy.max_batch_size == 32
        assert policy.max_wait_ms == 2.0

    def test_rejects_zero_batch(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_batch_size=0)

    def test_rejects_negative_wait(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_wait_ms=-1.0)


class TestMicroBatcher:
    def test_empty_queue_returns_empty_batch(self):
        batcher = MicroBatcher(queue.Queue(), BatchPolicy())
        assert batcher.collect(block_s=0.01) == []

    def test_drains_up_to_max_batch_size(self):
        requests = [_request() for _ in range(7)]
        batcher = MicroBatcher(
            _filled_queue(requests), BatchPolicy(max_batch_size=4, max_wait_ms=0)
        )
        first = batcher.collect(block_s=0.01)
        second = batcher.collect(block_s=0.01)
        assert [id(r) for r in first] == [id(r) for r in requests[:4]]
        assert [id(r) for r in second] == [id(r) for r in requests[4:]]

    def test_zero_wait_takes_only_available(self):
        requests = [_request(), _request()]
        batcher = MicroBatcher(
            _filled_queue(requests),
            BatchPolicy(max_batch_size=32, max_wait_ms=0),
        )
        assert len(batcher.collect(block_s=0.01)) == 2

    def test_expired_requests_never_occupy_a_slot(self):
        clock = lambda: 100.0  # noqa: E731 - fixed time source
        live = _request(deadline=200.0)
        dead = _request(deadline=50.0)
        expired = []
        batcher = MicroBatcher(
            _filled_queue([dead, live]),
            BatchPolicy(max_batch_size=2, max_wait_ms=0),
            on_expired=expired.append,
            clock=clock,
        )
        batch = batcher.collect(block_s=0.01)
        assert batch == [live]
        assert expired == [dead]

    def test_all_expired_yields_empty_batch(self):
        clock = lambda: 100.0  # noqa: E731
        requests = [_request(deadline=1.0) for _ in range(3)]
        expired = []
        batcher = MicroBatcher(
            _filled_queue(requests),
            BatchPolicy(max_batch_size=8, max_wait_ms=0),
            on_expired=expired.append,
            clock=clock,
        )
        assert batcher.collect(block_s=0.01) == []
        assert len(expired) == 3

    def test_expired_slot_freed_for_later_request(self):
        """A lapsed deadline lets another queued request into the batch."""
        clock = lambda: 100.0  # noqa: E731
        dead = _request(deadline=1.0)
        tail = [_request() for _ in range(2)]
        batcher = MicroBatcher(
            _filled_queue([dead] + tail),
            BatchPolicy(max_batch_size=2, max_wait_ms=0),
            on_expired=lambda r: None,
            clock=clock,
        )
        batch = batcher.collect(block_s=0.01)
        assert [id(r) for r in batch] == [id(r) for r in tail]


class TestDeadlineBoundary:
    def test_deadline_exactly_now_is_expired(self):
        """The boundary is inclusive: a request checked exactly at its
        deadline must not be scored (regression for the strict-`>`
        off-by-one that let boundary requests through)."""
        request = _request(deadline=100.0)
        assert request.expired(100.0)
        assert request.expired(100.0001)
        assert not request.expired(99.9999)

    def test_no_deadline_never_expires(self):
        assert not _request(deadline=None).expired(1e12)

    def test_batcher_expires_request_at_exact_deadline(self):
        clock = lambda: 100.0  # noqa: E731 - fixed time source
        boundary = _request(deadline=100.0)
        live = _request(deadline=100.5)
        expired = []
        batcher = MicroBatcher(
            _filled_queue([boundary, live]),
            BatchPolicy(max_batch_size=2, max_wait_ms=0),
            on_expired=expired.append,
            clock=clock,
        )
        assert batcher.collect(block_s=0.01) == [live]
        assert expired == [boundary]

    def test_max_wait_zero_with_boundary_deadlines(self):
        """max_wait_ms=0 drains whatever is immediately available and
        still applies the inclusive deadline check to each request."""
        clock = lambda: 50.0  # noqa: E731
        requests = [
            _request(deadline=50.0),   # exactly now -> expired
            _request(deadline=49.0),   # past -> expired
            _request(deadline=51.0),   # live
            _request(),                # no deadline -> live
        ]
        expired = []
        batcher = MicroBatcher(
            _filled_queue(requests),
            BatchPolicy(max_batch_size=8, max_wait_ms=0),
            on_expired=expired.append,
            clock=clock,
        )
        batch = batcher.collect(block_s=0.01)
        assert [id(r) for r in batch] == [id(r) for r in requests[2:]]
        assert [id(r) for r in expired] == [id(r) for r in requests[:2]]


def _released(batcher, n_requests=1):
    """A ``score_many`` call of ``n_requests`` that ``batcher`` scored."""
    call = ScoreCall()
    call.pending = n_requests
    done = [_request() for _ in range(n_requests)]
    for request in done:
        request.call = call
    batcher.release(done)
    return call


class TestReleasedCallers:
    """A batch stays open for callers a scored batch has just released."""

    def test_release_counts_a_call_once_its_last_request_is_scored(self):
        batcher = MicroBatcher(queue.Queue(), BatchPolicy())
        call = ScoreCall()
        call.pending = 2
        first, second = _request(), _request()
        first.call = second.call = call
        batcher.release([first, _request()])
        assert call.releaser is None
        batcher.release([second])
        assert call.releaser is batcher
        assert batcher._released == 1
        call.picked_up()
        assert batcher._released == 0

    def test_pickup_of_an_unreleased_call_is_a_no_op(self):
        batcher = MicroBatcher(queue.Queue(), BatchPolicy())
        call = ScoreCall()
        call.pending = 1
        call.picked_up()
        assert batcher._released == 0

    def test_batch_waits_for_a_slow_released_caller(self):
        """A caller that wakes long after max_wait_ms still joins the batch."""
        source = queue.Queue()
        batcher = MicroBatcher(source, BatchPolicy(max_batch_size=2, max_wait_ms=2.0))
        call = _released(batcher)
        first, late = _request(), _request()
        source.put(first)

        def caller():
            time.sleep(0.05)
            call.picked_up()
            source.put(late)

        thread = threading.Thread(target=caller)
        thread.start()
        batch = batcher.collect(block_s=0.01)
        thread.join()
        assert [id(r) for r in batch] == [id(first), id(late)]

    def test_batch_closes_max_wait_after_the_last_pickup(self):
        source = queue.Queue()
        batcher = MicroBatcher(source, BatchPolicy(max_batch_size=4, max_wait_ms=20.0))
        call = _released(batcher)
        source.put(_request())
        pickup = threading.Timer(0.05, call.picked_up)
        started = time.monotonic()
        pickup.start()
        batch = batcher.collect(block_s=0.01)
        elapsed = time.monotonic() - started
        pickup.join()
        assert len(batch) == 1
        assert elapsed >= 0.05 + 0.02 - 1e-3

    def test_without_released_callers_the_wait_is_max_wait(self):
        source = queue.Queue()
        batcher = MicroBatcher(source, BatchPolicy(max_batch_size=4, max_wait_ms=2.0))
        call = ScoreCall()
        call.pending = 2
        half = _request()
        half.call = call
        batcher.release([half])  # one of two requests scored: not released
        source.put(_request())
        started = time.monotonic()
        assert len(batcher.collect(block_s=0.01)) == 1
        assert time.monotonic() - started < 0.5

    def test_zero_wait_never_holds(self):
        source = queue.Queue()
        batcher = MicroBatcher(source, BatchPolicy(max_batch_size=4, max_wait_ms=0))
        _released(batcher)  # never picked up
        source.put(_request())
        assert len(batcher.collect(block_s=0.01)) == 1

    def test_frozen_clock_cannot_hold_forever(self):
        """With a test clock that never advances, the batch still closes."""
        source = queue.Queue()
        batcher = MicroBatcher(
            source,
            BatchPolicy(max_batch_size=4, max_wait_ms=1.0),
            clock=lambda: 100.0,
        )
        _released(batcher)  # never picked up
        source.put(_request())
        assert len(batcher.collect(block_s=0.01)) == 1
