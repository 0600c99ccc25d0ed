"""Tests for the micro-batching scheduler."""

import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve.batcher import BatchPolicy, Block, MicroBatcher, ScoreCall


def _block(rows=1, deadline=None, call=None):
    """A queued block of ``rows`` rows, all of one fresh call."""
    call = call or ScoreCall(rows)
    call.pending += rows
    return Block(
        call, range(rows), np.arange(rows * 4.0).reshape(rows, 4), None,
        [f"t{i}" for i in range(rows)], deadline, 0.0,
    )


def _batcher(blocks, policy=BatchPolicy(), **options):
    batcher = MicroBatcher(1024, policy, **options)
    for block in blocks:
        batcher.put(block)
    return batcher


def _calls(batch):
    return [block.call for block in batch]


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


class TestBlockQueue:
    def test_take_splits_the_head_block_and_counts_rows(self):
        block = _block(rows=10)
        source = _batcher([block])
        head = source.take(4)
        assert list(head.rows) == [0, 1, 2, 3]
        assert np.array_equal(head.matrix, block.matrix[:4])
        assert head.trace_ids == ["t0", "t1", "t2", "t3"]
        assert source.rows == 6
        assert list(source.take(100).rows) == list(range(4, 10))
        assert source.rows == 0
        assert source.take(4) is None

    def test_take_waits_for_a_block(self):
        source = MicroBatcher(8, BatchPolicy())
        threading.Timer(0.02, source.put, args=(_block(),)).start()
        assert source.take(4, timeout=5.0) is not None

    def test_select_picks_rows_by_position(self):
        block = _block(rows=5)
        block.keys = [bytes([i]) for i in range(5)]
        part = block.select([4, 1])
        assert part.rows == [4, 1]
        assert part.keys == [b"\x04", b"\x01"]
        assert part.trace_ids == ["t4", "t1"]
        assert np.array_equal(part.matrix, block.matrix[[4, 1]])


class TestMicroBatcher:
    def test_empty_queue_returns_empty_batch(self):
        batcher = MicroBatcher(8, BatchPolicy())
        assert batcher.collect(block_s=0.01) == []

    def test_drains_up_to_max_batch_size(self):
        blocks = [_block() for _ in range(7)]
        batcher = _batcher(blocks, BatchPolicy(max_batch_size=4, max_wait_ms=0))
        first = batcher.collect(block_s=0.01)
        second = batcher.collect(block_s=0.01)
        assert _calls(first) == _calls(blocks[:4])
        assert _calls(second) == _calls(blocks[4:])

    def test_splits_a_block_and_carries_the_rest(self):
        """A 10-row block at batch size 4 is scored as 4 + 4 + 2 rows,
        and the 2-row remainder shares its batch with the next block."""
        big, small = _block(rows=10), _block(rows=2)
        batcher = _batcher([big, small], BatchPolicy(max_batch_size=4, max_wait_ms=0))
        batches = [batcher.collect(block_s=0.01) for _ in range(3)]
        assert [[list(block.rows) for block in batch] for batch in batches] == [
            [[0, 1, 2, 3]], [[4, 5, 6, 7]], [[8, 9], [0, 1]]
        ]
        assert _calls(batches[2]) == [big.call, small.call]
        assert batcher.rows == 0

    def test_zero_wait_takes_only_available(self):
        blocks = [_block(), _block()]
        batcher = _batcher(
            blocks,
            BatchPolicy(max_batch_size=32, max_wait_ms=0),
        )
        assert len(batcher.collect(block_s=0.01)) == 2

    def test_expired_blocks_never_occupy_a_slot(self):
        clock = lambda: 100.0  # noqa: E731 - fixed time source
        live = _block(deadline=200.0)
        dead = _block(deadline=50.0)
        expired = []
        batcher = _batcher(
            [dead, live],
            BatchPolicy(max_batch_size=2, max_wait_ms=0),
            on_expired=expired.append,
            clock=clock,
        )
        batch = batcher.collect(block_s=0.01)
        assert batch == [live]
        assert expired == [dead]

    def test_all_expired_yields_empty_batch(self):
        clock = lambda: 100.0  # noqa: E731
        blocks = [_block(deadline=1.0) for _ in range(3)]
        expired = []
        batcher = _batcher(
            blocks,
            BatchPolicy(max_batch_size=8, max_wait_ms=0),
            on_expired=expired.append,
            clock=clock,
        )
        assert batcher.collect(block_s=0.01) == []
        assert len(expired) == 3

    def test_expired_slot_freed_for_later_block(self):
        """A lapsed deadline lets another queued block into the batch."""
        clock = lambda: 100.0  # noqa: E731
        dead = _block(deadline=1.0)
        tail = [_block() for _ in range(2)]
        batcher = _batcher(
            [dead] + tail,
            BatchPolicy(max_batch_size=2, max_wait_ms=0),
            on_expired=lambda block: None,
            clock=clock,
        )
        batch = batcher.collect(block_s=0.01)
        assert _calls(batch) == _calls(tail)


class TestDeadlineBoundary:
    def test_deadline_exactly_now_is_expired(self):
        """The boundary is inclusive: a block checked exactly at its
        deadline must not be scored (regression for the strict-`>`
        off-by-one that let boundary requests through)."""
        block = _block(deadline=100.0)
        assert block.expired(100.0)
        assert block.expired(100.0001)
        assert not block.expired(99.9999)

    def test_no_deadline_never_expires(self):
        assert not _block(deadline=None).expired(1e12)

    def test_batcher_expires_block_at_exact_deadline(self):
        clock = lambda: 100.0  # noqa: E731 - fixed time source
        boundary = _block(deadline=100.0)
        live = _block(deadline=100.5)
        expired = []
        batcher = _batcher(
            [boundary, live],
            BatchPolicy(max_batch_size=2, max_wait_ms=0),
            on_expired=expired.append,
            clock=clock,
        )
        assert batcher.collect(block_s=0.01) == [live]
        assert expired == [boundary]

    def test_max_wait_zero_with_boundary_deadlines(self):
        """max_wait_ms=0 drains whatever is immediately available and
        still applies the inclusive deadline check to each block."""
        clock = lambda: 50.0  # noqa: E731
        blocks = [
            _block(deadline=50.0),   # exactly now -> expired
            _block(deadline=49.0),   # past -> expired
            _block(deadline=51.0),   # live
            _block(),                # no deadline -> live
        ]
        expired = []
        batcher = _batcher(
            blocks,
            BatchPolicy(max_batch_size=8, max_wait_ms=0),
            on_expired=expired.append,
            clock=clock,
        )
        batch = batcher.collect(block_s=0.01)
        assert _calls(batch) == _calls(blocks[2:])
        assert _calls(expired) == _calls(blocks[:2])


class TestScoreCall:
    def test_resolves_once_every_row_is_settled(self):
        call = ScoreCall(4)
        call.pending = 4
        call.settle([2, 3], [2.0, 3.0])
        assert not call.future.done()
        call.settle(range(2), [0.0, 1.0])
        assert call.future.result(timeout=0) == [0.0, 1.0, 2.0, 3.0]

    def test_an_error_fails_the_call_after_every_row_settles(self):
        call = ScoreCall(3)
        call.pending = 3
        call.settle([0], error=ValueError("boom"))
        assert not call.future.done()
        call.settle([1, 2], [1.0, 2.0])
        with pytest.raises(ValueError, match="boom"):
            call.future.result(timeout=0)

    def test_a_single_row_call_resolves_to_its_value(self):
        call = ScoreCall(1, single=True)
        call.pending = 1
        call.settle([0], [7.0], releaser=MicroBatcher(1, BatchPolicy()))
        assert call.future.result(timeout=0) == 7.0
        assert call.releaser is None  # a submit has no caller to hold for


def _released(batcher, rows=1):
    """A ``score_many`` call of ``rows`` rows that ``batcher`` scored."""
    call = ScoreCall(rows)
    call.pending = rows
    call.settle(range(rows), [0.0] * rows, releaser=batcher)
    return call


class TestReleasedCallers:
    """A batch stays open for callers a scored batch has just released."""

    def test_release_counts_a_call_once_its_last_row_is_scored(self):
        batcher = MicroBatcher(8, BatchPolicy())
        call = ScoreCall(2)
        call.pending = 2
        call.settle([0], [0.0], releaser=batcher)
        assert call.releaser is None
        call.settle([1], [1.0], releaser=batcher)
        assert call.releaser is batcher
        assert batcher._released == 1
        call.picked_up()
        assert batcher._released == 0

    def test_a_failed_call_is_never_released(self):
        batcher = MicroBatcher(8, BatchPolicy())
        call = ScoreCall(2)
        call.pending = 2
        call.settle([0], error=RuntimeError("boom"))
        call.settle([1], [1.0], releaser=batcher)
        assert call.releaser is None
        assert batcher._released == 0

    def test_pickup_of_an_unreleased_call_is_a_no_op(self):
        batcher = MicroBatcher(8, BatchPolicy())
        call = ScoreCall(1)
        call.pending = 1
        call.picked_up()
        assert batcher._released == 0

    def test_batch_waits_for_a_slow_released_caller(self):
        """A caller that wakes long after max_wait_ms still joins the batch."""
        batcher = MicroBatcher(8, BatchPolicy(max_batch_size=2, max_wait_ms=2.0))
        call = _released(batcher)
        first, late = _block(), _block()
        batcher.put(first)

        def caller():
            time.sleep(0.05)
            call.picked_up()
            batcher.put(late)

        thread = threading.Thread(target=caller)
        thread.start()
        batch = batcher.collect(block_s=0.01)
        thread.join()
        assert _calls(batch) == [first.call, late.call]

    def test_batch_closes_max_wait_after_the_last_pickup(self):
        batcher = MicroBatcher(8, BatchPolicy(max_batch_size=4, max_wait_ms=20.0))
        call = _released(batcher)
        batcher.put(_block())
        pickup = threading.Timer(0.05, call.picked_up)
        started = time.monotonic()
        pickup.start()
        batch = batcher.collect(block_s=0.01)
        elapsed = time.monotonic() - started
        pickup.join()
        assert len(batch) == 1
        assert elapsed >= 0.05 + 0.02 - 1e-3

    def test_without_released_callers_the_wait_is_max_wait(self):
        batcher = MicroBatcher(8, BatchPolicy(max_batch_size=4, max_wait_ms=2.0))
        call = ScoreCall(2)
        call.pending = 2
        call.settle([0], [0.0], releaser=batcher)  # one of two rows: not released
        batcher.put(_block())
        started = time.monotonic()
        assert len(batcher.collect(block_s=0.01)) == 1
        assert time.monotonic() - started < 0.5

    def test_zero_wait_never_holds(self):
        batcher = MicroBatcher(8, BatchPolicy(max_batch_size=4, max_wait_ms=0))
        _released(batcher)  # never picked up
        batcher.put(_block())
        assert len(batcher.collect(block_s=0.01)) == 1

    def test_frozen_clock_cannot_hold_forever(self):
        """With a test clock that never advances, the batch still closes."""
        batcher = MicroBatcher(
            8,
            BatchPolicy(max_batch_size=4, max_wait_ms=1.0),
            clock=lambda: 100.0,
        )
        _released(batcher)  # never picked up
        batcher.put(_block())
        assert len(batcher.collect(block_s=0.01)) == 1
