"""Block admission, in both serving modes.

A ``score_many`` slice is queued as one block of its cache misses; the
batcher packs blocks into batches of ``max_batch_size`` rows, splitting
a block across batches where needed, and the caller wakes once, when
the last of its rows is resolved. Every test here runs in-process and
through one forked shard worker.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest

from repro.detection.pipeline import TrueNorthBinaryScorer
from repro.eedn import EednNetwork, ThresholdActivation, TrinaryDense
from repro.errors import DeadlineExceededError, QueueFullError, TransientScorerError
from repro.serve import InferenceService, ShardedInferenceService
from repro.serve.cache import MISS, content_keys

MODES = ("in-process", "sharded")


def _service(mode, model, **options):
    if mode == "sharded":
        return ShardedInferenceService(model, workers=1, **options)
    return InferenceService(model, **options)


def _scorer():
    network = EednNetwork(
        [
            TrinaryDense(8, 16, rng=0),
            ThresholdActivation(0.0),
            TrinaryDense(16, 2, rng=1),
        ]
    )
    return TrueNorthBinaryScorer(network, ticks=8, rng=7, coding="content")


def _affine(matrix):
    return matrix[:, 0] * 10.0 + 1.0


def _poisoned(matrix):
    """Scores rows, but fails any batch holding a negative first feature."""
    if (matrix[:, 0] < 0).any():
        raise ValueError("poison row in batch")
    return _affine(matrix)


def _never_started(service):
    """Admit into ``service`` with no dispatcher draining its queues."""
    service._started = True
    return service


def _discard(service):
    service._started = False
    service._closed = True


@pytest.mark.parametrize("mode", MODES)
class TestBlockAdmission:
    def test_frame_of_slices_matches_decision_function(self, mode):
        """887 rows in 128-row slices at batch size 64: scores equal the
        direct call in row order, in ceil(rows / 64) batches a slice."""
        scorer = _scorer()
        rows = np.random.default_rng(30).random((887, 8))
        direct = scorer.decision_function(rows)
        with _service(mode, scorer, max_batch_size=64) as service:
            served = np.concatenate(
                [service.score_many(rows[s : s + 128]) for s in range(0, 887, 128)]
            )
            histogram = service.stats.snapshot()["batch_size_histogram"]
        np.testing.assert_array_equal(served, direct)
        slices = [len(rows[s : s + 128]) for s in range(0, 887, 128)]
        assert sum(histogram.values()) == sum(math.ceil(n / 64) for n in slices)
        assert histogram == {"64": 13, "55": 1}

    def test_a_failed_batch_fails_the_call_and_the_rest_is_cached(self, mode):
        """A 10-row slice scored as 4 + 4 + 2 rows, whose middle batch
        raises: ``score_many`` raises, the other batches' results are
        cached and the failed rows are not."""
        rows = np.random.default_rng(31).random((10, 3))
        rows[5, 0] = -1.0
        expected = ValueError if mode == "in-process" else TransientScorerError
        with _service(mode, _poisoned, max_batch_size=4) as service:
            with pytest.raises(expected, match="poison"):
                service.score_many(rows)
            cached = service.cache.lookup_many(content_keys(service.model_id, rows))
            assert service.stats.counter("failed") == 4
            assert service.stats.counter("completed") == 6
        for index, value in enumerate(cached):
            if 4 <= index < 8:
                assert value is MISS
            else:
                assert value == _affine(rows[index : index + 1])[0]

    def test_an_expired_block_raises_and_counts_its_rows(self, mode):
        service = _never_started(
            _service(mode, _affine, max_batch_size=4, cache_capacity=0)
        )
        errors = []

        def score_slice():
            try:
                service.score_many(np.ones((6, 3)), timeout_s=0.01)
            except DeadlineExceededError as exc:
                errors.append(exc)

        caller = threading.Thread(target=score_slice)
        caller.start()
        settle_by = time.monotonic() + 10.0
        while service.stats.queue_depth < 6:
            assert time.monotonic() < settle_by, "block never queued"
            time.sleep(0.005)
        time.sleep(0.05)  # the deadline lapses while nothing dispatches
        service._started = False
        with service:
            caller.join(timeout=10)
        assert len(errors) == 1
        assert service.stats.counter("expired_before_batch") == 6
        assert service.stats.counter("windows_scored") == 0

    def test_a_block_without_room_is_rejected_whole(self, mode):
        service = _never_started(
            _service(mode, _affine, queue_capacity=8, cache_capacity=0)
        )
        try:
            service._admit(np.zeros((5, 3)), None, ndim=2)
            # score_many's one admission; called directly so a wrongly
            # admitted block cannot leave the test waiting on it.
            with pytest.raises(QueueFullError, match="no room for 4 more rows"):
                service._admit(np.ones((4, 3)), None, ndim=2)
            assert service.stats.queue_depth == 5
            assert service.stats.counter("rejected_queue_full") == 4
            assert service.stats.counter("submitted") == 9
        finally:
            _discard(service)

    def test_per_row_energy_matches_one_row_at_a_time(self, mode):
        """Each row is charged its own lane's energy, in row order, bit
        for bit, however its block was split into batches."""
        rows = np.random.default_rng(32).random((10, 8))
        snapshots = []
        for one_at_a_time in (False, True):
            with _service(mode, _scorer(), max_batch_size=4) as service:
                if one_at_a_time:
                    for row in rows:
                        service.score(row)
                else:
                    service.score_many(rows)
                snapshots.append(
                    (
                        list(service.stats._energy._reservoir),
                        service.stats.registry.get(
                            "serve_energy_nanojoules_total"
                        ).value,
                    )
                )
        (blocks, block_total), (one_by_one, row_total) = snapshots
        assert len(blocks) == len(one_by_one) == len(rows)
        assert len(set(blocks)) > 1  # rows differ, so order is checked
        assert blocks == one_by_one
        assert block_total == row_total > 0

    def test_concurrent_calls_split_across_batches_stay_whole(self, mode):
        """Eight callers race slices of 1-150 rows through 16-row
        batches with the interpreter switching threads constantly: every
        call gets its own rows' scores in order, and nothing is left
        queued, pending or counted twice."""
        rng = np.random.default_rng(33)
        work = [
            [rng.random((int(n), 3)) for n in rng.integers(1, 151, size=6)]
            for _ in range(8)
        ]
        results = {}
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _service(
                mode, _affine, max_batch_size=16, max_wait_ms=0.5,
                queue_capacity=2048, cache_capacity=0,
            ) as service:

                def caller(c):
                    results[c] = [service.score_many(rows) for rows in work[c]]

                threads = [
                    threading.Thread(target=caller, args=(c,)) for c in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert service.stats.queue_depth == 0
                assert all(lane.batcher._released == 0 for lane in service._lanes)
        finally:
            sys.setswitchinterval(switch_interval)
        for c in range(8):
            for rows, served in zip(work[c], results[c]):
                np.testing.assert_array_equal(served, _affine(rows))
        total = sum(len(rows) for slices in work for rows in slices)
        assert service.stats.counter("completed") == total
        assert service.stats.counter("windows_scored") == total
