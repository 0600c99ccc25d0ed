"""The sharded (multi-process) serving tier.

Covers the consistent-hash ring, bit-identity with in-process serving,
the shared parent-side result cache, ledger/energy re-recording across
the process boundary, per-shard circuit breakers, and worker
death/respawn. Worker processes are real forks — tests here are
intentionally small so the suite stays fast.
"""

import json
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    TransientScorerError,
)
from repro.serve import (
    CircuitBreaker,
    HashRing,
    InferenceService,
    NApproxCellModel,
    ShardedInferenceService,
    content_key,
    random_patch_rows,
)


class _Affine:
    """Tiny deterministic model (no engine) for fast process tests."""

    model_id = "affine-test"
    cacheable = True

    def __call__(self, matrix):
        return np.asarray(matrix)[:, 0] * 10.0 + 1.0


class _NarratingAffine(_Affine):
    """Records a lifecycle event from inside the (worker-side) call."""

    model_id = "narrating-test"

    def __call__(self, matrix):
        from repro.obs import event

        event("model_call", rows=len(matrix))
        return super().__call__(matrix)


class _CrashOnNegative:
    """Kills its own process when a batch contains a negative value."""

    model_id = "crash-test"
    cacheable = True

    def __call__(self, matrix):
        matrix = np.asarray(matrix)
        if (matrix < 0).any():
            os.kill(os.getpid(), signal.SIGKILL)
        return matrix[:, 0] * 2.0


class _AlwaysRaises:
    model_id = "raises-test"
    cacheable = True

    def __call__(self, matrix):
        raise RuntimeError("worker-side model failure")


def _sharded(model, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("max_batch_size", 8)
    kwargs.setdefault("max_wait_ms", 1.0)
    kwargs.setdefault("result_timeout_s", 0.2)
    return ShardedInferenceService(model, **kwargs)


class TestHashRing:
    def test_routing_is_deterministic(self):
        ring = HashRing(4)
        keys = [content_key("m", np.array([float(i)])) for i in range(64)]
        first = [ring.shard_for(k) for k in keys]
        second = [HashRing(4).shard_for(k) for k in keys]
        assert first == second

    def test_covers_every_shard(self):
        ring = HashRing(4)
        keys = [content_key("m", np.array([float(i)])) for i in range(256)]
        assert {ring.shard_for(k) for k in keys} == {0, 1, 2, 3}

    def test_resize_moves_few_keys(self):
        """Consistent hashing: going 4 -> 5 shards remaps ~1/5 of keys."""
        keys = [content_key("m", np.array([float(i)])) for i in range(2000)]
        before = [HashRing(4).shard_for(k) for k in keys]
        after = [HashRing(5).shard_for(k) for k in keys]
        moved = sum(1 for a, b in zip(before, after) if a != b)
        assert moved < len(keys) * 0.45  # naive modulo would move ~80 %

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HashRing(0)
        with pytest.raises(ConfigurationError):
            HashRing(2, replicas=0)


class TestShardedService:
    def test_results_bit_identical_to_in_process(self):
        rows = np.random.default_rng(0).random((32, 3))
        with InferenceService(_Affine(), max_batch_size=8) as single:
            expected = single.score_many(rows)
        with _sharded(_Affine()) as sharded:
            got = sharded.score_many(rows)
        np.testing.assert_array_equal(expected, got)

    def test_routing_uses_the_content_ring(self):
        service = _sharded(_Affine(), workers=4)
        rows = np.random.default_rng(1).random((32, 3))
        for row in rows:
            shard = service.shard_of(row)
            key = content_key(service.model_id, row)
            assert shard == service.ring.shard_for(key)
        service.close()

    def test_shared_cache_hits_across_shards(self):
        rows = np.random.default_rng(2).random((8, 3))
        with _sharded(_Affine(), workers=2) as service:
            service.score_many(rows)  # warm
            again = service.score_many(rows)
            assert service.stats.counter("cache_hits") == 8
            # hits resolve in the parent: no new dispatches needed
            assert service.stats.counter("submitted") == 16
        with InferenceService(_Affine(), max_batch_size=8) as single:
            expected = single.score_many(rows)
        np.testing.assert_array_equal(expected, again)

    def test_uncacheable_model_disables_cache(self):
        class Uncacheable(_Affine):
            cacheable = False

        service = _sharded(Uncacheable())
        assert service.cache is None
        service.close()

    def test_queue_full_rejects_cleanly(self):
        service = _sharded(_Affine(), workers=1, queue_capacity=1)
        # never started: requests queue up and the second must bounce
        service._started = True
        service.submit(np.zeros(3))
        with pytest.raises(QueueFullError):
            service.submit(np.ones(3))
        service._started = False
        service._closed = True

    def test_closed_service_rejects_submissions(self):
        service = _sharded(_Affine())
        with pytest.raises(ServiceClosedError):
            service.submit(np.zeros(3))  # not started
        service.start()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(np.zeros(3))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardedInferenceService(_Affine(), workers=0)
        with pytest.raises(ConfigurationError):
            _sharded(_Affine(), queue_capacity=0)
        with pytest.raises(ConfigurationError):
            _sharded(_Affine(), result_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            _sharded(_Affine(), max_redispatches=-1)
        with pytest.raises(ConfigurationError, match="breaker_failure_threshold"):
            _sharded(_Affine(), circuit_breaker=CircuitBreaker())


class TestWorkerDeath:
    def test_killed_worker_is_respawned_and_batch_redispatched(self):
        """SIGKILL mid-batch: the batch still completes on the respawn."""
        with _sharded(_CrashOnNegative(), workers=1) as service:
            before = service._pool.shards[0].process.pid
            os.kill(before, signal.SIGKILL)
            service._pool.shards[0].process.join(timeout=5.0)
            score = service.score(np.array([3.0, 0.0, 0.0]), timeout_s=30.0)
            assert score == 6.0
            after = service._pool.shards[0].process.pid
            assert after != before
            assert service.stats.counter("worker_deaths") == 1
            assert service.stats.counter("worker_respawns") == 1
            assert service.stats.counter("redispatches") >= 1

    def test_persistent_crash_exhausts_redispatch_budget(self):
        """A batch that kills every worker it reaches eventually fails."""
        with _sharded(
            _CrashOnNegative(),
            workers=1,
            max_redispatches=1,
            breaker_failure_threshold=0,
        ) as service:
            future = service.submit(np.array([-1.0, 0.0, 0.0]))
            with pytest.raises(TransientScorerError):
                future.result(timeout=30.0)
            assert service.stats.counter("worker_deaths") == 2
            # the shard recovered: clean requests still serve
            assert service.score(np.array([2.0, 0.0, 0.0])) == 4.0


class TestShardBreakers:
    def test_worker_exception_fails_batch_transiently(self):
        with _sharded(_AlwaysRaises(), workers=1) as service:
            with pytest.raises(TransientScorerError, match="RuntimeError"):
                service.score(np.zeros(3))
            # worker survived the exception: no death, no respawn
            assert service.stats.counter("worker_deaths") == 0

    def test_breaker_opens_after_threshold_and_cools_down(self):
        with _sharded(
            _AlwaysRaises(),
            workers=1,
            breaker_failure_threshold=2,
            breaker_reset_timeout_s=0.2,
            cache_capacity=0,
        ) as service:
            for i in range(2):
                with pytest.raises(TransientScorerError):
                    service.score(np.full(3, float(i)))
            # breaker now open: next batch fails fast without a dispatch
            dispatches = service.stats.counter("dispatches")
            with pytest.raises(CircuitOpenError):
                service.score(np.full(3, 9.0))
            assert service.stats.counter("dispatches") == dispatches
            assert service.stats.counter("breaker_opens") >= 1
            # after the cooldown, a half-open probe reaches the worker
            time.sleep(0.3)
            with pytest.raises(TransientScorerError):
                service.score(np.full(3, 11.0))
            assert service.stats.counter("dispatches") == dispatches + 1

    def test_breakers_are_per_shard(self):
        service = _sharded(_Affine(), workers=3, breaker_failure_threshold=2)
        breakers = [shard.breaker for shard in service._pool.shards]
        assert len({id(b) for b in breakers}) == 3
        assert all(b is not None for b in breakers)
        assert all(b._clock is service.clock for b in breakers)
        service.close()


class TestEngineWorkloadParity:
    """The real engine workload across the process boundary."""

    @pytest.fixture(scope="class")
    def rows(self):
        return random_patch_rows(12, rng=7)

    def test_engine_scores_ledgers_energy_match(self, rows):
        with InferenceService(
            NApproxCellModel(window=8, cores_per_chip=8),
            max_batch_size=4,
            max_wait_ms=1.0,
        ) as single:
            expected = single.score_many(rows)
            single_snap = single.stats.snapshot()
        with _sharded(
            NApproxCellModel(window=8, cores_per_chip=8),
            workers=2,
            max_batch_size=4,
            result_timeout_s=2.0,
        ) as sharded:
            got = sharded.score_many(rows)
            shard_snap = sharded.stats.snapshot()
        np.testing.assert_array_equal(expected, got)
        for key in (
            "hw_router_hops",
            "hw_cross_chip_hops",
            "hw_intra_chip_hops",
        ):
            assert (
                single_snap["counters"][key] == shard_snap["counters"][key]
            ), key
        assert shard_snap["counters"]["hw_cross_chip_hops"] > 0
        assert single_snap["energy_nj"]["count"] == len(rows)
        assert shard_snap["energy_nj"]["count"] == len(rows)
        # per-request energies are bit-identical; totals are compared as
        # sorted multisets because each mode sums in its own batch order
        assert single_snap["energy_nj"]["total"] == pytest.approx(
            shard_snap["energy_nj"]["total"], rel=1e-12
        )


class TestShardedChunkAdmission:
    """The sharded tier admits chunks through the same path."""

    def test_chunk_equals_row_by_row(self):
        from tests.test_serve_service import _accounting

        rows = random_patch_rows(10, rng=13)

        def model():
            return NApproxCellModel(window=8)

        # One shard: its batches finish in queue order, so the energy
        # counter sums the same floats in the same order in both arms.
        with _sharded(model(), workers=1, max_batch_size=4,
                      result_timeout_s=2.0) as chunked:
            first = chunked.score_many(rows)
            second = chunked.score_many(rows)
            chunk_stats = _accounting(chunked)
        with _sharded(model(), workers=1, max_batch_size=4,
                      result_timeout_s=2.0) as single:
            per_row = []
            for _ in range(2):
                futures = [single.submit(row) for row in rows]
                per_row.append(np.asarray([f.result(timeout=30) for f in futures]))
            row_stats = _accounting(single)
        assert np.array_equal(first, per_row[0])
        assert np.array_equal(second, per_row[1])
        assert chunk_stats == row_stats
        assert chunk_stats["counters"]["cache_hits"] == 10
        assert chunk_stats["energy_counter"] > 0.0

    def test_concurrent_chunks_are_all_or_nothing_across_shards(self):
        """8 producers race 3-row chunks into two 4-slot shard queues
        that never drain: every chunk is queued whole or not at all."""
        service = _sharded(_Affine(), workers=2, queue_capacity=4,
                           cache_capacity=0)
        service._started = True  # never forked: nothing drains the queues
        rng = np.random.default_rng(14)
        chunks = [rng.random((3, 3)) for _ in range(8)]
        outcomes = {}
        barrier = threading.Barrier(8)

        def produce(c):
            barrier.wait()
            try:
                service.score_many(chunks[c])
            except QueueFullError:
                outcomes[c] = "rejected"
            except ServiceClosedError:
                outcomes[c] = "admitted"  # failed by close(drain=False)

        threads = [threading.Thread(target=produce, args=(c,)) for c in range(8)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the producers finely
        try:
            for thread in threads:
                thread.start()
            settle_by = time.monotonic() + 10.0
            while (
                service.stats.queue_depth
                + service.stats.counter("rejected_queue_full")
                < 24
            ):
                assert time.monotonic() < settle_by, "producers never settled"
                time.sleep(0.01)
        finally:
            sys.setswitchinterval(switch_interval)
        owner = {
            row.tobytes(): c for c, chunk in enumerate(chunks) for row in chunk
        }
        queued = [
            owner[row.tobytes()]
            for lane in service._lanes
            for block in lane.batcher._blocks
            for row in block.matrix
        ]
        assert all(lane.batcher.rows <= 4 for lane in service._lanes)
        for c in set(queued):
            assert queued.count(c) == 3  # a chunk is queued whole
        assert service.stats.counter("rejected_queue_full") == 24 - len(queued)
        service.close(drain=False)
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(c for c, out in outcomes.items() if out == "admitted") == (
            sorted(set(queued))
        )

    def test_chunk_deadline_expires_row_by_row(self):
        service = _sharded(_Affine(), workers=1, cache_capacity=0)
        service._started = True  # admit before any dispatcher runs
        errors = []

        def score_chunk():
            try:
                service.score_many(np.ones((3, 3)), timeout_s=0.01)
            except DeadlineExceededError as exc:
                errors.append(exc)

        caller = threading.Thread(target=score_chunk)
        caller.start()
        settle_by = time.monotonic() + 10.0
        while service.stats.queue_depth < 3:
            assert time.monotonic() < settle_by, "chunk never queued"
            time.sleep(0.005)
        time.sleep(0.05)  # the deadline lapses while nothing dispatches
        service._started = False
        with service:  # fork the worker; the dispatcher finds 3 expired rows
            caller.join(timeout=10)
        assert len(errors) == 1
        assert service.stats.counter("expired_before_batch") == 3
        assert service.stats.counter("dispatches") == 0

    def test_chunk_larger_than_shard_queue_is_sliced(self):
        rows = np.random.default_rng(17).random((9, 3))
        with _sharded(_Affine(), queue_capacity=2, cache_capacity=0) as service:
            served = service.score_many(rows)
        assert np.array_equal(served, rows[:, 0] * 10.0 + 1.0)
        assert service.stats.counter("completed") == 9
        assert service.stats.counter("rejected_queue_full") == 0

    def test_call_across_shards_is_released_once(self, monkeypatch):
        """A call whose rows span shards is released by the shard that
        scores its last row, and its pickup clears that release."""
        from repro.serve.batcher import ScoreCall

        releasers = []
        picked_up = ScoreCall.picked_up

        def record(call):
            releasers.append(call.releaser)
            picked_up(call)

        monkeypatch.setattr(ScoreCall, "picked_up", record)
        rows = np.random.default_rng(19).random((16, 3))
        with _sharded(_Affine(), workers=2, cache_capacity=0) as service:
            assert len({service.shard_of(row) for row in rows}) == 2
            service.score_many(rows)
            service.score_many(rows[:1])
            batchers = [lane.batcher for lane in service._lanes]
            assert [batcher._released for batcher in batchers] == [0, 0]
        assert len(releasers) == 2
        assert all(any(r is b for b in batchers) for r in releasers)

    def test_flight_events_name_their_shard(self):
        from repro.obs import trace_log

        trace_log().clear()
        service = _sharded(_Affine(), workers=2, queue_capacity=8,
                           cache_capacity=0)
        service._started = True  # never forked: nothing drains the queues
        rows = np.random.default_rng(18).random((8, 3))
        home = [service.shard_of(row) for row in rows]
        service._admit(rows, None, ndim=2)  # score_many would wait on results
        enqueues = [
            event for event in trace_log().entries()
            if event.kind == "enqueue"
        ]
        assert sorted(event.attrs["shard"] for event in enqueues) == sorted(
            set(home)
        )
        for event in enqueues:
            (queued,) = service._lanes[event.attrs["shard"]].batcher._blocks
            assert queued.trace_ids == event.attrs["trace_ids"]
        busiest = max(set(home), key=home.count)
        with pytest.raises(QueueFullError, match=f"shard {busiest} queue"):
            service.score_many(rows[[home.index(busiest)] * 5])
        (rejected,) = [
            event for event in trace_log().entries()
            if event.kind == "queue_full"
        ]
        assert rejected.attrs["shard"] == busiest
        assert len(rejected.attrs["trace_ids"]) == 5
        service._started = False
        service._closed = True
        trace_log().clear()


class TestShardedTracing:
    """Distributed tracing and telemetry across the fork boundary."""

    @pytest.fixture(autouse=True)
    def clean_obs_state(self):
        from repro.obs import trace_log

        trace_log().clear()
        yield
        trace_log().clear()

    def test_one_assembled_trace_per_request_crosses_the_fork(self):
        """Every request yields one trace whose span tree spans the
        parent (submit, dispatch/execute) and the worker process
        (score), stitched over explicit parent ids."""
        from repro.obs.traces import (
            assemble_traces,
            to_chrome_trace,
            validate_chrome_trace,
        )

        rows = np.random.default_rng(5).random((6, 3))
        with _sharded(_Affine(), cache_capacity=0) as service:
            service.score_many(rows)
        traces = [
            trace
            for trace in assemble_traces()
            if any(event.kind == "enqueue" for event in trace.events)
        ]
        assert len(traces) == 6
        for trace in traces:
            names = {record.name for record in trace.spans}
            assert {
                "serve.submit",
                "serve.shard.execute",
                "serve.shard.worker.score",
            } <= names
            # parent + the scoring worker
            assert len({record.pid for _, record in trace.records}) == 2
            execute = next(
                r for r in trace.spans if r.name == "serve.shard.execute"
            )
            score = next(
                r for r in trace.spans if r.name == "serve.shard.worker.score"
            )
            # the cross-process parent/child edge
            assert score.parent_id == execute.span_id
            assert score.pid != execute.pid and execute.pid == os.getpid()
            # worker ids are namespaced per shard; parent ids are bare
            assert score.span_id.split("-")[0] == f"s{score.attrs['shard']}"
            assert "-" not in execute.span_id
        document = to_chrome_trace(traces)
        validate_chrome_trace(document)

    def test_cached_chunk_rows_keep_one_trace_each(self):
        from repro.obs.traces import assemble_traces

        rows = np.random.default_rng(15).random((4, 3))
        with _sharded(_Affine()) as service:
            service.score_many(rows)
            service.score_many(rows)  # all four hit the shared cache
        traces = [
            trace
            for trace in assemble_traces()
            if any(record.name == "serve.submit" for record in trace.spans)
        ]
        assert len(traces) == 8
        kinds = [{event.kind for event in trace.events} for trace in traces]
        assert all({"cache_miss", "enqueue"} <= k for k in kinds[:4])
        assert all(k == {"cache_hit"} for k in kinds[4:])

    def test_worker_metrics_merge_with_shard_labels(self):
        """Worker-side registry deltas land in the parent registry
        labeled per shard, alongside the parent's unlabeled series."""
        rows = np.random.default_rng(6).random((16, 3))
        with _sharded(_Affine(), cache_capacity=0) as service:
            service.score_many(rows)
            registry = service.stats.registry
        shard_series = [
            registry.get(
                "span_serve_shard_worker_score_seconds",
                labels={"shard": str(index)},
            )
            for index in range(2)
        ]
        present = [metric for metric in shard_series if metric is not None]
        assert present, "no shard-labeled worker span histogram merged"
        assert sum(metric.snapshot()["count"] for metric in present) > 0
        exposition = registry.render_prometheus()
        assert 'span_serve_shard_worker_score_seconds_count{shard="' in (
            exposition
        )

    def test_worker_events_reach_the_parent_dump(self, tmp_path):
        """An event raised inside a worker's model call ships back with
        the worker's spans: the parent's dump holds it with the worker's
        pid, nested under the worker scoring span, and claimed by the
        batch's request trace ids."""
        from repro.obs import trace_log

        rows = np.random.default_rng(8).random((6, 3))
        with _sharded(_NarratingAffine(), cache_capacity=0) as service:
            service.score_many(rows)
            worker_pids = {shard.process.pid for shard in service._pool.shards}
        path = tmp_path / "flight.json"
        trace_log().dump(str(path), reason="test")
        records = json.loads(path.read_text())["events"]
        calls = [r for r in records if r["kind"] == "model_call"]
        assert sum(call["attrs"]["rows"] for call in calls) == 6
        scoring = {
            r["span_id"]: r
            for r in records
            if r["name"] == "serve.shard.worker.score"
        }
        batches = [
            r["attrs"]["trace_ids"] for r in records if r["kind"] == "batch_form"
        ]
        for call in calls:
            assert call["pid"] in worker_pids and call["pid"] != os.getpid()
            assert call["duration_s"] == 0.0
            span = scoring[call["parent_id"]]
            assert span["pid"] == call["pid"]
            assert call["attrs"]["trace_ids"] == span["attrs"]["trace_ids"]
            assert call["attrs"]["trace_ids"] in batches
        enqueued = {t for r in records if r["kind"] == "enqueue"
                    for t in r["attrs"]["trace_ids"]}
        assert {t for call in calls for t in call["attrs"]["trace_ids"]} == (
            enqueued
        )

    def test_worker_spans_ship_even_when_tracing_off(self):
        """With tracing disabled nothing ships and nothing breaks."""
        from repro.obs import tracing
        from repro.obs.traces import assemble_traces

        tracing.configure(False)
        try:
            rows = np.random.default_rng(7).random((4, 3))
            with _sharded(_Affine(), cache_capacity=0) as service:
                got = service.score_many(rows)
            assert got.shape == (4,)
            assert all(not t.spans for t in assemble_traces())
        finally:
            tracing.configure(True)
