"""Tests for the :class:`ServiceStats` facade over the metrics registry."""

import math
import threading

import pytest

from repro.obs import MetricsRegistry
from repro.serve.stats import ServiceStats


class TestFacade:
    def test_counters_roundtrip(self):
        stats = ServiceStats()
        stats.count("submitted")
        stats.count("submitted", 2)
        assert stats.counter("submitted") == 3
        assert stats.counter("never_touched") == 0

    def test_backed_by_registry_metrics(self):
        registry = MetricsRegistry()
        stats = ServiceStats(registry=registry)
        stats.count("completed", 4)
        stats.record_batch(8)
        stats.record_latencies([0.01])
        assert registry.get("serve_completed_total").value == 4
        assert registry.get("serve_batch_size").count == 1
        assert registry.get("serve_latency_seconds").count == 1

    def test_private_registries_are_isolated(self):
        a, b = ServiceStats(), ServiceStats()
        a.count("submitted")
        assert b.counter("submitted") == 0

    def test_queue_gauge_bound(self):
        stats = ServiceStats()
        assert stats.queue_depth == 0
        stats.bind_queue(lambda: 5)
        assert stats.queue_depth == 5

    def test_cache_hit_rate(self):
        stats = ServiceStats()
        assert stats.cache_hit_rate == 0.0
        stats.count("cache_hits", 3)
        stats.count("cache_misses", 1)
        assert stats.cache_hit_rate == 0.75

    def test_latency_percentile(self):
        stats = ServiceStats()
        for ms in range(1, 101):
            stats.record_latencies([ms / 1e3])
        assert stats.latency_percentile(50) == pytest.approx(0.0505)

    def test_snapshot_keeps_legacy_shape(self):
        stats = ServiceStats()
        stats.count("submitted", 2)
        stats.count("cache_hits")
        stats.count("cache_misses")
        stats.record_batch(2)
        stats.record_batch(2)
        stats.record_batch(4)
        stats.record_latencies([0.002])
        snap = stats.snapshot()
        assert snap["counters"]["submitted"] == 2
        assert snap["batch_size_histogram"] == {"2": 2, "4": 1}
        assert snap["mean_batch_size"] == pytest.approx(8 / 3)
        assert snap["cache_hit_rate"] == 0.5
        assert snap["latency_ms"]["count"] == 1
        assert snap["latency_ms"]["p50"] == pytest.approx(2.0)
        assert snap["queue_depth"] == 0
        assert snap["spans"] == {}


class TestConcurrentWriters:
    def test_snapshot_never_torn_under_concurrent_writes(self):
        """Counters, batches, and latencies written from many threads
        while snapshots are taken must stay internally consistent."""
        stats = ServiceStats()
        n_threads, per_thread = 6, 400
        stop = threading.Event()
        snapshots = []
        errors = []

        def writer(seed):
            for i in range(per_thread):
                stats.count("submitted")
                stats.record_batch((seed + i) % 8 + 1)
                stats.record_latencies([0.001 * ((seed + i) % 50 + 1)])
                stats.count("completed")

        def reader():
            while not stop.is_set():
                try:
                    snapshots.append(stats.snapshot())
                except Exception as exc:  # torn state shows up here
                    errors.append(exc)
                    return

        reader_thread = threading.Thread(target=reader)
        writers = [
            threading.Thread(target=writer, args=(seed,))
            for seed in range(n_threads)
        ]
        reader_thread.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        reader_thread.join()

        assert errors == []
        total = n_threads * per_thread
        assert stats.counter("submitted") == total
        assert stats.counter("completed") == total
        final = stats.snapshot()
        assert sum(final["batch_size_histogram"].values()) == total
        assert final["latency_ms"]["count"] == total
        for snap in snapshots + [final]:
            # Monotonic internal consistency: histogram mass never
            # exceeds the dispatched-batch count, percentiles finite.
            assert snap["counters"].get("submitted", 0) >= snap[
                "counters"
            ].get("completed", 0) - total  # both monotone, bounded
            for key in ("p50", "p99", "max"):
                assert math.isfinite(snap["latency_ms"][key])
            assert math.isfinite(snap["mean_batch_size"])
            assert 0.0 <= snap["cache_hit_rate"] <= 1.0

    def test_concurrent_counts_lose_nothing(self):
        stats = ServiceStats()
        n_threads, per_thread = 8, 2500

        def worker():
            for _ in range(per_thread):
                stats.count("submitted")

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.counter("submitted") == n_threads * per_thread
