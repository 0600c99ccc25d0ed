"""The metrics naming convention (``repro.obs.metrics.naming_violations``).

Every registered base name must be lowercase snake_case and end in a
kind-appropriate unit suffix (counters ``_total``, histograms/gauges a
unit). The convention test exercises a registry the way the real
subsystems do — ServiceStats, spans, SLO publication, video stage
histograms — and asserts the result is clean, so a new metric that
drifts from the exposition style fails here instead of silently
shipping.
"""

from repro.obs import MetricsRegistry, naming_violations, observe_span
from repro.obs.slo import evaluate_objectives, publish_results
from repro.serve.stats import ServiceStats


class TestConventionChecks:
    def test_empty_registry_is_clean(self):
        assert naming_violations(MetricsRegistry()) == []

    def test_counter_must_end_in_total(self):
        registry = MetricsRegistry()
        registry.counter("serve_requests").inc()
        problems = naming_violations(registry)
        assert len(problems) == 1 and "_total" in problems[0]

    def test_histogram_needs_a_unit_suffix(self):
        registry = MetricsRegistry()
        registry.histogram("serve_latency").observe(0.1)
        assert any("histogram" in p for p in naming_violations(registry))

    def test_gauge_needs_a_unit_suffix(self):
        registry = MetricsRegistry()
        registry.gauge("queue").set(3)
        assert any("gauge" in p for p in naming_violations(registry))

    def test_uppercase_names_are_flagged(self):
        registry = MetricsRegistry()
        registry.counter("Serve_requests_total").inc()
        assert any("snake_case" in p for p in naming_violations(registry))

    def test_uppercase_label_names_are_flagged(self):
        registry = MetricsRegistry()
        registry.counter(
            "serve_requests_total", labels={"Shard": "0"}
        ).inc()
        assert any("label" in p for p in naming_violations(registry))

    def test_violations_reported_once_per_base_name(self):
        registry = MetricsRegistry()
        for shard in range(4):
            registry.counter(
                "serve_requests", labels={"shard": str(shard)}
            ).inc()
        assert len(naming_violations(registry)) == 1


class TestRealSubsystemsConform:
    def test_exercised_service_stats_are_clean(self):
        stats = ServiceStats()
        stats.count("submitted")
        stats.count("cache_hits")
        stats.record_batch(4)
        stats.record_latencies([0.01])
        stats.record_energies([125.0])
        stats.record_hw_totals(
            {"router_hops": 7, "cross_chip_hops": 2, "intra_chip_hops": 5},
            shard=1,
        )
        observe_span("serve.model.batch", 0.01, registry=stats.registry)
        assert naming_violations(stats.registry) == []

    def test_slo_publication_is_clean(self):
        registry = MetricsRegistry()
        registry.histogram(
            "serve_latency_seconds", buckets=(0.1, 1.0)
        ).observe(0.05)
        publish_results(evaluate_objectives(registry), registry)
        assert naming_violations(registry) == []

    def test_video_stage_histograms_are_clean(self):
        from repro.obs.traces import VIDEO_STAGE_METRIC

        registry = MetricsRegistry()
        for stage in ("extract", "pool", "serve", "nms"):
            registry.histogram(
                VIDEO_STAGE_METRIC, labels={"stage": stage, "level": "0"}
            ).observe(0.002)
        registry.counter("video_frames_total").inc()
        assert naming_violations(registry) == []

    def test_process_default_names_are_clean(self):
        """The names other subsystems hardcode all pass the convention."""
        registry = MetricsRegistry()
        registry.counter("sim_ticks_total").inc(10)
        registry.counter("engine_runs_total").inc()
        registry.counter("hw_core_spikes_total", labels={"core": "3"}).inc(5)
        registry.gauge("serve_breaker_state", labels={"shard": "0"}).set(1)
        registry.gauge("serve_breaker_open_shards").set(0)
        registry.histogram("serve_batch_size").observe(8)
        assert naming_violations(registry) == []
