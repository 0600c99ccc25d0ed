"""Unit tests for the ``repro.obs`` metric primitives and registry."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DROPPED_SERIES_COUNTER,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    escape_label_value,
    get_registry,
    normalize_labels,
    parse_prometheus,
    parse_sample_name,
    render_labels,
    sanitize_metric_name,
    set_registry,
    unescape_label_value,
)


class TestCounter:
    def test_increments(self):
        counter = CounterMetric("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CounterMetric("c").inc(-1)
        with pytest.raises(ValueError):
            CounterMetric("c").inc_many([1, -1])

    def test_inc_many_adds_floats_in_order(self):
        shares = [0.1, 0.2, 0.3, 1e-17, 7.0]
        batched, single = CounterMetric("c"), CounterMetric("c")
        batched.inc_many(shares)
        for share in shares:
            single.inc(share)
        assert batched.value == single.value  # bit-equal, not approximate

    def test_concurrent_increments_lose_nothing(self):
        counter = CounterMetric("c")
        n_threads, per_thread = 8, 2000

        def worker():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * per_thread


class TestGauge:
    def test_set_and_read(self):
        gauge = GaugeMetric("g")
        gauge.set(3.5)
        assert gauge.value == 3.5

    def test_callback_read_live(self):
        box = {"v": 1}
        gauge = GaugeMetric("g", fn=lambda: box["v"])
        assert gauge.value == 1
        box["v"] = 7
        assert gauge.value == 7

    def test_failing_callback_reads_nan(self):
        def boom():
            raise RuntimeError("gone")

        gauge = GaugeMetric("g", fn=boom)
        assert math.isnan(gauge.value)


class TestHistogram:
    def test_count_sum_min_max_mean(self):
        hist = HistogramMetric("h", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 3.0):
            hist.observe(v)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == 5.0
        assert snap["min"] == 0.5
        assert snap["max"] == 3.0
        assert snap["mean"] == pytest.approx(5.0 / 3)

    def test_observe_many_equals_one_at_a_time(self):
        values = [0.1, 0.7, 1e-9, 3.3, 0.2, 1.0]
        batched = HistogramMetric("h", buckets=(0.5, 1.0), track_values=True)
        single = HistogramMetric("h", buckets=(0.5, 1.0), track_values=True)
        batched.observe_many(values)
        for v in values:
            single.observe(v)
        assert batched.export_state() == single.export_state()  # sum bit-equal

    def test_buckets_cumulative_upper_inclusive(self):
        hist = HistogramMetric("h", buckets=(1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 2.0, 9.0):
            hist.observe(v)
        buckets = hist.snapshot()["buckets"]
        assert buckets["1.0"] == 2  # 0.5 and the exactly-1.0 observation
        assert buckets["2.0"] == 4
        assert buckets["+Inf"] == 5

    def test_percentiles_from_reservoir(self):
        hist = HistogramMetric("h")
        for v in range(1, 101):
            hist.observe(float(v))
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.snapshot()["p99"] == pytest.approx(99.01)

    def test_reservoir_bounded(self):
        hist = HistogramMetric("h", reservoir=4)
        for v in range(100):
            hist.observe(float(v))
        assert hist.count == 100
        assert hist.percentile(0) >= 96.0  # only the tail is retained

    def test_value_counts_only_when_tracked(self):
        plain = HistogramMetric("h")
        plain.observe(2)
        assert plain.value_counts() == {}
        tracked = HistogramMetric("h", track_values=True)
        tracked.observe(2)
        tracked.observe(2)
        tracked.observe(8)
        assert tracked.value_counts() == {2: 2, 8: 1}

    def test_rejects_bad_reservoir_and_duplicate_buckets(self):
        with pytest.raises(ValueError):
            HistogramMetric("h", reservoir=0)
        with pytest.raises(ValueError):
            HistogramMetric("h", buckets=(1.0, 1.0))

    def test_empty_snapshot_is_finite(self):
        snap = HistogramMetric("h").snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0 and snap["max"] == 0.0
        assert snap["p50"] == 0.0 and snap["p99"] == 0.0


class TestRegistry:
    def test_get_or_create_shares_instances(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_illegal_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad name!")

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("pyramid.level") == "pyramid_level"
        assert sanitize_metric_name("a b/c") == "a_b_c"

    def test_snapshot_covers_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.1)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_counters_with_prefix(self):
        registry = MetricsRegistry()
        registry.counter("serve_a_total").inc()
        registry.counter("sim_b_total").inc(3)
        assert registry.counters_with_prefix("serve_") == {"serve_a_total": 1}

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.names() == []

    def test_lazy_creation_under_concurrency_is_single_instance(self):
        registry = MetricsRegistry()
        seen = []

        def worker():
            seen.append(registry.counter("shared"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(metric is seen[0] for metric in seen)


class TestExposition:
    def test_roundtrip_through_parser(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", help="requests").inc(7)
        registry.gauge("depth").set(2)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        samples = parse_prometheus(registry.render_prometheus())
        assert samples["requests_total"] == 7
        assert samples["depth"] == 2
        assert samples['lat_bucket{le="0.1"}'] == 1
        assert samples['lat_bucket{le="+Inf"}'] == 1
        assert samples["lat_count"] == 1
        assert samples["lat_sum"] == pytest.approx(0.05)

    def test_every_sample_is_numeric(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(1.0)
        for value in parse_prometheus(registry.render_prometheus()).values():
            assert isinstance(value, float) or isinstance(value, int)

    def test_parser_rejects_non_numeric(self):
        with pytest.raises(ValueError):
            parse_prometheus("metric_a not_a_number")


class TestLabelEscaping:
    """Label values must survive the exposition text format verbatim."""

    @pytest.mark.parametrize(
        "value",
        [
            "",
            "plain",
            'quo"te',
            "back\\slash",
            "new\nline",
            '\\"\n mixed \\\\ "" \n\n',
            'trailing backslash \\',
        ],
    )
    def test_escape_unescape_roundtrip(self, value):
        escaped = escape_label_value(value)
        assert "\n" not in escaped
        assert unescape_label_value(escaped) == value

    def test_unknown_escapes_preserved(self):
        # Reference-parser behavior: \t is not an escape, keep it as-is.
        assert unescape_label_value("a\\tb") == "a\\tb"

    def test_sample_name_roundtrip(self):
        labels = normalize_labels({"core": 'we"ird\n\\value', "lane": "3"})
        sample = "hw_core_spikes_total" + render_labels(labels)
        base, parsed = parse_sample_name(sample)
        assert base == "hw_core_spikes_total"
        assert parsed == {"core": 'we"ird\n\\value', "lane": "3"}

    def test_labeled_series_roundtrip_through_exposition(self):
        registry = MetricsRegistry()
        registry.counter(
            "hw_core_spikes_total", labels={"core": 'c"0\n\\'}
        ).inc(7)
        text = registry.render_prometheus()
        # The raw newline must leave as the two-char escape, keeping
        # every exposition sample on a single line.
        assert '\\n' in text and 'c\\"0' in text
        samples = parse_prometheus(text)
        (sample_id,) = [k for k in samples if k.startswith("hw_core")]
        base, labels = parse_sample_name(sample_id)
        assert labels == {"core": 'c"0\n\\'}
        assert samples[sample_id] == 7

    @settings(max_examples=200, deadline=None)
    @given(value=st.text())
    def test_property_roundtrip_any_text(self, value):
        assert unescape_label_value(escape_label_value(value)) == value
        sample = "m" + render_labels(normalize_labels({"l": value}))
        base, labels = parse_sample_name(sample)
        assert base == "m"
        assert labels == {"l": value}

    def test_illegal_label_name_rejected(self):
        with pytest.raises(ValueError, match="label name"):
            normalize_labels({"bad-name": "x"})


class TestCardinalityGuard:
    def test_series_capped_and_drops_counted(self):
        registry = MetricsRegistry(max_label_sets=3)
        for i in range(5):
            registry.counter("hot", labels={"shard": str(i)}).inc()
        exposed = [
            k
            for k in parse_prometheus(registry.render_prometheus())
            if k.startswith("hot")
        ]
        assert len(exposed) == 3
        assert registry.get(DROPPED_SERIES_COUNTER).value == 2

    def test_detached_metric_usable_but_unregistered(self):
        registry = MetricsRegistry(max_label_sets=1)
        registry.counter("m", labels={"a": "1"}).inc()
        overflow = registry.counter("m", labels={"a": "2"})
        overflow.inc(99)  # must not raise ...
        assert overflow.value == 99
        # ... and must not appear in the registry.
        assert registry.get("m", labels={"a": "2"}) is None

    def test_existing_series_unaffected_by_cap(self):
        registry = MetricsRegistry(max_label_sets=2)
        first = registry.counter("m", labels={"a": "1"})
        registry.counter("m", labels={"a": "2"})
        registry.counter("m", labels={"a": "3"})  # dropped
        assert registry.counter("m", labels={"a": "1"}) is first

    def test_validation(self):
        with pytest.raises(ValueError, match="max_label_sets"):
            MetricsRegistry(max_label_sets=0)


class TestPercentileEdges:
    def test_out_of_range_q_clamps_to_min_max(self):
        histogram = HistogramMetric("h", buckets=(1.0,))
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.percentile(-50.0) == 1.0
        assert histogram.percentile(0.0) == 1.0
        assert histogram.percentile(100.0) == 3.0
        assert histogram.percentile(9999.0) == 3.0

    def test_never_nan(self):
        histogram = HistogramMetric("h", buckets=(1.0,))
        assert histogram.percentile(50.0) == 0.0  # empty reservoir
        histogram.observe(5.0)
        for q in (-1e9, -1.0, 0.0, 50.0, 100.0, 1e9):
            assert not math.isnan(histogram.percentile(q))

    def test_nan_q_rejected(self):
        histogram = HistogramMetric("h", buckets=(1.0,))
        histogram.observe(1.0)
        with pytest.raises(ValueError, match="NaN"):
            histogram.percentile(float("nan"))

    def test_reservoir_p99_matches_exact(self):
        """Reservoir-backed p99 == numpy's exact p99 while it all fits."""
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=0.0, sigma=1.5, size=1500)
        histogram = HistogramMetric("h", buckets=(1.0,), reservoir=2048)
        for value in values:
            histogram.observe(float(value))
        for q in (50.0, 90.0, 99.0):
            assert histogram.percentile(q) == pytest.approx(
                float(np.percentile(values, q)), rel=1e-12
            )

    def test_window_reservoir_tracks_recent_values(self):
        histogram = HistogramMetric("h", buckets=(1.0,), reservoir=100)
        for value in range(1000):
            histogram.observe(float(value))
        # Only the most recent 100 observations remain.
        assert histogram.percentile(0.0) == 900.0
        assert histogram.percentile(100.0) == 999.0


class TestProcessRegistry:
    def test_set_registry_swaps_and_restores(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous

    def test_set_registry_type_checked(self):
        with pytest.raises(TypeError):
            set_registry(object())


class TestStateShipping:
    """export_state / reset / merge_state — the worker wire format."""

    def _source(self):
        registry = MetricsRegistry()
        registry.counter("engine_runs_total", help="runs").inc(3)
        registry.gauge("serve_queue_depth").set(7.0)
        hist = registry.histogram(
            "serve_latency_seconds", buckets=(0.01, 0.1, 1.0)
        )
        for value in (0.005, 0.05, 0.5):
            hist.observe(value)
        registry.counter(
            "serve_hw_router_hops_total", labels={"chip": "0"}
        ).inc(42)
        return registry

    def test_export_merge_round_trip(self):
        source = self._source()
        destination = MetricsRegistry()
        merged = destination.merge_state(source.export_state())
        assert merged == 4
        assert destination.render_prometheus() == source.render_prometheus()

    def test_merge_applies_extra_labels(self):
        source = self._source()
        destination = MetricsRegistry()
        destination.merge_state(source.export_state(), extra_labels={"shard": "2"})
        assert (
            destination.get("engine_runs_total", labels={"shard": "2"}).value
            == 3
        )
        relabeled = destination.get(
            "serve_hw_router_hops_total", labels={"chip": "0", "shard": "2"}
        )
        assert relabeled is not None and relabeled.value == 42
        # original label sets are not present without the extra label
        assert destination.get("engine_runs_total") is None

    def test_export_and_reset_rounds_reproduce_one_registry(self):
        """Merging each round's export, with the source reset after
        every export, renders what one registry that saw every
        observation renders."""
        rounds = [
            {"runs": 3, "latencies": (0.005, 0.05, 0.5), "hops": 42, "depth": 7.0},
            {"runs": 0, "latencies": (), "hops": 0, "depth": None},
            {"runs": 2, "latencies": (0.002, 0.3), "hops": 0, "depth": 1.0},
            {"runs": 1, "latencies": (0.07,), "hops": 5, "depth": None},
        ]

        def record(registry, observations):
            if observations["runs"]:
                registry.counter("engine_runs_total", help="runs").inc(
                    observations["runs"]
                )
            hist = registry.histogram(
                "serve_latency_seconds", buckets=(0.01, 0.1, 1.0)
            )
            hist.observe_many(observations["latencies"])
            if observations["hops"]:
                registry.counter(
                    "serve_hw_router_hops_total", labels={"chip": "0"}
                ).inc(observations["hops"])
            if observations["depth"] is not None:
                registry.gauge("serve_queue_depth").set(observations["depth"])

        source = MetricsRegistry()
        incremental = MetricsRegistry()
        seen_all = MetricsRegistry()
        for observations in rounds:
            record(source, observations)
            record(seen_all, observations)
            incremental.merge_state(source.export_state(), extra_labels={"shard": "0"})
            source.reset()
        oneshot = MetricsRegistry()
        oneshot.merge_state(seen_all.export_state(), extra_labels={"shard": "0"})
        assert incremental.render_prometheus() == oneshot.render_prometheus()
        assert incremental.get(
            "serve_latency_seconds", labels={"shard": "0"}
        ).snapshot()["count"] == 6
        assert source.export_state() == {"series": []}

    def test_histogram_merge_adds_buckets_and_folds_extrema(self):
        left = HistogramMetric("h_seconds", buckets=(1.0, 10.0))
        right = HistogramMetric("h_seconds", buckets=(1.0, 10.0))
        for value in (0.5, 5.0):
            left.observe(value)
        for value in (20.0, 0.1):
            right.observe(value)
        left.merge_state(right.export_state())
        snap = left.snapshot()
        assert snap["count"] == 4
        assert snap["min"] == 0.1 and snap["max"] == 20.0
        assert snap["buckets"] == {"1.0": 2, "10.0": 3, "+Inf": 4}

    def test_histogram_merge_rejects_mismatched_bounds(self):
        left = HistogramMetric("h_seconds", buckets=(1.0, 10.0))
        right = HistogramMetric("h_seconds", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="bounds"):
            left.merge_state(right.export_state())

    def test_empty_histogram_merge_keeps_extrema_untouched(self):
        left = HistogramMetric("h_seconds", buckets=(1.0,))
        left.observe(0.25)
        empty = HistogramMetric("h_seconds", buckets=(1.0,))
        left.merge_state(empty.export_state())
        snap = left.snapshot()
        assert snap["count"] == 1
        assert snap["min"] == 0.25 and snap["max"] == 0.25

    def test_merge_respects_the_cardinality_guard(self):
        source = MetricsRegistry()
        source.counter("hot_total").inc(5)
        destination = MetricsRegistry(max_label_sets=2)
        state = source.export_state()
        for shard in range(4):
            destination.merge_state(state, extra_labels={"shard": str(shard)})
        exposed = [
            name
            for name in parse_prometheus(destination.render_prometheus())
            if name.startswith("hot_total")
        ]
        assert len(exposed) == 2
        assert destination.get(DROPPED_SERIES_COUNTER).value == 2
