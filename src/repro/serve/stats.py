"""Observability surface of the inference service.

:class:`ServiceStats` keeps the API the service, the load generator,
and ``benchmarks/bench_serve.py`` were written against, but since the
``repro.obs`` layer landed it is a thin facade over a
:class:`~repro.obs.MetricsRegistry` (DESIGN.md §10): every ``count()``
is a registry counter, the batch-size histogram and latency reservoir
are registry histograms, and the queue-depth gauge is a registry
callback gauge. By default each instance owns a private registry so
concurrent services (and tests) stay isolated; pass
``registry=repro.obs.get_registry()`` to publish into the process-wide
registry alongside the simulator and detection metrics — that is what
``python -m repro serve --metrics`` does.
"""

from typing import Callable, Dict, Optional, Sequence

from repro.obs import MetricsRegistry, summarize_spans

#: Metric-name prefix inside the registry (counters become
#: ``serve_{name}_total`` and so on).
PREFIX = "serve"

#: Most-recent samples kept by each histogram's reservoir for the
#: percentile estimates (bounded, so a long-running service never grows).
LATENCY_WINDOW = 8192

#: Upper bounds for the request-latency histogram (seconds).
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Upper bounds for the batch-size histogram (requests per batch).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Upper bounds for the per-request energy histogram (nanojoules).
ENERGY_BUCKETS_NJ = (
    1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
)


class ServiceStats:
    """Counters, batch-size histogram, and a latency reservoir.

    Args:
        registry: target metrics registry; ``None`` (default) creates a
            private one per instance.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._latency = self.registry.histogram(
            f"{PREFIX}_latency_seconds",
            help="submit-to-result latency of completed requests",
            buckets=LATENCY_BUCKETS,
            reservoir=LATENCY_WINDOW,
        )
        self._batches = self.registry.histogram(
            f"{PREFIX}_batch_size",
            help="requests per dispatched micro-batch",
            buckets=BATCH_SIZE_BUCKETS,
            reservoir=LATENCY_WINDOW,
            track_values=True,
        )
        self._queue_gauge = self.registry.gauge(
            f"{PREFIX}_queue_depth",
            help="requests currently waiting in the bounded queue",
        )
        self._energy = self.registry.histogram(
            f"{PREFIX}_request_energy_nj",
            help="attributed simulated energy per scored request (nJ)",
            buckets=ENERGY_BUCKETS_NJ,
            reservoir=LATENCY_WINDOW,
        )

    # ------------------------------------------------------------------
    def bind_queue(self, depth_fn: Callable[[], int]) -> None:
        """Register the live queue-depth gauge (called by the service)."""
        self._queue_gauge.bind(depth_fn)

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.registry.counter(f"{PREFIX}_{name}_total").inc(n)

    def record_batch(self, size: int) -> None:
        """Record one dispatched batch of ``size`` requests."""
        self._batches.observe(size)

    def record_latencies(self, seconds: Sequence[float]) -> None:
        """Record the latencies of a group of completed requests."""
        self._latency.observe_many(seconds)

    def record_hw_totals(
        self, totals: Dict[str, int], shard: Optional[int] = None
    ) -> None:
        """Fold one batch's activity-ledger totals into the counters.

        Both serving tiers (in-process and sharded workers) call this
        with :meth:`~repro.obs.hwcounters.ActivityCollector.totals`, so
        router-hop traffic — including the intra- vs cross-chip split of
        a placed multi-chip model — is comparable across deployment
        modes from the same ``serve_hw_*`` counters. When ``shard`` is
        given the totals are additionally attributed to a
        ``{shard="<n>"}``-labeled series, so the parent exposition
        breaks hop traffic down per worker while the unlabeled fleet
        totals stay comparable with the in-process tier.
        """
        for key in ("router_hops", "cross_chip_hops", "intra_chip_hops"):
            value = int(totals.get(key, 0))
            if value:
                self.count(f"hw_{key}", value)
                if shard is not None:
                    self.registry.counter(
                        f"{PREFIX}_hw_{key}_total",
                        labels={"shard": str(shard)},
                    ).inc(value)

    def record_energies(self, nanojoules: Sequence[float]) -> None:
        """Attribute simulated energy to a batch's requests, in order.

        ``nanojoules[i]`` is request ``i``'s share. The total counter
        adds the shares one by one in request order, so it is the same
        float whether a batch is recorded in one call or one request
        at a time.
        """
        self._energy.observe_many(nanojoules)
        self.registry.counter(
            f"{PREFIX}_energy_nanojoules_total",
            help="total simulated energy attributed to scored requests (nJ)",
        ).inc_many(nanojoules)

    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never touched)."""
        metric = self.registry.get(f"{PREFIX}_{name}_total")
        return metric.value if metric is not None else 0

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting in the bounded queue."""
        value = self._queue_gauge.value
        return int(value) if value == value else 0  # NaN-safe

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits / lookups, 0.0 before any lookup."""
        hits = self.counter("cache_hits")
        total = hits + self.counter("cache_misses")
        return hits / total if total else 0.0

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th latency percentile in seconds (0.0 when empty)."""
        return self._latency.percentile(q)

    def _short_counters(self) -> Dict[str, int]:
        """Registry counters mapped back to their legacy short names."""
        prefix = f"{PREFIX}_"
        out: Dict[str, int] = {}
        for name, value in self.registry.counters_with_prefix(prefix).items():
            short = name[len(prefix):]
            if short.endswith("_total"):
                short = short[: -len("_total")]
            out[short] = value
        return out

    def snapshot(self) -> Dict:
        """One JSON-ready view of every stat (for logs and benchmarks).

        The legacy keys (``counters``, ``queue_depth``,
        ``batch_size_histogram``, ``mean_batch_size``,
        ``cache_hit_rate``, ``latency_ms``) are unchanged; ``spans``
        (per-span wall-clock aggregates recorded into this stats
        object's registry) is additive.
        """
        counters = self._short_counters()
        batch_sizes = {
            int(size): count
            for size, count in sorted(self._batches.value_counts().items())
        }
        total_batched = sum(size * n for size, n in batch_sizes.items())
        n_batches = sum(batch_sizes.values())
        hits = counters.get("cache_hits", 0)
        lookups = hits + counters.get("cache_misses", 0)
        latency = self._latency.snapshot()
        energy = self._energy.snapshot()
        return {
            "counters": counters,
            "queue_depth": self.queue_depth,
            "batch_size_histogram": {str(k): v for k, v in batch_sizes.items()},
            "mean_batch_size": (total_batched / n_batches) if n_batches else 0.0,
            "cache_hit_rate": (hits / lookups) if lookups else 0.0,
            "latency_ms": {
                "count": latency["count"],
                "p50": latency["p50"] * 1e3,
                "p99": latency["p99"] * 1e3,
                "max": latency["max"] * 1e3,
            },
            "energy_nj": {
                "count": energy["count"],
                "mean": energy["mean"],
                "p50": energy["p50"],
                "p99": energy["p99"],
                "total": energy["sum"],
            },
            "spans": summarize_spans(self.registry),
        }


__all__ = [
    "BATCH_SIZE_BUCKETS",
    "ENERGY_BUCKETS_NJ",
    "LATENCY_BUCKETS",
    "LATENCY_WINDOW",
    "PREFIX",
    "ServiceStats",
]
