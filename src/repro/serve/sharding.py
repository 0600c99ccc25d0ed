"""Multi-chip scale-out: sharded worker processes behind the batcher.

A single :class:`~repro.serve.service.InferenceService` scores every
batch on the calling process's engines. This module scales the same
request surface across *worker processes*, one per simulated chip
assembly (DESIGN.md §14)::

    score_many(chunk) / submit(row)
        │
      admit ── cache? ──> HashRing ──> shard queues ──> MicroBatcher
        │        │       (model_id,    (all misses       │
        │       hit       row key)      or none)    dispatcher thread
        │        │                                       │
        │        │                                breaker, mp.Queue
        │        │                                       │
        └─ Futures <──── results, ledgers, energy ──── worker process

Admission and result fan-out are the in-process service's own
(:class:`~repro.serve.service._ServingCore`); only the routing of a
chunk's misses onto shard queues and the worker round trip live here.

Design points:

- **Deterministic routing.** Requests are routed by the consistent hash
  of their content key (``content_key(model_id, row)``) over a replica
  ring, so equal rows always land on the same shard and the ring barely
  reshuffles when the shard count changes.
- **Bit-identical results.** Worker processes are forked *after* the
  model is constructed, so every shard scores with a copy-on-write
  snapshot of the exact same compiled model; which shard serves a row
  cannot change its score, cache key, ledger, or energy attribution.
- **Ledgers cross the process boundary.** Workers score inside a
  :func:`repro.obs.hwcounters.collect` scope and ship the raw
  :class:`~repro.obs.hwcounters.RunActivity` ledgers back with the
  results; the parent re-records them (registry counters, open
  ``collect`` scopes, cross-chip hop split, per-request energy) exactly
  as if the engines had run in-process.
- **Per-shard circuit breakers.** Each shard has its own
  :class:`~repro.serve.resilience.CircuitBreaker` on the service clock,
  so one persistently failing worker cools down without blocking the
  other shards.
- **Death is transient.** A worker that dies mid-batch is respawned
  with fresh queues and the batch is redispatched (bounded); only an
  exhausted redispatch budget surfaces
  :class:`~repro.errors.WorkerDiedError` to callers.
"""

import bisect
import hashlib
import multiprocessing
import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    ServiceClosedError,
    TransientScorerError,
    WorkerDiedError,
)
from repro.obs import MetricsRegistry, hwcounters, span
from repro.obs.flight import flight_recorder
from repro.serve.batcher import BatchPolicy, MicroBatcher, ServeRequest
from repro.serve.cache import LruResultCache, content_key, content_keys
from repro.serve.resilience import STATE_CODES, CircuitBreaker
from repro.serve.service import (
    _resolve_batch_fn,
    _ServingCore,
    attribute_batch_energy,
)
from repro.serve.stats import ServiceStats


class HashRing:
    """Consistent hashing of content keys onto shard indices.

    Each shard owns ``replicas`` pseudo-random points on a 64-bit ring;
    a key maps to the shard owning the first point at or after the
    key's own hash. Replication keeps shard loads even, and adding or
    removing one shard only remaps the keys adjacent to its points —
    the property that keeps result caches warm across resizes.

    Args:
        shards: number of shards (>= 1).
        replicas: ring points per shard.
    """

    def __init__(self, shards: int, replicas: int = 64) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        self.shards = shards
        self.replicas = replicas
        points = []
        for shard in range(shards):
            for replica in range(replicas):
                token = f"shard:{shard}:{replica}".encode()
                points.append((self._hash(token), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    @staticmethod
    def _hash(data: bytes) -> int:
        return int.from_bytes(
            hashlib.blake2b(data, digest_size=8).digest(), "big"
        )

    def shard_for(self, key: bytes) -> int:
        """The shard index owning ``key`` (deterministic)."""
        position = bisect.bisect_left(self._points, self._hash(key))
        if position == len(self._points):
            position = 0
        return self._owners[position]


def _worker_main(shard_index, model, in_queue, out_queue):
    """Score batches for one shard inside a forked worker process.

    Protocol: dispatch messages are ``(batch_id, matrix, telemetry,
    trace_ids, parent_span_id, tracing_on)``; ``None`` means shut down.
    Replies are ``("ok", batch_id, results, runs, spans, metrics_delta)``
    with the raw activity ledgers, the span records completed since the
    previous reply, and the worker registry's state delta (the same
    ship-raw-merge-in-parent pattern the hw ledgers use), or
    ``("err", batch_id, type_name, message)`` — exceptions are
    flattened to strings so they pickle regardless of type.

    The worker's spans run under the parent's trace context: the
    scoring span names the parent dispatch span as its ``parent_id``
    and carries the batch's request trace ids, which is how
    :func:`repro.obs.traces.assemble_traces` stitches one tree per
    request across the process boundary.
    """
    # The fork inherits the parent's metrics registry mid-use (and its
    # lock state, if another parent thread held it at fork time); swap
    # in a fresh private registry before touching any instrument. The
    # fork also inherits the forking thread's span stack and the
    # parent's id pool: reset the one, namespace the other so ids
    # minted here can never collide with parent-minted ids.
    from repro.obs import metrics as obs_metrics
    from repro.obs import tracing
    from repro.obs.ids import configure_namespace

    configure_namespace(f"s{shard_index}")
    obs_metrics.set_registry(MetricsRegistry())
    tracing.reset_thread_state()
    tracing.trace_log().clear()
    registry = obs_metrics.get_registry()
    shipped_state = registry.export_state()
    shipped_seq = 0
    batch_fn = _resolve_batch_fn(model)
    while True:
        message = in_queue.get()
        if message is None:
            return
        batch_id, matrix, telemetry, trace_ids, parent_span_id, tracing_on = message
        hwcounters.configure(telemetry)
        tracing.configure(tracing_on)
        try:
            with tracing.span(
                "serve.shard.worker.score",
                registry=registry,
                parent_id=parent_span_id,
                shard=shard_index,
                trace_ids=trace_ids,
            ):
                with hwcounters.collect() as activity:
                    results = np.asarray(batch_fn(matrix))
            spans: list = []
            for seq, record in tracing.trace_log().records():
                if seq >= shipped_seq:
                    spans.append(record)
                    shipped_seq = seq + 1
            state = registry.export_state()
            delta = obs_metrics.diff_states(state, shipped_state)
            shipped_state = state
            out_queue.put(
                ("ok", batch_id, results, list(activity.runs), spans, delta)
            )
        except Exception as exc:  # flatten: arbitrary types may not pickle
            out_queue.put(("err", batch_id, type(exc).__name__, str(exc)))


class _Shard:
    """One worker process plus its parent-side plumbing."""

    def __init__(
        self,
        index: int,
        model,
        context,
        queue_capacity: int,
        policy: BatchPolicy,
        on_expired,
        clock: Callable[[], float],
        breaker: Optional[CircuitBreaker],
    ) -> None:
        self.index = index
        self.model = model
        self.context = context
        self.requests: "queue.Queue[ServeRequest]" = queue.Queue(
            queue_capacity
        )
        self.batcher = MicroBatcher(
            self.requests, policy, on_expired=on_expired, clock=clock
        )
        self.breaker = breaker
        self.process = None
        self.in_queue = None
        self.out_queue = None
        self.dispatcher: Optional[threading.Thread] = None
        self.batch_counter = 0

    def spawn(self) -> None:
        """Fork a worker with fresh queues (initial start and respawn).

        Fresh queues ensure a batch sent to a dead worker can never be
        double-delivered to its replacement — the replacement's queues
        start empty.
        """
        self.in_queue = self.context.Queue()
        self.out_queue = self.context.Queue()
        self.process = self.context.Process(
            target=_worker_main,
            args=(self.index, self.model, self.in_queue, self.out_queue),
            name=f"repro-shard-{self.index}",
            daemon=True,
        )
        self.process.start()

    def terminate(self) -> None:
        """Shut the worker down (sentinel first, then force)."""
        if self.process is None:
            return
        try:
            self.in_queue.put(None)
        except (OSError, ValueError):
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        for mp_queue in (self.in_queue, self.out_queue):
            mp_queue.close()
            mp_queue.join_thread()


class ShardedInferenceService(_ServingCore):
    """Serve one model from sharded worker processes (multi-chip tier).

    Drop-in for :class:`~repro.serve.service.InferenceService` where it
    matters — ``submit`` / ``score`` / ``score_many`` / ``stats`` /
    ``cache`` / context-manager lifecycle — but every batch is scored in
    one of ``workers`` forked processes, routed by consistent hash of
    the request's content key. Results, cache keys, activity ledgers,
    and per-request energy are bit-identical to in-process serving
    (``tests/test_serve_differential.py``).

    Args:
        model: a ``(n, f) -> (n, ...)`` callable or ``decision_function``
            scorer; constructed *before* the fork so all shards share
            one copy-on-write snapshot.
        workers: shard (worker process) count, >= 1.
        max_batch_size / max_wait_ms: per-shard micro-batching policy.
        queue_capacity: bounded depth of each shard's request queue.
        cache_capacity: shared parent-side LRU result cache; 0 disables
            (also disabled for ``cacheable = False`` models).
        model_id: stable identity for cache keys and routing; defaults
            to the model's ``model_id``.
        clock: monotonic time source shared by batchers, deadlines, and
            breakers (single-clock contract).
        registry: metrics registry behind :attr:`stats`.
        breaker_failure_threshold / breaker_reset_timeout_s: per-shard
            circuit-breaker tuning; ``breaker_failure_threshold=0``
            disables circuit breaking.
        ring_replicas: consistent-hash points per shard.
        result_timeout_s: per-poll wait on a worker reply before the
            liveness check runs (total in-flight wait is unbounded while
            the worker stays alive).
        max_redispatches: batches redispatched to a respawned worker
            before the batch fails with :class:`WorkerDiedError`.
    """

    def __init__(
        self,
        model,
        workers: int = 2,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        queue_capacity: int = 256,
        cache_capacity: int = 4096,
        model_id: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
        breaker_failure_threshold: int = 5,
        breaker_reset_timeout_s: float = 1.0,
        ring_replicas: int = 64,
        result_timeout_s: float = 1.0,
        max_redispatches: int = 1,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if cache_capacity < 0:
            raise ConfigurationError(
                f"cache_capacity must be >= 0, got {cache_capacity}"
            )
        if breaker_failure_threshold < 0:
            raise ConfigurationError(
                "breaker_failure_threshold must be >= 0, got "
                f"{breaker_failure_threshold}"
            )
        if result_timeout_s <= 0:
            raise ConfigurationError(
                f"result_timeout_s must be > 0, got {result_timeout_s}"
            )
        if max_redispatches < 0:
            raise ConfigurationError(
                f"max_redispatches must be >= 0, got {max_redispatches}"
            )
        self.model = model
        self.model_id = (
            model_id
            if model_id is not None
            else getattr(model, "model_id", None)
            or f"{type(model).__name__}@{id(model):x}"
        )
        self.workers = workers
        self.policy = BatchPolicy(max_batch_size, max_wait_ms)
        self.stats = ServiceStats(registry=registry)
        self._clock = clock
        self.result_timeout_s = result_timeout_s
        self._queue_capacity = queue_capacity
        self._admit_lock = threading.Lock()
        self.max_redispatches = max_redispatches

        cacheable = bool(getattr(model, "cacheable", True))
        if cache_capacity > 0 and not cacheable:
            self.stats.count("cache_disabled")
            cache_capacity = 0
        self.cache = LruResultCache(cache_capacity) if cache_capacity else None

        self.ring = HashRing(workers, replicas=ring_replicas)
        # Forked workers inherit the already-compiled model; "fork" is
        # asserted rather than assumed so a non-fork platform fails
        # loudly instead of re-pickling the model per shard.
        self._context = multiprocessing.get_context("fork")

        breaker_gauge = self.stats.registry.gauge(
            "serve_breaker_open_shards",
            help="shards whose circuit breaker is not closed",
        )
        self._breaker_gauge = breaker_gauge
        self._shards: List[_Shard] = []
        for index in range(workers):
            breaker = None
            if breaker_failure_threshold > 0:
                breaker = CircuitBreaker(
                    failure_threshold=breaker_failure_threshold,
                    reset_timeout_s=breaker_reset_timeout_s,
                    clock=clock,
                )
                breaker._on_state_change = (
                    lambda state, _shard=index: self._on_breaker_state(
                        _shard, state
                    )
                )
            self._shards.append(
                _Shard(
                    index,
                    model,
                    self._context,
                    queue_capacity,
                    self.policy,
                    self._expire,
                    clock,
                    breaker,
                )
            )
        self._queue_depth = lambda: sum(
            shard.requests.qsize() for shard in self._shards
        )
        self.stats.bind_queue(self._queue_depth)

        self._stop = threading.Event()
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _on_breaker_state(self, shard_index: int, state: str) -> None:
        self._breaker_gauge.set(
            sum(
                1
                for shard in self._shards
                if shard.breaker is not None
                and STATE_CODES[shard.breaker._state] != 0
            )
        )
        if state == "open":
            self.stats.count("breaker_opens")
        flight_recorder().record(
            "shard_breaker", shard=shard_index, state=state
        )

    def start(self) -> "ShardedInferenceService":
        """Fork the worker processes and start the dispatchers."""
        if self._closed:
            raise ServiceClosedError("service already closed")
        if not self._started:
            self._started = True
            for shard in self._shards:
                shard.spawn()
                shard.dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    args=(shard,),
                    name=f"repro-dispatch-{shard.index}",
                    daemon=True,
                )
                shard.dispatcher.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop the dispatchers and shut every worker process down."""
        if self._closed:
            return
        self._closed = True
        if not drain:
            for shard in self._shards:
                while True:
                    try:
                        request = shard.requests.get_nowait()
                    except queue.Empty:
                        break
                    request.future.set_exception(
                        ServiceClosedError(
                            "service closed before the request ran"
                        )
                    )
                    self.stats.count("rejected_closed")
        self._stop.set()
        for shard in self._shards:
            if shard.dispatcher is not None and shard.dispatcher.is_alive():
                shard.dispatcher.join()
        for shard in self._shards:
            shard.terminate()

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------
    def shard_of(self, features: np.ndarray) -> int:
        """The shard index a feature row routes to (deterministic)."""
        row = np.ascontiguousarray(features, dtype=np.float64)
        return self.ring.shard_for(content_key(self.model_id, row))

    def submit(
        self,
        features: np.ndarray,
        timeout_s: Optional[float] = None,
    ) -> "Future":
        """Queue one feature row for scoring on its home shard.

        Same contract as :meth:`InferenceService.submit`: returns a
        future; raises :class:`ServiceClosedError` /
        :class:`QueueFullError` / :class:`ValueError` at submission.
        """
        return self._admit(features, timeout_s, ndim=1)[0]

    def score_many(
        self,
        features: np.ndarray,
        timeout_s: Optional[float] = None,
    ) -> np.ndarray:
        """Score every row of ``(n, f)`` and gather results in order.

        Same contract as :meth:`InferenceService.score_many`; each
        slice's misses are routed to their home shards and either all
        enqueued or, if any shard queue lacks room for its share, none
        are (:class:`QueueFullError`).
        """
        return self._score_sliced(features, timeout_s)

    def _route(self, misses):
        # The content key doubles as the routing key, so equal rows stay
        # on one shard even with the cache disabled (no key computed yet).
        unkeyed = [request for request in misses if request.cache_key is None]
        if unkeyed:
            keys = content_keys(
                self.model_id, np.stack([request.features for request in unkeyed])
            )
            for request, key in zip(unkeyed, keys):
                request.cache_key = key
        by_shard: Dict[int, List[ServeRequest]] = {}
        for request in misses:
            by_shard.setdefault(
                self.ring.shard_for(request.cache_key), []
            ).append(request)
        return [
            (index, self._shards[index].requests, part)
            for index, part in sorted(by_shard.items())
        ]

    # ------------------------------------------------------------------
    # Dispatcher side (one thread per shard)
    # ------------------------------------------------------------------
    def _dispatch_loop(self, shard: _Shard) -> None:
        while True:
            batch = shard.batcher.collect(block_s=0.02)
            if batch:
                # The execute span lives inside _run_batch so it can
                # carry the batch's trace ids and hand its span id to
                # the worker as the cross-process parent.
                self._run_batch(shard, batch)
            elif self._stop.is_set() and shard.requests.empty():
                return

    def _fail_batch(
        self, batch: List[ServeRequest], exc: BaseException
    ) -> None:
        self.stats.count("failed", len(batch))
        recorder = flight_recorder()
        error = f"{type(exc).__name__}: {exc}"
        for request in batch:
            recorder.record(
                "request_failed", trace_id=request.trace_id, error=error
            )
            request.future.set_exception(exc)

    def _round_trip(
        self,
        shard: _Shard,
        matrix: np.ndarray,
        trace_ids: List[str],
        parent_span_id: str,
    ):
        """One send/receive cycle with death detection and respawn.

        Returns the worker's reply tuple, or raises
        :class:`WorkerDiedError` once the redispatch budget is spent.
        Each redispatch goes to a freshly spawned worker over fresh
        queues, so a reply can only belong to the batch just sent.
        The trace context (request trace ids plus the dispatch span's
        id) rides along so worker spans join the request trees.
        """
        from repro.obs import tracing

        for attempt in range(self.max_redispatches + 1):
            shard.batch_counter += 1
            batch_id = shard.batch_counter
            self.stats.count("dispatches")
            if attempt > 0:
                self.stats.count("redispatches")
            shard.in_queue.put(
                (
                    batch_id,
                    matrix,
                    hwcounters.enabled(),
                    trace_ids,
                    parent_span_id,
                    tracing.enabled(),
                )
            )
            while True:
                try:
                    reply = shard.out_queue.get(
                        timeout=self.result_timeout_s
                    )
                except queue.Empty:
                    if shard.process.is_alive():
                        continue
                    break  # dead worker: respawn below
                if reply[1] == batch_id:
                    return reply
                # A reply from before a respawn cannot appear (fresh
                # queues), but guard against protocol bugs anyway.
                flight_recorder().record(
                    "shard_stale_reply", shard=shard.index, got=reply[1]
                )
            self.stats.count("worker_deaths")
            flight_recorder().record(
                "worker_death",
                shard=shard.index,
                exitcode=shard.process.exitcode,
                attempt=attempt,
            )
            shard.spawn()
            self.stats.count("worker_respawns")
        raise WorkerDiedError(
            f"shard {shard.index} worker died {self.max_redispatches + 1} "
            "times on one batch"
        )

    def _absorb_worker_telemetry(
        self, shard: _Shard, worker_spans, metrics_delta
    ) -> None:
        """Fold a worker reply's spans and metrics delta into the parent.

        Shipped span records are appended to the parent trace log (so
        assembled traces and ``python -m repro trace`` see the whole
        fleet) and the worker registry's delta is merged into the
        parent registry with a ``shard`` label — closing the gap where
        ``_worker_main``'s fresh private registry made worker-side
        series invisible to ``serve --workers N --metrics``.
        """
        from repro.obs import tracing

        if worker_spans:
            log = tracing.trace_log()
            for record in worker_spans:
                log.append(record)
        if metrics_delta and metrics_delta["series"]:
            self.stats.registry.merge_state(
                metrics_delta, extra_labels={"shard": str(shard.index)}
            )

    def _run_batch(self, shard: _Shard, batch: List[ServeRequest]) -> None:
        self.stats.record_batch(len(batch))
        self.stats.count("windows_scored", len(batch))
        recorder = flight_recorder()
        trace_ids = [request.trace_id for request in batch]
        recorder.record(
            "batch_form",
            size=len(batch),
            shard=shard.index,
            trace_ids=trace_ids,
        )
        matrix = np.stack([request.features for request in batch])

        token = None
        if shard.breaker is not None:
            try:
                token = shard.breaker.before_call()
            except CircuitOpenError as exc:
                self._fail_batch(batch, exc)
                return
        with span(
            "serve.shard.execute",
            registry=self.stats.registry,
            shard=shard.index,
            trace_ids=trace_ids,
        ) as execute_span:
            try:
                reply = self._round_trip(
                    shard,
                    matrix,
                    trace_ids,
                    execute_span.span_id if execute_span is not None else "",
                )
            except WorkerDiedError as exc:
                if shard.breaker is not None:
                    shard.breaker.record_failure(token)
                self._fail_batch(batch, exc)
                return

        if reply[0] == "err":
            _, _, type_name, message = reply
            if shard.breaker is not None:
                shard.breaker.record_failure(token)
            self._fail_batch(
                batch, TransientScorerError(f"{type_name}: {message}")
            )
            return
        if shard.breaker is not None:
            shard.breaker.record_success(token)
        _, _, results, runs, worker_spans, metrics_delta = reply
        self._absorb_worker_telemetry(shard, worker_spans, metrics_delta)
        results = np.asarray(results)
        if results.shape[0] != len(batch):
            self._fail_batch(
                batch,
                ConfigurationError(
                    f"worker returned {results.shape[0]} rows for a batch "
                    f"of {len(batch)}"
                ),
            )
            return

        # Re-record the workers' ledgers in the parent: the registry
        # counters, any open collect() scopes, and energy attribution
        # observe exactly what in-process serving would have recorded.
        with hwcounters.collect() as activity:
            for run in runs:
                hwcounters.record_run(run)
        hw_totals = activity.totals() if activity.runs else None
        if hw_totals is not None:
            self.stats.record_hw_totals(hw_totals, shard=shard.index)
        request_energy_nj = attribute_batch_energy(activity, len(batch))
        recorder.record(
            "score",
            size=len(batch),
            shard=shard.index,
            trace_ids=trace_ids,
            hw=hw_totals,
            energy_nj=(
                float(request_energy_nj.sum())
                if request_energy_nj is not None
                else None
            ),
        )

        self._complete(shard.batcher, batch, results, request_energy_nj)


__all__ = ["HashRing", "ShardedInferenceService"]
