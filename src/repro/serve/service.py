"""The asynchronous micro-batching inference service.

Architecture (DESIGN.md §9)::

    score_many(chunk) / submit(row)
        │  (chunk sliced to at most queue_capacity rows)
      admit ── one cache lookup ──> hits fill the call's values
        │
        └─ misses, one block ──> lane queue(s) ──> MicroBatcher ──> executor
           (or QueueFullError,   (block split     (packs and        │
            none enqueued)        per shard)       splits blocks)  (n, f) batch
                                                                    │
    call wakes once <── complete: one cache put_many, one observe_many

A *lane* is one bounded queue of row blocks, one
:class:`~repro.serve.batcher.MicroBatcher` and one dispatch thread; its
executor turns the lane's ``(n, f)`` batch into results. In-process
serving is one lane whose executor is a
:class:`~repro.serve.resilience.ResilientExecutor` around the model.
:class:`~repro.serve.sharding.ShardedInferenceService` is this service
with one lane per forked worker process, each executor a
``ResilientExecutor`` around that worker's round trip
(:class:`~repro.serve.sharding.ShardPool`). Admission, the cache,
deadlines, retry, degraded mode, energy attribution, result fan-out
and the automatic flight dump are this module's, once, for both.

Concurrency model: callers submit from any thread. Each ``score_many``
slice of at most ``queue_capacity`` rows, and each ``submit`` row, is
one admission (:meth:`InferenceService._admit`): one
:class:`~repro.serve.batcher.ScoreCall` whose cache misses are queued
as one :class:`~repro.serve.batcher.Block` and whose caller wakes once,
when its last row resolves. Backpressure is by rejection — a queue
without room for the block raises :class:`~repro.errors.QueueFullError`
at submission time — and a block's deadline is enforced both before
batching (an expired block never occupies a batch slot) and after
scoring (late rows fail with :class:`~repro.errors.DeadlineExceededError`,
though their values still feed the cache). Counters, queue depth and
capacity, and the latency histogram all count rows.
"""

import threading
import time
from concurrent.futures import Future
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    TransientScorerError,
)
from repro.obs import MetricsRegistry, event, observe_span, span, trace_log
from repro.obs import hwcounters
from repro.obs.ids import new_trace_ids
from repro.serve.batcher import BatchPolicy, Block, MicroBatcher, ScoreCall
from repro.serve.cache import MISS, LruResultCache, content_keys
from repro.serve.resilience import (
    STATE_CODES,
    CircuitBreaker,
    ResilientExecutor,
    RetryPolicy,
)
from repro.serve.stats import ServiceStats

BatchFunction = Callable[[np.ndarray], np.ndarray]


def _resolve_batch_fn(model) -> BatchFunction:
    """The ``(n, f) -> (n, ...)`` callable behind ``model``."""
    if callable(model) and not hasattr(model, "decision_function"):
        return model
    if hasattr(model, "decision_function"):
        return model.decision_function
    raise ConfigurationError(
        "model must be callable or expose decision_function, got "
        f"{type(model).__name__}"
    )


class _Lane:
    """One bounded block queue, its batcher and its dispatch thread.

    ``execute(matrix, trace_ids)`` scores one collected batch. ``shard``
    names the lane in its spans, events and hop counters; it is
    ``None`` for the single lane of in-process serving.
    """

    def __init__(
        self, service: "InferenceService", execute, shard: Optional[int]
    ) -> None:
        self.batcher = MicroBatcher(
            service._queue_capacity,
            service.policy,
            on_expired=service._expire,
            clock=service._clock,
        )
        self.execute = execute
        self.shard = shard
        self.labels = {} if shard is None else {"shard": shard}
        self.span = "serve.model.batch" if shard is None else "serve.shard.execute"
        self.thread = threading.Thread(
            target=service._dispatch_loop,
            args=(self,),
            name="repro-serve-0" if shard is None else f"repro-dispatch-{shard}",
            daemon=True,
        )


class InferenceService:
    """Coalesces concurrent scoring requests into engine batches.

    Args:
        model: a ``(n, f) -> (n, ...)`` callable, or any scorer exposing
            ``decision_function`` (e.g. ``TrueNorthBinaryScorer``).
        max_batch_size: micro-batch dispatch threshold.
        max_wait_ms: micro-batch coalescing wait.
        queue_capacity: bounded queue depth in rows; submissions beyond
            it raise :class:`QueueFullError`.
        cache_capacity: LRU result-cache entries; 0 disables. The cache
            is also disabled (with a counted ``cache_disabled`` stat)
            when the model advertises ``cacheable = False`` — caching a
            model whose scores depend on call order would change
            results.
        model_id: stable identity for cache keys; defaults to the
            model's ``model_id`` attribute, else a per-instance tag.
        clock: monotonic time source (injectable for tests).
        registry: metrics registry behind :attr:`stats` and the serve
            spans; ``None`` (default) keeps a private per-service
            registry, ``repro.obs.get_registry()`` publishes into the
            process-wide one (the ``--metrics`` CLI path).
        retry_policy: optional
            :class:`~repro.serve.resilience.RetryPolicy`; transient
            scorer faults (:class:`~repro.errors.TransientScorerError`)
            are retried with backoff before a batch is failed. Each
            retry is counted in ``serve_retries_total``.
        circuit_breaker: optional
            :class:`~repro.serve.resilience.CircuitBreaker` gating
            every scorer call; its state is exported on the
            ``serve_breaker_state`` gauge (0 closed / 1 half-open /
            2 open).
        degraded_value: when set, a batch that still fails after retry
            (or hits an open breaker) resolves every request with this
            fallback value instead of an exception — counted in
            ``serve_degraded_total`` and **never** written to the
            result cache. Other exception types still fail the batch.
        flight_dump_path: when set, the process trace log (spans and
            lifecycle events) is dumped to this path automatically
            whenever a batch fails or the circuit breaker opens (and on
            demand via the ``serve --flight-dump`` CLI flag).
    """

    #: The worker processes behind the lanes, or ``None`` to score in
    #: this process. :class:`~repro.serve.sharding.ShardedInferenceService`
    #: sets its :class:`~repro.serve.sharding.ShardPool` here before
    #: calling this constructor.
    _pool = None

    def __init__(
        self,
        model,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        queue_capacity: int = 256,
        cache_capacity: int = 4096,
        model_id: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        circuit_breaker: Optional[CircuitBreaker] = None,
        degraded_value: Optional[float] = None,
        flight_dump_path: Optional[str] = None,
    ) -> None:
        if queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if cache_capacity < 0:
            raise ConfigurationError(
                f"cache_capacity must be >= 0, got {cache_capacity}"
            )
        batch_fn = _resolve_batch_fn(model)
        self.model = model
        self.model_id = (
            model_id
            if model_id is not None
            else getattr(model, "model_id", None)
            or f"{type(model).__name__}@{id(model):x}"
        )
        self.policy = BatchPolicy(max_batch_size, max_wait_ms)
        self.stats = ServiceStats(registry=registry)
        self._clock = clock
        self._queue_capacity = queue_capacity
        self._admit_lock = threading.Lock()

        cacheable = bool(getattr(model, "cacheable", True))
        if cache_capacity > 0 and not cacheable:
            self.stats.count("cache_disabled")
            cache_capacity = 0
        self.cache = LruResultCache(cache_capacity) if cache_capacity else None

        self._degraded_value = degraded_value
        self.flight_dump_path = flight_dump_path
        self.circuit_breaker = circuit_breaker
        if circuit_breaker is not None:
            # One clock per service: a breaker still on the default
            # time source follows the injected clock, so cooldowns and
            # deadlines cannot drift apart under a test clock.
            if circuit_breaker._clock is time.monotonic and clock is not time.monotonic:
                circuit_breaker.bind_clock(clock)
            breaker_gauge = self.stats.registry.gauge(
                "serve_breaker_state",
                help="circuit breaker state (0 closed, 1 half-open, 2 open)",
            )

            def _on_breaker_state(state: str) -> None:
                breaker_gauge.set(STATE_CODES[state])
                if state == "open":
                    self._auto_flight_dump("breaker_open")

            circuit_breaker._on_state_change = _on_breaker_state
            breaker_gauge.set(STATE_CODES[circuit_breaker.state])

        if self._pool is None:
            executors = [
                (
                    None,
                    ResilientExecutor(
                        lambda matrix, _trace_ids: batch_fn(matrix),
                        retry=retry_policy,
                        breaker=circuit_breaker,
                        registry=self.stats.registry,
                    ),
                )
            ]
        else:
            executors = self._pool.executors(self, retry_policy)
        self._lanes = [_Lane(self, execute, shard) for shard, execute in executors]
        self.stats.bind_queue(lambda: sum(lane.batcher.rows for lane in self._lanes))
        self._stop = threading.Event()
        self._started = False
        self._closed = False

    @property
    def clock(self) -> Callable[[], float]:
        """The service's monotonic time source (single-clock contract).

        Everything that compares against a service deadline — the
        batcher, the breaker cooldown, the load generator — must read
        this clock, never ``time.monotonic`` directly.
        """
        return self._clock

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceService":
        """Start any worker processes and the dispatch threads (idempotent)."""
        if self._closed:
            raise ServiceClosedError("service already closed")
        if not self._started:
            self._started = True
            if self._pool is not None:
                self._pool.start()
            for lane in self._lanes:
                lane.thread.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests and shut every lane and worker down.

        Args:
            drain: process everything already queued before exiting
                (default). With ``drain=False`` still-queued rows
                are failed with :class:`ServiceClosedError`.
        """
        if self._closed:
            return
        self._closed = True
        if not drain:
            for lane in self._lanes:
                while True:
                    block = lane.batcher.take(lane.batcher.capacity)
                    if block is None:
                        break
                    error = ServiceClosedError("service closed before the request ran")
                    self._fail_block(block, "rejected_closed", error)
        self._stop.set()
        for lane in self._lanes:
            if lane.thread.is_alive():
                lane.thread.join()
        if self._pool is not None:
            self._pool.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------
    # Each service class defines submit and score_many itself:
    # perfbench's per-layer probes wrap each class's own attribute.
    def submit(
        self,
        features: np.ndarray,
        timeout_s: Optional[float] = None,
    ) -> "Future":
        """Queue one feature row for scoring.

        The one-row case of :meth:`score_many`'s chunk admission.

        Args:
            features: 1-D feature row.
            timeout_s: optional deadline, measured from now; enforced
                before batching and again after scoring.

        Returns:
            A future resolving to the model's result row (a ``float``
            for scorers, an array for vector models).

        Raises:
            ServiceClosedError: the service is closed (or never
                started).
            QueueFullError: the row's queue is at capacity.
            ValueError: ``features`` is not 1-D.
        """
        return self._admit(features, timeout_s, ndim=1).future

    def score_many(
        self,
        features: np.ndarray,
        timeout_s: Optional[float] = None,
    ) -> np.ndarray:
        """Score every row of ``(n, f)`` and gather results in order.

        Rows are admitted in slices of at most ``queue_capacity`` rows.
        Each slice is one admission — its cache misses are queued as one
        block, or :class:`QueueFullError` is raised with none of that
        slice queued — and the next slice is admitted once the previous
        one has resolved, so a chunk larger than the queue still fits
        through it. ``timeout_s`` runs from each slice's admission. A
        slice raises the first error any of its rows met.
        """
        return self._score_sliced(features, timeout_s)

    def _score_sliced(
        self, features: np.ndarray, timeout_s: Optional[float]
    ) -> np.ndarray:
        """``score_many`` for both service classes (see its docstring)."""
        array = np.asarray(features)
        step = self._queue_capacity
        pieces = (
            [array[start : start + step] for start in range(0, len(array), step)]
            if array.ndim == 2 and len(array) > step
            else [array]
        )
        results = []
        for piece in pieces:
            call = self._admit(piece, timeout_s, ndim=2)
            try:
                results.extend(call.future.result())
            finally:
                call.picked_up()
        return np.asarray(results)

    def score(
        self, features: np.ndarray, timeout_s: Optional[float] = None
    ) -> Union[float, np.ndarray]:
        """Submit one row and block for its result."""
        return self.submit(features, timeout_s=timeout_s).result()

    def _admit(
        self, features: np.ndarray, timeout_s: Optional[float], ndim: int
    ) -> ScoreCall:
        """Admit a 1-D row (``ndim=1``) or an ``(n, f)`` chunk at once.

        In one pass: mint the row trace ids, compute the content keys,
        look every key up under one cache lock, write the hits into the
        call's values, bump each counter once, and enqueue the misses
        as one block — or raise :class:`QueueFullError` having enqueued
        none of them. One ``serve.submit`` span and one ``cache_hit`` /
        ``cache_miss`` event cover the chunk, plus one ``enqueue`` event
        per target lane; each carries the ``trace_ids`` of the rows it
        concerns, so :func:`repro.obs.traces.assemble_traces` still
        yields one trace per row.

        Returns:
            The admission's call, whose future resolves once every
            queued row has.
        """
        if self._closed or not self._started:
            raise ServiceClosedError(
                "service is closed" if self._closed else "service not started"
            )
        array = np.ascontiguousarray(features, dtype=np.float64)
        if array.ndim != ndim:
            raise ValueError(
                f"features must be {ndim}-D, got shape {array.shape}"
            )
        matrix = array.reshape(1, -1) if ndim == 1 else array
        n = matrix.shape[0]
        call = ScoreCall(n, single=ndim == 1)
        if n == 0:
            call.resolve()
            return call
        stats = self.stats
        stats.count("submitted", n)

        now = self._clock()
        deadline = None if timeout_s is None else now + timeout_s
        trace_ids = new_trace_ids(n)
        with span("serve.submit", registry=stats.registry, trace_ids=trace_ids):
            keys = None if self.cache is None else content_keys(self.model_id, matrix)
            block = Block(call, range(n), matrix, keys, trace_ids, deadline, now)
            if keys is not None:
                found = self.cache.lookup_many(keys)
                misses = [row for row, value in enumerate(found) if value is MISS]
                if len(misses) < n:
                    hits = [row for row, value in enumerate(found) if value is not MISS]
                    for row in hits:
                        call.values[row] = found[row]
                    stats.count("cache_hits", len(hits))
                    stats.count("completed", len(hits))
                    stats.record_latencies([self._clock() - now] * len(hits))
                    event("cache_hit", trace_ids=[trace_ids[row] for row in hits])
                    block = block.select(misses)
                if misses:
                    stats.count("cache_misses", len(misses))
                    event("cache_miss", trace_ids=block.trace_ids)
            call.pending = len(block)
            if block.trace_ids:
                self._enqueue(block, timeout_s)
            else:
                call.resolve()
        return call

    def _enqueue(self, block: Block, timeout_s: Optional[float]) -> None:
        """Enqueue the block's rows on their routed lanes, or none of them.

        :meth:`_admit` is the only producer on the block queues and
        the batchers only remove rows, so room checked under the
        admission lock can only grow before the puts below it.
        """
        if self._pool is None:
            parts = [(self._lanes[0], block)]
        else:
            parts = [
                (self._lanes[index], part)
                for index, part in self._pool.route(self.model_id, block)
            ]
        with self._admit_lock:
            for lane, part in parts:
                target = lane.batcher
                if target.rows + len(part) > target.capacity:
                    self.stats.count("rejected_queue_full", len(block))
                    event(
                        "queue_full",
                        trace_ids=block.trace_ids,
                        capacity=target.capacity,
                        **lane.labels,
                    )
                    name = "request" if lane.shard is None else f"shard {lane.shard}"
                    raise QueueFullError(
                        f"{name} queue is at capacity ({target.capacity}): "
                        f"no room for {len(part)} more rows"
                    )
            for lane, part in parts:
                lane.batcher.put(part)
        for lane, part in parts:
            event(
                "enqueue",
                trace_ids=part.trace_ids,
                deadline_in_s=timeout_s,
                queue_depth=self.stats.queue_depth,
                **lane.labels,
            )

    def _fail_block(self, block: Block, counter: str, exc, kind=None, **attrs):
        """Count ``block``'s rows on ``counter``, narrate each as a ``kind``
        event, then fail them with ``exc``."""
        self.stats.count(counter, len(block))
        if kind is not None:
            for trace_id in block.trace_ids:
                event(kind, trace_id=trace_id, **attrs)
        block.call.settle(block.rows, error=exc)

    def _expire(self, block: Block) -> None:
        """Fail a block whose deadline lapsed while it queued."""
        error = DeadlineExceededError("deadline expired while queued")
        self._fail_block(block, "expired_before_batch", error, "deadline_expired",
                         phase="queued")

    # ------------------------------------------------------------------
    # Dispatch side (one thread per lane)
    # ------------------------------------------------------------------
    def _auto_flight_dump(self, reason: str) -> None:
        """Dump the trace log when an incident trigger fires."""
        if self.flight_dump_path is None:
            return
        try:
            trace_log().dump(self.flight_dump_path, reason=reason)
        except OSError:
            self.stats.count("flight_dump_errors")

    def _dispatch_loop(self, lane: _Lane) -> None:
        registry = self.stats.registry
        while True:
            drain_started = time.perf_counter()
            batch = lane.batcher.collect(block_s=0.02)
            if batch:
                # Idle polls are not drains: only a non-empty collect is
                # recorded, so the drain span measures coalescing time.
                observe_span(
                    "serve.batcher.drain",
                    time.perf_counter() - drain_started,
                    registry=registry,
                )
                with span("serve.worker.execute", registry=registry):
                    self._run_batch(lane, batch)
            elif self._stop.is_set() and not lane.batcher.rows:
                return

    def _fail_batch(self, batch: List[Block], exc: BaseException) -> None:
        """Fail every row, narrate it, and trigger the auto-dump."""
        for block in batch:
            self._fail_block(block, "failed", exc, "request_failed",
                             error=f"{type(exc).__name__}: {exc}")
        self._auto_flight_dump("request_failed")

    def _run_batch(self, lane: _Lane, batch: List[Block]) -> None:
        stats = self.stats
        size = sum(len(block) for block in batch)
        stats.record_batch(size)
        stats.count("windows_scored", size)
        trace_ids = [t for block in batch for t in block.trace_ids]
        event("batch_form", size=size, trace_ids=trace_ids, **lane.labels)
        matrix = batch[0].matrix if len(batch) == 1 else np.concatenate(
            [block.matrix for block in batch]
        )
        try:
            with span(lane.span, registry=stats.registry, trace_ids=trace_ids,
                      **lane.labels):
                with hwcounters.collect() as activity:
                    results = np.asarray(lane.execute(matrix, trace_ids))
        except Exception as exc:  # a failed call fails the whole batch
            if self._degraded_value is None or not isinstance(
                exc, (CircuitOpenError, TransientScorerError)
            ):
                self._fail_batch(batch, exc)
                return
            # Retries exhausted or breaker open: degrade. Degraded values
            # never feed the cache — they are not the model's answer.
            stats.count("degraded", size)
            event(
                "degraded",
                size=size,
                trace_ids=trace_ids,
                error=f"{type(exc).__name__}: {exc}",
                **lane.labels,
            )
            self._complete(
                lane.batcher, batch, [self._degraded_value] * size, degraded=True
            )
            return
        if results.shape[0] != size:
            self._fail_batch(batch, ConfigurationError(
                f"model returned {results.shape[0]} rows for a batch of {size}"
            ))
            return

        request_energy_nj = attribute_batch_energy(activity, size)
        hw_totals = activity.totals() if activity.runs else None
        if hw_totals is not None:
            stats.record_hw_totals(hw_totals, shard=lane.shard)
        event(
            "score",
            size=size,
            trace_ids=trace_ids,
            hw=hw_totals,
            energy_nj=(
                float(request_energy_nj.sum())
                if request_energy_nj is not None
                else None
            ),
            **lane.labels,
        )
        if results.ndim == 1:
            values = np.asarray(results, dtype=np.float64).tolist()
        else:
            values = [np.array(row) for row in results]
        if self.cache is not None:
            self.cache.put_many(
                zip((key for block in batch for key in block.keys), values)
            )
        if request_energy_nj is not None:
            stats.record_energies(request_energy_nj.tolist())
        self._complete(lane.batcher, batch, values)

    def _complete(self, batcher: MicroBatcher, batch: List[Block], values: List,
                  degraded: bool = False) -> None:
        """Write a batch's values into its calls, one block at a time.

        Rows whose deadline passed meanwhile fail with
        :class:`DeadlineExceededError` (scored values fed the cache
        first); ``degraded`` fallback values are not counted as
        completed and release no caller. Counters are bumped before any
        caller wakes. ``batcher`` counts the ``score_many`` calls it
        releases.
        """
        stats = self.stats
        now = self._clock()
        done = []
        start = 0
        for block in batch:
            stop = start + len(block)
            if block.expired(now):
                error = DeadlineExceededError("deadline expired during scoring")
                self._fail_block(block, "expired_after_batch", error,
                                 "deadline_expired", phase="scored")
            else:
                done.append((block, values[start:stop]))
            start = stop
        if done and not degraded:
            latencies = [now - block.enqueued_at for block, _ in done for _ in block.rows]
            stats.count("completed", len(latencies))
            stats.record_latencies(latencies)
        releaser = None if degraded else batcher
        for block, part in done:
            block.call.settle(block.rows, part, releaser=releaser)


def attribute_batch_energy(
    collector: "hwcounters.ActivityCollector", batch_size: int
) -> Optional[np.ndarray]:
    """Per-request energy (nJ) from a batch's activity ledgers.

    When the model ran one engine lane per request (the TrueNorth
    scorer path, chunked or not), lanes map to requests in order and
    each request is charged its own lane's measured energy. Otherwise
    the model's total measured energy is split evenly; a model that
    never touched an engine yields ``None``.
    """
    if not collector.runs:
        return None
    lane_energy = collector.lane_energy_joules() * 1e9
    if lane_energy.size == batch_size:
        return lane_energy
    return np.full(batch_size, float(lane_energy.sum()) / batch_size)


class ServiceBackedScorer:
    """Adapt an :class:`InferenceService` back to the scorer protocol.

    Lets a :class:`~repro.detection.pipeline.SlidingWindowDetector` (or
    anything else speaking ``decision_function``) transparently route
    its window chunks through the service — each chunk is one
    ``score_many`` call whose cache misses queue as one block, so windows
    from concurrent detectors coalesce into shared engine batches.

    Args:
        service: a started service whose model returns scalar scores.
        timeout_s: optional per-window deadline.
    """

    def __init__(
        self, service: InferenceService, timeout_s: Optional[float] = None
    ) -> None:
        self.service = service
        self.timeout_s = timeout_s

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Scores of a ``(n, f)`` matrix, served as one ``score_many`` call."""
        matrix = np.asarray(features, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        if matrix.shape[0] == 0:
            return np.zeros(0)
        return self.service.score_many(matrix, timeout_s=self.timeout_s).astype(
            np.float64
        )


def sequential_baseline(
    model, rows: Sequence[np.ndarray]
) -> List[Union[float, np.ndarray]]:
    """Score ``rows`` one request at a time (the no-batching baseline).

    This is what a naive per-request deployment of the engine does; the
    serving benchmark reports its sustained rate against the service's.
    """
    batch_fn = _resolve_batch_fn(model)
    results = []
    for row in rows:
        out = np.asarray(batch_fn(np.asarray(row, dtype=np.float64)[None, :]))
        results.append(float(out[0]) if np.ndim(out[0]) == 0 else np.array(out[0]))
    return results


__all__ = [
    "BatchFunction",
    "InferenceService",
    "ServiceBackedScorer",
    "attribute_batch_energy",
    "sequential_baseline",
]
