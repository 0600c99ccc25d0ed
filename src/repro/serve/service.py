"""The asynchronous micro-batching inference service.

Architecture (DESIGN.md §9)::

    score_many(chunk) / submit(row)
        │  (chunk sliced to at most queue_capacity rows)
      admit ── one cache lookup ──> hits resolve at once
        │
        └─ all misses ──> lane queue(s) ──> MicroBatcher ──> executor
           (or QueueFullError,                                │
            none enqueued)                              (n, f) batch
                                                              │
    Futures <── complete: one cache put_many, one observe_many┘

A *lane* is one bounded request queue, one
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

Concurrency model: callers submit from any thread. A ``score_many``
chunk is admitted as one operation per slice of at most
``queue_capacity`` rows (:meth:`InferenceService._admit`), and
``submit`` is its one-row case. Backpressure is by rejection — a full
queue raises :class:`~repro.errors.QueueFullError` at submission time
instead of growing without bound — and every request may carry a
deadline that is enforced both before batching (an expired request
never occupies a batch slot) and after scoring (a result that arrives
too late resolves to :class:`~repro.errors.DeadlineExceededError`,
though its value still feeds the cache).
"""

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    TransientScorerError,
)
from repro.obs import MetricsRegistry, observe_span, span
from repro.obs import hwcounters
from repro.obs.flight import flight_recorder
from repro.obs.ids import new_trace_ids
from repro.serve.batcher import BatchPolicy, MicroBatcher, ScoreCall, ServeRequest
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
    """One bounded request queue, its batcher and its dispatch thread.

    ``execute(matrix, trace_ids)`` scores one collected batch. ``shard``
    names the lane in its spans, flight events and hop counters; it is
    ``None`` for the single lane of in-process serving.
    """

    def __init__(
        self, service: "InferenceService", execute, shard: Optional[int]
    ) -> None:
        self.requests: "queue.Queue[ServeRequest]" = queue.Queue(
            service._queue_capacity
        )
        self.batcher = MicroBatcher(
            self.requests,
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
        queue_capacity: bounded queue depth; submissions beyond it raise
            :class:`QueueFullError`.
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
        flight_dump_path: when set, the process flight recorder is
            dumped to this path automatically whenever a batch fails or
            the circuit breaker opens (and on demand via the
            ``serve --flight-dump`` CLI flag).
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
        self.stats.bind_queue(
            lambda: sum(lane.requests.qsize() for lane in self._lanes)
        )
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
                (default). With ``drain=False`` still-queued requests
                are failed with :class:`ServiceClosedError`.
        """
        if self._closed:
            return
        self._closed = True
        if not drain:
            for lane in self._lanes:
                while True:
                    try:
                        request = lane.requests.get_nowait()
                    except queue.Empty:
                        break
                    request.future.set_exception(
                        ServiceClosedError("service closed before the request ran")
                    )
                    self.stats.count("rejected_closed")
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
        return self._admit(features, timeout_s, ndim=1)[0]

    def score_many(
        self,
        features: np.ndarray,
        timeout_s: Optional[float] = None,
    ) -> np.ndarray:
        """Score every row of ``(n, f)`` and gather results in order.

        Rows are admitted in slices of at most ``queue_capacity`` rows.
        Each slice is one admission — every cache miss is queued, or
        :class:`QueueFullError` is raised with none of that slice
        queued — and the next slice is admitted once the previous one
        has resolved, so a chunk larger than the queue still fits
        through it. ``timeout_s`` runs from each slice's admission.
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
            call = ScoreCall()
            futures = self._admit(piece, timeout_s, ndim=2, call=call)
            try:
                results.extend(future.result() for future in futures)
            finally:
                call.picked_up()
        return np.asarray(results)

    def score(
        self, features: np.ndarray, timeout_s: Optional[float] = None
    ) -> Union[float, np.ndarray]:
        """Submit one row and block for its result."""
        return self.submit(features, timeout_s=timeout_s).result()

    def _admit(
        self,
        features: np.ndarray,
        timeout_s: Optional[float],
        ndim: int,
        call: Optional[ScoreCall] = None,
    ) -> List["Future"]:
        """Admit a 1-D row (``ndim=1``) or an ``(n, f)`` chunk at once.

        In one pass: mint the request ids, compute the content keys,
        look every key up under one cache lock, bump each counter once,
        and enqueue all of the chunk's misses — or raise
        :class:`QueueFullError` having enqueued none of them. One
        ``serve.submit`` span and one ``cache_hit`` / ``cache_miss``
        flight event cover the chunk, plus one ``enqueue`` event per
        target lane; each carries the ``trace_ids`` of the rows it
        concerns, so :func:`repro.obs.traces.assemble_traces` still
        yields one trace per row. The queued misses are counted on
        ``call`` (a ``score_many`` slice) so the batcher can tell when
        its caller is released.

        Returns:
            One future per row, in row order.
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
        if n == 0:
            return []
        stats = self.stats
        stats.count("submitted", n)

        now = self._clock()
        deadline = None if timeout_s is None else now + timeout_s
        requests = [
            ServeRequest(
                features=row, deadline=deadline, enqueued_at=now, trace_id=trace_id
            )
            for row, trace_id in zip(matrix, new_trace_ids(n))
        ]
        recorder = flight_recorder()
        with span(
            "serve.submit",
            registry=stats.registry,
            trace_ids=[request.trace_id for request in requests],
        ):
            misses = requests
            if self.cache is not None:
                keys = content_keys(self.model_id, matrix)
                for request, key in zip(requests, keys):
                    request.cache_key = key
                hits, misses = [], []
                for request, value in zip(requests, self.cache.lookup_many(keys)):
                    if value is MISS:
                        misses.append(request)
                    else:
                        hits.append((request, value))
                if hits:
                    stats.count("cache_hits", len(hits))
                    stats.count("completed", len(hits))
                    stats.record_latencies([self._clock() - now] * len(hits))
                    recorder.record(
                        "cache_hit",
                        trace_ids=[request.trace_id for request, _ in hits],
                    )
                    for request, value in hits:
                        request.future.set_result(value)
                if misses:
                    stats.count("cache_misses", len(misses))
                    recorder.record(
                        "cache_miss",
                        trace_ids=[request.trace_id for request in misses],
                    )
            if misses:
                if call is not None:
                    call.pending = len(misses)
                    for request in misses:
                        request.call = call
                self._enqueue(misses, timeout_s)
        return [request.future for request in requests]

    def _route(
        self, misses: List[ServeRequest]
    ) -> List[Tuple[_Lane, List[ServeRequest]]]:
        """``(lane, requests)`` parts for the misses, in lane order."""
        if self._pool is None:
            return [(self._lanes[0], misses)]
        return [
            (self._lanes[index], part)
            for index, part in self._pool.route(self.model_id, misses)
        ]

    def _enqueue(
        self, misses: List[ServeRequest], timeout_s: Optional[float]
    ) -> None:
        """Enqueue every miss on its routed lane, or none of them.

        :meth:`_admit` is the only producer on the request queues and
        the batchers only remove requests, so room checked under the
        admission lock can only grow before the puts below it.
        """
        parts = self._route(misses)
        recorder = flight_recorder()
        with self._admit_lock:
            for lane, part in parts:
                target = lane.requests
                if target.qsize() + len(part) > target.maxsize:
                    self.stats.count("rejected_queue_full", len(misses))
                    recorder.record(
                        "queue_full",
                        trace_ids=[request.trace_id for request in misses],
                        capacity=target.maxsize,
                        **lane.labels,
                    )
                    name = "request" if lane.shard is None else f"shard {lane.shard}"
                    raise QueueFullError(
                        f"{name} queue is at capacity ({target.maxsize}): "
                        f"no room for {len(part)} more rows"
                    )
            for lane, part in parts:
                for request in part:
                    lane.requests.put_nowait(request)
        for lane, part in parts:
            recorder.record(
                "enqueue",
                trace_ids=[request.trace_id for request in part],
                deadline_in_s=timeout_s,
                queue_depth=self.stats.queue_depth,
                **lane.labels,
            )

    def _expire(self, request: ServeRequest) -> None:
        """Fail a request whose deadline lapsed while it queued."""
        self.stats.count("expired_before_batch")
        flight_recorder().record(
            "deadline_expired", trace_id=request.trace_id, phase="queued"
        )
        request.future.set_exception(
            DeadlineExceededError("deadline expired while queued")
        )

    # ------------------------------------------------------------------
    # Dispatch side (one thread per lane)
    # ------------------------------------------------------------------
    def _auto_flight_dump(self, reason: str) -> None:
        """Dump the flight recorder when an incident trigger fires."""
        if self.flight_dump_path is None:
            return
        try:
            flight_recorder().dump(self.flight_dump_path, reason=reason)
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
            elif self._stop.is_set() and lane.requests.empty():
                return

    def _fail_batch(self, batch: List[ServeRequest], exc: BaseException) -> None:
        """Fail every request, narrate it, and trigger the auto-dump."""
        self.stats.count("failed", len(batch))
        recorder = flight_recorder()
        error = f"{type(exc).__name__}: {exc}"
        for request in batch:
            recorder.record(
                "request_failed", trace_id=request.trace_id, error=error
            )
            request.future.set_exception(exc)
        self._auto_flight_dump("request_failed")

    def _run_batch(self, lane: _Lane, batch: List[ServeRequest]) -> None:
        stats = self.stats
        stats.record_batch(len(batch))
        stats.count("windows_scored", len(batch))
        recorder = flight_recorder()
        trace_ids = [request.trace_id for request in batch]
        recorder.record(
            "batch_form", size=len(batch), trace_ids=trace_ids, **lane.labels
        )
        matrix = np.stack([request.features for request in batch])
        try:
            with span(
                lane.span,
                registry=stats.registry,
                trace_ids=trace_ids,
                **lane.labels,
            ):
                with hwcounters.collect() as activity:
                    results = np.asarray(lane.execute(matrix, trace_ids))
        except Exception as exc:  # a failed call fails the whole batch
            if self._degraded_value is None or not isinstance(
                exc, (CircuitOpenError, TransientScorerError)
            ):
                self._fail_batch(batch, exc)
                return
            # Retries exhausted or breaker open: degrade.
            stats.count("degraded", len(batch))
            recorder.record(
                "degraded",
                size=len(batch),
                trace_ids=trace_ids,
                error=f"{type(exc).__name__}: {exc}",
                **lane.labels,
            )
            now = self._clock()
            for request in batch:
                # Degraded values never feed the cache — they are not the
                # model's answer for this window.
                if request.expired(now):
                    stats.count("expired_after_batch")
                    recorder.record(
                        "deadline_expired", trace_id=request.trace_id, phase="scored"
                    )
                    request.future.set_exception(
                        DeadlineExceededError("deadline expired during scoring")
                    )
                else:
                    request.future.set_result(self._degraded_value)
            return
        if results.shape[0] != len(batch):
            self._fail_batch(
                batch,
                ConfigurationError(
                    f"model returned {results.shape[0]} rows for a batch of "
                    f"{len(batch)}"
                ),
            )
            return

        request_energy_nj = attribute_batch_energy(activity, len(batch))
        hw_totals = activity.totals() if activity.runs else None
        if hw_totals is not None:
            stats.record_hw_totals(hw_totals, shard=lane.shard)
        recorder.record(
            "score",
            size=len(batch),
            trace_ids=trace_ids,
            hw=hw_totals,
            energy_nj=(
                float(request_energy_nj.sum())
                if request_energy_nj is not None
                else None
            ),
            **lane.labels,
        )
        self._complete(lane.batcher, batch, results, request_energy_nj)

    def _complete(
        self,
        batcher: MicroBatcher,
        batch: List[ServeRequest],
        results: np.ndarray,
        request_energy_nj: Optional[np.ndarray],
    ) -> None:
        """Resolve a scored batch: one cache put, one histogram update.

        Every result feeds the cache (even one that arrives after its
        deadline) and every request's energy is added to the energy
        counter in request order, so the totals match scoring the rows
        one at a time bit for bit. ``batcher``, which collected the
        batch, counts the ``score_many`` calls it releases.
        """
        stats = self.stats
        now = self._clock()
        if results.ndim == 1:
            values = np.asarray(results, dtype=np.float64).tolist()
        else:
            values = [np.array(row) for row in results]
        if self.cache is not None:
            self.cache.put_many(
                (request.cache_key, value)
                for request, value in zip(batch, values)
                if request.cache_key is not None
            )
        if request_energy_nj is not None:
            stats.record_energies(request_energy_nj.tolist())
        batcher.release(batch)
        done = []
        for request, value in zip(batch, values):
            if request.expired(now):
                stats.count("expired_after_batch")
                flight_recorder().record(
                    "deadline_expired", trace_id=request.trace_id, phase="scored"
                )
                request.future.set_exception(
                    DeadlineExceededError("deadline expired during scoring")
                )
            else:
                done.append((request, value))
        if done:
            stats.count("completed", len(done))
            stats.record_latencies([now - request.enqueued_at for request, _ in done])
            for request, value in done:
                request.future.set_result(value)


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
    its window chunks through the service — each row becomes one
    request, so windows from concurrent detectors coalesce into shared
    engine batches.

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
        """Scores of a ``(n, f)`` matrix, one request per row."""
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
