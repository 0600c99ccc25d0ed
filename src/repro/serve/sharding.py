"""Multi-chip scale-out: forked worker processes behind the batchers.

A :class:`ShardedInferenceService` is an
:class:`~repro.serve.service.InferenceService` whose batches are scored
in *worker processes*, one per simulated chip assembly, rather than on
the calling process's engines (DESIGN.md §14). It has one lane (bounded
queue, micro-batcher, dispatch thread) per worker, and each lane's
executor is the round trip to that worker::

    score_many(chunk) / submit(row)
        │
      admit ── cache? ──> HashRing ──> lane queues ──> MicroBatcher
        │        │       (splits the   (the block's      │
        │        │        block by      parts, all  dispatch thread
        │        │        row key)      or none)         │
        │       hit                  ResilientExecutor: retry, shard
        │        │                   breaker, mp.Queue round trip
        │        │                                       │
        └─ the call <─── results, ledgers, energy ──── worker process

Admission, the cache, deadlines, retry, degraded mode, energy
attribution, result fan-out and the automatic flight dump are the
service's own. :class:`ShardPool` supplies only what differs: the
workers, the routing of misses to lanes, and each lane's executor.

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
import functools
import hashlib
import multiprocessing
import queue
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    TransientScorerError,
    WorkerDiedError,
)
from repro.obs import MetricsRegistry, event, hwcounters, tracing
from repro.serve.batcher import Block
from repro.serve.cache import content_key, content_keys
from repro.serve.resilience import (
    STATE_CODES,
    CircuitBreaker,
    ResilientExecutor,
    RetryPolicy,
)
from repro.serve.service import InferenceService, _resolve_batch_fn


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
    Replies are ``("ok", batch_id, results, runs, records, metrics_delta)``
    with the raw activity ledgers, and the trace-log records (spans and
    events) and worker-registry series recorded since the previous
    reply (the log is cleared and the registry reset after each
    export; the same ship-raw-merge-in-parent pattern the hw ledgers
    use), or
    ``("err", batch_id, type_name, message)`` — exceptions are
    flattened to strings so they pickle regardless of type.

    The worker's records run under the parent's trace context: the
    scoring span names the parent dispatch span as its ``parent_id``
    and carries the batch's request trace ids (which events raised
    inside it inherit), which is how
    :func:`repro.obs.traces.assemble_traces` stitches one tree per
    request across the process boundary.
    """
    # The fork inherits the parent's metrics registry mid-use (and its
    # lock state, if another parent thread held it at fork time); swap
    # in a fresh private registry before touching any instrument. The
    # fork also inherits the forking thread's span stack, the parent's
    # trace log and its id pool: reset the first two, namespace the
    # last so ids minted here can never collide with parent-minted ids.
    from repro.obs import metrics as obs_metrics
    from repro.obs.ids import configure_namespace

    configure_namespace(f"s{shard_index}")
    obs_metrics.set_registry(MetricsRegistry())
    tracing.reset_thread_state()
    log = tracing.trace_log()
    log.clear()
    registry = obs_metrics.get_registry()
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
            # This loop is the worker's only thread, so nothing records
            # between a read and its reset: each record and each
            # observation ships once.
            records = log.entries()
            log.clear()
            delta = registry.export_state()
            registry.reset()
            out_queue.put(
                ("ok", batch_id, results, list(activity.runs), records, delta)
            )
        except Exception as exc:  # flatten: arbitrary types may not pickle
            out_queue.put(("err", batch_id, type(exc).__name__, str(exc)))


class _Shard:
    """One worker process, its mp queues and its circuit breaker."""

    def __init__(
        self, index: int, model, context, breaker: Optional[CircuitBreaker]
    ) -> None:
        self.index = index
        self.model = model
        self.context = context
        self.breaker = breaker
        self.process = None
        self.in_queue = None
        self.out_queue = None
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


class ShardPool:
    """The worker processes behind a sharded service's lanes.

    Owns the forked workers, the :class:`HashRing` that routes each
    miss to its shard's lane, respawn and redispatch, one circuit
    breaker per shard, and the folding of each worker reply's trace
    records, metrics and activity ledgers into the parent. Each lane's executor
    is a :class:`~repro.serve.resilience.ResilientExecutor` (the
    service's retry policy, the shard's breaker) around
    :meth:`_round_trip`.

    Args:
        model: the model every worker scores with (forked, not pickled).
        workers: shard (worker process) count, >= 1.
        clock: the service clock, which the breakers' cooldowns read.
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
        workers: int,
        clock: Callable[[], float],
        breaker_failure_threshold: int,
        breaker_reset_timeout_s: float,
        ring_replicas: int,
        result_timeout_s: float,
        max_redispatches: int,
    ) -> None:
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
        self.ring = HashRing(workers, replicas=ring_replicas)
        self.result_timeout_s = result_timeout_s
        self.max_redispatches = max_redispatches
        # Forked workers inherit the already-compiled model; "fork" is
        # asserted rather than assumed so a non-fork platform fails
        # loudly instead of re-pickling the model per shard.
        context = multiprocessing.get_context("fork")
        self.shards = [
            _Shard(
                index,
                model,
                context,
                CircuitBreaker(
                    failure_threshold=breaker_failure_threshold,
                    reset_timeout_s=breaker_reset_timeout_s,
                    clock=clock,
                )
                if breaker_failure_threshold > 0
                else None,
            )
            for index in range(workers)
        ]
        self._service: Optional[InferenceService] = None

    def executors(
        self, service: InferenceService, retry_policy: Optional[RetryPolicy]
    ) -> List[Tuple[int, ResilientExecutor]]:
        """``(shard index, executor)`` for each of ``service``'s lanes."""
        self._service = service
        registry = service.stats.registry
        gauge = registry.gauge(
            "serve_breaker_open_shards",
            help="shards whose circuit breaker is not closed",
        )
        for shard in self.shards:
            if shard.breaker is not None:
                shard.breaker._on_state_change = functools.partial(
                    self._on_breaker_state, gauge, shard.index
                )
        return [
            (
                shard.index,
                ResilientExecutor(
                    functools.partial(self._round_trip, shard),
                    retry=retry_policy,
                    breaker=shard.breaker,
                    registry=registry,
                ),
            )
            for shard in self.shards
        ]

    def start(self) -> None:
        """Fork every worker process."""
        for shard in self.shards:
            shard.spawn()

    def close(self) -> None:
        """Shut every worker process down."""
        for shard in self.shards:
            shard.terminate()

    def route(self, model_id: str, block: Block) -> List[Tuple[int, Block]]:
        """``(shard index, block)`` parts of a block of misses, by shard."""
        # The content key doubles as the routing key, so equal rows stay
        # on one shard even with the cache disabled (no key computed yet).
        if block.keys is None:
            block.keys = content_keys(model_id, block.matrix)
        by_shard: Dict[int, List[int]] = {}
        for position, key in enumerate(block.keys):
            by_shard.setdefault(self.ring.shard_for(key), []).append(position)
        if len(by_shard) == 1:
            return [(shard, block) for shard in by_shard]
        return [
            (shard, block.select(rows)) for shard, rows in sorted(by_shard.items())
        ]

    def _on_breaker_state(self, gauge, shard_index: int, state: str) -> None:
        # Fires only when circuit breaking is on, i.e. every shard has one.
        gauge.set(
            sum(STATE_CODES[shard.breaker._state] != 0 for shard in self.shards)
        )
        event(
            "shard_breaker", shard=shard_index, state=state
        )
        if state == "open":
            self._service.stats.count("breaker_opens")
            self._service._auto_flight_dump("breaker_open")

    def _round_trip(
        self, shard: _Shard, matrix: np.ndarray, trace_ids: List[str]
    ) -> np.ndarray:
        """Score ``matrix`` on ``shard``'s worker, respawning it on death.

        Returns the worker's results after re-recording its activity
        ledgers on this thread, so they land in the caller's
        :func:`~repro.obs.hwcounters.collect` scope exactly as
        in-process engine runs would. A worker-side exception raises
        :class:`TransientScorerError`; :class:`WorkerDiedError` once
        the redispatch budget is spent. Each redispatch goes to a
        freshly spawned worker over fresh queues, so a reply can only
        belong to the batch just sent. The trace context (the request
        trace ids plus the id of the enclosing ``serve.shard.execute``
        span) rides along so worker spans join the request trees.
        """
        stats = self._service.stats
        for attempt in range(self.max_redispatches + 1):
            shard.batch_counter += 1
            batch_id = shard.batch_counter
            stats.count("dispatches")
            if attempt > 0:
                stats.count("redispatches")
            shard.in_queue.put(
                (
                    batch_id,
                    matrix,
                    hwcounters.enabled(),
                    trace_ids,
                    tracing.current_span_id(),
                    tracing.enabled(),
                )
            )
            while True:
                try:
                    reply = shard.out_queue.get(timeout=self.result_timeout_s)
                except queue.Empty:
                    if shard.process.is_alive():
                        continue
                    break  # dead worker: respawn below
                if reply[1] != batch_id:
                    # A reply from before a respawn cannot appear (fresh
                    # queues), but guard against protocol bugs anyway.
                    event(
                        "shard_stale_reply", shard=shard.index, got=reply[1]
                    )
                    continue
                if reply[0] == "err":
                    _, _, type_name, message = reply
                    raise TransientScorerError(f"{type_name}: {message}")
                _, _, results, runs, worker_records, metrics_delta = reply
                self._absorb_worker_telemetry(shard, worker_records, metrics_delta)
                for run in runs:
                    hwcounters.record_run(run)
                return results
            stats.count("worker_deaths")
            event(
                "worker_death",
                shard=shard.index,
                exitcode=shard.process.exitcode,
                attempt=attempt,
            )
            shard.spawn()
            stats.count("worker_respawns")
        raise WorkerDiedError(
            f"shard {shard.index} worker died {self.max_redispatches + 1} "
            "times on one batch"
        )

    def _absorb_worker_telemetry(
        self, shard: _Shard, worker_records, metrics_delta
    ) -> None:
        """Fold a worker reply's records and metrics delta into the parent.

        Shipped spans and events are appended to the parent trace log
        (so assembled traces, flight dumps and ``python -m repro
        trace`` see the whole fleet) and the worker registry's delta is merged into the
        parent registry with a ``shard`` label — closing the gap where
        ``_worker_main``'s fresh private registry made worker-side
        series invisible to ``serve --workers N --metrics``.
        """
        if worker_records:
            log = tracing.trace_log()
            for record in worker_records:
                log.append(record)
        if metrics_delta and metrics_delta["series"]:
            self._service.stats.registry.merge_state(
                metrics_delta, extra_labels={"shard": str(shard.index)}
            )


class ShardedInferenceService(InferenceService):
    """Serve one model from sharded worker processes (multi-chip tier).

    An :class:`~repro.serve.service.InferenceService` — same
    ``submit`` / ``score`` / ``score_many`` / ``stats`` / ``cache`` /
    lifecycle, same retry, degraded mode and flight dump — whose
    batches are scored in one of ``workers`` forked processes, routed
    by consistent hash of the request's content key. Results, cache
    keys, activity ledgers, and per-request energy are bit-identical to
    in-process serving (``tests/test_serve_differential.py``).

    Args:
        model: a ``(n, f) -> (n, ...)`` callable or ``decision_function``
            scorer; constructed *before* the fork so all shards share
            one copy-on-write snapshot.
        workers, breaker_failure_threshold, breaker_reset_timeout_s,
        ring_replicas, result_timeout_s, max_redispatches: see
            :class:`ShardPool`.
        **options: any other :class:`InferenceService` argument but
            ``circuit_breaker`` (each shard has its own).
            ``max_batch_size``, ``max_wait_ms`` and ``queue_capacity``
            apply to each shard's lane, the result cache is shared in
            the parent, and ``retry_policy`` retries each worker round
            trip.
    """

    def __init__(
        self,
        model,
        workers: int = 2,
        breaker_failure_threshold: int = 5,
        breaker_reset_timeout_s: float = 1.0,
        ring_replicas: int = 64,
        result_timeout_s: float = 1.0,
        max_redispatches: int = 1,
        **options,
    ) -> None:
        if "circuit_breaker" in options:
            raise ConfigurationError(
                "each shard has its own circuit breaker: set "
                "breaker_failure_threshold instead of circuit_breaker"
            )
        self._pool = ShardPool(
            model,
            workers,
            options.get("clock", time.monotonic),
            breaker_failure_threshold,
            breaker_reset_timeout_s,
            ring_replicas,
            result_timeout_s,
            max_redispatches,
        )
        self.ring = self._pool.ring
        super().__init__(model, **options)

    def shard_of(self, features: np.ndarray) -> int:
        """The shard index a feature row routes to (deterministic)."""
        row = np.ascontiguousarray(features, dtype=np.float64)
        return self.ring.shard_for(content_key(self.model_id, row))

    # perfbench's probes wrap each class's own submit and score_many,
    # so these must not call through InferenceService's.
    def submit(
        self,
        features: np.ndarray,
        timeout_s: Optional[float] = None,
    ) -> "Future":
        """Queue one row on its home shard (see
        :meth:`InferenceService.submit`)."""
        return self._admit(features, timeout_s, ndim=1).future

    def score_many(
        self,
        features: np.ndarray,
        timeout_s: Optional[float] = None,
    ) -> np.ndarray:
        """Score every row of ``(n, f)`` in order (see
        :meth:`InferenceService.score_many`); each slice's block of
        misses is split across its rows' home shards and queued whole
        or not at all."""
        return self._score_sliced(features, timeout_s)


__all__ = ["HashRing", "ShardPool", "ShardedInferenceService"]
