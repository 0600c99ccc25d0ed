"""Micro-batching: drain a bounded request queue into engine batches.

The PR-1 batch engine amortises its per-tick cost across lanes, so
serving throughput is maximised by coalescing concurrent single-window
requests into one ``decision_function`` call. The policy is the classic
two-knob micro-batcher: dispatch as soon as ``max_batch_size`` requests
are waiting, or when the oldest collected request has waited
``max_wait_ms`` — whichever comes first. Under light load a request pays
at most ``max_wait_ms`` of coalescing latency; under heavy load batches
fill instantly and the wait never triggers.

One refinement serves closed-loop callers. When a batch resolves the
last request of a ``score_many`` call (a :class:`ScoreCall`), its caller
is *released*: it is waking up to pick up its results and, in a closed
loop, to submit its next call. A batch collected meanwhile stays open
until every released caller has picked up, and then for ``max_wait_ms``
after the last pickup. Without this, callers released together by one
batch race the wait against their own thread wake-ups, which take
milliseconds on a loaded machine, and one late caller waits out a whole
batch.
"""

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BatchPolicy:
    """The two-knob micro-batching policy.

    Attributes:
        max_batch_size: dispatch when this many requests are collected.
        max_wait_ms: dispatch when the first collected request has
            waited this long (0 disables coalescing: every drain takes
            whatever is immediately available).
    """

    max_batch_size: int = 32
    max_wait_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait_ms < 0:
            raise ConfigurationError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )


@dataclass
class ServeRequest:
    """One in-flight scoring request.

    Attributes:
        features: the 1-D feature row to score.
        future: resolved with the result (or an error) by the worker.
        deadline: absolute :func:`time.monotonic` deadline, or ``None``.
        cache_key: content key when caching is enabled, else ``None``.
        enqueued_at: submission timestamp (for latency accounting).
        trace_id: flight-recorder trace id assigned at submission.
        call: the ``score_many`` call this request belongs to, or
            ``None`` for a bare ``submit``.
    """

    features: np.ndarray
    future: Future = field(default_factory=Future)
    deadline: Optional[float] = None
    cache_key: Optional[bytes] = None
    enqueued_at: float = 0.0
    trace_id: str = ""
    call: Optional["ScoreCall"] = None

    def expired(self, now: float) -> bool:
        """Whether the deadline has passed at time ``now``.

        The boundary is inclusive: a request checked exactly at its
        deadline is expired. "Deadlines enforced" means a result is only
        delivered strictly before the deadline — with the old strict
        ``>`` a request arriving at ``now == deadline`` was still
        scored, so ``timeout_s=0`` submissions could complete.
        """
        return self.deadline is not None and now >= self.deadline


#: Guards every :class:`ScoreCall` countdown and each batcher's release
#: count; a sharded call's requests are scored by several batchers.
_release_lock = threading.Lock()


class ScoreCall:
    """The queued requests of one ``score_many`` call, counted down.

    Attributes:
        pending: requests not yet resolved by a scored batch.
        releaser: the batcher whose batch resolved the last of them, or
            ``None`` while some are pending (for good if one failed or
            expired in the queue).
    """

    __slots__ = ("pending", "releaser")

    def __init__(self) -> None:
        self.pending = 0
        self.releaser: Optional["MicroBatcher"] = None

    def picked_up(self) -> None:
        """The caller holds its results; no batch waits for it any more."""
        if self.releaser is not None:
            self.releaser._picked_up()


class MicroBatcher:
    """Collects batches from a request queue under a :class:`BatchPolicy`.

    The batcher owns only the *collection* logic; the service's one
    dispatch thread per queue executes each batch it collects.

    Args:
        source: the bounded request queue.
        policy: batching policy.
        on_expired: called with each request whose deadline lapsed while
            it waited in the queue — such requests are dropped from the
            batch (they never occupy a batch slot).
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        source: "queue.Queue[ServeRequest]",
        policy: BatchPolicy,
        on_expired: Optional[Callable[[ServeRequest], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.source = source
        self.policy = policy
        self.on_expired = on_expired
        self.clock = clock
        self._released = 0
        self._last_pickup = float("-inf")

    def release(self, batch: List[ServeRequest]) -> None:
        """Count a scored batch's requests off their ``score_many`` calls.

        Must run before the batch's futures are resolved, so a caller
        can never pick up before its release is counted.
        """
        with _release_lock:
            for request in batch:
                call = request.call
                if call is not None:
                    call.pending -= 1
                    if call.pending == 0:
                        call.releaser = self
                        self._released += 1

    def _picked_up(self) -> None:
        with _release_lock:
            self._released -= 1
            self._last_pickup = self.clock()

    def _close_at(self, started: float, budget: float) -> float:
        """When a batch begun at ``started`` may close (see module doc)."""
        with _release_lock:
            if self._released:
                return self.clock() + budget
            return max(started, self._last_pickup) + budget

    def _admit(self, request: ServeRequest, batch: List[ServeRequest]) -> None:
        """Place ``request`` into ``batch`` or expire it on the spot."""
        if request.expired(self.clock()):
            if self.on_expired is not None:
                self.on_expired(request)
        else:
            batch.append(request)

    def collect(self, block_s: float = 0.05) -> List[ServeRequest]:
        """One batch of live requests (possibly empty).

        Blocks up to ``block_s`` for the first request; once one
        arrives, keeps draining until the batch is full or the policy's
        wait budget is spent, counted from the first request or from
        the last pickup of a released caller, whichever is later, and
        not running out while a released caller has yet to pick up.
        Expired requests are handed to ``on_expired`` and never occupy
        a slot.

        Args:
            block_s: how long to wait for a first request before giving
                up (keeps worker shutdown responsive).

        Returns:
            Between 0 and ``max_batch_size`` unexpired requests.
        """
        batch: List[ServeRequest] = []
        try:
            first = self.source.get(timeout=block_s) if block_s > 0 else (
                self.source.get_nowait()
            )
        except queue.Empty:
            return batch
        self._admit(first, batch)

        started = self.clock()
        budget = self.policy.max_wait_ms / 1e3
        close_at = started + budget
        while len(batch) < self.policy.max_batch_size:
            remaining = close_at - self.clock()
            try:
                if remaining <= 0:
                    request = self.source.get_nowait()
                else:
                    request = self.source.get(timeout=remaining)
            except queue.Empty:
                held = self._close_at(started, budget) if budget > 0 else close_at
                if held <= close_at:
                    break
                close_at = held
                continue
            self._admit(request, batch)
        return batch


__all__ = ["BatchPolicy", "MicroBatcher", "ScoreCall", "ServeRequest"]
