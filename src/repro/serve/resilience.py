"""Resilience primitives for the serving layer (DESIGN.md §11).

Hardware faults surface to the service as scorer exceptions: a model
backed by a faulted TrueNorth substrate (or any flaky backend) raises
:class:`~repro.errors.TransientScorerError` for failures that are
expected to heal. This module supplies the three standard responses:

- :class:`RetryPolicy` — bounded retry with exponential backoff for
  transient failures;
- :class:`CircuitBreaker` — a per-model CLOSED / OPEN / HALF_OPEN state
  machine that stops hammering a persistently failing scorer and probes
  it again after a cooldown;
- :class:`ResilientExecutor` — composes both around a batch function and
  reports retries / breaker state through ``repro.obs`` metrics.

:class:`FlakyModel` wraps any scorer with deterministic, seedable
transient failures — the test double and demo workload for all of the
above (``python -m repro serve --flaky-rate 0.2 --retries 3``).
"""

import threading
import time
from typing import Callable, Optional, Tuple, Type

import numpy as np

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    TransientScorerError,
)
from repro.obs import MetricsRegistry
from repro.obs.flight import flight_recorder

#: Breaker states, in escalation order.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

#: Numeric encoding of breaker states for the ``serve_breaker_state``
#: gauge (0 = closed, 1 = half-open, 2 = open).
STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class RetryPolicy:
    """Bounded retry with exponential backoff for transient failures.

    Args:
        max_attempts: total call attempts (1 = no retry).
        backoff_ms: sleep before the first retry, in milliseconds.
        multiplier: backoff growth factor per subsequent retry.
        retryable: exception types that qualify for retry; anything
            else propagates immediately.

    Raises:
        ConfigurationError: on non-positive attempts/backoff/multiplier.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        backoff_ms: float = 1.0,
        multiplier: float = 2.0,
        retryable: Tuple[Type[BaseException], ...] = (TransientScorerError,),
    ) -> None:
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if backoff_ms < 0:
            raise ConfigurationError(
                f"backoff_ms must be >= 0, got {backoff_ms}"
            )
        if multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {multiplier}"
            )
        self.max_attempts = max_attempts
        self.backoff_ms = backoff_ms
        self.multiplier = multiplier
        self.retryable = tuple(retryable)

    def backoff_s(self, retry_index: int) -> float:
        """Sleep (seconds) before retry number ``retry_index`` (0-based)."""
        return (self.backoff_ms / 1e3) * (self.multiplier**retry_index)

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` qualifies for another attempt."""
        return isinstance(exc, self.retryable)


class CircuitBreaker:
    """Per-model CLOSED / OPEN / HALF_OPEN failure circuit.

    Thread-safe. Semantics:

    - **CLOSED** (healthy): calls pass; ``failure_threshold``
      *consecutive* failures trip the breaker to OPEN.
    - **OPEN** (cooling down): :meth:`before_call` raises
      :class:`~repro.errors.CircuitOpenError` without attempting the
      call, until ``reset_timeout_s`` has elapsed since the trip — then
      the breaker moves to HALF_OPEN.
    - **HALF_OPEN** (probing): one trial call is let through; success
      closes the circuit and clears the failure count, failure re-opens
      it for another full cooldown.

    :meth:`before_call` returns an admission *token* (the breaker's
    transition generation). Passing the token back to
    :meth:`record_success` / :meth:`record_failure` lets the breaker
    ignore outcomes of calls admitted before its last transition — a
    slow call admitted while CLOSED can no longer close the breaker
    behind a trip, or steal / release the half-open probe slot. Calling
    the record methods without a token applies the outcome
    unconditionally (the pre-token behaviour).

    State-change callbacks and flight-recorder events fire *outside*
    the internal lock, so a callback may safely read ``state`` or call
    back into the breaker without deadlocking.

    Args:
        failure_threshold: consecutive failures that trip the breaker.
        reset_timeout_s: cooldown before a trial call is allowed.
        clock: monotonic time source (injectable for tests).
        on_state_change: optional ``callback(new_state)`` fired on every
            transition (the service binds this to the breaker gauge).
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        on_state_change: Optional[Callable[[str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s < 0:
            raise ConfigurationError(
                f"reset_timeout_s must be >= 0, got {reset_timeout_s}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._on_state_change = on_state_change
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        self._generation = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Replace the breaker's time source (service clock injection).

        The service rebinds breakers still on the default
        ``time.monotonic`` to its own clock so every deadline and
        cooldown in one service reads a single source.
        """
        with self._lock:
            self._clock = clock

    @property
    def state(self) -> str:
        """Current state: ``"closed"``, ``"open"``, or ``"half_open"``.

        Reading the state promotes an OPEN breaker whose cooldown has
        elapsed to HALF_OPEN, matching what the next call would see.
        """
        events = []
        try:
            with self._lock:
                self._maybe_half_open(events)
                return self._state
        finally:
            self._fire(events)

    def _transition(self, state: str, events: list) -> None:
        """Move to ``state`` under the lock, deferring notifications.

        Each transition bumps the generation, invalidating tokens of
        calls admitted before it.
        """
        if state != self._state:
            previous = self._state
            self._state = state
            self._generation += 1
            events.append((previous, state, self._failures))

    def _fire(self, events: list) -> None:
        """Deliver deferred transition notifications (lock released)."""
        for previous, state, failures in events:
            flight_recorder().record(
                "breaker_transition",
                from_state=previous,
                to_state=state,
                failures=failures,
            )
            if self._on_state_change is not None:
                self._on_state_change(state)

    def _maybe_half_open(self, events: list) -> None:
        if (
            self._state == OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.reset_timeout_s
        ):
            self._transition(HALF_OPEN, events)
            self._probing = False

    def before_call(self) -> int:
        """Gate one call attempt.

        Returns:
            An admission token to pass back to :meth:`record_success` /
            :meth:`record_failure`; stale tokens (admitted before the
            breaker's last transition) make those calls no-ops.

        Raises:
            CircuitOpenError: the breaker is OPEN (cooldown running), or
                HALF_OPEN with its single trial slot already taken.
        """
        events = []
        try:
            with self._lock:
                self._maybe_half_open(events)
                if self._state == OPEN:
                    raise CircuitOpenError(
                        f"circuit open for {self.reset_timeout_s}s after "
                        f"{self._failures} consecutive failures"
                    )
                if self._state == HALF_OPEN:
                    if self._probing:
                        raise CircuitOpenError(
                            "circuit half-open; trial call already in flight"
                        )
                    self._probing = True
                return self._generation
        finally:
            self._fire(events)

    def _is_stale(self, token: Optional[int]) -> bool:
        return token is not None and token != self._generation

    def record_success(self, token: Optional[int] = None) -> None:
        """Report a successful call (closes a half-open circuit).

        Args:
            token: admission token from :meth:`before_call`; a stale
                token makes this a no-op, so a success from before the
                last trip cannot close the breaker without a genuine
                half-open probe.
        """
        events = []
        stale = False
        with self._lock:
            if self._is_stale(token):
                stale = True
            else:
                self._failures = 0
                self._probing = False
                self._transition(CLOSED, events)
        if stale:
            flight_recorder().record("breaker_stale_outcome", outcome="success")
        self._fire(events)

    def record_failure(self, token: Optional[int] = None) -> None:
        """Report a failed call (may trip the breaker).

        Args:
            token: admission token from :meth:`before_call`; a stale
                token makes this a no-op, so a late failure cannot
                release the half-open probe slot and admit a second
                probe.
        """
        events = []
        stale = False
        with self._lock:
            if self._is_stale(token):
                stale = True
            else:
                self._failures += 1
                self._probing = False
                if (
                    self._state == HALF_OPEN
                    or self._failures >= self.failure_threshold
                ):
                    self._opened_at = self._clock()
                    self._transition(OPEN, events)
        if stale:
            flight_recorder().record("breaker_stale_outcome", outcome="failure")
        self._fire(events)


class ResilientExecutor:
    """Retry + circuit-breaker wrapper around a batch function.

    Args:
        fn: the ``(n, f) -> (n, ...)`` batch callable to protect.
        retry: retry policy; ``None`` means a single attempt.
        breaker: circuit breaker; ``None`` disables circuit breaking.
        registry: metrics registry for the ``serve_retries_total``
            counter (``None`` disables metric reporting).
        sleep: sleep function (injectable for tests).
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        registry: Optional[MetricsRegistry] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._fn = fn
        self.retry = retry
        self.breaker = breaker
        self._registry = registry
        self._sleep = sleep

    def _count_retry(self, attempt: int, exc: BaseException) -> None:
        if self._registry is not None:
            self._registry.counter(
                "serve_retries_total",
                help="scorer calls retried after a transient fault",
            ).inc()
        flight_recorder().record(
            "retry", attempt=attempt, error=f"{type(exc).__name__}: {exc}"
        )

    def __call__(self, matrix: np.ndarray, *context) -> np.ndarray:
        """Invoke the protected function with retry and circuit gating.

        Any ``context`` arguments are passed on to the function with
        ``matrix`` on every attempt.

        Raises:
            CircuitOpenError: the breaker refused the call.
            Exception: the last attempt's failure once retries are
                exhausted (or immediately for non-retryable types).
        """
        attempts = self.retry.max_attempts if self.retry is not None else 1
        token = None
        for attempt in range(attempts):
            if self.breaker is not None:
                token = self.breaker.before_call()
            try:
                result = self._fn(matrix, *context)
            except Exception as exc:
                if self.breaker is not None:
                    self.breaker.record_failure(token)
                last_attempt = attempt == attempts - 1
                if (
                    last_attempt
                    or self.retry is None
                    or not self.retry.is_retryable(exc)
                ):
                    raise
                self._count_retry(attempt, exc)
                delay = self.retry.backoff_s(attempt)
                if delay > 0:
                    self._sleep(delay)
                continue
            if self.breaker is not None:
                self.breaker.record_success(token)
            return result
        raise AssertionError("unreachable")  # pragma: no cover


class FlakyModel:
    """A scorer wrapper that injects deterministic transient faults.

    Every batch call consumes one draw from a seeded stream and raises
    :class:`~repro.errors.TransientScorerError` with probability
    ``failure_rate`` instead of scoring; otherwise it delegates to the
    wrapped model. ``model_id``/``cacheable`` pass through, so the
    service caches exactly as it would for the healthy model.

    Args:
        model: the wrapped scorer (callable or ``decision_function``).
        failure_rate: per-call failure probability in ``[0, 1]``.
        rng: seed for the failure stream.
    """

    def __init__(self, model, failure_rate: float, rng: int = 0) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ConfigurationError(
                f"failure_rate must be in [0, 1], got {failure_rate}"
            )
        self.model = model
        self.failure_rate = failure_rate
        self._rng = np.random.default_rng(rng)
        self._lock = threading.Lock()
        self.calls = 0
        self.failures = 0
        inner = model.decision_function if hasattr(model, "decision_function") else model
        self._inner = inner

    @property
    def model_id(self):
        """The wrapped model's identity (pass-through)."""
        return getattr(self.model, "model_id", None)

    @property
    def cacheable(self) -> bool:
        """The wrapped model's cacheability (pass-through)."""
        return bool(getattr(self.model, "cacheable", True))

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Score a batch, failing transiently at the configured rate."""
        with self._lock:
            self.calls += 1
            fail = self._rng.random() < self.failure_rate
            if fail:
                self.failures += 1
        if fail:
            raise TransientScorerError(
                f"injected transient fault (call {self.calls})"
            )
        return self._inner(features)


__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "FlakyModel",
    "HALF_OPEN",
    "OPEN",
    "ResilientExecutor",
    "RetryPolicy",
    "STATE_CODES",
]
