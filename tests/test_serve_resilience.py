"""Serve-layer resilience: retry, circuit breaker, degraded mode."""

import json
import threading

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    TransientScorerError,
)
from repro.obs import MetricsRegistry
from repro.serve import (
    CircuitBreaker,
    FlakyModel,
    InferenceService,
    ResilientExecutor,
    RetryPolicy,
    ShardedInferenceService,
)
from repro.serve.resilience import CLOSED, HALF_OPEN, OPEN


def _double(matrix):
    return np.asarray(matrix)[:, 0] * 2.0


class _FailNTimes:
    """Raises TransientScorerError for the first ``n`` calls."""

    def __init__(self, n, exc=TransientScorerError):
        self.n = n
        self.exc = exc
        self.calls = 0

    def __call__(self, matrix):
        self.calls += 1
        if self.calls <= self.n:
            raise self.exc(f"boom {self.calls}")
        return _double(matrix)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(max_attempts=4, backoff_ms=10.0, multiplier=2.0)
        assert policy.backoff_s(0) == pytest.approx(0.010)
        assert policy.backoff_s(2) == pytest.approx(0.040)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_ms=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)

    def test_retryable_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransientScorerError("x"))
        assert not policy.is_retryable(ValueError("x"))


class TestResilientExecutor:
    def test_recovers_within_budget(self):
        fn = _FailNTimes(2)
        sleeps = []
        executor = ResilientExecutor(
            fn, retry=RetryPolicy(max_attempts=3, backoff_ms=1.0),
            sleep=sleeps.append,
        )
        out = executor(np.array([[3.0]]))
        np.testing.assert_array_equal(out, [6.0])
        assert fn.calls == 3
        assert sleeps == [pytest.approx(0.001), pytest.approx(0.002)]

    def test_retry_exhaustion_reraises_last_error(self):
        fn = _FailNTimes(5)
        executor = ResilientExecutor(
            fn, retry=RetryPolicy(max_attempts=3, backoff_ms=0.0),
            sleep=lambda _: None,
        )
        with pytest.raises(TransientScorerError, match="boom 3"):
            executor(np.zeros((1, 1)))
        assert fn.calls == 3

    def test_non_retryable_fails_immediately(self):
        fn = _FailNTimes(5, exc=ValueError)
        executor = ResilientExecutor(
            fn, retry=RetryPolicy(max_attempts=3, backoff_ms=0.0),
            sleep=lambda _: None,
        )
        with pytest.raises(ValueError):
            executor(np.zeros((1, 1)))
        assert fn.calls == 1

    def test_no_retry_policy_means_single_attempt(self):
        fn = _FailNTimes(1)
        executor = ResilientExecutor(fn)
        with pytest.raises(TransientScorerError):
            executor(np.zeros((1, 1)))
        assert fn.calls == 1

    def test_retries_counted_in_registry(self):
        registry = MetricsRegistry()
        fn = _FailNTimes(2)
        executor = ResilientExecutor(
            fn, retry=RetryPolicy(max_attempts=3, backoff_ms=0.0),
            registry=registry, sleep=lambda _: None,
        )
        executor(np.array([[1.0]]))
        assert registry.snapshot()["counters"]["serve_retries_total"] == 2


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=1.0, clock=clock)
        for _ in range(2):
            breaker.before_call()
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=1.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_probe_then_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN
        breaker.before_call()  # takes the single probe slot
        with pytest.raises(CircuitOpenError, match="half-open"):
            breaker.before_call()
        breaker.record_success()
        assert breaker.state == CLOSED
        breaker.before_call()  # closed again: calls flow

    def test_half_open_failure_reopens_for_full_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(0.5)
        with pytest.raises(CircuitOpenError):
            breaker.before_call()
        clock.advance(0.5)
        assert breaker.state == HALF_OPEN

    def test_state_change_callback_sees_every_transition(self):
        clock = FakeClock()
        seen = []
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, clock=clock,
            on_state_change=seen.append,
        )
        breaker.record_failure()
        clock.advance(1.0)
        breaker.before_call()
        breaker.record_success()
        assert seen == [OPEN, HALF_OPEN, CLOSED]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(reset_timeout_s=-1.0)

    def test_executor_respects_open_breaker(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=10.0, clock=clock)
        fn = _FailNTimes(1)
        executor = ResilientExecutor(
            fn, retry=RetryPolicy(max_attempts=3, backoff_ms=0.0),
            breaker=breaker, sleep=lambda _: None,
        )
        # first attempt fails and trips the breaker; the retry is then
        # refused by the breaker without reaching the scorer.
        with pytest.raises(CircuitOpenError):
            executor(np.zeros((1, 1)))
        assert fn.calls == 1


class TestCircuitBreakerRaces:
    """Regressions for the open -> half-open transition races.

    Before admission tokens, a slow call admitted while CLOSED could
    report its outcome after the breaker tripped — closing the circuit
    without a probe, or releasing the half-open probe slot so a second
    probe slipped through. Every scenario here is driven by an injected
    clock, so the interleavings are exact, not timing-dependent.
    """

    def test_stale_success_cannot_close_a_tripped_breaker(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=10.0, clock=clock)
        stale_token = breaker.before_call()  # admitted while CLOSED
        breaker.before_call()
        breaker.record_failure()  # trips to OPEN
        assert breaker.state == OPEN
        breaker.record_success(stale_token)  # slow call finishes late
        assert breaker.state == OPEN  # not closed behind the trip
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_stale_failure_cannot_release_the_probe_slot(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0, clock=clock)
        slow_token = breaker.before_call()  # admitted while CLOSED
        breaker.before_call()
        breaker.record_failure()  # OPEN
        clock.advance(1.0)
        probe_token = breaker.before_call()  # the half-open probe
        # the old slow call now fails; with the stale token it must not
        # re-open the breaker (stealing the in-flight probe's verdict)
        breaker.record_failure(slow_token)
        assert breaker.state == HALF_OPEN
        with pytest.raises(CircuitOpenError, match="half-open"):
            breaker.before_call()  # probe slot still held
        breaker.record_success(probe_token)
        assert breaker.state == CLOSED

    def test_exactly_one_probe_admitted_under_thread_contention(self):
        """N threads race at cooldown expiry; exactly one gets through."""
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0, clock=clock)
        breaker.before_call()
        breaker.record_failure()
        clock.advance(1.0)  # cooldown elapsed: next call is the probe

        n_threads = 16
        barrier = threading.Barrier(n_threads)
        admitted, refused = [], []

        def contender(i):
            barrier.wait()
            try:
                token = breaker.before_call()
            except CircuitOpenError:
                refused.append(i)
            else:
                admitted.append((i, token))

        threads = [
            threading.Thread(target=contender, args=(i,))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 1
        assert len(refused) == n_threads - 1
        # the single probe's success closes the breaker for everyone
        breaker.record_success(admitted[0][1])
        assert breaker.state == CLOSED

    def test_unconditional_outcomes_keep_legacy_behaviour(self):
        """record_* without a token still applies regardless of staleness."""
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=10.0)
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == OPEN
        breaker.record_success()  # tokenless: unconditional close
        assert breaker.state == CLOSED

    def test_callback_may_read_state_without_deadlocking(self):
        """Transitions fire outside the lock, so a callback can re-enter."""
        clock = FakeClock()
        observed = []
        breaker = CircuitBreaker(
            failure_threshold=1,
            reset_timeout_s=1.0,
            clock=clock,
            on_state_change=lambda _s: observed.append(breaker.state),
        )
        breaker.before_call()
        breaker.record_failure()
        clock.advance(1.0)
        token = breaker.before_call()
        breaker.record_success(token)
        assert observed  # callbacks ran and read state re-entrantly
        assert breaker.state == CLOSED

    def test_bind_clock_rebinds_the_cooldown_source(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0)
        clock = FakeClock()
        breaker.bind_clock(clock)
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(5.0)  # only the injected clock moves
        assert breaker.state == HALF_OPEN


class TestSingleClockContract:
    """One monotonic clock across service, batcher, breaker, loadgen.

    The regression: the breaker used to hold its own ``time.monotonic``
    while a test-injected service clock drove deadlines, so cooldowns
    and deadlines drifted apart under a fake clock. Now the service
    rebinds default-clocked breakers and the load generator reads the
    service clock, making time fully controllable.
    """

    def test_service_rebinds_default_clocked_breaker(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=3.0)
        service = InferenceService(
            _Scorer(), clock=clock, circuit_breaker=breaker
        )
        assert breaker._clock is clock
        assert service.clock is clock

    def test_explicitly_clocked_breaker_is_left_alone(self):
        service_clock = FakeClock()
        breaker_clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=3.0, clock=breaker_clock
        )
        InferenceService(_Scorer(), clock=service_clock, circuit_breaker=breaker)
        assert breaker._clock is breaker_clock

    def test_mixed_time_sources_converge_on_the_fake_clock(self):
        """Deadline expiry and breaker cooldown obey one injected clock."""
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=100.0)

        class DownOnce:
            model_id = "down-once"
            cacheable = True
            calls = 0

            def decision_function(self, matrix):
                type(self).calls += 1
                if type(self).calls == 1:
                    raise TransientScorerError("first call down")
                return np.asarray(matrix)[:, 0]

        service = InferenceService(
            DownOnce(),
            max_batch_size=2,
            max_wait_ms=0.0,
            clock=clock,
            circuit_breaker=breaker,
        )
        with service:
            with pytest.raises(TransientScorerError):
                service.score(np.zeros(2), timeout_s=50.0)
            assert breaker.state == OPEN
            # wall time passes (the worker thread runs) but the fake
            # clock hasn't moved: the breaker must still be open, and a
            # 50 s deadline must not expire.
            with pytest.raises(CircuitOpenError):
                service.score(np.zeros(2), timeout_s=50.0)
            clock.advance(100.0)  # cooldown elapses on the fake clock
            assert breaker.state == HALF_OPEN
            assert service.score(np.ones(2), timeout_s=50.0) == 1.0

    def test_loadgen_reads_the_service_clock(self):
        from repro.serve import closed_loop

        clock = FakeClock()

        class AdvancesClock:
            model_id = "tick"
            cacheable = False

            def decision_function(self, matrix):
                clock.advance(2.0)  # simulated scoring time
                return np.asarray(matrix)[:, 0]

        service = InferenceService(
            AdvancesClock(), max_batch_size=64, max_wait_ms=0.0, clock=clock
        )
        rows = np.ones((6, 2))
        with service:
            report = closed_loop(service, rows, concurrency=1, chunk_size=6)
        assert report.accounted
        # seconds came from the fake clock (advanced only by the model),
        # not from wall time, proving loadgen shares the service clock.
        assert report.seconds >= 2.0
        assert report.seconds == clock.now


class TestFlakyModel:
    def test_deterministic_failure_sequence(self):
        base = lambda m: np.asarray(m)[:, 0]  # noqa: E731
        seqs = []
        for _ in range(2):
            flaky = FlakyModel(base, failure_rate=0.5, rng=42)
            seq = []
            for _ in range(16):
                try:
                    flaky.decision_function(np.ones((1, 1)))
                    seq.append(True)
                except TransientScorerError:
                    seq.append(False)
            seqs.append(tuple(seq))
        assert seqs[0] == seqs[1]
        assert flaky.calls == 16
        assert flaky.failures == seqs[1].count(False)

    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            FlakyModel(lambda m: m, failure_rate=1.5)

    def test_passthrough_identity(self):
        class Model:
            model_id = "m-1"
            cacheable = False

            def decision_function(self, m):
                return np.zeros(len(m))

        flaky = FlakyModel(Model(), failure_rate=0.0)
        assert flaky.model_id == "m-1"
        assert flaky.cacheable is False
        np.testing.assert_array_equal(
            flaky.decision_function(np.ones((2, 1))), [0.0, 0.0]
        )


class _Scorer:
    """Minimal healthy scorer for service-level tests."""

    model_id = "resilience-test"
    cacheable = True

    def decision_function(self, matrix):
        return np.asarray(matrix)[:, 0] * 10.0


class TestServiceIntegration:
    """Resilience options through a whole service, in-process.

    :class:`TestShardedServiceIntegration` reruns every case on two
    worker processes. The models fail deterministically in each process
    (a forked worker scores with its own copy), never by random draw.
    """

    #: The breaker gauge a tripped breaker sets, and its value.
    breaker_gauge = ("serve_breaker_state", 2.0)  # open

    def _service(self, model, breaker=None, **kwargs):
        """A service around ``model``; ``breaker`` is
        ``(failure_threshold, reset_timeout_s)`` or ``None``."""
        if breaker is not None:
            kwargs["circuit_breaker"] = CircuitBreaker(
                failure_threshold=breaker[0], reset_timeout_s=breaker[1]
            )
        kwargs.setdefault("max_batch_size", 4)
        return InferenceService(model, max_wait_ms=1.0, **kwargs)

    def test_service_retries_through_transient_faults(self):
        service = self._service(
            _FailNTimes(2),
            cache_capacity=0,
            retry_policy=RetryPolicy(max_attempts=3, backoff_ms=0.1),
        )
        with service:
            scores = [
                service.score(np.full(3, i, dtype=float), timeout_s=5.0)
                for i in range(6)
            ]
        assert scores == [i * 2.0 for i in range(6)]
        assert service.stats.counter("retries") >= 2
        assert service.stats.counter("failed") == 0

    def test_degraded_value_served_while_breaker_open(self):
        class AlwaysDown:
            model_id = "down"
            cacheable = True

            def decision_function(self, matrix):
                raise TransientScorerError("permanently sad")

        service = self._service(
            AlwaysDown(), breaker=(1, 60.0), degraded_value=-1.0
        )
        with service:
            scores = [
                service.score(np.full(2, i, dtype=float), timeout_s=5.0)
                for i in range(4)
            ]
            snapshot = service.stats.snapshot()
        assert scores == [-1.0] * 4
        assert snapshot["counters"]["degraded"] == 4

    def test_degraded_results_never_cached(self):
        model = _FailNTimes(1)
        model.model_id = "flap"
        service = self._service(model, cache_capacity=64, degraded_value=0.0)
        row = np.array([7.0, 7.0])
        with service:
            degraded = service.score(row, timeout_s=5.0)
            healthy = service.score(row, timeout_s=5.0)
        assert degraded == 0.0
        assert healthy == 14.0  # a cached degraded score would repeat 0.0

    def test_no_degraded_value_fails_requests(self):
        class AlwaysDown:
            model_id = "down2"
            cacheable = True

            def decision_function(self, matrix):
                raise TransientScorerError("sad")

        service = self._service(AlwaysDown(), max_batch_size=2)
        with service:
            with pytest.raises(TransientScorerError):
                service.score(np.zeros(2), timeout_s=5.0)

    def test_breaker_gauge_published(self):
        registry = MetricsRegistry()

        class AlwaysDown:
            model_id = "down3"
            cacheable = True

            def decision_function(self, matrix):
                raise TransientScorerError("sad")

        service = self._service(
            AlwaysDown(),
            breaker=(1, 60.0),
            max_batch_size=2,
            registry=registry,
            degraded_value=0.0,
        )
        with service:
            service.score(np.zeros(2), timeout_s=5.0)
        gauges = registry.snapshot()["gauges"]
        name, value = self.breaker_gauge
        assert gauges[name] == value

    def test_failed_batch_dumps_the_flight_recorder(self, tmp_path):
        path = tmp_path / "failure.json"
        service = self._service(
            _FailNTimes(1), cache_capacity=0, flight_dump_path=str(path)
        )
        with service:
            with pytest.raises(TransientScorerError):
                service.score(np.zeros(3), timeout_s=5.0)
        document = json.loads(path.read_text())
        assert document["reason"] == "request_failed"
        assert "request_failed" in [e["kind"] for e in document["events"]]

    def test_opening_breaker_dumps_the_flight_recorder(self, tmp_path):
        path = tmp_path / "breaker.json"
        service = self._service(
            _FailNTimes(1),
            breaker=(1, 60.0),
            cache_capacity=0,
            degraded_value=-1.0,
            flight_dump_path=str(path),
        )
        with service:
            assert service.score(np.zeros(3), timeout_s=5.0) == -1.0
        document = json.loads(path.read_text())
        assert document["reason"] == "breaker_open"
        assert any(
            e["kind"] == "breaker_transition" and e["attrs"]["to_state"] == "open"
            for e in document["events"]
        )


class TestShardedServiceIntegration(TestServiceIntegration):
    """Every resilience case again, on two worker processes."""

    breaker_gauge = ("serve_breaker_open_shards", 1.0)

    def _service(self, model, breaker=None, **kwargs):
        threshold, reset_s = breaker if breaker is not None else (0, 1.0)
        kwargs.setdefault("max_batch_size", 4)
        return ShardedInferenceService(
            model,
            workers=2,
            max_wait_ms=1.0,
            breaker_failure_threshold=threshold,
            breaker_reset_timeout_s=reset_s,
            **kwargs,
        )
