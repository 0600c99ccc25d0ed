"""Exception hierarchy shared across the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An object was configured with invalid or inconsistent parameters."""


class CompilationError(ReproError):
    """A corelet tree could not be compiled onto neurosynaptic cores."""


class RoutingError(ReproError):
    """Spike routing between cores was configured inconsistently."""


class ServiceError(ReproError):
    """The serving layer rejected or failed a request.

    All serving-layer errors keep their constructor arguments in
    ``args`` only, so they pickle cleanly across worker boundaries.
    """


class QueueFullError(ServiceError):
    """The bounded request queue is at capacity (backpressure).

    Raised at submission time: the caller should retry later or shed
    load — the service never grows its queue beyond the configured
    capacity.
    """


class DeadlineExceededError(ServiceError):
    """A request's deadline expired before a result was produced."""


class ServiceClosedError(ServiceError):
    """The service is shut down and no longer accepts requests."""


class TransientScorerError(ServiceError):
    """A scorer failed in a way that is expected to heal on retry.

    Models raise (or wrap their backend's fault as) this type to opt a
    failure into the serving layer's retry-with-backoff path; any other
    exception type fails the batch immediately.
    """


class CircuitOpenError(ServiceError):
    """The per-model circuit breaker is open; the call was not attempted.

    Raised by :class:`repro.serve.resilience.CircuitBreaker` while it is
    cooling down after repeated scorer failures. Services configured
    with a ``degraded_value`` convert this into a degraded-mode response
    instead of an error.
    """


class WorkerDiedError(TransientScorerError):
    """A shard's worker process died while a batch was in flight.

    A transient fault by definition — the sharded service respawns the
    worker and redispatches the batch; this error only reaches callers
    when the redispatch budget is exhausted.
    """


__all__ = [
    "CircuitOpenError",
    "CompilationError",
    "ConfigurationError",
    "DeadlineExceededError",
    "QueueFullError",
    "ReproError",
    "RoutingError",
    "ServiceClosedError",
    "ServiceError",
    "TransientScorerError",
    "WorkerDiedError",
]
