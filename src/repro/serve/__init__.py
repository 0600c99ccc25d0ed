"""``repro.serve`` — micro-batching inference service.

Turns the PR-1 vectorized batch engine into something that can serve
concurrent detection traffic: an asynchronous service that coalesces
single-window scoring requests into engine batches
(:class:`MicroBatcher`), rejects overload instead of buffering it
(bounded queue + :class:`~repro.errors.QueueFullError`), enforces
per-request deadlines, short-circuits duplicate windows through a
content-addressed LRU cache, and exposes a stats surface for load
tests and operations.

Quick start::

    from repro.serve import InferenceService

    service = InferenceService(scorer, max_batch_size=32, max_wait_ms=2.0)
    with service:
        score = service.score(window_features, timeout_s=0.5)
"""

from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.cache import LruResultCache, content_key
from repro.serve.loadgen import LoadReport, closed_loop
from repro.serve.resilience import (
    CircuitBreaker,
    FlakyModel,
    ResilientExecutor,
    RetryPolicy,
)
from repro.serve.service import (
    InferenceService,
    ServiceBackedScorer,
    attribute_batch_energy,
    sequential_baseline,
)
from repro.serve.sharding import HashRing, ShardedInferenceService
from repro.serve.stats import ServiceStats
from repro.serve.workloads import (
    HardwarePacedModel,
    NApproxCellModel,
    demo_classifier_workload,
    random_patch_rows,
)

__all__ = [
    "BatchPolicy",
    "CircuitBreaker",
    "FlakyModel",
    "HardwarePacedModel",
    "HashRing",
    "InferenceService",
    "LoadReport",
    "LruResultCache",
    "MicroBatcher",
    "NApproxCellModel",
    "ResilientExecutor",
    "RetryPolicy",
    "ServiceBackedScorer",
    "ServiceStats",
    "ShardedInferenceService",
    "attribute_batch_energy",
    "closed_loop",
    "content_key",
    "demo_classifier_workload",
    "random_patch_rows",
    "sequential_baseline",
]
