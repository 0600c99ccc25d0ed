"""Reference serving workloads.

Two request shapes matter in this repo:

- **Classifier windows** — feature rows through a deployed
  :class:`~repro.detection.pipeline.TrueNorthBinaryScorer` (the
  detection hot path's inner call). Used by ``python -m repro serve``.
- **NApprox cells** — 10x10 pixel patches through the 22-core HoG cell
  module, the unit the paper's throughput numbers are denominated in.
  Used by ``benchmarks/bench_serve.py``.

Both are content-deterministic, so they compose with the result cache
and serve bit-identically to direct calls.
"""

import time
from typing import Callable, Optional, Tuple

import numpy as np

from repro.napprox.corelet_impl import NApproxCellRunner
from repro.utils.rng import RngLike, resolve_rng

_PATCH_PIXELS = 100


class NApproxCellModel:
    """Serve-compatible wrapper of the NApprox HoG cell module.

    Requests are flattened 10x10 patches (rows of 100 pixels in
    ``[0, 1]``); results are the 18-bin vote histograms. The module is
    fully deterministic (rate-coded input, no stochastic neurons), so
    equal patches always produce equal histograms and the result cache
    is sound.

    Args:
        window: spike window (data ticks) per patch.
        direction_scale: Q of the direction tables.
        magnitude_threshold: T of the magnitude neurons.
        cores_per_chip: when set, the 22-core module is placed across
            simulated chips of this capacity, so served RunActivity
            ledgers carry intra- vs cross-chip hop splits. Histograms
            are unaffected (placement changes accounting only), so the
            ``model_id`` — and therefore every cache key — stays
            placement-independent.
    """

    cacheable = True

    def __init__(
        self,
        window: int = 32,
        direction_scale: int = 16,
        magnitude_threshold: int = 4,
        cores_per_chip: Optional[int] = None,
    ) -> None:
        self.runner = NApproxCellRunner(
            window=window,
            direction_scale=direction_scale,
            magnitude_threshold=magnitude_threshold,
            cores_per_chip=cores_per_chip,
        )
        self.model_id = (
            f"napprox-cell-w{window}-q{direction_scale}-t{magnitude_threshold}"
        )

    def __call__(self, matrix: np.ndarray) -> np.ndarray:
        """Histogram a ``(n, 100)`` batch of flattened patches."""
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != _PATCH_PIXELS:
            raise ValueError(
                f"expected (n, {_PATCH_PIXELS}) flattened patches, got "
                f"{arr.shape}"
            )
        return self.runner.extract_batch(arr.reshape(-1, 10, 10))


class HardwarePacedModel:
    """Pace a model to the board's real-time tick cadence.

    A deployed TrueNorth chip advances one tick per millisecond of wall
    time regardless of host speed; a simulated batch finishes as fast
    as the CPU allows. This wrapper restores the hardware cadence: each
    batch call sleeps until at least ``min_batch_seconds`` have elapsed
    (e.g. ``window * TICK_SECONDS`` for a spike-window workload), which
    is how the worker-scaling benchmark models N chips serving in
    parallel — the pace dominates host compute, so worker processes
    overlap their board time and scale near-linearly even on one CPU.

    Results, cache keys, and activity ledgers are untouched: the wrapper
    only sleeps after delegating, so served outputs remain bit-identical
    to the unpaced model's.

    Args:
        model: the wrapped scorer (callable or ``decision_function``).
        min_batch_seconds: minimum wall time per batch call.
        clock: time source for the pacing measurement.
        sleep: sleep function (injectable for tests).
    """

    def __init__(
        self,
        model,
        min_batch_seconds: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if min_batch_seconds < 0:
            raise ValueError(
                f"min_batch_seconds must be >= 0, got {min_batch_seconds}"
            )
        self.model = model
        self.min_batch_seconds = min_batch_seconds
        self._clock = clock
        self._sleep = sleep
        inner = (
            model.decision_function
            if hasattr(model, "decision_function")
            else model
        )
        self._inner = inner

    @property
    def model_id(self):
        """The wrapped model's identity (pass-through)."""
        return getattr(self.model, "model_id", None)

    @property
    def cacheable(self) -> bool:
        """The wrapped model's cacheability (pass-through)."""
        return bool(getattr(self.model, "cacheable", True))

    def __call__(self, matrix: np.ndarray) -> np.ndarray:
        """Score a batch, then hold the call to the hardware cadence."""
        started = self._clock()
        result = self._inner(matrix)
        remaining = self.min_batch_seconds - (self._clock() - started)
        if remaining > 0:
            self._sleep(remaining)
        return result


def random_patch_rows(
    n: int, rng: RngLike = 0, duplicate_fraction: float = 0.0
) -> np.ndarray:
    """``(n, 100)`` random flattened patches in ``[0, 1]``.

    Args:
        n: number of request rows.
        rng: randomness source.
        duplicate_fraction: fraction of rows that repeat an earlier row
            (models the duplicate traffic the cache absorbs).
    """
    if not 0.0 <= duplicate_fraction <= 1.0:
        raise ValueError(
            f"duplicate_fraction must be in [0, 1], got {duplicate_fraction}"
        )
    generator = resolve_rng(rng)
    rows = generator.random((n, _PATCH_PIXELS))
    n_dup = int(n * duplicate_fraction)
    if n_dup and n > n_dup:
        sources = generator.integers(0, n - n_dup, size=n_dup)
        rows[n - n_dup :] = rows[sources]
    return rows


def demo_classifier_workload(
    n_requests: int,
    n_features: int = 8,
    hidden: int = 16,
    ticks: int = 8,
    rng: RngLike = 0,
    duplicate_fraction: float = 0.0,
) -> Tuple[object, np.ndarray]:
    """A small TrueNorth classifier plus a synthetic request stream.

    Returns:
        ``(scorer, rows)`` — a content-coded
        :class:`~repro.detection.pipeline.TrueNorthBinaryScorer` and an
        ``(n_requests, n_features)`` matrix of windows in ``[0, 1]``.
    """
    from repro.detection.pipeline import TrueNorthBinaryScorer
    from repro.eedn.layers import ThresholdActivation, TrinaryDense
    from repro.eedn.network import EednNetwork

    network = EednNetwork(
        [
            TrinaryDense(n_features, hidden, rng=0),
            ThresholdActivation(0.0),
            TrinaryDense(hidden, 2, rng=1),
        ]
    )
    scorer = TrueNorthBinaryScorer(network, ticks=ticks, rng=0, coding="content")
    generator = resolve_rng(rng)
    rows = generator.random((n_requests, n_features))
    n_dup = int(n_requests * duplicate_fraction)
    if n_dup and n_requests > n_dup:
        sources = generator.integers(0, n_requests - n_dup, size=n_dup)
        rows[n_requests - n_dup :] = rows[sources]
    return scorer, rows


__all__ = [
    "HardwarePacedModel",
    "NApproxCellModel",
    "demo_classifier_workload",
    "random_patch_rows",
]
