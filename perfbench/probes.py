"""Per-layer timing probes installed from outside the program.

Each probe wraps one public function of a ``repro`` module (a class
attribute or the name a module imported), times every call, and adds
the seconds, the call count and an optional work count to counters in
``repro.obs.get_registry()``. The registry is looked up at call time,
so a probe that fires inside a forked shard worker records into the
worker's private registry; the sharded service ships that registry's
delta back with every reply and merges it into the parent's
``service.stats.registry`` under a ``shard`` label. Reading a layer is
therefore "parent registry delta + shard-labelled series", whichever
process the layer ran in.

Probes are installed only around traced epochs and removed after, so
untraced epochs run the program exactly as shipped.
"""

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import metrics as obs_metrics

PREFIX = "bench_"


def _counter_names(layer: str) -> Tuple[str, str, str]:
    base = PREFIX + obs_metrics.sanitize_metric_name(layer)
    return (
        f"{base}_seconds_total",
        f"{base}_calls_total",
        f"{base}_items_total",
    )


def _timed(layer: str, original: Callable, count: Optional[Callable]) -> Callable:
    """``original`` wrapped to record its wall time under ``layer``."""
    seconds_name, calls_name, items_name = _counter_names(layer)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        result = original(*args, **kwargs)
        elapsed = time.perf_counter() - started
        registry = obs_metrics.get_registry()
        registry.counter(seconds_name).inc(elapsed)
        registry.counter(calls_name).inc()
        if count is not None:
            registry.counter(items_name).inc(count(args, kwargs, result))
        return result

    return wrapper


def _targets() -> List[Tuple[str, object, str, Optional[Callable]]]:
    """``(layer, owner, attribute, count)`` for every probed function."""
    from repro.detection.pyramid import ImagePyramid
    from repro.detection.pipeline import TrueNorthBinaryScorer
    from repro.napprox.software import NApproxDescriptor
    from repro.serve import InferenceService, ShardedInferenceService
    from repro.serve.workloads import NApproxCellModel
    from repro.truenorth.simulator import Simulator
    from repro.video import pipeline as video_pipeline

    def cells(args, kwargs, grid):
        return int(grid.shape[0] * grid.shape[1])

    def levels(args, kwargs, result):
        return len(result)

    def candidates(args, kwargs, kept):
        return int(len(args[1]))

    def lane_ticks(args, kwargs, result):
        return int(result.ticks * result.batch)

    def rows(args, kwargs, result):
        return int(len(result))

    return [
        ("napprox.cell_grid", NApproxDescriptor, "cell_grid", cells),
        ("detection.pyramid", ImagePyramid, "levels", levels),
        (
            "detection.sliding_window",
            video_pipeline,
            "sliding_window_features",
            None,
        ),
        ("video.pool", video_pipeline, "pool_feature_rows", None),
        ("detection.nms", video_pipeline, "non_maximum_suppression", candidates),
        ("serve.score_many", InferenceService, "score_many", rows),
        ("serve.score_many", ShardedInferenceService, "score_many", rows),
        ("serve.submit", InferenceService, "submit", None),
        ("serve.submit", ShardedInferenceService, "submit", None),
        ("scorer.decision", TrueNorthBinaryScorer, "decision_function", rows),
        ("scorer.decision", NApproxCellModel, "__call__", rows),
        ("truenorth.run_batch", Simulator, "run_batch", lane_ticks),
    ]


#: Every layer a probe reports, in report order.
LAYERS = (
    "napprox.cell_grid",
    "detection.pyramid",
    "detection.sliding_window",
    "video.pool",
    "detection.nms",
    "serve.score_many",
    "serve.submit",
    "scorer.decision",
    "truenorth.run_batch",
)


@contextmanager
def installed() -> Iterator[None]:
    """Wrap every probed function for the duration of the block."""
    saved = []
    try:
        for layer, owner, attribute, count in _targets():
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _timed(layer, original, count))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def read(registry, shard_registry=None) -> Dict[str, Dict[str, float]]:
    """Current probe totals: ``{layer: {seconds, calls, items}}``.

    Args:
        registry: the registry probes in this process record into.
        shard_registry: a sharded service's stats registry, whose
            ``{shard=...}``-labelled series hold what probes recorded in
            its worker processes (``None`` for in-process serving).
    """
    out: Dict[str, Dict[str, float]] = {}
    for layer in LAYERS:
        values = {}
        for key, name in zip(("seconds", "calls", "items"), _counter_names(layer)):
            total = 0.0
            metric = registry.get(name)
            if metric is not None:
                total += metric.value
            if shard_registry is not None:
                total += sum(
                    value
                    for sample, value in shard_registry.counters_with_prefix(
                        name
                    ).items()
                    if sample.startswith(name + "{")
                )
            values[key] = float(total)
        out[layer] = values
    return out


def delta(after: Dict, before: Dict) -> Dict[str, Dict[str, float]]:
    """Per-layer difference of two :func:`read` results."""
    return {
        layer: {key: after[layer][key] - before[layer][key] for key in after[layer]}
        for layer in after
    }


__all__ = ["LAYERS", "delta", "installed", "read"]
