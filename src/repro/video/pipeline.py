"""The frame-level streaming pipeline: pyramid -> cells -> serve -> NMS.

Each frame is decomposed into an image pyramid, every level's cell grid
is pooled to the deployable feature width and swept into one row per
detection window (:func:`pooled_window_rows`), the rows are sent in
``score_many`` chunks to an :class:`~repro.serve.InferenceService` (or
its sharded variant), which queues each chunk's cache misses as one
block, and the thresholded scores are reassembled into per-frame
detections through the paper's greedy NMS.

Levels are scored **coarsest first**. That ordering is what makes the
per-frame deadline budget degrade gracefully: when the budget runs out
mid-frame, the levels not yet scored are exactly the finest (most
expensive) pyramid scales, so a late frame loses small-person
resolution instead of missing the frame entirely. Degraded frames are
counted on the ``video_degraded_frames_total`` registry counter and in
each :class:`FrameResult`.

Per-frame economics come from :class:`~repro.serve.ServiceStats`
deltas: cache hits/misses bracket each frame to give the frame's LRU
hit rate (the cross-frame temporal-locality signal), and the attributed
energy counter gives joules/frame through the existing
energy-attribution layer — no separate accounting path.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.detection.evaluate import DetectionCurve, evaluate_detections
from repro.detection.nms import non_maximum_suppression
from repro.detection.pipeline import Detection
# Not called here: kept importable from this module because perfbench
# probes it and builds its gate rows (the pre-pooling path) through it.
from repro.detection.pipeline import sliding_window_features  # noqa: F401
from repro.detection.pyramid import ImagePyramid
from repro.obs import (
    SPAN_BUCKETS,
    MetricsRegistry,
    get_registry,
    new_trace_id,
    span,
    trace_context,
)
from repro.obs.traces import VIDEO_STAGE_METRIC
from repro.video.synthesis import VideoSequence


@dataclass(frozen=True)
class VideoPipelineConfig:
    """Knobs of the streaming frame pipeline.

    Attributes:
        window_shape: detection window in pixels (the paper's 128x64).
        scale_factor: pyramid step between levels.
        max_levels: pyramid depth cap (6 scales for the paper's full-HD
            deployment).
        pool: cells averaged per pooled feature, ``(y, x)`` — the same
            reduction the fault sweep uses to fit the 128-input
            deployment budget.
        bin_merge: adjacent orientation bins summed per merged bin.
        feature_scale: multiplier mapping pooled counts into the [0, 1]
            firing-probability range content coding expects (see
            :func:`~repro.video.workload.calibrated_feature_scale`).
        score_threshold: minimum served margin to emit a detection.
        nms_epsilon: NMS overlap threshold (0.2 in the paper).
        deadline_ms: per-frame scoring budget; ``None`` disables
            degradation. The budget is checked between levels, so at
            least :attr:`min_levels` coarse levels always score.
        min_levels: levels always scored regardless of the deadline
            (>= 1 — a frame never goes completely dark).
        timeout_s: optional per-request serve deadline forwarded to
            ``submit`` (distinct from the frame budget).
        max_inflight: window rows fanned out per ``score_many`` call.
            Full-frame pyramid levels hold more windows than the serve
            queue (256 slots by default), so the fan-out is chunked;
            chunking never changes scores, only submission pacing.
    """

    window_shape: Tuple[int, int] = (128, 64)
    scale_factor: float = 1.2
    max_levels: int = 6
    pool: Tuple[int, int] = (4, 2)
    bin_merge: int = 3
    feature_scale: float = 1.0
    score_threshold: float = 0.0
    nms_epsilon: float = 0.2
    deadline_ms: Optional[float] = None
    min_levels: int = 1
    timeout_s: Optional[float] = None
    max_inflight: int = 128


@dataclass
class FrameResult:
    """Everything measured while streaming one frame.

    Attributes:
        index: frame position in the sequence.
        trace_id: the frame's trace id — every ``video.*`` span the
            frame records carries it, so ``repro.obs.traces`` can
            assemble the frame's own trace tree.
        detections: NMS survivors mapped back to frame pixels.
        levels_total: pyramid levels the frame decomposes into.
        levels_scored: levels actually scored (== ``levels_total``
            unless the deadline degraded the frame).
        levels_dropped: finest levels skipped by the deadline budget.
        degraded: whether the frame lost at least one level.
        windows_scored: feature rows fanned out to the service.
        cache_hits: serve LRU hits attributed to this frame.
        cache_misses: serve LRU misses attributed to this frame.
        energy_joules: simulated energy attributed to this frame.
        seconds: wall-clock scoring time of the frame.
    """

    index: int
    trace_id: str = ""
    detections: List[Detection] = field(default_factory=list)
    levels_total: int = 0
    levels_scored: int = 0
    levels_dropped: int = 0
    degraded: bool = False
    windows_scored: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    energy_joules: float = 0.0
    seconds: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        """LRU hits / lookups for this frame (0.0 before any lookup)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def detections_key(self) -> Tuple:
        """A hashable, bit-exact summary of the frame's detections.

        Used by the bench and tests to assert per-frame detections are
        identical across engines and worker counts.
        """
        return tuple(
            (d.x, d.y, d.width, d.height, d.score) for d in self.detections
        )


@dataclass
class VideoReport:
    """Aggregate view of one streamed sequence.

    Attributes:
        frames: per-frame results in order.
        curve: FPPI/miss-rate curve over the sequence (``None`` when the
            sequence carries no ground truth).
        seconds: total wall-clock scoring time.
    """

    frames: List[FrameResult]
    curve: Optional[DetectionCurve] = None
    seconds: float = 0.0

    @property
    def fps(self) -> float:
        """Frames per second over the whole run."""
        return len(self.frames) / self.seconds if self.seconds > 0 else 0.0

    @property
    def degraded_frames(self) -> int:
        """Frames that lost at least one pyramid level to the deadline."""
        return sum(1 for f in self.frames if f.degraded)

    @property
    def windows_scored(self) -> int:
        """Total feature rows fanned out across the sequence."""
        return sum(f.windows_scored for f in self.frames)

    @property
    def cache_hit_rate(self) -> float:
        """Aggregate LRU hit rate across every frame's lookups."""
        hits = sum(f.cache_hits for f in self.frames)
        lookups = hits + sum(f.cache_misses for f in self.frames)
        return hits / lookups if lookups else 0.0

    @property
    def joules_per_frame(self) -> float:
        """Mean attributed energy per frame."""
        if not self.frames:
            return 0.0
        return sum(f.energy_joules for f in self.frames) / len(self.frames)

    def as_dict(self) -> dict:
        """JSON-ready payload (the ``BENCH_video.json`` per-run shape)."""
        payload = {
            "frames": len(self.frames),
            "fps": self.fps,
            "seconds": self.seconds,
            "joules_per_frame": self.joules_per_frame,
            "cache_hit_rate": self.cache_hit_rate,
            "degraded_frames": self.degraded_frames,
            "windows_scored": self.windows_scored,
            "per_frame": [
                {
                    "index": f.index,
                    "detections": len(f.detections),
                    "levels_scored": f.levels_scored,
                    "levels_dropped": f.levels_dropped,
                    "cache_hit_rate": f.cache_hit_rate,
                    "energy_joules": f.energy_joules,
                }
                for f in self.frames
            ],
        }
        if self.curve is not None:
            payload["log_average_miss_rate"] = self.curve.log_average_miss_rate()
            payload["miss_rate_at_1_fppi"] = self.curve.miss_rate_at(1.0)
        return payload


def pool_feature_rows(
    features: np.ndarray,
    window_cells: Tuple[int, int],
    n_bins: int,
    pool: Tuple[int, int] = (4, 2),
    bin_merge: int = 3,
) -> np.ndarray:
    """Reduce raw window rows to the deployable pooled feature width.

    Orientation bins summed in groups of ``bin_merge``, then cells
    average-pooled, vectorised over already-swept window rows. The
    defaults turn a ``(16, 8, 18)`` window grid into ``4 * 4 * 6 = 96``
    features, fitting the 128-input deployment budget of
    :func:`~repro.eedn.mapping.deploy_dense_network`.

    Args:
        features: ``(n, wy * wx * n_bins)`` raw window rows.
        window_cells: ``(wy, wx)`` window extent in cells.
        n_bins: orientation bins per cell.
        pool: cells averaged per pooled feature, ``(y, x)``.
        bin_merge: adjacent bins summed per merged bin (must divide
            ``n_bins``).

    Returns:
        ``(n, (wy // py) * (wx // px) * (n_bins // bin_merge))`` pooled
        rows.
    """
    wy, wx = window_cells
    py, px = pool
    if n_bins % bin_merge:
        raise ValueError(f"bin_merge {bin_merge} must divide n_bins {n_bins}")
    n = features.shape[0]
    grid = features.reshape(n, wy, wx, n_bins)
    if bin_merge > 1:
        grid = grid.reshape(n, wy, wx, n_bins // bin_merge, bin_merge).sum(axis=-1)
    ny, nx = wy // py, wx // px
    pooled = (
        grid[:, : ny * py, : nx * px]
        .reshape(n, ny, py, nx, px, grid.shape[3])
        .mean(axis=(2, 4))
    )
    return pooled.reshape(n, ny * nx * grid.shape[3])


def pooled_window_rows(
    grid: np.ndarray,
    window_cells: Tuple[int, int],
    pool: Tuple[int, int] = (4, 2),
    bin_merge: int = 3,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every window's pooled feature row, pooled once on the cell grid.

    Bit for bit ``pool_feature_rows(sliding_window_features(grid))``
    with the positions of :func:`sliding_window_features`, but each
    cell's bins are merged and each ``py x px`` cell box is summed once
    per grid rather than once per window that overlaps it (Ngo et al.,
    arXiv:1802.02187, share cells and blocks across overlapping windows
    the same way). A window's row gathers its ``(wy // py) x (wx // px)``
    boxes, so the raw ``(n, wy * wx * n_bins)`` window matrix is never
    built. The box sums add the cells in the order ``mean`` does on the
    raw rows, so float grids pool identically too while at least two
    merged bins remain (with ``bin_merge == n_bins`` numpy reduces the
    raw rows pairwise, and a float grid may differ in the last bit;
    integer-valued grids such as NApprox counts are exact either way).

    Args:
        grid: ``(gy, gx, n_bins)`` cell histograms of one pyramid level.
        window_cells: ``(wy, wx)`` window extent in cells.
        pool: cells averaged per pooled feature, ``(y, x)``.
        bin_merge: adjacent bins summed per merged bin (must divide
            ``n_bins``).

    Returns:
        ``(rows (n, (wy // py) * (wx // px) * (n_bins // bin_merge)),
        positions (n, 2))``, positions being each window's top-left
        ``(cell_y, cell_x)``; both empty when the window does not fit.
    """
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    gy, gx, n_bins = grid.shape
    wy, wx = window_cells
    py, px = pool
    if n_bins % bin_merge:
        raise ValueError(f"bin_merge {bin_merge} must divide n_bins {n_bins}")
    blocks_y, blocks_x = wy // py, wx // px
    n_merged = n_bins // bin_merge
    ny, nx = gy - wy + 1, gx - wx + 1
    if ny < 1 or nx < 1:
        return (
            np.zeros((0, blocks_y * blocks_x * n_merged)),
            np.zeros((0, 2), dtype=int),
        )
    if bin_merge > 1:
        grid = grid.reshape(gy, gx, n_merged, bin_merge).sum(axis=-1)
    # boxes[y, x] = mean of the py x px cells whose top-left is (y, x).
    hy, hx = gy - py + 1, gx - px + 1
    boxes = np.zeros((hy, hx, n_merged))
    for dy in range(py):
        for dx in range(px):
            boxes += grid[dy : dy + hy, dx : dx + hx]
    boxes /= py * px
    # Window (y, x) reads boxes[y + i * py, x + j * px] for its blocks.
    sy, sx, sb = boxes.strides
    view = np.lib.stride_tricks.as_strided(
        boxes,
        shape=(ny, nx, blocks_y, blocks_x, n_merged),
        strides=(sy, sx, py * sy, px * sx, sb),
        writeable=False,
    )
    rows = view.reshape(ny * nx, -1)
    ys, xs = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    return rows, np.stack([ys.ravel(), xs.ravel()], axis=1)


def _chunked(rows: np.ndarray, size: int):
    """Yield ``rows`` in contiguous blocks of at most ``size``."""
    for start in range(0, rows.shape[0], size):
        yield rows[start : start + size]


class VideoPipeline:
    """Stream frames through a serving tier and reassemble detections.

    Args:
        extractor: cell-grid descriptor (``cell_grid(image)`` plus a
            ``config`` with ``cell_size``), shared with the
            still-image detector.
        service: a **started** :class:`~repro.serve.InferenceService`
            or :class:`~repro.serve.ShardedInferenceService` whose model
            scores pooled window rows.
        config: pipeline knobs; see :class:`VideoPipelineConfig`.
        registry: metrics registry for the ``video_*`` counters
            (defaults to the process-wide ``repro.obs`` registry).
        clock: monotonic time source for the frame deadline and fps
            accounting (defaults to the service's clock, keeping the
            single-clock contract; injectable for deterministic
            degradation tests).
    """

    def __init__(
        self,
        extractor,
        service,
        config: VideoPipelineConfig = VideoPipelineConfig(),
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if config.min_levels < 1:
            raise ValueError(
                f"min_levels must be >= 1, got {config.min_levels}"
            )
        if config.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {config.max_inflight}"
            )
        self.extractor = extractor
        self.service = service
        self.config = config
        self.registry = registry if registry is not None else get_registry()
        self._clock = clock or getattr(service, "clock", time.monotonic)
        descriptor_config = extractor.config
        self.cell_size = int(descriptor_config.cell_size)
        self.window_cells = (
            config.window_shape[0] // self.cell_size,
            config.window_shape[1] // self.cell_size,
        )

    # ------------------------------------------------------------------
    @contextmanager
    def _stage(self, stage: str, level) -> "Iterator[None]":
        """Time one frame stage into ``video_stage_seconds``.

        The histogram is labeled ``{stage=..., level=...}`` so
        :func:`repro.obs.traces.frame_stage_breakdown` can split frame
        latency into extract / pool / serve / nms per pyramid level.
        """
        started = time.perf_counter()
        try:
            yield
        finally:
            self.registry.histogram(
                VIDEO_STAGE_METRIC,
                help="frame latency per pipeline stage and pyramid level",
                buckets=SPAN_BUCKETS,
                labels={"stage": stage, "level": str(level)},
            ).observe(time.perf_counter() - started)

    def process_frame(self, image: np.ndarray, index: int = 0) -> FrameResult:
        """Stream one frame: pyramid, fan-out, NMS, accounting.

        The whole frame runs under its own trace id (returned on
        ``FrameResult.trace_id``), and each pyramid level's extract /
        pool / serve work — plus the frame-level NMS — is timed into
        the ``video_stage_seconds{stage=..., level=...}`` histograms.

        Args:
            image: 2-D grayscale frame in ``[0, 1]``.
            index: frame position (carried into the result).

        Returns:
            The frame's :class:`FrameResult`.
        """
        config = self.config
        started = self._clock()
        deadline = (
            None
            if config.deadline_ms is None
            else started + config.deadline_ms / 1e3
        )
        stats = self.service.stats
        hits0 = stats.counter("cache_hits")
        misses0 = stats.counter("cache_misses")
        energy0 = float(stats.counter("energy_nanojoules"))

        pyramid = ImagePyramid(
            image,
            window_shape=config.window_shape,
            scale_factor=config.scale_factor,
            max_levels=config.max_levels,
        )
        levels = pyramid.levels()  # finest (scale 1) first
        result = FrameResult(
            index=index, trace_id=new_trace_id(), levels_total=len(levels)
        )
        window_h, window_w = config.window_shape

        boxes: List[np.ndarray] = []
        scores: List[np.ndarray] = []
        with trace_context(result.trace_id), span(
            "video.frame", index=index, registry=self.registry
        ):
            # Coarsest first: when the deadline interrupts the frame,
            # the unscored remainder is exactly the finest (priciest)
            # scales.
            for level_index, level in reversed(list(enumerate(levels))):
                if (
                    deadline is not None
                    and result.levels_scored >= config.min_levels
                    and self._clock() >= deadline
                ):
                    result.levels_dropped += 1
                    continue
                with span(
                    "video.level", scale=level.scale, registry=self.registry
                ):
                    with self._stage("extract", level_index):
                        grid = np.asarray(
                            self.extractor.cell_grid(level.image),
                            dtype=np.float64,
                        )
                    result.levels_scored += 1
                    with self._stage("pool", level_index):
                        rows, positions = pooled_window_rows(
                            grid,
                            self.window_cells,
                            pool=config.pool,
                            bin_merge=config.bin_merge,
                        )
                        rows = np.clip(rows * config.feature_scale, 0.0, 1.0)
                    if rows.shape[0] == 0:
                        continue
                    with self._stage("serve", level_index):
                        level_scores = np.concatenate(
                            [
                                np.asarray(
                                    self.service.score_many(
                                        chunk, timeout_s=config.timeout_s
                                    ),
                                    dtype=np.float64,
                                )
                                for chunk in _chunked(
                                    rows, config.max_inflight
                                )
                            ]
                        )
                result.windows_scored += int(rows.shape[0])
                hits = np.flatnonzero(level_scores > config.score_threshold)
                if hits.size:
                    level_boxes = np.empty((hits.size, 4))
                    level_boxes[:, 0] = (
                        positions[hits, 1] * self.cell_size * level.scale
                    )
                    level_boxes[:, 1] = (
                        positions[hits, 0] * self.cell_size * level.scale
                    )
                    level_boxes[:, 2] = window_w * level.scale
                    level_boxes[:, 3] = window_h * level.scale
                    boxes.append(level_boxes)
                    scores.append(level_scores[hits])

            if boxes:
                box_arr = np.concatenate(boxes)
                score_arr = np.concatenate(scores)
                with span(
                    "video.nms",
                    candidates=box_arr.shape[0],
                    registry=self.registry,
                ), self._stage("nms", "frame"):
                    kept = non_maximum_suppression(
                        box_arr, score_arr, epsilon=config.nms_epsilon
                    )
                result.detections = [
                    Detection(
                        x=float(box_arr[i, 0]),
                        y=float(box_arr[i, 1]),
                        width=float(box_arr[i, 2]),
                        height=float(box_arr[i, 3]),
                        score=float(score_arr[i]),
                    )
                    for i in kept
                ]

        result.degraded = result.levels_dropped > 0
        result.cache_hits = int(stats.counter("cache_hits") - hits0)
        result.cache_misses = int(stats.counter("cache_misses") - misses0)
        result.energy_joules = (
            float(stats.counter("energy_nanojoules")) - energy0
        ) * 1e-9
        result.seconds = self._clock() - started
        self._record_frame(result)
        return result

    def run(
        self,
        sequence,
        ground_truth: Optional[Sequence[np.ndarray]] = None,
    ) -> VideoReport:
        """Stream a whole sequence and evaluate it.

        Args:
            sequence: a :class:`~repro.video.synthesis.VideoSequence`,
                or any iterable of frames (2-D arrays or objects with
                an ``image`` attribute).
            ground_truth: optional per-frame ``(m, 4)`` annotation
                boxes; defaults to the sequence's own ground truth when
                it is a :class:`VideoSequence`. The FPPI/miss-rate
                curve is computed whenever any frame is annotated.

        Returns:
            The sequence's :class:`VideoReport`.
        """
        if ground_truth is None and isinstance(sequence, VideoSequence):
            ground_truth = sequence.ground_truth()
        frames = list(sequence)
        started = self._clock()
        results = [
            self.process_frame(getattr(frame, "image", frame), index)
            for index, frame in enumerate(frames)
        ]
        seconds = self._clock() - started

        curve = None
        if ground_truth is not None and any(
            np.asarray(t).shape[0] for t in ground_truth
        ):
            detections_per_frame = []
            for result in results:
                if result.detections:
                    detections_per_frame.append(
                        (
                            np.stack([d.as_box() for d in result.detections]),
                            np.array([d.score for d in result.detections]),
                        )
                    )
                else:
                    detections_per_frame.append((np.zeros((0, 4)), np.zeros(0)))
            curve = evaluate_detections(detections_per_frame, list(ground_truth))
        return VideoReport(frames=results, curve=curve, seconds=seconds)

    # ------------------------------------------------------------------
    def _record_frame(self, result: FrameResult) -> None:
        """Publish one frame's counters into the metrics registry."""
        self.registry.counter(
            "video_frames_total", help="frames streamed through the pipeline"
        ).inc()
        self.registry.counter(
            "video_windows_scored_total",
            help="window rows fanned out to the serving tier",
        ).inc(result.windows_scored)
        if result.degraded:
            self.registry.counter(
                "video_degraded_frames_total",
                help="frames that lost pyramid levels to the deadline budget",
            ).inc()
            self.registry.counter(
                "video_levels_dropped_total",
                help="finest pyramid levels skipped by the deadline budget",
            ).inc(result.levels_dropped)


__all__ = [
    "FrameResult",
    "VideoPipeline",
    "VideoPipelineConfig",
    "VideoReport",
    "pool_feature_rows",
    "pooled_window_rows",
]
