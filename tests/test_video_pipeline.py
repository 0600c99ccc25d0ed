"""Tests for the streaming frame pipeline: caching, degradation, parity."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.detection.nms import non_maximum_suppression
from repro.detection.pipeline import TrueNorthBinaryScorer, sliding_window_features
from repro.detection.pyramid import ImagePyramid
from repro.eedn.layers import ThresholdActivation, TrinaryDense
from repro.eedn.network import EednNetwork
from repro.napprox import NApproxConfig, NApproxDescriptor
from repro.obs import MetricsRegistry
from repro.serve import InferenceService, ShardedInferenceService
from repro.video import (
    VideoConfig,
    VideoPipeline,
    VideoPipelineConfig,
    pool_feature_rows,
    pooled_window_rows,
    synthesize_sequence,
)


#: Toy geometry: 32x16 windows of 8-pixel cells -> (4, 2) window cells,
#: pooled (4, 2) with 18 bins merged by 3 -> 6 features per window.
TOY_CONFIG = dict(
    window_shape=(32, 16), scale_factor=1.2, max_levels=4, pool=(4, 2),
    bin_merge=3,
)


class _MeanExtractor:
    """Cell grid of 8x8 block means, broadcast across 18 bins."""

    def __init__(self):
        self.config = SimpleNamespace(cell_size=8, n_bins=18)

    def cell_grid(self, image):
        cy, cx = image.shape[0] // 8, image.shape[1] // 8
        blocks = image[: cy * 8, : cx * 8].reshape(cy, 8, cx, 8).mean(axis=(1, 3))
        return np.repeat(blocks[:, :, None], 18, axis=2)


def _dot_model(matrix):
    # Row-at-a-time on purpose: batched BLAS matmul rounds differently
    # per batch shape, and the serve contract (like the real integer-
    # exact scorers) is that scores do not depend on batch composition.
    weights = np.linspace(-1.0, 1.0, matrix.shape[1])
    return np.array([float(np.dot(row, weights)) for row in matrix])


def _sequence(motion, n_frames=3):
    return synthesize_sequence(
        VideoConfig(
            shape=(64, 80), n_frames=n_frames, motion=motion, person_height=40
        ),
        rng=2,
    )


def _run(sequence, clock=None, registry=None, service_kwargs=None, **overrides):
    config = VideoPipelineConfig(**{**TOY_CONFIG, **overrides})
    with InferenceService(_dot_model, **(service_kwargs or {})) as service:
        pipeline = VideoPipeline(
            _MeanExtractor(), service, config, registry=registry, clock=clock
        )
        return pipeline.run(sequence)


class _SteppingClock:
    """Advances a fixed amount per call — deterministic deadlines."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestPoolFeatureRows:
    def test_shape(self):
        rows = np.arange(2 * 4 * 2 * 18, dtype=np.float64).reshape(2, -1)
        pooled = pool_feature_rows(rows, (4, 2), 18, pool=(4, 2), bin_merge=3)
        assert pooled.shape == (2, 6)

    def test_constant_input_pools_to_merged_sum(self):
        rows = np.full((1, 4 * 2 * 18), 0.5)
        pooled = pool_feature_rows(rows, (4, 2), 18, pool=(4, 2), bin_merge=3)
        # Bins sum in groups of 3, cells average: 3 * 0.5 everywhere.
        assert np.allclose(pooled, 1.5)

    def test_bad_bin_merge_rejected(self):
        with pytest.raises(ValueError, match="bin_merge"):
            pool_feature_rows(np.zeros((1, 4 * 2 * 18)), (4, 2), 18, bin_merge=5)


class TestPooledWindowRows:
    """Pooling on the grid against sweeping then pooling raw rows."""

    @pytest.mark.parametrize("bin_merge", [1, 3, 9])
    @pytest.mark.parametrize("pool", [(4, 2), (3, 3)])
    @pytest.mark.parametrize("kind", ["int", "float"])
    @pytest.mark.parametrize("grid_shape", [(15, 8), (16, 8), (21, 13), (30, 40)])
    def test_matches_sweep_then_pool(self, grid_shape, kind, pool, bin_merge):
        rng = np.random.default_rng([*grid_shape, int(kind == "int")])
        if kind == "int":
            grid = rng.integers(0, 65, grid_shape + (18,))
        else:
            grid = rng.random(grid_shape + (18,)) * 10.0 ** rng.uniform(-3, 3)
        raw, positions = sliding_window_features(grid, (16, 8))
        expected = pool_feature_rows(raw, (16, 8), 18, pool, bin_merge)
        rows, got_positions = pooled_window_rows(grid, (16, 8), pool, bin_merge)
        assert rows.dtype == expected.dtype == np.float64
        assert rows.shape == expected.shape
        assert rows.tobytes() == expected.tobytes()
        assert got_positions.dtype == positions.dtype
        assert np.array_equal(got_positions, positions)

    def test_exactly_one_window(self):
        grid = np.random.default_rng(0).integers(0, 65, (16, 8, 18))
        rows, positions = pooled_window_rows(grid, (16, 8))
        assert rows.shape == (1, 96)
        assert positions.tolist() == [[0, 0]]

    @pytest.mark.parametrize("grid_shape", [(15, 8), (16, 7), (0, 0)])
    def test_grid_smaller_than_window_is_empty(self, grid_shape):
        grid = np.ones(grid_shape + (18,))
        rows, positions = pooled_window_rows(grid, (16, 8), (3, 3), 9)
        assert rows.shape == (0, 5 * 2 * 2)
        assert positions.shape == (0, 2)

    def test_bad_bin_merge_rejected(self):
        with pytest.raises(ValueError, match="bin_merge"):
            pooled_window_rows(np.zeros((16, 8, 18)), (16, 8), bin_merge=5)


class _RecordingService:
    """Records every row fanned out; scores each by its feature sum."""

    def __init__(self):
        self.rows = []
        self.stats = SimpleNamespace(counter=lambda name: 0)

    def score_many(self, rows, timeout_s=None):
        self.rows.append(np.array(rows))
        return rows.sum(axis=1) - 6.0


class TestServedRowsMatchSweepThenPool:
    """A real NApprox frame: the rows served, and the detections made,
    equal those of sweeping raw window rows and pooling them."""

    @pytest.mark.parametrize("motion", ["full", "walk", "static"])
    def test_rows_and_detections(self, motion):
        extractor = NApproxDescriptor(
            NApproxConfig(quantized=True, window=64, normalization="none")
        )
        config = VideoPipelineConfig(feature_scale=0.05)
        image = synthesize_sequence(
            VideoConfig(shape=(240, 320), n_frames=2, motion=motion), rng=1
        )[1].image
        service = _RecordingService()
        frame = VideoPipeline(extractor, service, config).process_frame(image)

        levels = ImagePyramid(
            image,
            window_shape=config.window_shape,
            scale_factor=config.scale_factor,
            max_levels=config.max_levels,
        ).levels()
        rows, boxes, scores = [], [], []
        for level in reversed(levels):
            grid = np.asarray(extractor.cell_grid(level.image), dtype=np.float64)
            raw, positions = sliding_window_features(grid, (16, 8))
            pooled = np.clip(
                pool_feature_rows(raw, (16, 8), 18, config.pool, config.bin_merge)
                * config.feature_scale,
                0.0,
                1.0,
            )
            rows.append(pooled)
            level_scores = pooled.sum(axis=1) - 6.0
            for hit in np.where(level_scores > config.score_threshold)[0]:
                cy, cx = positions[hit]
                boxes.append(
                    np.array(
                        [
                            cx * 8 * level.scale,
                            cy * 8 * level.scale,
                            64 * level.scale,
                            128 * level.scale,
                        ]
                    )
                )
                scores.append(float(level_scores[hit]))
        expected = np.vstack(rows)
        served = np.vstack(service.rows)
        assert served.shape == expected.shape
        assert served.tobytes() == expected.tobytes()

        assert boxes, "the scorer should pass some windows"
        box_arr, score_arr = np.stack(boxes), np.asarray(scores)
        kept = non_maximum_suppression(box_arr, score_arr, epsilon=0.2)
        assert frame.detections_key() == tuple(
            (*map(float, box_arr[i]), float(score_arr[i])) for i in kept
        )


class TestCacheLocality:
    def test_static_sequence_hits_cache_after_first_frame(self):
        report = _run(_sequence("static", n_frames=3))
        first, rest = report.frames[0], report.frames[1:]
        assert first.cache_misses > 0
        for frame in rest:
            assert frame.cache_misses == 0
            assert frame.cache_hit_rate == 1.0
        assert len({f.windows_scored for f in report.frames}) == 1

    def test_full_motion_rarely_hits(self):
        # Fresh per-frame noise defeats cross-frame reuse; the only hits
        # left are intra-frame duplicates (saturated windows), which
        # stay far below the static sequence's near-total reuse.
        full = _run(_sequence("full", n_frames=3))
        static = _run(_sequence("static", n_frames=3))
        assert full.cache_hit_rate < 0.2
        assert static.cache_hit_rate - full.cache_hit_rate > 0.4

    def test_report_aggregates(self):
        report = _run(_sequence("static", n_frames=3))
        assert report.windows_scored == sum(
            f.windows_scored for f in report.frames
        )
        assert report.fps > 0
        assert report.degraded_frames == 0


class TestDeadlineDegradation:
    def test_deadline_drops_levels_deterministically(self):
        sequence = _sequence("static", n_frames=2)
        runs = [
            _run(sequence, clock=_SteppingClock(), deadline_ms=1.0)
            for _ in range(2)
        ]
        for report in runs:
            for frame in report.frames:
                assert frame.levels_scored == 1
                assert frame.levels_dropped == frame.levels_total - 1
                assert frame.degraded
        # Bit-identical across repeats: same levels, same detections.
        assert [f.detections_key() for f in runs[0].frames] == [
            f.detections_key() for f in runs[1].frames
        ]

    def test_min_levels_always_scored(self):
        report = _run(
            _sequence("static", n_frames=1),
            clock=_SteppingClock(),
            deadline_ms=1.0,
            min_levels=2,
        )
        assert report.frames[0].levels_scored == 2

    def test_no_deadline_scores_everything(self):
        report = _run(_sequence("static", n_frames=1))
        frame = report.frames[0]
        assert frame.levels_scored == frame.levels_total > 1
        assert frame.levels_dropped == 0
        assert not frame.degraded

    def test_degraded_counter_increments(self):
        registry = MetricsRegistry()
        _run(
            _sequence("static", n_frames=2),
            clock=_SteppingClock(),
            registry=registry,
            deadline_ms=1.0,
        )
        assert registry.counter("video_degraded_frames_total").value == 2
        assert registry.counter("video_frames_total").value == 2
        assert registry.counter("video_levels_dropped_total").value > 0

    def test_degraded_frame_keeps_coarsest_scale(self):
        # The one surviving level is the coarsest: every detection the
        # degraded frame emits carries the largest pyramid scale.
        full = _run(_sequence("static", n_frames=1))
        degraded = _run(
            _sequence("static", n_frames=1),
            clock=_SteppingClock(),
            deadline_ms=1.0,
            score_threshold=-1e9,
        )
        frame = degraded.frames[0]
        assert frame.levels_scored == 1
        max_width = max(d.width for d in frame.detections)
        assert frame.windows_scored < full.frames[0].windows_scored
        assert max_width > TOY_CONFIG["window_shape"][1]


class TestFanOut:
    def test_chunked_fanout_matches_unchunked(self):
        sequence = _sequence("walk", n_frames=2)
        small = _run(
            sequence,
            service_kwargs=dict(queue_capacity=8),
            max_inflight=4,
            score_threshold=-1e9,
        )
        large = _run(sequence, max_inflight=1_000_000, score_threshold=-1e9)
        assert [f.detections_key() for f in small.frames] == [
            f.detections_key() for f in large.frames
        ]
        assert small.windows_scored == large.windows_scored

    def test_fanout_wider_than_queue_matches_unchunked(self):
        sequence = _sequence("walk", n_frames=2)
        narrow_queue = _run(
            sequence,
            service_kwargs=dict(queue_capacity=4),
            max_inflight=128,
            score_threshold=-1e9,
        )
        large = _run(sequence, max_inflight=1_000_000, score_threshold=-1e9)
        assert [f.detections_key() for f in narrow_queue.frames] == [
            f.detections_key() for f in large.frames
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="min_levels"):
            VideoPipeline(
                _MeanExtractor(), None, VideoPipelineConfig(min_levels=0)
            )
        with pytest.raises(ValueError, match="max_inflight"):
            VideoPipeline(
                _MeanExtractor(), None, VideoPipelineConfig(max_inflight=0)
            )


class TestEngineAndWorkerParity:
    """NMS output must be bit-identical across engines and shard
    counts."""

    @staticmethod
    def _scorers():
        network = EednNetwork(
            [
                TrinaryDense(6, 4, rng=5),
                ThresholdActivation(0.0, ste_window=2.0),
                TrinaryDense(4, 2, rng=6),
            ]
        )
        return {
            engine: TrueNorthBinaryScorer(
                network, ticks=2, rng=0, engine=engine, coding="content"
            )
            for engine in ("reference", "batch")
        }

    def _keys(self, scorer, sequence, workers=0):
        config = VideoPipelineConfig(**TOY_CONFIG, score_threshold=-1e9)
        if workers:
            service = ShardedInferenceService(scorer, workers=workers)
        else:
            service = InferenceService(scorer)
        with service:
            pipeline = VideoPipeline(_MeanExtractor(), service, config)
            report = pipeline.run(sequence)
        return [frame.detections_key() for frame in report.frames]

    def test_engines_bit_identical(self):
        sequence = _sequence("static", n_frames=2)
        scorers = self._scorers()
        keys = {
            engine: self._keys(scorer, sequence)
            for engine, scorer in scorers.items()
        }
        assert keys["reference"] == keys["batch"]
        assert any(len(k) for k in keys["batch"])

    def test_workers_bit_identical(self):
        sequence = _sequence("static", n_frames=2)
        scorer = self._scorers()["batch"]
        in_process = self._keys(scorer, sequence)
        sharded = self._keys(scorer, sequence, workers=2)
        assert in_process == sharded
