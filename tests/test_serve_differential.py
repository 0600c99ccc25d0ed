"""Differential tests: served results are bit-identical to direct calls.

The serving layer reorders, coalesces, and caches requests, so these
tests are the conformance gate for the whole subsystem: a detector (or a
raw scorer) driven through the service must produce byte-for-byte the
results of synchronous single-caller calls. The enabling property is
content-seeded coding (``TrueNorthBinaryScorer(coding="content")``) —
each window's spike raster depends only on the window bytes and the
scorer entropy, never on call order or batch composition.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.detection.pipeline import SlidingWindowDetector, TrueNorthBinaryScorer
from repro.eedn import EednNetwork, ThresholdActivation, TrinaryDense
from repro.serve import (
    InferenceService,
    NApproxCellModel,
    ServiceBackedScorer,
    ShardedInferenceService,
    random_patch_rows,
)

from tests.engine_systems import BATCH_MODES, engine_mode

#: The batch-engine modes that pin a path the test systems would not
#: otherwise take (see ``tests/engine_systems.py``).
PINNED_MODES = [mode for mode in BATCH_MODES if mode != "batch"]


def _small_scorer(coding="content", engine="batch"):
    network = EednNetwork(
        [
            TrinaryDense(8, 16, rng=0),
            ThresholdActivation(0.0),
            TrinaryDense(16, 2, rng=1),
        ]
    )
    return TrueNorthBinaryScorer(
        network, ticks=8, rng=7, coding=coding, engine=engine
    )


class _TinyExtractor:
    """Test extractor: 2-bin mean/contrast cells at 8 px (fast, exact)."""

    config = SimpleNamespace(cell_size=8, n_bins=2)

    def cell_grid(self, image):
        h, w = image.shape[0] // 8, image.shape[1] // 8
        grid = np.zeros((h, w, 2))
        for y in range(h):
            for x in range(w):
                cell = image[y * 8 : (y + 1) * 8, x * 8 : (x + 1) * 8]
                grid[y, x] = (cell.mean(), cell.std())
        return grid


class TestScorerDifferential:
    def test_content_coding_is_order_independent(self):
        scorer = _small_scorer()
        rows = np.random.default_rng(0).random((12, 8))
        forward = scorer.decision_function(rows)
        backward = scorer.decision_function(rows[::-1])[::-1]
        one_by_one = np.concatenate(
            [scorer.decision_function(rows[i : i + 1]) for i in range(12)]
        )
        np.testing.assert_array_equal(forward, backward)
        np.testing.assert_array_equal(forward, one_by_one)

    def test_served_scores_bit_identical(self):
        scorer = _small_scorer()
        rows = np.random.default_rng(1).random((30, 8))
        direct = scorer.decision_function(rows)
        with InferenceService(scorer, max_batch_size=8, max_wait_ms=1.0) as svc:
            served = svc.score_many(rows)
        np.testing.assert_array_equal(direct, served)

    def test_cache_hits_are_bit_identical(self):
        scorer = _small_scorer()
        rows = np.random.default_rng(2).random((10, 8))
        duplicated = np.vstack([rows, rows, rows])
        direct = scorer.decision_function(duplicated)
        with InferenceService(scorer, max_batch_size=4) as svc:
            svc.score_many(rows)  # warm the cache deterministically
            served = svc.score_many(duplicated)
            assert svc.stats.counter("cache_hits") == 30
        np.testing.assert_array_equal(direct, served)

    def test_cache_keys_match_batch_engine(self):
        """model_id excludes the engine, so caches are shared across it."""
        batch_scorer = _small_scorer()
        reference_scorer = _small_scorer(engine="reference")
        assert reference_scorer.model_id == batch_scorer.model_id
        assert reference_scorer.cacheable and batch_scorer.cacheable

    def test_stream_coding_disables_the_cache(self):
        scorer = _small_scorer(coding="stream")
        assert not scorer.cacheable
        service = InferenceService(scorer, cache_capacity=128)
        assert service.cache is None


@pytest.mark.parametrize("mode", PINNED_MODES)
class TestPinnedModeDifferential:
    """The batch engine's pinned modes through the serving stack.

    With float64 arithmetic or a per-tick counter-log fold pinned,
    served scores, cache hits, and attributed energy must match the
    engine as compiled byte for byte: the dtype and the ledger's
    buffering are implementation details the serving layer and its
    cache must be unable to observe.
    """

    def test_served_scores_bit_identical_to_batch(self, mode):
        rows = np.random.default_rng(5).random((30, 8))
        direct = _small_scorer().decision_function(rows)
        with engine_mode(mode), InferenceService(
            _small_scorer(), max_batch_size=8, max_wait_ms=1.0
        ) as svc:
            served = svc.score_many(rows)
        np.testing.assert_array_equal(direct, served)

    def test_cache_hits_are_bit_identical(self, mode):
        rows = np.random.default_rng(6).random((10, 8))
        duplicated = np.vstack([rows, rows, rows])
        direct = _small_scorer().decision_function(duplicated)
        with engine_mode(mode), InferenceService(
            _small_scorer(), max_batch_size=4
        ) as svc:
            svc.score_many(rows)  # warm the cache deterministically
            served = svc.score_many(duplicated)
            assert svc.stats.counter("cache_hits") == 30
        np.testing.assert_array_equal(direct, served)

    def test_served_energy_attribution_matches_batch(self, mode):
        """The service's per-request energy ledger agrees exactly.

        Counter parity makes the per-lane ledgers bit-identical and
        per-lane energy is independent of micro-batch composition, so
        the attributed totals must match to the bit.
        """
        rows = np.random.default_rng(8).random((12, 8))
        totals = {}
        for run_mode in ("batch", mode):
            with engine_mode(run_mode), InferenceService(
                _small_scorer(), max_batch_size=4, max_wait_ms=1.0
            ) as svc:
                svc.score_many(rows)
                snapshot = svc.stats.snapshot()
            assert snapshot["energy_nj"]["count"] == len(rows)
            totals[run_mode] = snapshot["energy_nj"]["total"]
        assert totals["batch"] > 0
        assert totals[mode] == totals["batch"]

    def test_detector_through_service_matches_batch(self, mode):
        image = np.random.default_rng(9).random((40, 40))

        def build(active_scorer):
            return SlidingWindowDetector(
                _TinyExtractor(),
                active_scorer,
                feature_mode="cells",
                window_shape=(16, 16),
                score_threshold=-1e9,
                chunk_size=5,
            )

        direct = build(_small_scorer()).detect(image)
        with engine_mode(mode), InferenceService(
            _small_scorer(), max_batch_size=8, max_wait_ms=1.0
        ) as svc:
            served = build(ServiceBackedScorer(svc)).detect(image)
        assert direct == served
        assert len(direct) > 0


class TestDetectorDifferential:
    def test_detector_through_service_bit_identical(self):
        """SlidingWindowDetector via the batcher == direct detection."""
        scorer = _small_scorer()
        image = np.random.default_rng(3).random((40, 40))

        def build(active_scorer):
            return SlidingWindowDetector(
                _TinyExtractor(),
                active_scorer,
                feature_mode="cells",
                window_shape=(16, 16),
                score_threshold=-1e9,
                chunk_size=5,
            )

        direct = build(scorer).detect(image)
        with InferenceService(scorer, max_batch_size=8, max_wait_ms=1.0) as svc:
            served = build(ServiceBackedScorer(svc)).detect(image)
        assert direct == served  # Detection dataclasses compare exactly
        assert len(direct) > 0

    def test_napprox_cells_through_service_bit_identical(self):
        model = NApproxCellModel(window=8)
        rows = random_patch_rows(6, rng=4)
        direct = model(rows)
        with InferenceService(model, max_batch_size=4, max_wait_ms=1.0) as svc:
            futures = [svc.submit(row) for row in rows]
            served = np.stack([future.result(timeout=30) for future in futures])
        np.testing.assert_array_equal(direct, served)


class TestShardedDifferential:
    """The multi-process worker tier joins the bit-identity contract.

    Which shard scores a row — and therefore which forked process, over
    which mp queue — must be unobservable in the results, the cache
    keys, and the attributed energy.
    """

    def test_sharded_scores_bit_identical_to_direct(self):
        scorer = _small_scorer()
        rows = np.random.default_rng(10).random((30, 8))
        direct = scorer.decision_function(rows)
        with ShardedInferenceService(
            scorer, workers=2, max_batch_size=8, max_wait_ms=1.0
        ) as svc:
            served = svc.score_many(rows)
        np.testing.assert_array_equal(direct, served)

    def test_sharded_matches_in_process_service(self):
        rows = np.random.default_rng(11).random((24, 8))
        with InferenceService(
            _small_scorer(), max_batch_size=8, max_wait_ms=1.0
        ) as single:
            expected = single.score_many(rows)
        with ShardedInferenceService(
            _small_scorer(), workers=3, max_batch_size=8, max_wait_ms=1.0
        ) as sharded:
            got = sharded.score_many(rows)
        np.testing.assert_array_equal(expected, got)

    def test_sharded_cache_hits_are_bit_identical(self):
        scorer = _small_scorer()
        rows = np.random.default_rng(12).random((10, 8))
        duplicated = np.vstack([rows, rows, rows])
        direct = scorer.decision_function(duplicated)
        with ShardedInferenceService(
            scorer, workers=2, max_batch_size=4
        ) as svc:
            svc.score_many(rows)  # warm the shared parent-side cache
            served = svc.score_many(duplicated)
            assert svc.stats.counter("cache_hits") == 30
        np.testing.assert_array_equal(direct, served)

    def test_sharded_energy_attribution_matches_in_process(self):
        """Worker ledgers re-recorded in the parent attribute the same
        per-request energy the in-process service measures locally."""
        rows = np.random.default_rng(13).random((12, 8))
        snapshots = {}
        for workers in (0, 2):
            if workers:
                service = ShardedInferenceService(
                    _small_scorer(), workers=workers,
                    max_batch_size=4, max_wait_ms=1.0,
                )
            else:
                service = InferenceService(
                    _small_scorer(), max_batch_size=4, max_wait_ms=1.0
                )
            with service:
                service.score_many(rows)
                snapshots[workers] = service.stats.snapshot()
        for snapshot in snapshots.values():
            assert snapshot["energy_nj"]["count"] == len(rows)
        assert snapshots[0]["energy_nj"]["total"] > 0
        assert snapshots[2]["energy_nj"]["total"] == pytest.approx(
            snapshots[0]["energy_nj"]["total"], rel=1e-12
        )

    def test_detector_through_sharded_service_bit_identical(self):
        scorer = _small_scorer()
        image = np.random.default_rng(14).random((40, 40))

        def build(active_scorer):
            return SlidingWindowDetector(
                _TinyExtractor(),
                active_scorer,
                feature_mode="cells",
                window_shape=(16, 16),
                score_threshold=-1e9,
                chunk_size=5,
            )

        direct = build(scorer).detect(image)
        with ShardedInferenceService(
            scorer, workers=2, max_batch_size=8, max_wait_ms=1.0
        ) as svc:
            served = build(ServiceBackedScorer(svc)).detect(image)
        assert direct == served
        assert len(direct) > 0

    def test_worker_telemetry_is_shard_labeled_in_parent_exposition(self):
        """Shard-side ``serve_hw_*`` counters and worker span series
        appear in the parent's exposition with a ``shard`` label, and
        the labeled hop totals sum exactly to the unlabeled fleet
        counters the parity tests compare against."""
        rows = np.random.default_rng(15).random((12, 8))
        with ShardedInferenceService(
            _small_scorer(), workers=2, max_batch_size=4, max_wait_ms=1.0
        ) as svc:
            svc.score_many(rows)
            registry = svc.stats.registry
            exposition = registry.render_prometheus()
        assert 'serve_hw_router_hops_total{shard="' in exposition
        assert (
            'span_serve_shard_worker_score_seconds_count{shard="'
            in exposition
        )
        unlabeled = registry.get("serve_hw_router_hops_total").value
        labeled_series = [
            registry.get(
                "serve_hw_router_hops_total", labels={"shard": str(index)}
            )
            for index in range(2)
        ]
        labeled = sum(
            metric.value for metric in labeled_series if metric is not None
        )
        assert labeled == unlabeled > 0
