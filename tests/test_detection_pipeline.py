"""Tests for the sliding-window detector and scorer adapters."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.detection import (
    EednBinaryScorer,
    SlidingWindowDetector,
    TrueNorthBinaryScorer,
)
from repro.eedn import (
    EednNetwork,
    ThresholdActivation,
    TrinaryDense,
)
from repro.hog import HogDescriptor, dalal_triggs_config
from repro.napprox import NApproxDescriptor
from repro.svm import LinearSVM


class _ConstantScorer:
    """Scores every window identically (test double)."""

    def __init__(self, value: float) -> None:
        self.value = value
        self.seen = 0

    def decision_function(self, features):
        self.seen += features.shape[0]
        return np.full(features.shape[0], self.value)


class TestFeatureAssembly:
    def test_window_features_length_blocks(self):
        detector = SlidingWindowDetector(HogDescriptor(), None)
        window = np.random.default_rng(0).random((128, 64))
        assert detector.window_features(window).shape == (3780,)

    def test_window_features_length_cells(self):
        detector = SlidingWindowDetector(
            NApproxDescriptor(), None, feature_mode="cells"
        )
        window = np.random.default_rng(0).random((128, 64))
        assert detector.window_features(window).shape == (16 * 8 * 18,)

    def test_grid_features_match_window_features(self):
        """Sliding assembly over a whole image equals per-window compute."""
        extractor = HogDescriptor(dalal_triggs_config())
        detector = SlidingWindowDetector(extractor, None)
        image = np.random.default_rng(1).random((144, 96))
        grid = extractor.cell_grid(image)
        features, positions = detector._grid_features(grid)
        # Window at cell (1, 2) -> pixels [8:136, 16:80].
        index = np.where((positions == [1, 2]).all(axis=1))[0][0]
        direct = detector.window_features(image[8:136, 16:80])
        # Border cells differ (full-image gradients have true neighbours,
        # the crop edge-pads); interior blocks must agree exactly.
        slid = features[index].reshape(15, 7, 36)[1:-1, 1:-1]
        solo = direct.reshape(15, 7, 36)[1:-1, 1:-1]
        assert np.allclose(slid, solo)

    def test_cell_scale_applied(self):
        extractor = NApproxDescriptor()
        detector = SlidingWindowDetector(
            extractor, None, feature_mode="cells", cell_scale=0.5
        )
        image = np.tile(np.linspace(0, 1, 128), (128, 1))
        grid = extractor.cell_grid(image)
        features, _ = detector._grid_features(grid)
        unscaled = SlidingWindowDetector(
            extractor, None, feature_mode="cells", cell_scale=1.0
        )._grid_features(grid)[0]
        assert np.allclose(features * 2.0, unscaled)

    def test_bad_feature_mode(self):
        with pytest.raises(ValueError):
            SlidingWindowDetector(HogDescriptor(), None, feature_mode="pixels")


class TestDetection:
    def test_no_detections_below_threshold(self):
        scorer = _ConstantScorer(-1.0)
        detector = SlidingWindowDetector(
            HogDescriptor(), scorer, score_threshold=0.0
        )
        image = np.random.default_rng(2).random((160, 120))
        assert detector.detect(image) == []
        assert scorer.seen > 0  # windows were scored

    def test_nms_collapses_constant_scores(self):
        scorer = _ConstantScorer(1.0)
        detector = SlidingWindowDetector(
            HogDescriptor(), scorer, score_threshold=0.0, nms_epsilon=0.2
        )
        image = np.random.default_rng(2).random((160, 120))
        detections = detector.detect(image)
        assert 0 < len(detections) < scorer.seen

    def test_boxes_scale_with_pyramid(self):
        scorer = _ConstantScorer(1.0)
        detector = SlidingWindowDetector(
            HogDescriptor(), scorer, score_threshold=0.0
        )
        image = np.random.default_rng(2).random((256, 192))
        boxes, _, _ = detector._scan(image, collect_features=False)
        widths = {round(w) for w in boxes[:, 2]}
        assert len(widths) > 1  # windows were scored at multiple scales
        assert min(widths) == 64

    def test_detect_boxes_arrays(self):
        scorer = _ConstantScorer(-1.0)
        detector = SlidingWindowDetector(HogDescriptor(), scorer)
        boxes, scores = detector.detect_boxes(np.zeros((140, 100)))
        assert boxes.shape == (0, 4)
        assert scores.shape == (0,)

    def test_svm_end_to_end_smoke(self, small_split):
        extractor = HogDescriptor()
        detector = SlidingWindowDetector(extractor, None)
        positives = np.stack(
            [detector.window_features(w) for w in small_split.positive_windows[:20]]
        )
        negatives = np.stack(
            [detector.window_features(w) for w in small_split.negative_windows[:40]]
        )
        model = LinearSVM(C=0.1, epochs=10, rng=0).fit(
            np.vstack([positives, negatives]),
            np.concatenate([np.ones(20), -np.ones(40)]),
        )
        armed = SlidingWindowDetector(extractor, model, score_threshold=0.0)
        scene = small_split.test_scenes[0]
        detections = armed.detect(scene.image)
        assert isinstance(detections, list)

    def test_hard_negative_features_shape(self, small_split):
        scorer = _ConstantScorer(1.0)
        detector = SlidingWindowDetector(HogDescriptor(), scorer)
        mined = detector.hard_negative_features(
            small_split.negative_images[:1], per_image_cap=5
        )
        assert mined.shape == (5, 3780)

    def test_hard_negative_empty_when_model_clean(self, small_split):
        scorer = _ConstantScorer(-1.0)
        detector = SlidingWindowDetector(HogDescriptor(), scorer)
        mined = detector.hard_negative_features(small_split.negative_images[:1])
        assert mined.shape == (0, 3780)


class _SummingScorer:
    """Per-row score = feature sum (order-insensitive, chunking-agnostic)."""

    def __init__(self):
        self.calls = []

    def decision_function(self, features):
        self.calls.append(features.shape[0])
        return features.sum(axis=1)


class _ShrinkingExtractor:
    """Extractor whose deeper pyramid levels yield too few cells.

    Images below 110 px tall produce a 2x2 cell grid — smaller than the
    8x8-cell window — so those levels contribute zero windows while the
    pyramid itself still emits them.
    """

    config = SimpleNamespace(cell_size=8, n_bins=2)

    def cell_grid(self, image):
        h, w = image.shape
        if h < 110:
            return np.zeros((2, 2, 2))
        gy, gx = h // 8, w // 8
        rng = np.random.default_rng(gy * 1000 + gx)
        return rng.random((gy, gx, 2))


class TestChunking:
    def test_chunk_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            SlidingWindowDetector(HogDescriptor(), None, chunk_size=0)

    def test_chunk_size_larger_than_window_count(self):
        """One chunk covering every window scores identically to many."""
        image = np.random.default_rng(5).random((144, 80))
        results = {}
        for chunk_size in (1, 7, 10**6):
            scorer = _SummingScorer()
            detector = SlidingWindowDetector(
                HogDescriptor(),
                scorer,
                score_threshold=-1e9,
                chunk_size=chunk_size,
            )
            boxes, scores, _ = detector._scan(image, collect_features=False)
            results[chunk_size] = (boxes, scores)
            assert max(scorer.calls) <= chunk_size
        reference_boxes, reference_scores = results[1]
        assert reference_scores.size > 0
        for chunk_size in (7, 10**6):
            boxes, scores = results[chunk_size]
            np.testing.assert_array_equal(reference_boxes, boxes)
            np.testing.assert_array_equal(reference_scores, scores)

    def test_oversized_chunk_uses_single_call_per_level(self):
        scorer = _SummingScorer()
        detector = SlidingWindowDetector(
            HogDescriptor(), scorer, score_threshold=-1e9, chunk_size=10**6
        )
        detector._scan(
            np.random.default_rng(6).random((128, 64)), collect_features=False
        )
        assert scorer.calls == [1]  # one window, one call, no empty chunks

    def test_empty_pyramid_level_skipped(self):
        """A level with zero windows is skipped, not crashed on."""
        scorer = _SummingScorer()
        detector = SlidingWindowDetector(
            _ShrinkingExtractor(),
            scorer,
            feature_mode="cells",
            window_shape=(64, 64),
            score_threshold=-1e9,
            max_levels=10,
        )
        image = np.random.default_rng(7).random((120, 120))
        boxes, scores, _ = detector._scan(image, collect_features=False)
        # Level 0 (120 px) has cells; downscaled levels (109 px and
        # below) shrink to a 2x2 grid and contribute nothing.
        assert scores.size > 0
        assert (boxes[:, 2] == 64.0).all()  # every box is a level-0 box

    def test_all_levels_empty_yields_no_detections(self):
        scorer = _SummingScorer()
        detector = SlidingWindowDetector(
            _ShrinkingExtractor(),
            scorer,
            feature_mode="cells",
            window_shape=(64, 64),
            score_threshold=-1e9,
        )
        image = np.random.default_rng(8).random((80, 80))  # every level < 110
        assert detector.detect(image) == []
        assert scorer.calls == []  # the classifier was never invoked

    def test_empty_level_with_feature_collection(self):
        detector = SlidingWindowDetector(
            _ShrinkingExtractor(),
            _SummingScorer(),
            feature_mode="cells",
            window_shape=(64, 64),
            score_threshold=-1e9,
        )
        image = np.random.default_rng(9).random((120, 120))
        boxes, scores, features = detector._scan(image, collect_features=True)
        assert features.shape == (scores.size, 8 * 8 * 2)


class TestScorers:
    def _classifier(self):
        return EednNetwork(
            [
                TrinaryDense(2304, 32, rng=0),
                ThresholdActivation(0.0),
                TrinaryDense(32, 2, rng=1),
            ]
        )

    def test_eedn_scorer_margin(self):
        network = self._classifier()
        scorer = EednBinaryScorer(network, positive_class=1)
        features = np.random.default_rng(0).random((4, 2304))
        logits = network.forward(features)
        margins = scorer.decision_function(features)
        assert np.allclose(margins, logits[:, 1] - logits[:, 0])

    def _small_classifier(self):
        return EednNetwork(
            [
                TrinaryDense(36, 16, rng=0),
                ThresholdActivation(0.0),
                TrinaryDense(16, 2, rng=1),
            ]
        )

    def test_truenorth_scorer_engines_agree_bitwise(self):
        features = np.random.default_rng(2).random((6, 36))
        margins = {
            engine: TrueNorthBinaryScorer(
                self._small_classifier(), ticks=8, rng=5, engine=engine
            ).decision_function(features)
            for engine in ("batch", "reference")
        }
        np.testing.assert_array_equal(margins["batch"], margins["reference"])
        assert margins["batch"].shape == (6,)
        assert np.abs(margins["batch"]).max() <= 8

    def test_truenorth_scorer_empty_chunk(self):
        scorer = TrueNorthBinaryScorer(self._small_classifier(), ticks=4, rng=0)
        assert scorer.decision_function(np.zeros((0, 36))).shape == (0,)

    def test_truenorth_scorer_validates_width(self):
        scorer = TrueNorthBinaryScorer(self._small_classifier(), ticks=4, rng=0)
        with pytest.raises(ValueError, match="features"):
            scorer.decision_function(np.zeros((2, 7)))

    def test_truenorth_scorer_deterministic_per_seed(self):
        features = np.random.default_rng(3).random((4, 36))
        first = TrueNorthBinaryScorer(
            self._small_classifier(), ticks=8, rng=11
        ).decision_function(features)
        second = TrueNorthBinaryScorer(
            self._small_classifier(), ticks=8, rng=11
        ).decision_function(features)
        np.testing.assert_array_equal(first, second)
