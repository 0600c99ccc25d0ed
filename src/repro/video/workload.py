"""The deployable window classifier behind the video pipeline.

Builds the same kind of small trinary Eedn window classifier the fault
sweep deploys — pooled orientation-histogram features (96 wide by
default, fitting the 128-input budget of
:func:`~repro.eedn.mapping.deploy_dense_network`), trained on synthetic
positive/negative windows — and wraps it in a content-coded
:class:`~repro.detection.pipeline.TrueNorthBinaryScorer` so the serve
LRU cache is sound and both engines score bit-identically.

Training features are computed through the *same* code path the
streaming pipeline uses at inference time
(:func:`~repro.video.pipeline.pooled_window_rows`), so the train and
serve distributions match by construction. The fault sweep
(:mod:`repro.experiments.faults_sweep`) pools and calibrates its
features with the same two helpers.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.datasets import SyntheticPersonDataset
from repro.detection.pipeline import TrueNorthBinaryScorer
from repro.eedn.layers import ThresholdActivation, TrinaryDense
from repro.eedn.network import EednNetwork
from repro.eedn.train import TrainConfig, train_network
from repro.utils.rng import RngLike, resolve_rng
from repro.video.pipeline import pooled_window_rows

#: Calibration target: the 95th percentile of the *training* pooled
#: counts is mapped to this firing probability. Extractor outputs span
#: orders of magnitude (NApprox cell counts average ~3.6, a
#: small-budget parrot's ~0.02), and content coding clips features to
#: [0, 1] per-tick firing probabilities — without calibration one
#: extractor's features saturate while the other's never spike.
FEATURE_TARGET = 0.8


@dataclass
class VideoWorkload:
    """Everything the pipeline needs to score frames.

    Attributes:
        scorer: the deployed content-coded window classifier.
        extractor: the cell-grid descriptor frames are swept with.
        feature_scale: multiplier mapping pooled counts into [0, 1].
        network: the trained software network behind the scorer (reuse
            it to build bit-identical scorers on other engines).
    """

    scorer: TrueNorthBinaryScorer
    extractor: object
    feature_scale: float
    network: EednNetwork

    def scorer_for_engine(self, engine: str) -> TrueNorthBinaryScorer:
        """A scorer over the same trained network on another engine.

        Engines are bit-identical and the coding entropy is pinned, so
        the returned scorer shares the original's ``model_id`` — its
        served scores and cache keys match byte for byte.
        """
        return TrueNorthBinaryScorer(
            self.network,
            ticks=self.scorer.ticks,
            rng=self.scorer._entropy,
            engine=engine,
            coding="content",
        )


def calibrated_feature_scale(
    train_counts: np.ndarray, target: float = FEATURE_TARGET
) -> float:
    """Scale mapping pooled training counts into [0, 1] features.

    Args:
        train_counts: pooled counts of the training windows only (the
            calibration must not see evaluation data).
        target: firing probability assigned to the counts' 95th
            percentile (counts above it saturate at the coder's clip).

    Returns:
        A positive multiplier (1.0 for degenerate all-zero counts).
    """
    reference = float(np.quantile(train_counts, 0.95))
    if reference <= 0.0:
        return 1.0
    return target / reference


def pooled_window_features(
    extractor,
    windows: np.ndarray,
    pool: Tuple[int, int] = (4, 2),
    bin_merge: int = 3,
) -> np.ndarray:
    """Pooled cell-count rows of whole window images.

    Each window's cell grid is pooled as one detection window by
    :func:`~repro.video.pipeline.pooled_window_rows`: orientation bins
    summed in groups of ``bin_merge``, then cells average-pooled. The
    defaults turn a ``(16, 8, 18)`` cell grid into ``4 * 4 * 6 = 96``
    features, fitting the 128-input deployment budget of
    :func:`~repro.eedn.mapping.deploy_dense_network`.

    Args:
        extractor: any descriptor exposing ``cell_grid(image)``.
        windows: ``(n, 128, 64)`` window stack.
        pool: cells averaged per pooled feature, ``(y, x)``.
        bin_merge: adjacent orientation bins summed per merged bin
            (must divide the extractor's bin count).

    Returns:
        ``(n, pooled_cells * merged_bins)`` pooled counts, unscaled (see
        :func:`calibrated_feature_scale`).
    """
    rows = []
    for window in windows:
        grid = np.asarray(extractor.cell_grid(window), dtype=np.float64)
        rows.append(pooled_window_rows(grid, grid.shape[:2], pool, bin_merge)[0])
    return np.concatenate(rows)


def build_video_workload(
    ticks: int = 8,
    hidden: int = 24,
    n_train: int = 48,
    epochs: int = 12,
    pool: Tuple[int, int] = (4, 2),
    bin_merge: int = 3,
    extractor=None,
    rng: RngLike = 0,
) -> VideoWorkload:
    """Train and deploy the streaming pipeline's window classifier.

    Args:
        ticks: spike window per scored feature row.
        hidden: classifier hidden width (2 * hidden axons must fit one
            core, so <= 128).
        n_train: training windows per class.
        epochs: training epochs.
        pool: spatial cell pooling, ``(y, x)``.
        bin_merge: orientation bins merged per pooled bin.
        extractor: cell-grid descriptor; defaults to the quantized
            NApprox module in software form (the paper's extractor).
        rng: master seed for data, weights, training, and coding.

    Returns:
        A :class:`VideoWorkload` ready to hand to
        :class:`~repro.video.pipeline.VideoPipeline`.
    """
    master = resolve_rng(rng)
    if extractor is None:
        from repro.napprox import NApproxConfig, NApproxDescriptor

        extractor = NApproxDescriptor(
            NApproxConfig(quantized=True, window=64, normalization="none")
        )

    dataset = SyntheticPersonDataset(rng=int(master.integers(0, 2**31 - 1)))
    pos = dataset.positive_windows(n_train)
    neg = dataset.negative_windows(n_train)
    pos_rows = pooled_window_features(extractor, pos, pool, bin_merge)
    neg_rows = pooled_window_features(extractor, neg, pool, bin_merge)
    scale = calibrated_feature_scale(np.vstack([pos_rows, neg_rows]))

    features = np.clip(np.vstack([pos_rows, neg_rows]) * scale, 0.0, 1.0)
    labels = np.concatenate(
        [np.ones(n_train, dtype=np.int64), np.zeros(n_train, dtype=np.int64)]
    )
    weights_seed = int(master.integers(0, 2**31 - 1))
    network = EednNetwork(
        [
            TrinaryDense(features.shape[1], hidden, rng=weights_seed),
            ThresholdActivation(0.0, ste_window=2.0),
            TrinaryDense(hidden, 2, rng=weights_seed + 1),
        ]
    )
    train_network(
        network,
        features,
        labels,
        TrainConfig(epochs=epochs, learning_rate=0.01, lr_decay=0.97, logit_scale=8.0),
        rng=resolve_rng(weights_seed + 2),
    )
    scorer = TrueNorthBinaryScorer(network, ticks=ticks, rng=0, coding="content")
    return VideoWorkload(
        scorer=scorer,
        extractor=extractor,
        feature_scale=scale,
        network=network,
    )


__all__ = [
    "FEATURE_TARGET",
    "VideoWorkload",
    "build_video_workload",
    "calibrated_feature_scale",
    "pooled_window_features",
]
