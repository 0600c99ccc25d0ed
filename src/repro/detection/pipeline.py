"""The end-to-end detector: extractor x classifier over a pyramid."""

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.detection.nms import non_maximum_suppression
from repro.detection.pyramid import ImagePyramid
from repro.eedn.layers import TrinaryDense
from repro.eedn.mapping import deploy_dense_network
from repro.eedn.network import EednNetwork
from repro.hog.blocks import normalize_blocks
from repro.obs import get_registry, span
from repro.truenorth.simulator import Simulator
from repro.utils.rng import RngLike, resolve_rng


def sliding_window_features(
    source: np.ndarray, window_cells: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Every window's flattened feature row from one cell/block grid.

    Windows slide at cell granularity over a ``(gy, gx, F)`` grid; each
    row is the window's ``(win_y, win_x, F)`` patch flattened in
    row-major order. This is the shared scanning core of
    :class:`SlidingWindowDetector` and the frame pipeline in
    ``repro.video`` — both fan the same rows out, so a served video
    frame scores bit-identically to a direct detector scan.

    Args:
        source: ``(gy, gx, F)`` grid of per-cell (or per-block) features.
        window_cells: ``(win_y, win_x)`` window extent in grid units.

    Returns:
        ``(features (n, win_y * win_x * F), positions (n, 2))`` where
        positions are ``(cell_y, cell_x)`` of each window's top-left
        cell; both empty when the window does not fit.
    """
    win_y, win_x = window_cells
    gy, gx = source.shape[:2]
    feature_length = win_y * win_x * int(np.prod(source.shape[2:], dtype=int))
    ny = gy - win_y + 1
    nx = gx - win_x + 1
    if ny < 1 or nx < 1:
        return np.zeros((0, feature_length)), np.zeros((0, 2), dtype=int)
    view = np.lib.stride_tricks.sliding_window_view(
        source, (win_y, win_x), axis=(0, 1)
    )
    # view: (ny, nx, F, win_y, win_x) -> (ny, nx, win_y, win_x, F)
    features = np.ascontiguousarray(np.moveaxis(view, 2, -1)).reshape(ny * nx, -1)
    ys, xs = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    positions = np.stack([ys.ravel(), xs.ravel()], axis=1)
    return features, positions


@dataclass(frozen=True)
class Detection:
    """One detector output.

    Attributes:
        x: left edge in original-image pixels.
        y: top edge.
        width: box width.
        height: box height.
        score: classifier margin (higher = more confident).
    """

    x: float
    y: float
    width: float
    height: float
    score: float

    def as_box(self) -> np.ndarray:
        """``[x, y, w, h]``."""
        return np.array([self.x, self.y, self.width, self.height])


class EednBinaryScorer:
    """Adapt a 2-class Eedn network to the scorer protocol.

    The score is the logit margin ``logit[positive] - logit[negative]``.

    Args:
        network: trained 2-output network.
        positive_class: index of the "person" output.
    """

    def __init__(self, network: EednNetwork, positive_class: int = 1) -> None:
        self.network = network
        self.positive_class = positive_class

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Margins for a ``(n, f)`` feature matrix."""
        logits = self.network.forward(np.asarray(features, dtype=np.float64))
        negative = 1 - self.positive_class
        return logits[:, self.positive_class] - logits[:, negative]


class TrueNorthBinaryScorer:
    """Scorer running the Eedn classifier on actual neurosynaptic cores.

    The network is deployed onto a :class:`NeurosynapticSystem` with
    :func:`~repro.eedn.mapping.deploy_dense_network`; every window of a
    feature chunk is stochastically spike-coded and pushed through the
    system in a single :meth:`Simulator.run_batch` call, so with the
    default ``"batch"`` engine the whole chunk advances through the
    crossbars at once. The score is the spike-count
    margin across the window, identical to what the tick-accurate
    reference engine produces (set ``engine="reference"`` to cross-check
    at ~the batch size's cost).

    Args:
        network: trained 2-output dense Eedn network.
        ticks: spike window per evaluated feature vector.
        positive_class: index of the "person" output.
        rng: seed for the stochastic input coding (below ``2**64``
            under content coding).
        engine: simulation engine, ``"batch"`` (default) or
            ``"reference"``; the two are bit-identical.
        coding: ``"stream"`` (default) draws every window's spike raster
            from one shared random stream, so scores depend on the order
            windows are presented in. ``"content"`` seeds each window's
            raster from a digest of its feature bytes instead: identical
            windows always produce identical rasters, regardless of call
            order, chunking, or which batch they land in. Content coding
            is what makes the scorer safe to drive through the
            ``repro.serve`` micro-batcher and its result cache.
        faults: optional :class:`repro.faults.FaultPlan` injected into
            the deployed system (identically on either engine). Plans
            with dynamic (per-spike) faults key their hashing on the
            lane a window lands in, so such scorers are not cacheable;
            any plan is folded into ``model_id`` so cached fault-free
            scores can never be replayed for a faulted model.
    """

    def __init__(
        self,
        network: EednNetwork,
        ticks: int = 16,
        positive_class: int = 1,
        rng: RngLike = 0,
        engine: str = "batch",
        coding: str = "stream",
        faults=None,
    ) -> None:
        if ticks < 1:
            raise ValueError(f"ticks must be >= 1, got {ticks}")
        if coding not in ("stream", "content"):
            raise ValueError(
                f"coding must be 'stream' or 'content', got {coding!r}"
            )
        self.deployed = deploy_dense_network(network)
        self.ticks = ticks
        self.positive_class = positive_class
        self.engine = engine
        self.coding = coding
        self.faults = faults
        self._dense_layers = [
            layer for layer in network.layers if isinstance(layer, TrinaryDense)
        ]
        if isinstance(rng, (int, np.integer)):
            self._entropy = int(rng)
        else:
            self._entropy = int(resolve_rng(rng).integers(0, 2**63))
        if coding == "content" and self._entropy >= 2**64:
            raise ValueError(f"content coding needs a seed below 2**64, got {rng}")
        self._rng = resolve_rng(rng)
        self._simulator = Simulator(
            self.deployed.system, rng=rng, engine=engine, faults=faults
        )
        self._n_in = self.deployed.system.input_ports["in"].width
        # Stage s of the deployed pipeline fires s route-delays after the
        # input tick, so the last data spikes leave the output stage at
        # tick (ticks - 1) + (stages - 1).
        self._total_ticks = ticks + self.deployed.stages - 1

    @property
    def cacheable(self) -> bool:
        """Whether equal feature rows always yield equal scores.

        True only under content coding — the deployed classifier itself
        is deterministic (no stochastic neurons), so the input raster is
        the only source of randomness — and only when no dynamic
        (per-spike) fault is injected: dynamic fault hashing keys on the
        lane a window lands in, so equal windows in different batch
        positions can score differently. ``repro.serve.InferenceService``
        consults this flag before enabling its result cache.
        """
        if self.faults is not None and self.faults.has_dynamic:
            return False
        return self.coding == "content"

    @property
    def model_id(self) -> str:
        """Stable identity digest for content-addressed result caching.

        Covers everything a score depends on besides the window bytes:
        the deployed layer weights and biases, the spike window, the
        class readout, and the coding entropy. Two scorers with equal
        ``model_id`` score equal windows identically (given content
        coding); the simulation engine is deliberately excluded because
        every engine is bit-identical.
        """
        digest = hashlib.blake2b(digest_size=16)
        for layer in self.deployed_layers():
            digest.update(np.ascontiguousarray(layer[0], dtype=np.int64).tobytes())
            digest.update(np.ascontiguousarray(layer[1], dtype=np.float64).tobytes())
        digest.update(
            f"|ticks={self.ticks}|pos={self.positive_class}"
            f"|coding={self.coding}|entropy={self._entropy}".encode()
        )
        if self.faults is not None and self.faults:
            digest.update(f"|faults={self.faults.digest()}".encode())
        return f"truenorth-{digest.hexdigest()}"

    def deployed_layers(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``(deployed_weights, bias)`` per dense layer, stage order."""
        return [
            (layer.deployed_weights(), layer.bias) for layer in self._dense_layers
        ]

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Spike-count margins for a ``(n, f)`` feature matrix in [0, 1]."""
        x = np.ascontiguousarray(
            np.clip(np.asarray(features, dtype=np.float64), 0.0, 1.0)
        )
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self._n_in:
            raise ValueError(f"expected {self._n_in} features, got {x.shape[1]}")
        if x.shape[0] == 0:
            return np.zeros(0)
        result = self._simulator.run_batch(self._total_ticks, {"in": self._encode(x)})
        counts = result.spike_counts("out")
        negative = 1 - self.positive_class
        return (counts[:, self.positive_class] - counts[:, negative]).astype(
            np.float64
        )

    def _encode(self, x: np.ndarray) -> np.ndarray:
        """Input rasters ``(n, total_ticks, n_in)`` of a clipped chunk.

        Tick ``t < ticks`` of lane ``i`` fires input ``j`` when the
        lane's ``t``-th row of uniform draws is below ``x[i, j]``;
        later ticks are silent while the last spikes drain.
        """
        n = x.shape[0]
        if self.coding == "content":
            draws = _content_draws(x, self._entropy, self.ticks)
        else:
            # One (n, ticks, n_in) draw yields, in C order, the same
            # doubles as n successive (ticks, n_in) draws.
            draws = self._rng.random((n, self.ticks, self._n_in))
        rasters = np.zeros((n, self._total_ticks, self._n_in), dtype=bool)
        np.less(draws, x[:, None, :], out=rasters[:, : self.ticks])
        return rasters


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 constants.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _content_seed_states(entropy: int, words: np.ndarray) -> np.ndarray:
    """``SeedSequence([entropy, w]).generate_state(4, np.uint64)`` per word.

    SeedSequence splits each integer into little-endian uint32 words (0
    is one word) and hashes them into a 4-word pool; an absent word
    mixes exactly like a zero word, so every ``w`` is taken as two words
    and the rest of the pool is zero-padded. The uint32 arithmetic runs
    masked in uint64 arrays, one row per word.

    Args:
        entropy: non-negative scorer entropy below ``2**64``.
        words: ``(n,)`` uint64 words.

    Returns:
        ``(n, 4)`` uint64 states, the seed material of ``PCG64``.
    """
    words = np.asarray(words, dtype=np.uint64)
    assert 0 <= entropy < 1 << 64, "entropy and word must fit the 4-word pool"
    lead = [entropy & _MASK32] + ([entropy >> 32] if entropy >> 32 else [])
    entropy_words = [np.full(words.shape, w, dtype=np.uint64) for w in lead]
    entropy_words += [words & _MASK32, words >> 32]
    entropy_words += [np.zeros_like(words)] * (_POOL_SIZE - len(entropy_words))

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = ((x * _MIX_MULT_L) - (y * _MIX_MULT_R)) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(word) for word in entropy_words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    hash_const = _INIT_B
    halves = []
    for index in range(2 * _POOL_SIZE):
        value = pool[index % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> _XSHIFT))
    return np.stack(
        [halves[2 * k] | (halves[2 * k + 1] << 32) for k in range(_POOL_SIZE)],
        axis=1,
    )


def _content_draws(x: np.ndarray, entropy: int, ticks: int) -> np.ndarray:
    """Uniform draws ``(n, ticks, f)`` seeded from each row's bytes.

    Lane ``i`` holds the first ``ticks * f`` doubles of
    ``default_rng(SeedSequence([entropy, w_i]))``, where ``w_i`` is the
    big-endian 8-byte blake2b digest of row ``i``. The seed states of
    the whole chunk come from :func:`_content_seed_states`; one
    ``PCG64`` is then set to each lane's state in turn (PCG64's
    ``set_seed``: ``inc = 2 * seed_inc + 1``, then two LCG steps from
    zero) and fills that lane.

    Args:
        x: C-contiguous ``(n, f)`` float64 rows.
        entropy: the scorer's coding entropy.
        ticks: draws per input per lane.
    """
    digests = b"".join(
        hashlib.blake2b(row, digest_size=8).digest() for row in x
    )
    words = np.frombuffer(digests, dtype=">u8").astype(np.uint64)
    states = _content_seed_states(entropy, words).tolist()
    # Local, not shared on the scorer: lanes may score concurrently.
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    draws = np.empty((x.shape[0], ticks, x.shape[1]))
    for lane, (seed_hi, seed_lo, inc_hi, inc_lo) in enumerate(states):
        inc = ((((inc_hi << 64) | inc_lo) << 1) | 1) & _MASK128
        state = ((inc + ((seed_hi << 64) | seed_lo)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        generator.random(out=draws[lane])
    return draws


class SlidingWindowDetector:
    """Multi-scale sliding-window detector.

    The extractor computes one cell-histogram grid per pyramid level;
    windows are slid at cell granularity (8 px at scale 1). Features are
    either normalised block descriptors (``feature_mode="blocks"``, the
    SVM pipelines of Figure 4) or raw cell histograms
    (``feature_mode="cells"``, the normalisation-free neuromorphic
    pipelines of Figure 5).

    Args:
        extractor: any object exposing ``cell_grid(image)`` and a
            ``config`` with ``cell_size``/``block_size``/``block_stride``/
            ``normalization`` attributes (all descriptors in this package
            qualify).
        scorer: object exposing ``decision_function((n, f)) -> (n,)``.
        feature_mode: ``"blocks"`` or ``"cells"``.
        window_shape: detection window in pixels.
        scale_factor: pyramid step.
        max_levels: pyramid depth cap (15 in the paper).
        score_threshold: minimum margin to emit a detection.
        nms_epsilon: NMS overlap threshold (0.2 in the paper).
        cell_scale: multiplier applied to cell histograms in ``"cells"``
            mode (use ``1/64`` to map count histograms into [0, 1] for
            spiking classifiers).
        chunk_size: windows scored per classifier call.
    """

    def __init__(
        self,
        extractor,
        scorer,
        feature_mode: str = "blocks",
        window_shape: Tuple[int, int] = (128, 64),
        scale_factor: float = 1.1,
        max_levels: int = 15,
        score_threshold: float = 0.0,
        nms_epsilon: float = 0.2,
        cell_scale: float = 1.0,
        chunk_size: int = 1024,
    ) -> None:
        if feature_mode not in ("blocks", "cells"):
            raise ValueError(
                f"feature_mode must be 'blocks' or 'cells', got {feature_mode!r}"
            )
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.extractor = extractor
        self.scorer = scorer
        self.feature_mode = feature_mode
        self.window_shape = window_shape
        self.scale_factor = scale_factor
        self.max_levels = max_levels
        self.score_threshold = score_threshold
        self.nms_epsilon = nms_epsilon
        self.cell_scale = cell_scale
        self.chunk_size = chunk_size

        config = extractor.config
        self.cell_size = int(config.cell_size)
        self.block_size = int(getattr(config, "block_size", 2))
        self.block_stride = int(getattr(config, "block_stride", 1))
        self.normalization = str(getattr(config, "normalization", "none"))
        self.window_cells = (
            window_shape[0] // self.cell_size,
            window_shape[1] // self.cell_size,
        )

    # ------------------------------------------------------------------
    def detect(self, image: np.ndarray) -> List[Detection]:
        """All surviving detections in ``image``, NMS applied."""
        boxes, scores, _ = self._scan(image, collect_features=False)
        if boxes.shape[0] == 0:
            return []
        with span("detect.nms", candidates=int(boxes.shape[0])):
            kept = non_maximum_suppression(
                boxes, scores, epsilon=self.nms_epsilon
            )
        obs = get_registry()
        obs.counter(
            "detect_nms_survivors_total", help="detections kept by NMS"
        ).inc(len(kept))
        obs.counter(
            "detect_nms_suppressed_total", help="detections removed by NMS"
        ).inc(int(boxes.shape[0]) - len(kept))
        return [
            Detection(
                x=float(boxes[i, 0]),
                y=float(boxes[i, 1]),
                width=float(boxes[i, 2]),
                height=float(boxes[i, 3]),
                score=float(scores[i]),
            )
            for i in kept
        ]

    def detect_boxes(self, image: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Detections as ``(boxes (n, 4), scores (n,))`` arrays."""
        detections = self.detect(image)
        if not detections:
            return np.zeros((0, 4)), np.zeros(0)
        boxes = np.stack([d.as_box() for d in detections])
        scores = np.array([d.score for d in detections])
        return boxes, scores

    def hard_negative_features(
        self, images: Sequence[np.ndarray], per_image_cap: int = 64
    ) -> np.ndarray:
        """Features of windows wrongly scored positive on negative images.

        Used as the scanner of
        :class:`repro.svm.mining.HardNegativeMiner`.

        Args:
            images: person-free images.
            per_image_cap: keep at most this many top-scoring windows per
                image.

        Returns:
            ``(n, f)`` feature matrix (possibly empty).
        """
        collected: List[np.ndarray] = []
        for image in images:
            _, scores, features = self._scan(image, collect_features=True)
            if scores.size == 0:
                continue
            order = np.argsort(scores)[::-1][:per_image_cap]
            collected.append(features[order])
        if not collected:
            return np.zeros((0, self._feature_length()))
        return np.vstack(collected)

    def window_features(self, window: np.ndarray) -> np.ndarray:
        """The feature vector of one full window image (training path)."""
        grid = self.extractor.cell_grid(window)
        return self._grid_features(grid)[0][0]

    # ------------------------------------------------------------------
    def _feature_length(self) -> int:
        wy, wx = self.window_cells
        bins = self._n_bins()
        if self.feature_mode == "cells":
            return wy * wx * bins
        nby = (wy - self.block_size) // self.block_stride + 1
        nbx = (wx - self.block_size) // self.block_stride + 1
        return nby * nbx * self.block_size**2 * bins

    def _n_bins(self) -> int:
        config = self.extractor.config
        return int(getattr(config, "n_bins", 18))

    def _grid_features(
        self, cell_grid: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Window features and window cell-positions for one level.

        Returns ``(features (n, f), positions (n, 2))`` where positions
        are (cell_y, cell_x) of each window's top-left cell.
        """
        wy, wx = self.window_cells
        if self.feature_mode == "cells":
            source = cell_grid * self.cell_scale
            win_y, win_x = wy, wx
        else:
            source = normalize_blocks(
                cell_grid,
                block_size=self.block_size,
                stride=self.block_stride,
                method=self.normalization,
            )
            win_y = (wy - self.block_size) // self.block_stride + 1
            win_x = (wx - self.block_size) // self.block_stride + 1
        return sliding_window_features(source, (win_y, win_x))

    def _scan(
        self, image: np.ndarray, collect_features: bool
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Score every window of every level; threshold and gather."""
        boxes: List[np.ndarray] = []
        scores: List[float] = []
        feature_rows: List[np.ndarray] = []
        pyramid = ImagePyramid(
            image,
            window_shape=self.window_shape,
            scale_factor=self.scale_factor,
            max_levels=self.max_levels,
        )
        window_h, window_w = self.window_shape
        obs = get_registry()
        levels_scanned = 0
        windows_scored = 0
        for level in pyramid.levels():
            with span("pyramid.level", scale=level.scale):
                grid = self.extractor.cell_grid(level.image)
                features, positions = self._grid_features(grid)
                if features.shape[0] == 0:
                    continue
                levels_scanned += 1
                windows_scored += int(features.shape[0])
                level_scores = np.empty(features.shape[0])
                for start in range(0, features.shape[0], self.chunk_size):
                    chunk = features[start : start + self.chunk_size]
                    level_scores[start : start + self.chunk_size] = (
                        self.scorer.decision_function(chunk)
                    )
            hits = np.where(level_scores > self.score_threshold)[0]
            for index in hits:
                cy, cx = positions[index]
                boxes.append(
                    np.array(
                        [
                            cx * self.cell_size * level.scale,
                            cy * self.cell_size * level.scale,
                            window_w * level.scale,
                            window_h * level.scale,
                        ]
                    )
                )
                scores.append(float(level_scores[index]))
                if collect_features:
                    feature_rows.append(features[index])
        obs.counter(
            "detect_levels_total", help="pyramid levels scanned"
        ).inc(levels_scanned)
        obs.counter(
            "detect_windows_scored_total", help="windows scored by the scorer"
        ).inc(windows_scored)
        box_arr = np.stack(boxes) if boxes else np.zeros((0, 4))
        score_arr = np.asarray(scores)
        feature_arr = (
            np.stack(feature_rows)
            if collect_features and feature_rows
            else (np.zeros((0, self._feature_length())) if collect_features else None)
        )
        return box_arr, score_arr, feature_arr


__all__ = [
    "Detection",
    "EednBinaryScorer",
    "SlidingWindowDetector",
    "TrueNorthBinaryScorer",
    "sliding_window_features",
]
