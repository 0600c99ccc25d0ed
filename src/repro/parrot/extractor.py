"""The Parrot feature extractor: trained network, descriptor interface."""

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.coding.stochastic import StochasticEncoder
from repro.eedn.network import EednNetwork
from repro.eedn.mapping import core_count, deploy_dense_network
from repro.eedn.spiking import SpikingEvaluator
from repro.hog.blocks import block_grid_shape, normalize_blocks
from repro.napprox.software import N_DIRECTIONS
from repro.parrot.trainer import sigmoid_rates
from repro.truenorth.simulator import Simulator
from repro.utils.images import rgb_to_grayscale, to_float_image
from repro.utils.rng import RngLike, resolve_rng


@dataclass(frozen=True)
class ParrotFeatureConfig:
    """Descriptor-side configuration of the parrot extractor.

    Attributes:
        cell_size: cell edge in pixels (the parrot network is per-cell).
        block_size: block edge in cells (for optional normalisation).
        block_stride: block stride in cells.
        normalization: block normalisation; the neuromorphic experiments
            use ``"none"`` (Section 5).
        spikes: ``None`` for analog evaluation, or the stochastic-coding
            window (1..64) of Figure 6.
    """

    cell_size: int = 8
    block_size: int = 2
    block_stride: int = 1
    normalization: str = "none"
    spikes: Optional[int] = None

    @property
    def n_bins(self) -> int:
        """Histogram bins (18, matching NApprox)."""
        return N_DIRECTIONS

    def feature_length(self, window_shape: Tuple[int, int]) -> int:
        """Descriptor length for a ``(height, width)`` pixel window."""
        n_cells_y = window_shape[0] // self.cell_size
        n_cells_x = window_shape[1] // self.cell_size
        if self.normalization == "none" and self.block_size == 1:
            return n_cells_y * n_cells_x * self.n_bins
        n_blocks_y, n_blocks_x = block_grid_shape(
            n_cells_y, n_cells_x, self.block_size, self.block_stride
        )
        return n_blocks_y * n_blocks_x * self.block_size**2 * self.n_bins


class ParrotExtractor:
    """Cell-wise HoG mimicry with the package-wide extractor interface.

    Args:
        network: the trained parrot network (64 -> hidden -> 18).
        config: descriptor configuration; ``config.spikes`` selects the
            input representation (``None`` = analog).
        rng: randomness for stochastic spike coding.
        backend: ``"numpy"`` (default) evaluates spiking mode with the
            vectorized :class:`SpikingEvaluator`; ``"truenorth"`` deploys
            the network onto real neurosynaptic cores and batches every
            cell through the vectorized batch simulation engine (hard
            output thresholds; requires ``config.spikes``).
        engine: simulation engine for the ``"truenorth"`` backend,
            ``"batch"`` (default) or ``"reference"``.
    """

    def __init__(
        self,
        network: EednNetwork,
        config: ParrotFeatureConfig = ParrotFeatureConfig(),
        rng: RngLike = 0,
        backend: str = "numpy",
        engine: str = "batch",
    ) -> None:
        if backend not in ("numpy", "truenorth"):
            raise ValueError(
                f"backend must be 'numpy' or 'truenorth', got {backend!r}"
            )
        self.network = network
        self.config = config
        self.backend = backend
        self.engine = engine
        self._rng = rng
        self._evaluator: Optional[SpikingEvaluator] = None
        self._simulator: Optional[Simulator] = None
        if config.spikes is not None and config.spikes < 1:
            raise ValueError(f"spikes must be >= 1, got {config.spikes}")
        if backend == "truenorth":
            if config.spikes is None:
                raise ValueError(
                    "the 'truenorth' backend needs spike coding; set config.spikes"
                )
            self._deployed = deploy_dense_network(network)
            self._simulator = Simulator(self._deployed.system, rng=rng, engine=engine)
            self._encoder = StochasticEncoder(config.spikes)
            self._encoder_rng = resolve_rng(rng)
            self._total_ticks = config.spikes + self._deployed.stages - 1
        elif config.spikes is not None:
            self._evaluator = SpikingEvaluator(network, ticks=config.spikes, rng=rng)

    def with_spikes(self, spikes: Optional[int]) -> "ParrotExtractor":
        """A copy at a different input spike precision."""
        return ParrotExtractor(
            self.network,
            replace(self.config, spikes=spikes),
            rng=self._rng,
            backend=self.backend if spikes is not None else "numpy",
            engine=self.engine,
        )

    # ------------------------------------------------------------------
    def cell_histograms_batch(self, cells: np.ndarray) -> np.ndarray:
        """Histogram estimates for ``(n, 64)`` flattened cells.

        Returns vote-count estimates in ``[0, 64]`` per bin (rate x 64),
        commensurate with the NApprox count histograms.
        """
        x = np.asarray(cells, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.cell_size**2:
            raise ValueError(
                f"cells must be (n, {self.config.cell_size ** 2}), got {x.shape}"
            )
        if self._simulator is not None:
            rates = self._truenorth_rates(np.clip(x, 0.0, 1.0))
        elif self._evaluator is None:
            logits = self.network.forward(x)
            rates = sigmoid_rates(logits)
        else:
            rates = self._evaluator.evaluate(np.clip(x, 0.0, 1.0)).rates
        return rates * float(self.config.cell_size**2)

    def _truenorth_rates(self, cells: np.ndarray) -> np.ndarray:
        """Output rates of ``(n, 64)`` cells run on neurosynaptic cores."""
        ticks = int(self.config.spikes)
        if cells.shape[0] == 0:
            return np.zeros((0, N_DIRECTIONS))
        rasters = np.zeros(
            (cells.shape[0], self._total_ticks, cells.shape[1]), dtype=bool
        )
        for lane, row in enumerate(cells):
            rasters[lane, :ticks] = self._encoder.encode(row, rng=self._encoder_rng)
        result = self._simulator.run_batch(self._total_ticks, {"in": rasters})
        return result.spike_counts("out") / float(ticks)

    def cell_grid(self, image: np.ndarray) -> np.ndarray:
        """Per-cell histograms of shape ``(cy, cx, 18)``."""
        gray = to_float_image(rgb_to_grayscale(to_float_image(image)))
        cs = self.config.cell_size
        cy = gray.shape[0] // cs
        cx = gray.shape[1] // cs
        if cy == 0 or cx == 0:
            return np.zeros((cy, cx, N_DIRECTIONS))
        trimmed = gray[: cy * cs, : cx * cs]
        cells = (
            trimmed.reshape(cy, cs, cx, cs)
            .transpose(0, 2, 1, 3)
            .reshape(cy * cx, cs * cs)
        )
        histograms = self.cell_histograms_batch(cells)
        return histograms.reshape(cy, cx, N_DIRECTIONS)

    def from_cells(self, cells: np.ndarray) -> np.ndarray:
        """Assemble the flat descriptor from a per-cell histogram grid."""
        blocks = normalize_blocks(
            cells,
            block_size=self.config.block_size,
            stride=self.config.block_stride,
            method=self.config.normalization,
        )
        return blocks.ravel()

    def compute(self, image: np.ndarray) -> np.ndarray:
        """The flat descriptor of a whole image treated as one window."""
        return self.from_cells(self.cell_grid(image))

    def feature_length(self, window_shape: Tuple[int, int]) -> int:
        """Descriptor length for a pixel window of ``window_shape``."""
        return self.config.feature_length(window_shape)

    # ------------------------------------------------------------------
    def cores_per_cell(self) -> int:
        """TrueNorth cores per cell module under the standard mapping.

        The paper reports 8 cores per 8x8 cell (1024 for a 64x128 window
        of 128 cells).
        """
        total, _ = core_count(self.network, (self.config.cell_size**2,))
        return total

    def cores_per_window(self, window_shape: Tuple[int, int] = (128, 64)) -> int:
        """Extractor cores for a full detection window."""
        cells = (window_shape[0] // self.config.cell_size) * (
            window_shape[1] // self.config.cell_size
        )
        return cells * self.cores_per_cell()

    def __repr__(self) -> str:
        mode = (
            "analog"
            if self.config.spikes is None
            else f"{self.config.spikes}-spike stochastic"
        )
        return f"ParrotExtractor({mode}, norm={self.config.normalization!r})"


__all__ = ["ParrotExtractor", "ParrotFeatureConfig"]
