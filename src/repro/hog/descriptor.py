"""Window descriptors: configuration plus the end-to-end HoG pipeline."""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.hog.blocks import block_grid_shape, normalize_blocks
from repro.hog.cells import cell_histograms
from repro.hog.gradients import compute_gradients, gradient_angle, gradient_magnitude
from repro.utils.images import rgb_to_grayscale


@dataclass(frozen=True)
class HogConfig:
    """Full configuration of a HoG descriptor.

    Attributes:
        cell_size: cell edge in pixels.
        block_size: block edge in cells.
        block_stride: block stride in cells.
        n_bins: orientation bins.
        signed: ``True`` for 0-360 orientations, ``False`` for 0-180.
        voting: ``"magnitude"`` or ``"count"`` (see
            :func:`repro.hog.cells.cell_histograms`).
        interpolate: bilinear orientation interpolation (aliasing
            mitigation); the approximation designs disable it.
        normalization: block normalisation method (``"l2"``, ``"l2hys"``,
            ``"l1"``, ``"none"``).
        count_threshold: magnitude floor for count voting.
    """

    cell_size: int = 8
    block_size: int = 2
    block_stride: int = 1
    n_bins: int = 9
    signed: bool = False
    voting: str = "magnitude"
    interpolate: bool = True
    normalization: str = "l2"
    count_threshold: float = 0.0

    def feature_length(self, window_shape: Tuple[int, int]) -> int:
        """Descriptor length for a ``(height, width)`` pixel window."""
        n_cells_y = window_shape[0] // self.cell_size
        n_cells_x = window_shape[1] // self.cell_size
        n_blocks_y, n_blocks_x = block_grid_shape(
            n_cells_y, n_cells_x, self.block_size, self.block_stride
        )
        return n_blocks_y * n_blocks_x * self.block_size**2 * self.n_bins


def dalal_triggs_config() -> HogConfig:
    """The classic Dalal-Triggs configuration (9 unsigned bins, L2)."""
    return HogConfig()


def napprox_fp_config(normalization: str = "l2") -> HogConfig:
    """NApprox(fp): 18 signed bins, count voting, aliasing ignored.

    This is the full-precision software version of the neuromorphic
    primitive HoG ("voting in counts, floating-point computation" —
    Section 4 of the paper).
    """
    return HogConfig(
        n_bins=18,
        signed=True,
        voting="count",
        interpolate=False,
        normalization=normalization,
    )


class HogDescriptor:
    """Computes HoG feature vectors for images and windows.

    Args:
        config: descriptor configuration; defaults to Dalal-Triggs.
    """

    def __init__(self, config: HogConfig = HogConfig()) -> None:
        self.config = config

    def cell_grid(self, image: np.ndarray) -> np.ndarray:
        """Per-cell histograms of shape ``(n_cells_y, n_cells_x, n_bins)``."""
        gray = rgb_to_grayscale(image)
        ix, iy = compute_gradients(gray)
        magnitude = gradient_magnitude(ix, iy)
        angle = gradient_angle(ix, iy, signed=self.config.signed)
        return cell_histograms(
            magnitude,
            angle,
            cell_size=self.config.cell_size,
            n_bins=self.config.n_bins,
            signed=self.config.signed,
            voting=self.config.voting,
            interpolate=self.config.interpolate,
            count_threshold=self.config.count_threshold,
        )

    def compute(self, image: np.ndarray) -> np.ndarray:
        """The flat descriptor of a whole image treated as one window."""
        return self.from_cells(self.cell_grid(image))

    def from_cells(self, cells: np.ndarray) -> np.ndarray:
        """Assemble the flat descriptor from a per-cell histogram grid."""
        blocks = normalize_blocks(
            cells,
            block_size=self.config.block_size,
            stride=self.config.block_stride,
            method=self.config.normalization,
        )
        return blocks.ravel()

    def feature_length(self, window_shape: Tuple[int, int]) -> int:
        """Descriptor length for a pixel window of ``window_shape``."""
        return self.config.feature_length(window_shape)

    def __repr__(self) -> str:
        c = self.config
        return (
            f"HogDescriptor(bins={c.n_bins}, signed={c.signed}, "
            f"voting={c.voting!r}, norm={c.normalization!r})"
        )


__all__ = [
    "HogConfig",
    "HogDescriptor",
    "dalal_triggs_config",
    "napprox_fp_config",
]
