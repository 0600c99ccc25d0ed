"""Software models of the NApprox HoG (full precision and quantised).

The software model "operates equivalently to the NApprox HoG on
TrueNorth" (paper Section 3.1): it evaluates the exact same
pattern-matching / comparison / inner-product pipeline, so it can explore
quantisation widths beyond those available on the platform.

The angle rule is the corelet's decision rule, not a float ``arctan``:
direction ``b`` wins when its directional magnitude strictly beats the
next direction and is not strictly beaten by the previous one (cyclic).
For an exact projection profile this picks the argmax; under quantisation
it reproduces the hardware's tie behaviour, including the possibility of
zero votes (flat profile) — which is what lets the corelet-vs-software
correlation of :mod:`repro.napprox.validation` approach 1.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.hog.blocks import block_grid_shape, normalize_blocks
from repro.utils.images import rgb_to_grayscale, to_float_image

N_DIRECTIONS = 18
"""The NApprox histogram uses 18 bins over 0-360 (Table 1)."""


@dataclass(frozen=True)
class NApproxConfig:
    """Configuration of the NApprox software model.

    Attributes:
        quantized: ``False`` for NApprox(fp) — floating-point projections;
            ``True`` for the TrueNorth-compatible reduced precision model.
        window: spike window length; the paper's NApprox uses 64-spike
            (6-bit) input signals. Only used when ``quantized``.
        direction_scale: integer scale Q of the cos/sin direction tables
            (LUT weights are ``round(Q cos)``, ``round(Q sin)``; TrueNorth
            LUT entries are 9-bit signed, so 16 is cheap).
        magnitude_threshold: the magnitude neuron's firing threshold T —
            one output spike per T of accumulated positive projection, so
            the directional magnitude resolution is ``proj // T``.
            Smaller T resolves finer magnitudes (fewer quantisation ties)
            at the cost of a longer drain phase on hardware.
        cell_size: cell edge in pixels.
        block_size: block edge in cells.
        block_stride: block stride in cells.
        normalization: block normalisation (``"l2"`` for the SVM
            experiments of Figure 4, ``"none"`` for the Eedn experiments
            of Figure 5).
    """

    quantized: bool = True
    window: int = 64
    direction_scale: int = 16
    magnitude_threshold: int = 4
    cell_size: int = 8
    block_size: int = 2
    block_stride: int = 1
    normalization: str = "l2"

    @property
    def n_bins(self) -> int:
        """Histogram bins (fixed at 18 over 0-360)."""
        return N_DIRECTIONS

    def feature_length(self, window_shape: Tuple[int, int]) -> int:
        """Descriptor length for a ``(height, width)`` pixel window."""
        n_cells_y = window_shape[0] // self.cell_size
        n_cells_x = window_shape[1] // self.cell_size
        n_blocks_y, n_blocks_x = block_grid_shape(
            n_cells_y, n_cells_x, self.block_size, self.block_stride
        )
        return n_blocks_y * n_blocks_x * self.block_size**2 * self.n_bins


def direction_tables(scale: int) -> Tuple[np.ndarray, np.ndarray]:
    """Integer cos/sin tables for the 18 bin-center directions.

    Args:
        scale: the integer scale Q.

    Returns:
        ``(cx, cy)`` arrays of 18 signed integers,
        ``cx[b] = round(Q cos(theta_b))`` with ``theta_b = 20 b + 10``
        degrees.

    Opposite directions negate (``cx[b + 9] == -cx[b]``, likewise
    ``cy``) at the shipped Q = 16 and every even Q, but not at odd Q:
    ``Q sin 30 deg`` is a rounding tie that the float sines of 30 and 210
    degrees break in opposite directions, so at Q = 1 and Q = 3
    ``cy[1] != -cy[10]`` and ``cy[7] != -cy[16]``. The kernel therefore
    projects all 18 directions rather than 9 and their negations.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    theta = np.radians(np.arange(N_DIRECTIONS) * 20.0 + 10.0)
    return (
        np.round(scale * np.cos(theta)).astype(np.int64),
        np.round(scale * np.sin(theta)).astype(np.int64),
    )


def winner_votes(magnitudes: np.ndarray) -> np.ndarray:
    """Apply the corelet's cyclic local-max rule along the last axis.

    Direction ``b`` votes when ``m[b] > m[b+1]`` and not ``m[b-1] > m[b]``
    (indices cyclic). A flat profile (zero gradient) produces no vote.

    Args:
        magnitudes: array ``(..., 18)`` of directional magnitudes.

    Returns:
        Boolean array of the same shape marking voting directions.
    """
    m = np.asarray(magnitudes)
    beats_next = m > np.roll(m, -1, axis=-1)
    beaten_by_prev = np.roll(beats_next, 1, axis=-1)
    return beats_next & ~beaten_by_prev


class NApproxDescriptor:
    """NApprox HoG with the same interface as :class:`repro.hog.HogDescriptor`.

    Args:
        config: model configuration; defaults to the quantised
            TrueNorth-compatible variant.
    """

    def __init__(self, config: NApproxConfig = NApproxConfig()) -> None:
        if config.window < 1:
            raise ValueError(f"window must be >= 1, got {config.window}")
        if config.magnitude_threshold < 1:
            raise ValueError(
                f"magnitude_threshold must be >= 1, got {config.magnitude_threshold}"
            )
        self.config = config
        if config.quantized:
            cx, cy = direction_tables(config.direction_scale)
            # Every |projection| is at most window * max(|cx| + |cy|); with
            # a factor 2 of headroom int16 holds it for the shipped window
            # 64 and Q 16 (bound 2816), and int64 takes over past 32767.
            bound = 2 * config.window * int((np.abs(cx) + np.abs(cy)).max())
            self._plane_dtype = (
                np.int16 if bound <= np.iinfo(np.int16).max else np.int64
            )
        else:
            theta = np.radians(np.arange(N_DIRECTIONS) * 20.0 + 10.0)
            cx, cy = np.cos(theta), np.sin(theta)
            self._plane_dtype = np.float64
        # Shaped (18, 1, 1): each direction's factor broadcasts over its plane.
        self._plane_cos = cx.astype(self._plane_dtype)[:, None, None]
        self._plane_sin = cy.astype(self._plane_dtype)[:, None, None]

    # ------------------------------------------------------------------
    def _vote_planes(self, image: np.ndarray, whole_cells: bool) -> np.ndarray:
        """The vote kernel: direction-major votes of shape ``(18, H', W')``.

        Gradients are centred differences of the edge-padded image. With
        ``whole_cells`` they are trimmed to the whole cells before
        anything is projected (``H' = H // cell * cell``, likewise
        ``W'``); otherwise ``(H', W') == (H, W)``. Each direction is one
        contiguous ``(H', W')`` plane of ``_plane_dtype``, and the
        cyclic winner rule of :func:`winner_votes` is applied as
        comparisons between neighbouring planes.
        """
        config = self.config
        gray = to_float_image(rgb_to_grayscale(to_float_image(image)))
        height, width = gray.shape
        if whole_cells:
            height -= height % config.cell_size
            width -= width % config.cell_size
        if config.quantized:
            values = np.round(gray * config.window).astype(self._plane_dtype)
        else:
            values = gray
        padded = np.pad(values, 1, mode="edge")
        ix = padded[1 : height + 1, 2 : width + 2] - padded[1 : height + 1, :width]
        iy = padded[:height, 1 : width + 1] - padded[2 : height + 2, 1 : width + 1]
        magnitudes = ix * self._plane_cos
        magnitudes += iy * self._plane_sin
        np.maximum(magnitudes, 0, out=magnitudes)
        if config.quantized:
            # The magnitude neuron fires once per `magnitude_threshold` of
            # accumulated positive projection (linear reset), flooring the
            # remainder.
            np.floor_divide(
                magnitudes, config.magnitude_threshold, out=magnitudes
            )
        beats_next = np.empty(magnitudes.shape, dtype=bool)
        np.greater(magnitudes[:-1], magnitudes[1:], out=beats_next[:-1])
        np.greater(magnitudes[-1], magnitudes[0], out=beats_next[-1])
        # On booleans `a > b` is `a & ~b`: beats the next direction and is
        # not beaten by the previous one.
        votes = np.empty_like(beats_next)
        np.greater(beats_next[1:], beats_next[:-1], out=votes[1:])
        np.greater(beats_next[0], beats_next[-1], out=votes[0])
        return votes

    def pixel_votes(self, image: np.ndarray) -> np.ndarray:
        """Per-pixel direction votes of shape ``(H, W, 18)`` (boolean)."""
        return np.moveaxis(self._vote_planes(image, whole_cells=False), 0, -1)

    def cell_grid(self, image: np.ndarray) -> np.ndarray:
        """Count-voted cell histograms of shape ``(cy, cx, 18)``."""
        cs = self.config.cell_size
        votes = self._vote_planes(image, whole_cells=True).view(np.uint8)
        n_bins, height, width = votes.shape
        # Sum each cell's rows, then its columns, in the narrowest
        # unsigned type that holds a full cell of votes.
        total = np.min_scalar_type(cs * cs)
        rows = votes.reshape(n_bins, height // cs, cs, width)
        acc = rows[:, :, 0].astype(total)
        for offset in range(1, cs):
            acc += rows[:, :, offset]
        columns = acc.reshape(n_bins, height // cs, width // cs, cs)
        cells = columns[..., 0].copy()
        for offset in range(1, cs):
            cells += columns[..., offset]
        return cells.transpose(1, 2, 0).astype(np.float64)

    def cell_histogram(self, patch: np.ndarray) -> np.ndarray:
        """Histogram of one cell from its ``(cell+2) x (cell+2)`` patch.

        The paper feeds 10x10 pixels to produce one 8x8 cell's histogram;
        this mirrors that contract: gradients are true centered
        differences of the interior pixels.

        Args:
            patch: pixel patch of shape ``(cell_size + 2, cell_size + 2)``.

        Returns:
            18-element histogram (vote counts).
        """
        expected = self.config.cell_size + 2
        arr = np.asarray(patch)
        if arr.shape != (expected, expected):
            raise ValueError(f"patch must be {expected}x{expected}, got {arr.shape}")
        votes = self.pixel_votes(arr)
        interior = votes[1:-1, 1:-1]
        return interior.reshape(-1, N_DIRECTIONS).sum(axis=0).astype(np.float64)

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

    def __repr__(self) -> str:
        kind = "quantized" if self.config.quantized else "fp"
        return (
            f"NApproxDescriptor({kind}, window={self.config.window}, "
            f"norm={self.config.normalization!r})"
        )


__all__ = [
    "N_DIRECTIONS",
    "NApproxConfig",
    "NApproxDescriptor",
    "direction_tables",
    "winner_votes",
]
