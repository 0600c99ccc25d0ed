"""Image helpers used by the HoG pipelines and dataset generators.

Images are numpy arrays. Grayscale images are 2-D ``(H, W)``; color images
are 3-D ``(H, W, 3)``. Float images live in ``[0, 1]``; integer images in
``[0, 255]``.
"""

from typing import Tuple

import numpy as np

# ITU-R BT.601 luma coefficients, the classic grayscale conversion used by
# the embedded HoG implementations the paper compares against.
_LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])


def rgb_to_grayscale(image: np.ndarray) -> np.ndarray:
    """Convert an ``(H, W, 3)`` RGB image to ``(H, W)`` grayscale.

    The paper reduces color channels from RGB to grayscale to adapt to
    TrueNorth resource constraints (Section 4).

    Args:
        image: RGB image, float or integer dtype. A 2-D image is returned
            unchanged (already grayscale).

    Returns:
        Grayscale image with the same value range as the input, as float64.
    """
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 2:
        return arr
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected (H, W) or (H, W, 3) image, got {arr.shape}")
    return arr @ _LUMA_WEIGHTS


def to_float_image(image: np.ndarray) -> np.ndarray:
    """Normalise an image to float64 in ``[0, 1]``.

    Integer images are divided by 255; float images are clipped to [0, 1].
    """
    arr = np.asarray(image)
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.float64) / 255.0
    return np.clip(arr.astype(np.float64), 0.0, 1.0)


def to_uint8_image(image: np.ndarray) -> np.ndarray:
    """Convert a float image in ``[0, 1]`` to uint8 in ``[0, 255]``."""
    arr = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    return np.round(arr * 255.0).astype(np.uint8)


def resize_bilinear(image: np.ndarray, out_shape: Tuple[int, int]) -> np.ndarray:
    """Resize a 2-D image with bilinear interpolation.

    Implemented directly (no scipy dependency in the hot path) because the
    detection pyramid rescales every test image at 1.1x steps.

    Args:
        image: 2-D array.
        out_shape: desired ``(height, width)``.

    Returns:
        Resized float64 image of shape ``out_shape``.
    """
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-D image, got shape {arr.shape}")
    out_h, out_w = out_shape
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"output shape must be positive, got {out_shape}")
    in_h, in_w = arr.shape
    if (out_h, out_w) == (in_h, in_w):
        return arr.copy()

    # Sample positions aligned so corner pixels map to corner pixels.
    ys = np.linspace(0.0, in_h - 1.0, out_h)
    xs = np.linspace(0.0, in_w - 1.0, out_w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]

    top = arr[np.ix_(y0, x0)] * (1.0 - wx) + arr[np.ix_(y0, x1)] * wx
    bottom = arr[np.ix_(y1, x0)] * (1.0 - wx) + arr[np.ix_(y1, x1)] * wx
    return top * (1.0 - wy[:, 0])[:, None] + bottom * wy[:, 0][:, None]


__all__ = [
    "resize_bilinear",
    "rgb_to_grayscale",
    "to_float_image",
    "to_uint8_image",
]
