"""Small argument-validation helpers with uniform error messages."""

from typing import Tuple

import numpy as np


def check_positive(name: str, value: float) -> None:
    """Raise :class:`ValueError` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_in_range(name: str, value: float, low: float, high: float) -> None:
    """Raise :class:`ValueError` unless ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")


def check_shape(name: str, array: np.ndarray, shape: Tuple[int, ...]) -> None:
    """Raise :class:`ValueError` unless ``array.shape == shape``.

    A ``-1`` entry in ``shape`` matches any extent on that axis.
    """
    actual = np.asarray(array).shape
    if len(actual) != len(shape) or any(
        expected not in (-1, got) for expected, got in zip(shape, actual)
    ):
        raise ValueError(f"{name} must have shape {shape}, got {actual}")


__all__ = ["check_in_range", "check_positive", "check_shape"]
