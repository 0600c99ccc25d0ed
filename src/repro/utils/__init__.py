"""Shared low-level utilities: RNG handling and image helpers."""

from repro.utils.rng import resolve_rng
from repro.utils.images import (
    rgb_to_grayscale,
    to_float_image,
    to_uint8_image,
)

__all__ = [
    "resolve_rng",
    "rgb_to_grayscale",
    "to_float_image",
    "to_uint8_image",
]
