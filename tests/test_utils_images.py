"""Tests for repro.utils.images."""

import numpy as np
import pytest

from repro.utils.images import (
    resize_bilinear,
    rgb_to_grayscale,
    to_float_image,
    to_uint8_image,
)


class TestGrayscale:
    def test_gray_passthrough(self):
        image = np.ones((4, 5))
        assert rgb_to_grayscale(image).shape == (4, 5)

    def test_luma_weights_sum_to_one(self):
        white = np.ones((2, 2, 3))
        assert np.allclose(rgb_to_grayscale(white), 1.0)

    def test_pure_green_weight(self):
        green = np.zeros((1, 1, 3))
        green[..., 1] = 1.0
        assert np.isclose(rgb_to_grayscale(green)[0, 0], 0.587)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            rgb_to_grayscale(np.zeros((2, 2, 4)))


class TestRanges:
    def test_uint8_to_float(self):
        image = np.array([[0, 255]], dtype=np.uint8)
        assert np.allclose(to_float_image(image), [[0.0, 1.0]])

    def test_float_clipped(self):
        assert np.allclose(to_float_image(np.array([[1.5, -0.5]])), [[1.0, 0.0]])

    def test_uint8_round_trip(self):
        values = np.linspace(0, 1, 20).reshape(4, 5)
        recovered = to_float_image(to_uint8_image(values))
        assert np.abs(recovered - values).max() <= 0.5 / 255


class TestResize:
    def test_identity(self):
        image = np.random.default_rng(0).random((8, 10))
        assert np.allclose(resize_bilinear(image, (8, 10)), image)

    def test_corner_alignment(self):
        image = np.array([[0.0, 1.0], [2.0, 3.0]])
        out = resize_bilinear(image, (4, 4))
        assert np.isclose(out[0, 0], 0.0)
        assert np.isclose(out[-1, -1], 3.0)

    def test_downscale_preserves_mean_roughly(self):
        rng = np.random.default_rng(1)
        image = rng.random((64, 64))
        out = resize_bilinear(image, (32, 32))
        assert abs(out.mean() - image.mean()) < 0.05

    def test_constant_stays_constant(self):
        image = np.full((10, 10), 0.42)
        assert np.allclose(resize_bilinear(image, (7, 13)), 0.42)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((4, 4)), (0, 4))

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((2, 2, 3)), (4, 4))
