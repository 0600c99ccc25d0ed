"""Tests for the HoG descriptor assembly and configurations."""

import numpy as np

from repro.hog import (
    HogConfig,
    HogDescriptor,
    dalal_triggs_config,
    napprox_fp_config,
)


class TestFeatureLengths:
    def test_dalal_triggs_64x128(self):
        assert dalal_triggs_config().feature_length((128, 64)) == 3780

    def test_napprox_fp_64x128(self):
        # Paper Section 4: 7560 = 7 x 15 x 18 x 4 features per window.
        assert napprox_fp_config().feature_length((128, 64)) == 7560

    def test_compute_matches_declared_length(self):
        descriptor = HogDescriptor(dalal_triggs_config())
        image = np.random.default_rng(0).random((128, 64))
        assert descriptor.compute(image).shape == (3780,)


class TestConfigSemantics:
    def test_napprox_fp_is_signed_count_voting(self):
        config = napprox_fp_config()
        assert config.n_bins == 18
        assert config.signed
        assert config.voting == "count"
        assert not config.interpolate

    def test_norm_override(self):
        config = napprox_fp_config(normalization="none")
        assert config.normalization == "none"


class TestDescriptor:
    def test_oriented_edge_dominates_expected_bin(self):
        # A horizontal intensity ramp has gradient angle 0.
        image = np.tile(np.linspace(0, 1, 64), (64, 1))
        grid = HogDescriptor(napprox_fp_config()).cell_grid(image)
        assert grid[2, 2].argmax() == 0

    def test_rotation_moves_bin(self):
        image = np.tile(np.linspace(0, 1, 64), (64, 1))
        grid_h = HogDescriptor(napprox_fp_config()).cell_grid(image)
        grid_v = HogDescriptor(napprox_fp_config()).cell_grid(image.T)
        assert grid_h[2, 2].argmax() != grid_v[2, 2].argmax()

    def test_rgb_accepted(self):
        image = np.random.default_rng(0).random((16, 16, 3))
        grid = HogDescriptor().cell_grid(image)
        assert grid.shape == (2, 2, 9)

    def test_from_cells_equals_compute(self):
        descriptor = HogDescriptor()
        image = np.random.default_rng(1).random((32, 32))
        direct = descriptor.compute(image)
        staged = descriptor.from_cells(descriptor.cell_grid(image))
        assert np.allclose(direct, staged)

    def test_flat_image_features_finite(self):
        features = HogDescriptor().compute(np.full((32, 32), 0.5))
        assert np.isfinite(features).all()
