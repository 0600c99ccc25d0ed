"""Tests for the NApprox software models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.napprox import NApproxConfig, NApproxDescriptor
from repro.napprox.software import N_DIRECTIONS, direction_tables, winner_votes
from repro.utils.images import rgb_to_grayscale, to_float_image


class TestDirectionTables:
    def test_shape_and_scale(self):
        cx, cy = direction_tables(16)
        assert cx.shape == cy.shape == (18,)
        assert np.abs(cx).max() <= 16
        assert np.abs(cy).max() <= 16

    def test_bin_centers(self):
        cx, cy = direction_tables(16)
        # Bin 0 center is 10 degrees: cos positive and large, sin small.
        assert cx[0] == round(16 * np.cos(np.radians(10)))
        assert cy[0] == round(16 * np.sin(np.radians(10)))

    def test_symmetry(self):
        cx, cy = direction_tables(16)
        # At the shipped Q = 16, opposite directions (9 bins apart) negate.
        assert np.array_equal(cx[:9], -cx[9:])
        assert np.array_equal(cy[:9], -cy[9:])

    def test_odd_scale_breaks_symmetry(self):
        # Q sin(30 deg) sits on a rounding tie, and the float sines of 30
        # and 210 degrees fall on opposite sides of it: cy[1] = 0 but
        # cy[10] = -1 at Q = 1 (bins 7 and 16 likewise).
        for scale in (1, 3):
            cx, cy = direction_tables(scale)
            assert np.array_equal(cx[:9], -cx[9:])
            assert np.flatnonzero(cy[:9] != -cy[9:]).tolist() == [1, 7]

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            direction_tables(0)


class TestWinnerVotes:
    def test_unique_max_wins(self):
        m = np.zeros(18)
        m[4] = 5.0
        votes = winner_votes(m)
        assert votes[4] and votes.sum() == 1

    def test_flat_profile_no_vote(self):
        assert not winner_votes(np.zeros(18)).any()
        assert not winner_votes(np.full(18, 3.0)).any()

    def test_plateau_single_vote(self):
        m = np.zeros(18)
        m[[6, 7]] = 2.0
        votes = winner_votes(m)
        assert votes.sum() == 1
        assert votes[7]  # last element of the plateau wins

    def test_wraparound_plateau(self):
        m = np.zeros(18)
        m[[17, 0]] = 2.0
        votes = winner_votes(m)
        assert votes.sum() == 1

    def test_bimodal_two_votes(self):
        m = np.zeros(18)
        m[3] = 2.0
        m[12] = 2.0
        assert winner_votes(m).sum() == 2

    def test_batched_shape(self):
        m = np.zeros((4, 7, 18))
        m[..., 2] = 1.0
        votes = winner_votes(m)
        assert votes.shape == (4, 7, 18)
        assert votes[..., 2].all()

    @given(arrays(np.int64, (18,), elements=st.integers(0, 50)))
    @settings(max_examples=50, deadline=None)
    def test_at_most_votes_at_strict_local_maxima(self, m):
        votes = winner_votes(m)
        for b in np.flatnonzero(votes):
            assert m[b] > m[(b + 1) % 18]
            assert m[(b - 1) % 18] <= m[b]


class TestFpModel:
    def test_argmax_matches_arctan(self):
        """For exact projections, the winner is the bin containing the
        gradient angle (dot products with unit vectors peak when aligned)."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            angle = rng.uniform(0, 360)
            # Avoid exact bin boundaries where ties are legitimate.
            if abs((angle % 20)) < 1 or abs((angle % 20) - 20) < 1:
                continue
            ix = np.cos(np.radians(angle))
            iy = np.sin(np.radians(angle))
            theta = np.radians(np.arange(18) * 20 + 10)
            m = np.maximum(ix * np.cos(theta) + iy * np.sin(theta), 0)
            votes = winner_votes(m)
            assert votes[int(angle // 20)], angle

    def test_cell_grid_shape(self):
        descriptor = NApproxDescriptor(NApproxConfig(quantized=False))
        grid = descriptor.cell_grid(np.random.default_rng(0).random((32, 24)))
        assert grid.shape == (4, 3, 18)

    def test_votes_bounded_by_pixels(self):
        descriptor = NApproxDescriptor(NApproxConfig(quantized=False))
        grid = descriptor.cell_grid(np.random.default_rng(0).random((16, 16)))
        assert grid.sum(axis=2).max() <= 64 + 1e-9


class TestQuantizedModel:
    def test_feature_length(self):
        config = NApproxConfig()
        assert config.feature_length((128, 64)) == 7560

    def test_flat_cell_no_votes(self):
        descriptor = NApproxDescriptor(NApproxConfig(quantized=True))
        grid = descriptor.cell_grid(np.full((16, 16), 0.5))
        assert grid.sum() == 0

    def test_strong_edge_votes(self):
        descriptor = NApproxDescriptor(NApproxConfig(quantized=True))
        image = np.tile(np.linspace(0, 1, 16), (16, 1))
        grid = descriptor.cell_grid(image)
        assert grid.sum() > 0
        assert grid[0, 0].argmax() == 0  # horizontal gradient -> ~0 deg

    def test_cell_histogram_contract(self):
        descriptor = NApproxDescriptor()
        patch = np.random.default_rng(3).random((10, 10))
        histogram = descriptor.cell_histogram(patch)
        assert histogram.shape == (18,)
        assert histogram.sum() <= 64

    def test_cell_histogram_patch_size(self):
        with pytest.raises(ValueError):
            NApproxDescriptor().cell_histogram(np.zeros((8, 8)))

    def test_quantization_changes_results(self):
        image = np.random.default_rng(5).random((32, 32)) * 0.2 + 0.4
        fp = NApproxDescriptor(NApproxConfig(quantized=False)).cell_grid(image)
        qt = NApproxDescriptor(NApproxConfig(quantized=True)).cell_grid(image)
        assert not np.allclose(fp, qt)

    def test_window_affects_quantized(self):
        image = np.random.default_rng(6).random((16, 16)) * 0.3
        coarse = NApproxDescriptor(NApproxConfig(True, window=8)).cell_grid(image)
        fine = NApproxDescriptor(NApproxConfig(True, window=256)).cell_grid(image)
        assert not np.allclose(coarse, fine)

    def test_validation(self):
        with pytest.raises(ValueError):
            NApproxDescriptor(NApproxConfig(window=0))
        with pytest.raises(ValueError):
            NApproxDescriptor(NApproxConfig(magnitude_threshold=0))


# ----------------------------------------------------------------------
# The kernel oracle: the (H, W, 18) projection kernel, frozen here as
# the reference the direction-major plane kernel must match bit for bit.


def _reference_pixel_votes(config, image):
    """Per-pixel votes from one int64 (or float) ``(H, W, 18)`` projection."""
    cx, cy = direction_tables(config.direction_scale)
    theta = np.radians(np.arange(N_DIRECTIONS) * 20.0 + 10.0)
    gray = to_float_image(rgb_to_grayscale(to_float_image(image)))
    if config.quantized:
        counts = np.round(gray * config.window).astype(np.int64)
        padded = np.pad(counts, 1, mode="edge")
        ix = padded[1:-1, 2:] - padded[1:-1, :-2]
        iy = padded[:-2, 1:-1] - padded[2:, 1:-1]
        projection = (
            ix[..., None] * cx[None, None, :] + iy[..., None] * cy[None, None, :]
        )
        magnitudes = np.maximum(projection, 0) // config.magnitude_threshold
    else:
        padded = np.pad(gray, 1, mode="edge")
        ix = padded[1:-1, 2:] - padded[1:-1, :-2]
        iy = padded[:-2, 1:-1] - padded[2:, 1:-1]
        projection = (
            ix[..., None] * np.cos(theta)[None, None, :]
            + iy[..., None] * np.sin(theta)[None, None, :]
        )
        magnitudes = np.maximum(projection, 0.0)
    return winner_votes(magnitudes)


def _reference_cell_grid(config, image):
    votes = _reference_pixel_votes(config, image)
    cs = config.cell_size
    n_cells_y = votes.shape[0] // cs
    n_cells_x = votes.shape[1] // cs
    trimmed = votes[: n_cells_y * cs, : n_cells_x * cs].astype(np.float64)
    return trimmed.reshape(n_cells_y, cs, n_cells_x, cs, N_DIRECTIONS).sum(
        axis=(1, 3)
    )


def _image(kind, shape, seed):
    rng = np.random.default_rng(seed)
    if kind == "float":
        return rng.random(shape)
    if kind == "uint8":
        return rng.integers(0, 256, shape, dtype=np.uint8)
    if kind == "rgb":
        return rng.random(shape + (3,))
    if kind == "binary":
        return rng.integers(0, 2, shape).astype(np.float64)
    if kind == "constant":
        return np.full(shape, rng.random())
    return np.zeros(shape)


def _assert_matches_reference(config, image):
    descriptor = NApproxDescriptor(config)
    votes = descriptor.pixel_votes(image)
    expected_votes = _reference_pixel_votes(config, image)
    assert votes.shape == expected_votes.shape
    assert votes.dtype == expected_votes.dtype == np.bool_
    assert np.array_equal(votes, expected_votes)
    grid = descriptor.cell_grid(image)
    expected_grid = _reference_cell_grid(config, image)
    assert grid.shape == expected_grid.shape
    assert grid.dtype == expected_grid.dtype == np.float64
    assert np.array_equal(grid, expected_grid)


class TestKernelOracle:
    """The plane kernel against the frozen ``(H, W, 18)`` kernel."""

    @given(
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        kind=st.sampled_from(
            ["float", "uint8", "rgb", "binary", "constant", "zeros"]
        ),
        quantized=st.booleans(),
        window=st.integers(1, 256),
        magnitude_threshold=st.integers(1, 8),
        direction_scale=st.integers(1, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(
        self,
        height,
        width,
        kind,
        quantized,
        window,
        magnitude_threshold,
        direction_scale,
        seed,
    ):
        config = NApproxConfig(
            quantized=quantized,
            window=window,
            direction_scale=direction_scale,
            magnitude_threshold=magnitude_threshold,
        )
        _assert_matches_reference(config, _image(kind, (height, width), seed))

    @pytest.mark.parametrize("direction_scale", [1, 3, 16])
    @pytest.mark.parametrize("quantized", [True, False])
    def test_pyramid_sized_frame(self, direction_scale, quantized):
        config = NApproxConfig(quantized=quantized, direction_scale=direction_scale)
        _assert_matches_reference(config, _image("float", (139, 185), 7))

    @pytest.mark.parametrize(
        "window, dtype", [(744, np.int16), (745, np.int64)]
    )
    def test_dtype_boundary(self, window, dtype):
        # max(|cx| + |cy|) = 22 at Q = 16, so the int16 bound
        # 2 * window * 22 <= 32767 holds up to window 744.
        config = NApproxConfig(window=window, magnitude_threshold=1)
        assert NApproxDescriptor(config)._plane_dtype is dtype
        # Binary pixels give |ix| = |iy| = window: the largest projections.
        _assert_matches_reference(config, _image("binary", (48, 40), 11))

    def test_below_one_cell(self):
        descriptor = NApproxDescriptor()
        assert descriptor.cell_grid(np.ones((7, 30))).shape == (0, 3, 18)
        assert descriptor.cell_grid(np.ones((30, 7))).shape == (3, 0, 18)
        assert descriptor.pixel_votes(np.ones((7, 5))).shape == (7, 5, 18)
