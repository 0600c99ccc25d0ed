"""Tests for the NApprox corelet on the tick-level simulator.

These run real multi-core simulations and are the slowest unit tests in
the suite; counts are kept small.
"""

import numpy as np
import pytest

from repro.napprox import (
    NApproxCellCorelet,
    NApproxCellRunner,
    correlate_corelet_vs_software,
)
from repro.napprox.software import NApproxConfig, NApproxDescriptor
from repro.napprox.validation import random_cell_patch
from repro.truenorth.system import NeurosynapticSystem


@pytest.fixture(scope="module")
def runner():
    return NApproxCellRunner(window=32, rng=0)


@pytest.fixture(scope="module")
def reference_runner():
    return NApproxCellRunner(window=32, rng=0, engine="reference")


class TestFootprint:
    def test_core_count_near_paper(self):
        footprint = NApproxCellCorelet().build(NeurosynapticSystem())
        # Paper reports 26 cores per module; the type-alternation trick
        # saves plumbing, landing at 22.
        assert 20 <= footprint.core_count <= 26

    def test_io_shapes(self):
        footprint = NApproxCellCorelet().build(NeurosynapticSystem())
        assert len(footprint.pixel_targets) == 100
        assert all(len(t) == 2 for t in footprint.pixel_targets)
        assert len(footprint.histogram_outputs) == 18

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NApproxCellCorelet(direction_scale=0)
        with pytest.raises(ValueError):
            NApproxCellCorelet(magnitude_threshold=0)


class TestRunner:
    def test_throughput_contract(self, runner):
        assert runner.ticks_per_cell == 32
        assert runner.core_count <= 26

    def test_flat_patch_no_votes(self, runner):
        histogram = runner.extract(np.full((10, 10), 0.5))
        assert histogram.sum() == 0

    def test_oriented_edge_votes_correct_bin(self, runner):
        patch = np.tile(np.linspace(0.1, 0.9, 10), (10, 1))
        histogram = runner.extract(patch)
        assert histogram.sum() > 0
        assert histogram.argmax() == 0  # gradient along +x

    def test_vertical_edge(self, runner):
        patch = np.tile(np.linspace(0.9, 0.1, 10)[:, None], (1, 10))
        histogram = runner.extract(patch)
        # Intensity increasing upward -> Iy > 0 -> angle ~90 deg (bin 4).
        assert histogram.argmax() == 4

    def test_patch_validation(self, runner):
        with pytest.raises(ValueError):
            runner.extract(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            runner.extract(np.full((10, 10), 1.5))

    def test_matches_software_model(self, runner):
        software = NApproxDescriptor(
            NApproxConfig(quantized=True, window=32)
        )
        rng = np.random.default_rng(7)
        for _ in range(3):
            patch = random_cell_patch(rng)
            hardware = runner.extract(patch)
            reference = software.cell_histogram(patch)
            assert np.abs(hardware - reference).mean() < 1.0


class TestValidationHarness:
    def test_correlation_exceeds_paper_threshold(self):
        # The paper's check runs at the 64-spike quantisation width over
        # 1000 images; this smoke version uses 5 (the full-size check is
        # benchmarks/bench_hw_sw_correlation.py).
        report = correlate_corelet_vs_software(n_cells=5, window=64, rng=42)
        assert report.correlation > 0.995  # the paper's 99.5% check
        assert report.n_cells == 5

    def test_requires_two_cells(self):
        with pytest.raises(ValueError):
            correlate_corelet_vs_software(n_cells=1)


class TestBatchExtraction:
    def test_extract_batch_matches_extract(self, runner):
        rng = np.random.default_rng(6)
        patches = rng.random((3, 10, 10))
        singles = np.stack([runner.extract(patch) for patch in patches])
        np.testing.assert_array_equal(runner.extract_batch(patches), singles)

    def test_batch_engine_matches_reference_runner(self, runner, reference_runner):
        rng = np.random.default_rng(8)
        patches = rng.random((3, 10, 10))
        np.testing.assert_array_equal(
            runner.extract_batch(patches), reference_runner.extract_batch(patches)
        )

    def test_batch_engine_single_extract_matches(self, runner, reference_runner):
        patch = np.tile(np.linspace(0.1, 0.9, 10), (10, 1))
        np.testing.assert_array_equal(
            runner.extract(patch), reference_runner.extract(patch)
        )

    def test_empty_batch(self, runner):
        assert runner.extract_batch(np.zeros((0, 10, 10))).shape == (0, 18)

    def test_batch_validation(self, runner):
        with pytest.raises(ValueError):
            runner.extract_batch(np.zeros((2, 9, 10)))
        with pytest.raises(ValueError):
            runner.extract_batch(np.full((1, 10, 10), 1.5))
