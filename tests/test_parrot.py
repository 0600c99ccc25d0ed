"""Tests for the parrot data generator, trainer, extractor, and fidelity."""

import numpy as np
import pytest

from repro.napprox.software import N_DIRECTIONS
from repro.parrot import (
    ParrotExtractor,
    ParrotFeatureConfig,
    generate_parrot_samples,
    parrot_fidelity,
)
from repro.parrot.trainer import sigmoid_rates


class TestDatagen:
    def test_shapes(self):
        dataset = generate_parrot_samples(50, rng=0)
        assert dataset.inputs.shape == (50, 64)
        assert dataset.targets.shape == (50, 18)
        assert dataset.angle_labels.shape == (50,)
        assert len(dataset) == 50

    def test_inputs_in_unit_range(self):
        dataset = generate_parrot_samples(100, rng=1)
        assert dataset.inputs.min() >= 0.0
        assert dataset.inputs.max() <= 1.0

    def test_targets_are_rates(self):
        dataset = generate_parrot_samples(100, rng=2)
        assert dataset.targets.min() >= 0.0
        assert dataset.targets.max() <= 1.0

    def test_labels_match_target_argmax(self):
        dataset = generate_parrot_samples(80, rng=3)
        edgy = dataset.targets.sum(axis=1) > 0
        assert np.array_equal(
            dataset.angle_labels[edgy], dataset.targets[edgy].argmax(axis=1)
        )

    def test_contains_varied_densities(self):
        """Samples vary in their ratio of bright to dark pixels (the
        paper's offset-robustness requirement)."""
        dataset = generate_parrot_samples(200, rng=4)
        means = dataset.inputs.mean(axis=1)
        assert means.std() > 0.1

    def test_reproducible(self):
        a = generate_parrot_samples(10, rng=5).inputs
        b = generate_parrot_samples(10, rng=5).inputs
        assert np.array_equal(a, b)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            generate_parrot_samples(0)


class TestTrainer:
    def test_training_learns_structure(self, tiny_parrot):
        _, _, diagnostics = tiny_parrot
        assert diagnostics["angle_within_one_bin"] > 0.3
        # The rate-matching loss sums over 18 bins; ~5 is near chance.
        assert diagnostics["final_loss"] < 4.5

    def test_network_shape(self, tiny_parrot):
        network, _, _ = tiny_parrot
        assert network.layers[0].n_in == 64
        assert network.layers[-1].n_out == 18

    def test_sigmoid_rates_range(self):
        rates = sigmoid_rates(np.array([-100.0, 0.0, 100.0]))
        assert np.allclose(rates, [0.0, 0.5, 1.0], atol=1e-6)


class TestExtractor:
    def test_cell_grid_shape(self, tiny_parrot_extractor):
        image = np.random.default_rng(0).random((32, 24))
        grid = tiny_parrot_extractor.cell_grid(image)
        assert grid.shape == (4, 3, 18)

    def test_histograms_commensurate_with_counts(self, tiny_parrot_extractor):
        image = np.random.default_rng(1).random((16, 16))
        grid = tiny_parrot_extractor.cell_grid(image)
        assert grid.min() >= 0.0
        assert grid.max() <= 64.0

    def test_spiking_mode_bounds(self, tiny_parrot):
        network, _, _ = tiny_parrot
        extractor = ParrotExtractor(
            network, ParrotFeatureConfig(spikes=8), rng=0
        )
        cells = np.random.default_rng(2).random((5, 64))
        histograms = extractor.cell_histograms_batch(cells)
        # 8-tick rates are multiples of 1/8 scaled by 64.
        assert np.allclose(histograms % 8.0, 0.0)

    def test_with_spikes_copy(self, tiny_parrot_extractor):
        spiking = tiny_parrot_extractor.with_spikes(4)
        assert spiking.config.spikes == 4
        assert tiny_parrot_extractor.config.spikes is None

    def test_feature_length(self, tiny_parrot_extractor):
        assert tiny_parrot_extractor.feature_length((128, 64)) == 7560

    def test_cores_per_cell_near_paper(self, tiny_parrot):
        network, _, _ = tiny_parrot
        extractor = ParrotExtractor(network)
        # The session fixture uses a small hidden layer; the paper-scale
        # 512-hidden network lands at 6-10 cores (paper: 8).
        assert extractor.cores_per_cell() >= 2

    def test_cell_batch_validation(self, tiny_parrot_extractor):
        with pytest.raises(ValueError):
            tiny_parrot_extractor.cell_histograms_batch(np.zeros((2, 63)))

    def test_invalid_spikes(self, tiny_parrot):
        network, _, _ = tiny_parrot
        with pytest.raises(ValueError):
            ParrotExtractor(network, ParrotFeatureConfig(spikes=0))


class TestTrueNorthBackend:
    def test_engines_agree_bitwise(self, tiny_parrot):
        network, _, _ = tiny_parrot
        cells = np.random.default_rng(3).random((4, 64))
        histograms = {
            engine: ParrotExtractor(
                network,
                ParrotFeatureConfig(spikes=4),
                rng=7,
                backend="truenorth",
                engine=engine,
            ).cell_histograms_batch(cells)
            for engine in ("batch", "reference")
        }
        np.testing.assert_array_equal(
            histograms["batch"], histograms["reference"]
        )
        assert histograms["batch"].shape == (4, N_DIRECTIONS)

    def test_histograms_commensurate_with_counts(self, tiny_parrot):
        network, _, _ = tiny_parrot
        extractor = ParrotExtractor(
            network, ParrotFeatureConfig(spikes=4), rng=0, backend="truenorth"
        )
        histograms = extractor.cell_histograms_batch(
            np.random.default_rng(4).random((3, 64))
        )
        # 4-tick rates are multiples of 1/4 scaled by 64.
        assert np.allclose(histograms % 16.0, 0.0)
        assert histograms.min() >= 0.0 and histograms.max() <= 64.0

    def test_cell_grid_shape(self, tiny_parrot):
        network, _, _ = tiny_parrot
        extractor = ParrotExtractor(
            network, ParrotFeatureConfig(spikes=2), rng=0, backend="truenorth"
        )
        grid = extractor.cell_grid(np.random.default_rng(5).random((16, 24)))
        assert grid.shape == (2, 3, N_DIRECTIONS)

    def test_empty_batch(self, tiny_parrot):
        network, _, _ = tiny_parrot
        extractor = ParrotExtractor(
            network, ParrotFeatureConfig(spikes=2), rng=0, backend="truenorth"
        )
        assert extractor.cell_histograms_batch(np.zeros((0, 64))).shape == (
            0,
            N_DIRECTIONS,
        )

    def test_copies_preserve_backend(self, tiny_parrot):
        network, _, _ = tiny_parrot
        extractor = ParrotExtractor(
            network, ParrotFeatureConfig(spikes=2), rng=0, backend="truenorth"
        )
        assert extractor.with_spikes(4).backend == "truenorth"
        # Dropping spike coding forces the analog numpy path.
        assert extractor.with_spikes(None).backend == "numpy"

    def test_requires_spike_coding(self, tiny_parrot):
        network, _, _ = tiny_parrot
        with pytest.raises(ValueError, match="spikes"):
            ParrotExtractor(network, ParrotFeatureConfig(), backend="truenorth")

    def test_rejects_unknown_backend(self, tiny_parrot):
        network, _, _ = tiny_parrot
        with pytest.raises(ValueError, match="backend"):
            ParrotExtractor(network, backend="fpga")


class TestFidelity:
    def test_analog_beats_one_spike(self, tiny_parrot_extractor):
        analog = parrot_fidelity(tiny_parrot_extractor, n_cells=80, rng=9)
        one_spike = parrot_fidelity(
            tiny_parrot_extractor.with_spikes(1), n_cells=80, rng=9
        )
        assert analog.correlation > one_spike.correlation

    def test_report_fields(self, tiny_parrot_extractor):
        report = parrot_fidelity(tiny_parrot_extractor, n_cells=50, rng=10)
        assert report.n_cells == 50
        assert 0.0 <= report.dominant_bin_agreement <= 1.0
        assert report.mean_absolute_error >= 0.0

    def test_cells_validated(self, tiny_parrot_extractor):
        with pytest.raises(ValueError):
            parrot_fidelity(tiny_parrot_extractor, n_cells=1)
