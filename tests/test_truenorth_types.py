"""Tests for NeuronParameters."""

import pytest

from repro.truenorth.types import NeuronParameters


class TestNeuronParameters:
    def test_defaults(self):
        params = NeuronParameters()
        assert params.threshold == 1
        assert params.weights == (0, 0, 0, 0)

    def test_weights_length_enforced(self):
        with pytest.raises(ValueError):
            NeuronParameters(weights=(1, 2, 3))

    def test_threshold_minimum(self):
        with pytest.raises(ValueError):
            NeuronParameters(threshold=0)

    def test_floor_is_magnitude(self):
        with pytest.raises(ValueError):
            NeuronParameters(floor=-1)

    def test_stochastic_bits_nonnegative(self):
        with pytest.raises(ValueError):
            NeuronParameters(stochastic_threshold_bits=-2)

    def test_frozen(self):
        params = NeuronParameters()
        with pytest.raises(Exception):
            params.threshold = 5
