"""Tests for spiking-mode evaluation."""

import numpy as np
import pytest

from repro.eedn import (
    EednNetwork,
    SpikingEvaluator,
    ThresholdActivation,
    TrinaryConv2D,
    TrinaryDense,
)
from repro.errors import ConfigurationError


def _net(seed=0):
    net = EednNetwork(
        [
            TrinaryDense(6, 32, rng=seed),
            ThresholdActivation(0.0),
            TrinaryDense(32, 3, rng=seed + 1),
        ]
    )
    net.layers[0].bias[:] = np.linspace(-0.4, 0.4, 32)
    net.layers[2].bias[:] = np.array([0.2, -0.3, 0.0])
    return net


class TestConstruction:
    def test_rejects_conv(self):
        with pytest.raises(ConfigurationError):
            SpikingEvaluator(EednNetwork([TrinaryConv2D(1, 1, 2, rng=0)]), ticks=4)

    def test_rejects_bad_ticks(self):
        with pytest.raises(ValueError):
            SpikingEvaluator(_net(), ticks=0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            SpikingEvaluator(_net(), ticks=4, output_mode="soft")

    def test_widths(self):
        evaluator = SpikingEvaluator(_net(), ticks=4)
        assert evaluator.n_in == 6
        assert evaluator.n_out == 3


class TestEvaluation:
    def test_counts_bounded_by_ticks(self):
        evaluator = SpikingEvaluator(_net(), ticks=8, rng=0)
        result = evaluator.evaluate(np.random.default_rng(1).random((4, 6)))
        assert result.counts.min() >= 0
        assert result.counts.max() <= 8
        assert result.rates.max() <= 1.0

    def test_deterministic_inputs_hard_mode(self):
        """With inputs 0/1 and hard outputs, every tick is identical."""
        evaluator = SpikingEvaluator(_net(), ticks=16, rng=2, output_mode="hard")
        values = np.array([[1.0, 0.0, 1.0, 1.0, 0.0, 0.0]])
        result = evaluator.evaluate(values)
        assert set(np.unique(result.counts)).issubset({0, 16})

    def test_spiking_tracks_analog_ordering(self):
        """Stochastic-threshold spike counts track the analog logit
        ordering (hard outputs saturate to 0/T and lose it)."""
        net = _net()
        evaluator = SpikingEvaluator(net, ticks=64, rng=3, output_mode="stochastic")
        rng = np.random.default_rng(4)
        values = (rng.random((30, 6)) > 0.5).astype(float)
        logits = net.forward(values)
        counts = evaluator.evaluate(values).counts
        correlation = np.corrcoef(logits.ravel(), counts.ravel())[0, 1]
        assert correlation > 0.7

    def test_stochastic_output_mode_graded(self):
        """Stochastic thresholds turn saturated hard outputs into graded
        rates."""
        net = _net()
        hard = SpikingEvaluator(net, ticks=64, rng=5, output_mode="hard")
        stochastic = SpikingEvaluator(net, ticks=64, rng=5, output_mode="stochastic")
        values = (np.random.default_rng(6).random((10, 6)) > 0.5).astype(float)
        hard_levels = len(np.unique(hard.evaluate(values).counts))
        stochastic_levels = len(np.unique(stochastic.evaluate(values).counts))
        assert stochastic_levels > hard_levels

    def test_exact_bias_cutoff(self):
        """Float biases deploy exactly: z + b >= 0 <=> z >= ceil(-b)."""
        net = EednNetwork([TrinaryDense(2, 1, rng=0)])
        net.layers[0].weights[:] = np.array([[1.0], [1.0]])
        net.layers[0].bias[:] = np.array([-1.5])  # fire iff z >= 2
        evaluator = SpikingEvaluator(net, ticks=1, rng=0, output_mode="hard")
        assert evaluator.evaluate(np.array([[1.0, 1.0]])).counts[0, 0] == 1
        assert evaluator.evaluate(np.array([[1.0, 0.0]])).counts[0, 0] == 0

    def test_input_width_checked(self):
        evaluator = SpikingEvaluator(_net(), ticks=4)
        with pytest.raises(ValueError):
            evaluator.evaluate(np.ones((1, 7)))

    def test_seeded_reproducibility(self):
        values = np.random.default_rng(8).random((3, 6))
        a = SpikingEvaluator(_net(), ticks=16, rng=7).evaluate(values).counts
        b = SpikingEvaluator(_net(), ticks=16, rng=7).evaluate(values).counts
        assert np.array_equal(a, b)
