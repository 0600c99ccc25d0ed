"""Tests for EednNetwork and the training loop."""

import numpy as np
import pytest

from repro.eedn import (
    EednNetwork,
    ThresholdActivation,
    TrainConfig,
    TrinaryDense,
    train_network,
)


def _separable_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 8))
    y = (x[:, :4].sum(axis=1) > x[:, 4:].sum(axis=1)).astype(np.int64)
    return x, y


def _small_net(seed=1):
    return EednNetwork(
        [
            TrinaryDense(8, 64, rng=seed),
            ThresholdActivation(0.0),
            TrinaryDense(64, 2, rng=seed + 1),
        ]
    )


class TestNetwork:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            EednNetwork([])

    def test_forward_shape(self):
        net = _small_net()
        assert net.forward(np.ones((3, 8))).shape == (3, 2)

    def test_predict_argmax(self):
        net = _small_net()
        x = np.random.default_rng(0).random((5, 8))
        logits = net.forward(x)
        assert np.array_equal(net.predict(x), logits.argmax(axis=1))


class TestTraining:
    def test_learns_separable_task(self):
        x, y = _separable_data()
        net = _small_net()
        result = train_network(
            net, x, y, TrainConfig(epochs=30, learning_rate=0.02), rng=3
        )
        assert result.train_accuracy[-1] > 0.85
        assert not result.blind

    def test_loss_decreases(self):
        x, y = _separable_data()
        net = _small_net()
        result = train_network(
            net, x, y, TrainConfig(epochs=15, learning_rate=0.02), rng=3
        )
        assert result.losses[-1] < result.losses[0]

    def test_blind_detection(self):
        # A frozen network (lr=0) with a biased head predicts one class.
        x, y = _separable_data()
        net = _small_net()
        net.layers[-1].bias[:] = np.array([100.0, 0.0])
        result = train_network(
            net, x, y, TrainConfig(epochs=1, learning_rate=0.0), rng=3
        )
        assert result.blind
        assert result.majority_fraction == 1.0

    def test_weight_clipping(self):
        x, y = _separable_data()
        net = _small_net()
        train_network(
            net,
            x,
            y,
            TrainConfig(epochs=3, learning_rate=0.5, clip_weights=True),
            rng=3,
        )
        for layer in (net.layers[0], net.layers[2]):
            assert np.abs(layer.weights).max() <= 1.0

    def test_augment_fn_applied(self):
        calls = []

        def augment(batch, rng):
            calls.append(batch.shape[0])
            return batch

        x, y = _separable_data(64)
        train_network(
            _small_net(),
            x,
            y,
            TrainConfig(epochs=1, batch_size=16),
            rng=3,
            augment_fn=augment,
        )
        assert sum(calls) == 64

    def test_soft_targets_accepted(self):
        x, y = _separable_data(64)
        soft = np.zeros((64, 2))
        soft[np.arange(64), y] = 1.0
        result = train_network(
            _small_net(), x, soft, TrainConfig(epochs=2), rng=3
        )
        assert len(result.losses) == 2

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train_network(_small_net(), np.zeros((0, 8)), np.zeros(0))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            train_network(_small_net(), np.zeros((4, 8)), np.zeros(3))

    def test_deterministic_given_seed(self):
        x, y = _separable_data()
        net_a = _small_net(seed=9)
        net_b = _small_net(seed=9)
        train_network(net_a, x, y, TrainConfig(epochs=3), rng=5)
        train_network(net_b, x, y, TrainConfig(epochs=3), rng=5)
        assert np.allclose(net_a.layers[0].weights, net_b.layers[0].weights)
