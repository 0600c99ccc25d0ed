"""Tests for Eedn losses, including gradient checks."""

import numpy as np
import pytest

from repro.eedn.losses import softmax_cross_entropy
from repro.parrot.trainer import rate_matching_loss


def _numerical_gradient(fn, logits, eps=1e-6):
    grad = np.zeros_like(logits)
    for index in np.ndindex(logits.shape):
        plus = logits.copy()
        plus[index] += eps
        minus = logits.copy()
        minus[index] -= eps
        grad[index] = (fn(plus) - fn(minus)) / (2 * eps)
    return grad


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[10.0, -10.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0]))
        assert loss < 1e-6

    def test_hard_labels_gradient(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 3])
        _, grad = softmax_cross_entropy(logits, labels)
        numeric = _numerical_gradient(
            lambda z: softmax_cross_entropy(z, labels)[0], logits
        )
        assert np.allclose(grad, numeric, atol=1e-5)

    def test_soft_targets_gradient(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(2, 5))
        targets = rng.random((2, 5))
        targets /= targets.sum(axis=1, keepdims=True)
        _, grad = softmax_cross_entropy(logits, targets)
        numeric = _numerical_gradient(
            lambda z: softmax_cross_entropy(z, targets)[0], logits
        )
        assert np.allclose(grad, numeric, atol=1e-5)

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        labels = np.array([1])
        a, _ = softmax_cross_entropy(logits, labels)
        b, _ = softmax_cross_entropy(logits + 100.0, labels)
        assert np.isclose(a, b)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(3), np.zeros(3))


class TestRateMatchingLoss:
    def test_gradient(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(3, 4)) * 4
        targets = rng.random((3, 4))
        _, grad = rate_matching_loss(logits, targets)
        numeric = _numerical_gradient(
            lambda z: rate_matching_loss(z, targets)[0], logits
        )
        assert np.allclose(grad, numeric, atol=1e-4)

    def test_matched_rates_minimise(self):
        targets = np.array([[0.25, 0.75]])
        # Logits whose sigmoid(z/4) equals the targets.
        logits = 4.0 * np.log(targets / (1 - targets))
        _, grad = rate_matching_loss(logits, targets)
        assert np.abs(grad).max() < 1e-9

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rate_matching_loss(np.zeros((2, 3)), np.zeros((2, 4)))
