"""Training the Parrot network against soft HoG-histogram targets.

The paper notes "the distribution of confidence scores matching the HoG
histograms is more important than the particular classification", so the
trainer optimises a per-bin regression: the network's output rates (a
sigmoid squash of the logits in analog training, spike rates at
deployment) should match the reference histogram scaled to [0, 1].
"""

from typing import Optional, Tuple

import numpy as np

from repro.eedn.layers import ThresholdActivation, TrinaryDense
from repro.eedn.network import EednNetwork
from repro.eedn.train import TrainConfig, train_network
from repro.napprox.software import N_DIRECTIONS
from repro.parrot.datagen import CELL_PIXELS, ParrotDataset, generate_parrot_samples
from repro.utils.rng import RngLike, resolve_rng

SIGMOID_SCALE = 4.0
"""Logit divisor of the analog output squash; approximates the spread of
the per-tick spiking logits so analog rates track deployed spike rates."""


def sigmoid_rates(logits: np.ndarray, scale: float = SIGMOID_SCALE) -> np.ndarray:
    """Analog output rates: ``sigmoid(logits / scale)``."""
    return 1.0 / (1.0 + np.exp(-np.asarray(logits, dtype=np.float64) / scale))


def rate_matching_loss(
    logits: np.ndarray, targets: np.ndarray, scale: float = SIGMOID_SCALE
) -> Tuple[float, np.ndarray]:
    """Per-bin binary cross-entropy between sigmoid rates and targets.

    BCE is the matching loss for a sigmoid output: its logit gradient is
    simply ``(rate - target) / scale``, so training does not stall when
    rates saturate (a plain MSE's gradient vanishes there).

    Args:
        logits: ``(batch, bins)`` raw outputs.
        targets: ``(batch, bins)`` rate targets in [0, 1].

    Returns:
        ``(loss, grad)`` with ``grad`` = d loss / d logits.
    """
    z = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if z.shape != t.shape:
        raise ValueError(f"logits {z.shape} and targets {t.shape} must match")
    rates = np.clip(sigmoid_rates(z, scale), 1e-9, 1.0 - 1e-9)
    # Sum over bins, mean over the batch, so the gradient is exactly
    # (rate - target) / scale / batch.
    per_example = -(t * np.log(rates) + (1.0 - t) * np.log(1.0 - rates)).sum(axis=1)
    loss = float(per_example.mean())
    grad = (rates - t) / scale / z.shape[0]
    return loss, grad


def train_parrot(
    hidden: int = 512,
    n_samples: int = 16000,
    epochs: int = 50,
    learning_rate: float = 0.05,
    rng: RngLike = 0,
    dataset: Optional[ParrotDataset] = None,
    stochastic_inputs: bool = True,
) -> Tuple[EednNetwork, ParrotDataset, dict]:
    """Train the 2-layer parrot network.

    Args:
        hidden: hidden-layer width.
        n_samples: synthetic samples (ignored when ``dataset`` given).
        epochs: training epochs.
        learning_rate: SGD step size.
        rng: master randomness.
        dataset: pre-generated training data (optional).
        stochastic_inputs: train on per-batch Bernoulli binarisations of
            the pixels — the single-tick statistics of stochastic spike
            coding — so deployed spike rates match the trained
            expectations ("Parrot HoG operates with stochastic input
            signals", paper Section 1). Disable for analog-only use.

    Returns:
        ``(network, dataset, diagnostics)``.
    """
    generator = resolve_rng(rng)
    if dataset is None:
        dataset = generate_parrot_samples(n_samples, rng=generator)
    network = EednNetwork(
        [
            TrinaryDense(CELL_PIXELS, hidden, rng=generator),
            ThresholdActivation(0.0, ste_window=2.0),
            TrinaryDense(hidden, N_DIRECTIONS, rng=generator),
        ]
    )
    result = train_network(
        network,
        dataset.inputs,
        dataset.targets,
        TrainConfig(
            epochs=epochs,
            learning_rate=learning_rate,
            lr_decay=0.97,
            batch_size=64,
        ),
        loss_fn=rate_matching_loss,
        rng=generator,
        augment_fn=(
            (lambda batch, g: (g.random(batch.shape) < batch).astype(np.float64))
            if stochastic_inputs
            else None
        ),
    )
    predictions = network.predict(dataset.inputs)
    edgy = dataset.targets.sum(axis=1) > 0.05  # cells with real gradients
    angle_accuracy = (
        float((predictions[edgy] == dataset.angle_labels[edgy]).mean())
        if edgy.any()
        else 0.0
    )
    distance = np.minimum(
        (predictions - dataset.angle_labels) % N_DIRECTIONS,
        (dataset.angle_labels - predictions) % N_DIRECTIONS,
    )
    diagnostics = {
        "final_loss": result.losses[-1],
        "angle_accuracy": angle_accuracy,
        "angle_within_one_bin": float((distance[edgy] <= 1).mean()) if edgy.any() else 0.0,
    }
    return network, dataset, diagnostics


__all__ = [
    "SIGMOID_SCALE",
    "rate_matching_loss",
    "sigmoid_rates",
    "train_parrot",
]
