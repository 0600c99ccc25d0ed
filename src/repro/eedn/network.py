"""EednNetwork: a sequential stack of Eedn layers."""

from typing import Iterable, List, Sequence

import numpy as np

from repro.eedn.layers import Layer


class EednNetwork:
    """A feed-forward stack of layers with joint forward/backward.

    Hidden layers are typically pairs of (TrinaryDense | TrinaryConv2D,
    ThresholdActivation); the final layer stays linear so losses see real
    logits (at deployment the output neurons' spike counts play this
    role — see :mod:`repro.eedn.spiking`).

    Args:
        layers: layer instances applied in order.
    """

    def __init__(self, layers: Sequence[Layer]) -> None:
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers: List[Layer] = list(layers)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run all layers; returns the final layer's output."""
        out = np.asarray(inputs, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate from the loss gradient; returns input gradient."""
        grad = np.asarray(grad_output, dtype=np.float64)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Argmax class per example (inference mode)."""
        logits = self.forward(inputs, training=False)
        return np.argmax(logits, axis=1)

    def parameters(self) -> Iterable:
        """Yield ``(layer_index, name, param, grad)`` tuples."""
        for index, layer in enumerate(self.layers):
            params = layer.params()
            grads = layer.grads()
            for name, param in params.items():
                yield index, name, param, grads[name]

    def __repr__(self) -> str:
        names = ", ".join(type(layer).__name__ for layer in self.layers)
        return f"EednNetwork([{names}])"


__all__ = ["EednNetwork"]
