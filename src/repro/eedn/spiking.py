"""Spiking operation mode: evaluate a trained Eedn network on spike codes.

At deployment a TrueNorth-hosted Eedn network receives stochastic spike
trains and emits output spikes every tick; the paper's Figure 6 sweeps
the input representation from 32 spikes down to 1 spike per value. This
module evaluates a trained dense network under exactly those semantics,
in vectorised numpy (the 1:1-faithful but slow path is
:func:`repro.eedn.mapping.deploy_dense_network` + the core simulator).

Per tick, each dense+threshold stage computes
``a_t = (x_t @ W_trinary + round(bias) >= 0)`` on the binary spike vector
``x_t``; the final dense layer's spiking outputs are counted across the
window, giving rate-coded class confidences.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.coding.stochastic import StochasticEncoder
from repro.eedn.layers import Flatten, ThresholdActivation, TrinaryDense
from repro.eedn.network import EednNetwork
from repro.errors import ConfigurationError
from repro.utils.rng import RngLike, resolve_rng


@dataclass
class SpikingResult:
    """Spike-domain evaluation output.

    Attributes:
        counts: output spike counts, shape ``(batch, n_out)``.
        ticks: window length used.
    """

    counts: np.ndarray
    ticks: int

    @property
    def rates(self) -> np.ndarray:
        """Counts normalised by the window (confidences in [0, 1])."""
        return self.counts / float(self.ticks)

    def predictions(self) -> np.ndarray:
        """Argmax class per example."""
        return np.argmax(self.counts, axis=1)


class SpikingEvaluator:
    """Run a trained dense Eedn network in spiking mode.

    Hidden layers use hard thresholds (they were trained with hard
    spiking activations). The *output* layer optionally uses TrueNorth's
    stochastic threshold mode — fire iff ``z >= eta`` with ``eta`` drawn
    uniformly from ``[-half_range, half_range)`` each tick — which makes
    the output firing rate a piecewise-linear approximation of the
    sigmoid the network was trained with (the slope matches
    ``sigmoid(z / s)`` when ``half_range = 2 s``). This is the standard
    deployment recipe for rate-regression outputs; pass
    ``output_mode="hard"`` for argmax-only classifiers.

    Args:
        network: a dense/threshold stack (``Flatten`` layers allowed, any
            other layer type raises).
        ticks: spike window = the "N-spike representation" of Figure 6.
        rng: randomness for the stochastic input coding.
        output_mode: ``"stochastic"`` (default) or ``"hard"``.
        stochastic_half_range: half-width of the uniform threshold noise
            (8 matches the parrot trainer's sigmoid scale of 4).

    Raises:
        ConfigurationError: on unsupported layer types.
    """

    def __init__(
        self,
        network: EednNetwork,
        ticks: int,
        rng: RngLike = None,
        output_mode: str = "stochastic",
        stochastic_half_range: int = 8,
    ) -> None:
        if ticks < 1:
            raise ValueError(f"ticks must be >= 1, got {ticks}")
        if output_mode not in ("stochastic", "hard"):
            raise ValueError(
                f"output_mode must be 'stochastic' or 'hard', got {output_mode!r}"
            )
        if stochastic_half_range < 1:
            raise ValueError(
                f"stochastic_half_range must be >= 1, got {stochastic_half_range}"
            )
        self.ticks = ticks
        self.output_mode = output_mode
        self.stochastic_half_range = int(stochastic_half_range)
        self._rng = resolve_rng(rng)
        self._encoder = StochasticEncoder(ticks)
        self._stages: List[tuple] = []
        for layer in network.layers:
            if isinstance(layer, TrinaryDense):
                # Per-tick activations are integers (binary inputs times
                # trinary weights), so the float bias deploys EXACTLY as an
                # integer firing cutoff: z + b >= 0  <=>  z >= ceil(-b).
                self._stages.append(
                    (
                        layer.deployed_weights(),
                        np.ceil(-layer.bias).astype(np.int64),
                    )
                )
            elif isinstance(layer, (ThresholdActivation, Flatten)):
                continue
            else:
                raise ConfigurationError(
                    f"SpikingEvaluator supports dense stacks only, found "
                    f"{type(layer).__name__}"
                )
        if not self._stages:
            raise ConfigurationError("network has no dense layers")

    @property
    def n_in(self) -> int:
        """Input feature count."""
        return self._stages[0][0].shape[0]

    @property
    def n_out(self) -> int:
        """Output line count."""
        return self._stages[-1][0].shape[1]

    def evaluate(self, values: np.ndarray) -> SpikingResult:
        """Evaluate a batch of analog inputs through the spiking network.

        Args:
            values: ``(batch, n_in)`` inputs in ``[0, 1]``; stochastic
                spike coding is applied internally.

        Returns:
            A :class:`SpikingResult` with output spike counts.
        """
        x = np.asarray(values, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.n_in:
            raise ValueError(f"expected {self.n_in} features, got {x.shape[1]}")
        batch = x.shape[0]
        counts = np.zeros((batch, self.n_out), dtype=np.int64)
        # Encode all examples: raster (ticks, batch, n_in).
        draws = self._rng.random((self.ticks, batch, self.n_in))
        raster = draws < x[None, :, :]
        last = len(self._stages) - 1
        for tick in range(self.ticks):
            activity = raster[tick].astype(np.float64)
            for index, (weights, cutoff) in enumerate(self._stages):
                z = activity @ weights
                threshold = cutoff
                if index == last and self.output_mode == "stochastic":
                    threshold = cutoff + self._rng.integers(
                        -self.stochastic_half_range,
                        self.stochastic_half_range,
                        size=z.shape,
                    )
                activity = (z >= threshold).astype(np.float64)
            counts += activity.astype(np.int64)
        return SpikingResult(counts=counts, ticks=self.ticks)


__all__ = ["SpikingEvaluator", "SpikingResult"]
