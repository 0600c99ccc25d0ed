"""Eedn: energy-efficient deep neuromorphic networks (Esser et al. 2016).

The paper trains its classifiers and the Parrot feature extractor with
Eedn, a TrueNorth-specific CNN-like framework whose differences from
conventional CNNs are (paper, Section 2.2):

- **trinary weights**: high-precision hidden (shadow) values are kept
  during training and mapped to {-1, 0, +1} for network operation
  (:func:`repro.eedn.layers.trinarize`);
- **spiking neurons** with a threshold activation function whose
  derivative is approximated for backpropagation (straight-through
  estimator, :class:`repro.eedn.layers.ThresholdActivation`);
- **filter/layer grouping** so every filter fits the 256x256 crossbar of
  a neurosynaptic core (:mod:`repro.eedn.grouping`).

:mod:`repro.eedn.network` assembles layers, :mod:`repro.eedn.train` runs
minibatch SGD with momentum, :mod:`repro.eedn.mapping` estimates the
TrueNorth core count of a trained network (the paper's resource metric)
and can deploy small dense networks onto the
:mod:`repro.truenorth` simulator, and :mod:`repro.eedn.spiking` evaluates
a trained network in spiking operation mode at a chosen input precision
(used for the Figure 6 sweep).
"""

from repro.eedn.layers import (
    ThresholdActivation,
    TrinaryConv2D,
    TrinaryDense,
    trinarize,
)
from repro.eedn.network import EednNetwork
from repro.eedn.train import TrainConfig, TrainResult, train_network
from repro.eedn.losses import softmax_cross_entropy
from repro.eedn.grouping import group_channels
from repro.eedn.mapping import core_count, deploy_dense_network
from repro.eedn.spiking import SpikingEvaluator

__all__ = [
    "EednNetwork",
    "SpikingEvaluator",
    "ThresholdActivation",
    "TrainConfig",
    "TrainResult",
    "TrinaryConv2D",
    "TrinaryDense",
    "core_count",
    "deploy_dense_network",
    "group_channels",
    "softmax_cross_entropy",
    "train_network",
    "trinarize",
]
