"""Parrot HoG: a trained network that mimics the HoG feature extractor.

Instead of programming HoG operations, the paper trains a small Eedn
classifier to *behave like* the extractor (the "Parrot transformation" of
Esmaeilzadeh et al.): neurons of each orientation class output the
confidence that the cell matches that orientation, producing an
equivalent feature vector (paper, Section 3.2).

- :mod:`repro.parrot.datagen` generates the randomly generated labelled
  training data of Figure 3 — automatic labelling is possible because
  HoG is a well-defined function of the pixels;
- :mod:`repro.parrot.trainer` trains the 2-layer per-cell network
  against soft HoG-histogram targets;
- :mod:`repro.parrot.extractor` exposes the trained network with the
  package-wide feature-extractor interface, in analog mode or at any
  stochastic spike precision (1..32 spikes, Figure 6);
- :mod:`repro.parrot.fidelity` quantifies how well parrot histograms
  track the reference extractor.
"""

from repro.parrot.datagen import ParrotDataset, generate_parrot_samples
from repro.parrot.trainer import train_parrot
from repro.parrot.extractor import ParrotExtractor, ParrotFeatureConfig
from repro.parrot.fidelity import FidelityReport, parrot_fidelity
from repro.parrot.compression import (
    CompressionResult,
    compress_to_cores,
    prune_hidden_units,
)

__all__ = [
    "CompressionResult",
    "FidelityReport",
    "ParrotDataset",
    "ParrotExtractor",
    "ParrotFeatureConfig",
    "compress_to_cores",
    "generate_parrot_samples",
    "parrot_fidelity",
    "prune_hidden_units",
    "train_parrot",
]
