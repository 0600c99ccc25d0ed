"""repro: partitioned CNNs for neuromorphic feature extraction.

A reproduction of Tsai et al., "Co-training of Feature Extraction and
Classification using Partitioned Convolutional Neural Networks" (DAC 2017).

The package implements, from scratch:

- a tick-accurate simulator of the IBM TrueNorth neurosynaptic architecture
  (:mod:`repro.truenorth`),
- a corelet composition and compilation layer (:mod:`repro.corelets`),
- spike-coding schemes at configurable precision (:mod:`repro.coding`),
- reference, FPGA-style, and NApprox HoG feature extractors
  (:mod:`repro.hog`, :mod:`repro.napprox`),
- an Eedn-style trinary-weight spiking CNN training framework
  (:mod:`repro.eedn`),
- the Parrot HoG trained feature extractor (:mod:`repro.parrot`),
- the Absorbed monolithic classifier experiment (:mod:`repro.absorbed`),
- a linear SVM with hard-negative mining (:mod:`repro.svm`),
- the multi-scale sliding-window pedestrian-detection pipeline with
  miss-rate/FPPI evaluation (:mod:`repro.detection`),
- a synthetic INRIA-like pedestrian dataset (:mod:`repro.datasets`),
- the power/throughput deployment model behind Table 2 (:mod:`repro.power`).
"""

from repro.errors import ConfigurationError, ReproError

__version__ = "1.0.0"

__all__ = [
    "ConfigurationError",
    "ReproError",
    "__version__",
]
