"""Histogram-of-Oriented-Gradients feature extractors.

Three families, matching the configurations compared in Figure 4 of the
paper:

- the **reference** Dalal-Triggs HoG: 9 unsigned orientation bins,
  magnitude-weighted voting with bilinear interpolation, L2 block
  normalisation (:func:`dalal_triggs_config`);
- the **FPGA** HoG of Advani et al.: the same 9-bin weighted voting
  evaluated in 16-bit fixed point with an alpha-max-beta-min magnitude
  and LUT-based angle binning (:mod:`repro.hog.fpga`);
- the **NApprox** HoG models live in :mod:`repro.napprox` and reuse this
  package's cell/block machinery with 18 signed bins and count voting.

The shared pipeline is: :mod:`repro.hog.gradients` (centered [-1, 0, 1]
derivative masks), :mod:`repro.hog.cells` (orientation voting into 8x8
cells), :mod:`repro.hog.blocks` (contrast normalisation over 2x2-cell
blocks with one-cell stride), and :mod:`repro.hog.descriptor` (window
feature assembly).
"""

from repro.hog.descriptor import (
    HogConfig,
    HogDescriptor,
    dalal_triggs_config,
    napprox_fp_config,
)
from repro.hog.gradients import compute_gradients
from repro.hog.cells import cell_histograms
from repro.hog.blocks import normalize_blocks
from repro.hog.fpga import FpgaHogDescriptor, FpgaHogConfig

__all__ = [
    "FpgaHogConfig",
    "FpgaHogDescriptor",
    "HogConfig",
    "HogDescriptor",
    "cell_histograms",
    "compute_gradients",
    "dalal_triggs_config",
    "napprox_fp_config",
    "normalize_blocks",
]
