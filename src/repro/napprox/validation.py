"""Hardware-vs-software validation of the NApprox HoG.

Reproduces the paper's check (Section 3.1): "in testing with a thousand
training images ... the outputs of the hardware implementation and
software model achieved over 99.5% correlation when configured to operate
with the same quantization width."
"""

from dataclasses import dataclass

import numpy as np

from repro.napprox.corelet_impl import NApproxCellRunner
from repro.napprox.software import NApproxConfig, NApproxDescriptor
from repro.utils.rng import RngLike, resolve_rng


@dataclass(frozen=True)
class CorrelationReport:
    """Outcome of a corelet-vs-software correlation run.

    Attributes:
        correlation: Pearson correlation between the stacked histogram
            vectors of the two implementations.
        mean_absolute_error: mean |difference| in vote counts per bin.
        exact_match_fraction: fraction of bins with identical counts.
        n_cells: number of cells compared.
    """

    correlation: float
    mean_absolute_error: float
    exact_match_fraction: float
    n_cells: int


def correlate_corelet_vs_software(
    n_cells: int = 50,
    window: int = 64,
    direction_scale: int = 16,
    magnitude_threshold: int = 4,
    rng: RngLike = 0,
) -> CorrelationReport:
    """Compare corelet histograms against the quantised software model.

    Random patches mix smooth oriented gradients with noise, like the
    INRIA training cells the paper used.

    Args:
        n_cells: patches to compare (the paper used 1000; tests use fewer
            because the tick-level simulation dominates runtime).
        window: spike window (64 = the paper's 6-bit setting).
        direction_scale: Q of the direction tables (same for both sides).
        magnitude_threshold: T of the magnitude neurons (same for both
            sides).
        rng: randomness for patch generation.

    Returns:
        A :class:`CorrelationReport`.
    """
    if n_cells < 2:
        raise ValueError(f"n_cells must be >= 2, got {n_cells}")
    generator = resolve_rng(rng)
    runner = NApproxCellRunner(
        window=window,
        direction_scale=direction_scale,
        magnitude_threshold=magnitude_threshold,
    )
    software = NApproxDescriptor(
        NApproxConfig(
            quantized=True,
            window=window,
            direction_scale=direction_scale,
            magnitude_threshold=magnitude_threshold,
        )
    )

    patches = np.stack([random_cell_patch(generator) for _ in range(n_cells)])
    hw = runner.extract_batch(patches).ravel()
    sw = np.stack([software.cell_histogram(patch) for patch in patches]).ravel()
    if hw.std() == 0.0 or sw.std() == 0.0:
        correlation = 1.0 if np.array_equal(hw, sw) else 0.0
    else:
        correlation = float(np.corrcoef(hw, sw)[0, 1])
    return CorrelationReport(
        correlation=correlation,
        mean_absolute_error=float(np.abs(hw - sw).mean()),
        exact_match_fraction=float((hw == sw).mean()),
        n_cells=n_cells,
    )


def random_cell_patch(rng: RngLike = None) -> np.ndarray:
    """A 10x10 test patch: an oriented ramp plus speckle noise in [0, 1]."""
    generator = resolve_rng(rng)
    angle = generator.uniform(0.0, 2.0 * np.pi)
    strength = generator.uniform(0.2, 1.0)
    ys, xs = np.mgrid[0:10, 0:10] / 9.0
    ramp = np.cos(angle) * xs - np.sin(angle) * ys
    ramp = (ramp - ramp.min()) / max(float(ramp.max() - ramp.min()), 1e-9)
    noise = generator.normal(0.0, 0.05, size=(10, 10))
    offset = generator.uniform(-0.2, 0.2)
    return np.clip(strength * ramp + noise + 0.5 - strength / 2 + offset, 0.0, 1.0)


__all__ = ["CorrelationReport", "correlate_corelet_vs_software", "random_cell_patch"]
