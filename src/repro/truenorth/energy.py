"""Activity-proportional energy accounting.

Table 2 uses the nominal 16 uW/core figure, which folds typical activity
into a constant. The real chip's power splits into a static leakage
floor plus dynamic energy per active-neuron event and per synaptic event
(Cassidy et al. 2013 report ~26 pJ per synaptic event at 0.775 V; the
static floor dominates at low activity). This module exposes that split
so simulated workloads can be charged by their *measured* spike
activity, and calibrates the constants so that a typical-activity core
lands on the paper's 16 uW.
"""

from dataclasses import dataclass

import numpy as np

from repro.truenorth.power import CORE_POWER_WATTS, TICK_SECONDS
from repro.truenorth.simulator import SimulationResult

SYNAPTIC_EVENT_JOULES = 26e-12
"""Energy per synaptic event (~26 pJ, Cassidy et al. 2013)."""

SPIKE_EVENT_JOULES = 2.6e-10
"""Energy per neuron firing (integration + routing), ~10 synaptic events."""

TYPICAL_ACTIVE_SYNAPSES_PER_CORE_PER_TICK = 400.0
"""Calibration activity: with this many synaptic events per tick, a core
plus its firing neurons draws the nominal 16 uW."""

STATIC_CORE_WATTS = (
    CORE_POWER_WATTS
    - TYPICAL_ACTIVE_SYNAPSES_PER_CORE_PER_TICK * SYNAPTIC_EVENT_JOULES / TICK_SECONDS
    - (TYPICAL_ACTIVE_SYNAPSES_PER_CORE_PER_TICK / 100.0)
    * SPIKE_EVENT_JOULES
    / TICK_SECONDS
)
"""Static (leakage + clocking) power per core, the calibrated remainder."""


@dataclass(frozen=True)
class EnergyEstimate:
    """Energy of one simulated run.

    Attributes:
        static_joules: leakage/clocking energy over the run's duration.
        dynamic_joules: spike- and synapse-event energy.
        total_joules: their sum.
        average_watts: total energy / duration.
    """

    static_joules: float
    dynamic_joules: float
    total_joules: float
    average_watts: float


def estimate_energy(
    result: SimulationResult,
    cores: int,
    synaptic_events: float = 0.0,
) -> EnergyEstimate:
    """Charge a simulation run for its activity.

    Args:
        result: the run (ticks and total spike count).
        cores: cores in the simulated system.
        synaptic_events: total synaptic events, when known; defaults to
            100 events per spike (a dense-crossbar heuristic).

    Returns:
        An :class:`EnergyEstimate`.
    """
    if cores < 0:
        raise ValueError(f"cores must be >= 0, got {cores}")
    if result.ticks <= 0:
        raise ValueError("the run must cover at least one tick")
    duration = result.ticks * TICK_SECONDS
    if synaptic_events <= 0.0:
        synaptic_events = 100.0 * result.total_spikes
    static = STATIC_CORE_WATTS * cores * duration
    dynamic = (
        result.total_spikes * SPIKE_EVENT_JOULES
        + synaptic_events * SYNAPTIC_EVENT_JOULES
    )
    total = static + dynamic
    return EnergyEstimate(
        static_joules=static,
        dynamic_joules=dynamic,
        total_joules=total,
        average_watts=total / duration,
    )


def activity_energy_joules(spikes, synaptic_events, ticks: int, cores: int):
    """Energy of one run lane from exact hardware counters.

    The per-lane formula behind per-request attribution: a lane occupies
    every core for ``ticks`` ticks, so it pays the full static floor
    plus its own dynamic spike and synaptic-event energy.

    Args:
        spikes: neuron firings — a scalar or a per-lane array.
        synaptic_events: synaptic events, broadcastable with ``spikes``.
        ticks: ticks the lane ran for (must be >= 1).
        cores: cores in the simulated system.

    Returns:
        Total joules, with the broadcast shape of the activity inputs
        (a numpy scalar for scalar inputs).
    """
    if ticks <= 0:
        raise ValueError(f"ticks must be >= 1, got {ticks}")
    if cores < 0:
        raise ValueError(f"cores must be >= 0, got {cores}")
    static = STATIC_CORE_WATTS * cores * ticks * TICK_SECONDS
    return (
        static
        + np.asarray(spikes, dtype=np.float64) * SPIKE_EVENT_JOULES
        + np.asarray(synaptic_events, dtype=np.float64) * SYNAPTIC_EVENT_JOULES
    )


def nominal_energy(cores: int, ticks: int) -> float:
    """The constant-power (Table 2) energy for comparison: 16 uW x time."""
    if cores < 0 or ticks < 0:
        raise ValueError("cores and ticks must be >= 0")
    return CORE_POWER_WATTS * cores * ticks * TICK_SECONDS


__all__ = [
    "EnergyEstimate",
    "SPIKE_EVENT_JOULES",
    "STATIC_CORE_WATTS",
    "SYNAPTIC_EVENT_JOULES",
    "activity_energy_joules",
    "estimate_energy",
    "nominal_energy",
]
