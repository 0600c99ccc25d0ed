"""Small measurement helpers shared by the workloads.

Everything here reads the program's public observability surfaces: the
process metrics registry (``repro.obs.get_registry()``), whose
``hw_*_total`` counters every engine run bumps through
``repro.obs.hwcounters.record_run``, and a service's
``stats.snapshot()``.
"""

import hashlib
import statistics
from typing import Dict, Iterable, List, Sequence

import numpy as np

#: ``hw_*_total`` registry counters that make up one simulated ledger.
LEDGER_COUNTERS = (
    "spikes",
    "synaptic_events",
    "router_hops",
    "active_core_ticks",
    "membrane_updates",
)

#: Neurons integrated per core per tick (one membrane update each).
NEURONS_PER_CORE = 256

#: Service counters that must stay zero in a healthy run.
FAILURE_COUNTERS = (
    "failed",
    "degraded",
    "expired_before_batch",
    "expired_after_batch",
    "rejected_queue_full",
    "rejected_closed",
    "worker_deaths",
)


def ledger(registry) -> Dict[str, int]:
    """Current ``hw_*_total`` counter values of ``registry``."""
    out = {}
    for name in LEDGER_COUNTERS:
        metric = registry.get(f"hw_{name}_total")
        out[name] = int(metric.value) if metric is not None else 0
    return out


def ledger_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    """Counter growth between two :func:`ledger` reads."""
    return {name: after[name] - before[name] for name in after}


def core_ticks(led: Dict[str, int]) -> int:
    """(core, tick) pairs simulated, summed over lanes."""
    return led["membrane_updates"] // NEURONS_PER_CORE


def ledger_energy_joules(led: Dict[str, int]) -> float:
    """Simulated energy of a ledger, exactly as the program charges it.

    ``activity_energy_joules`` is linear in its counts: each lane pays
    the static floor for ``cores * ticks`` core-ticks plus its spike and
    synaptic-event energy. Summed over lanes that is one call with the
    total core-ticks as ``ticks`` on a single core. Computing it from
    integer counts makes the figure independent of the order in which
    the service happened to add up per-request floats.
    """
    from repro.truenorth.energy import activity_energy_joules

    ticks = core_ticks(led)
    if ticks == 0:
        return 0.0
    return float(
        activity_energy_joules(
            led["spikes"], led["synaptic_events"], ticks=ticks, cores=1
        )
    )


def accounting_problems(counters: Dict[str, int], expected: int) -> List[str]:
    """Why a service's counters do not account for ``expected`` requests."""
    problems = []
    submitted = counters.get("submitted", 0)
    completed = counters.get("completed", 0)
    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    if submitted != expected:
        problems.append(f"submitted {submitted} requests, expected {expected}")
    if completed != expected:
        problems.append(f"completed {completed} requests, expected {expected}")
    if lookups != submitted:
        problems.append(f"{lookups} cache lookups for {submitted} requests")
    for name in FAILURE_COUNTERS:
        if counters.get(name, 0):
            problems.append(f"service counter {name} = {counters[name]}")
    return problems


#: Percentiles a tail metric may report, low to high.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(n: int, beyond_at_least: int = 10) -> float:
    """Highest :data:`LADDER` percentile with enough samples above it.

    A tail figure of ``n`` samples is only as good as the samples beyond
    it; this picks the highest percentile that keeps at least
    ``beyond_at_least`` of them (the median when none does).
    """
    usable = [q for q in LADDER if beyond(n, q) >= beyond_at_least]
    return usable[-1] if usable else LADDER[0]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation), 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def beyond(n: int, q: float) -> int:
    """Samples above the ``q``-th percentile of ``n`` samples."""
    return int(n * (100.0 - q) / 100.0)


def median(values: Iterable[float]) -> float:
    """Median of ``values`` (0.0 when empty)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def digest(parts: Iterable) -> str:
    """Short stable digest of a sequence of reprs or arrays."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


__all__ = [
    "LADDER",
    "accounting_problems",
    "beyond",
    "core_ticks",
    "digest",
    "ledger",
    "ledger_delta",
    "ledger_energy_joules",
    "median",
    "percentile",
    "tail_percentile",
]
