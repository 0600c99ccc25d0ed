"""Core-to-chip placement for multi-chip deployments.

Table 2's NApprox design needs ~650 chips; placement determines how many
routes cross chip boundaries — off-chip hops cost extra latency and
energy on the real interconnect. This module provides:

- :func:`sequential_placement` — cores packed in allocation order (the
  baseline a naive compiler produces);
- :func:`grouped_placement` — cores packed so that each corelet/module
  stays on one chip where possible (the deployment the paper's
  replicated cell modules imply);
- :class:`PlacementReport` — per-placement chip count and inter-chip
  route statistics.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.truenorth.power import CHIP_CORES
from repro.truenorth.system import NeurosynapticSystem


@dataclass(frozen=True)
class PlacementReport:
    """Outcome of placing a system onto chips.

    Attributes:
        assignment: ``core_id -> chip index``.
        chips: chips used.
        total_routes: routes in the system.
        inter_chip_routes: routes whose endpoints sit on different chips.
    """

    assignment: Dict[int, int]
    chips: int
    total_routes: int
    inter_chip_routes: int


def _audit(
    system: NeurosynapticSystem, assignment: Dict[int, int]
) -> PlacementReport:
    routes = system.router.routes
    crossing = sum(
        1
        for route in routes
        if assignment[route.src_core] != assignment[route.dst_core]
    )
    chips = len(set(assignment.values())) if assignment else 0
    return PlacementReport(
        assignment=dict(assignment),
        chips=chips,
        total_routes=len(routes),
        inter_chip_routes=crossing,
    )


def sequential_placement(
    system: NeurosynapticSystem, cores_per_chip: int = CHIP_CORES
) -> PlacementReport:
    """Pack cores onto chips in allocation order.

    Args:
        system: the system to place.
        cores_per_chip: chip capacity (4096 on TrueNorth).

    Returns:
        A :class:`PlacementReport`.
    """
    if cores_per_chip < 1:
        raise ValueError(f"cores_per_chip must be >= 1, got {cores_per_chip}")
    assignment = {
        core.core_id: index // cores_per_chip
        for index, core in enumerate(system.cores)
    }
    return _audit(system, assignment)


def grouped_placement(
    system: NeurosynapticSystem,
    groups: Sequence[Sequence[int]],
    cores_per_chip: int = CHIP_CORES,
) -> PlacementReport:
    """Pack cores group by group, never splitting a group across chips.

    Groups are typically corelet footprints (``BuiltCorelet.core_ids``):
    keeping a module's cores co-resident removes its internal routes from
    the chip-to-chip interconnect.

    Args:
        system: the system to place.
        groups: disjoint core-id groups; cores not covered by any group
            are appended as singleton groups.
        cores_per_chip: chip capacity.

    Returns:
        A :class:`PlacementReport`.

    Raises:
        ValueError: if a group exceeds one chip, or groups overlap.
    """
    if cores_per_chip < 1:
        raise ValueError(f"cores_per_chip must be >= 1, got {cores_per_chip}")
    seen: set = set()
    work: List[Tuple[int, ...]] = []
    for group in groups:
        ids = tuple(group)
        if len(ids) > cores_per_chip:
            raise ValueError(
                f"group of {len(ids)} cores exceeds chip capacity {cores_per_chip}"
            )
        overlap = seen.intersection(ids)
        if overlap:
            raise ValueError(f"cores {sorted(overlap)} appear in multiple groups")
        seen.update(ids)
        work.append(ids)
    for core in system.cores:
        if core.core_id not in seen:
            work.append((core.core_id,))

    assignment: Dict[int, int] = {}
    chip = 0
    used = 0
    for ids in work:
        if used + len(ids) > cores_per_chip:
            chip += 1
            used = 0
        for core_id in ids:
            assignment[core_id] = chip
        used += len(ids)
    return _audit(system, assignment)


def apply_best_placement(
    system: NeurosynapticSystem,
    groups: Optional[Sequence[Sequence[int]]] = None,
    cores_per_chip: int = CHIP_CORES,
) -> PlacementReport:
    """Choose :func:`best_placement` and pin it onto the system.

    Engines compiled after this call account intra- vs cross-chip hops
    against the applied assignment.
    """
    report = best_placement(system, groups, cores_per_chip)
    system.apply_placement(report)
    return report


def best_placement(
    system: NeurosynapticSystem,
    groups: Optional[Sequence[Sequence[int]]] = None,
    cores_per_chip: int = CHIP_CORES,
) -> PlacementReport:
    """The better of sequential and grouped placement by crossing count."""
    sequential = sequential_placement(system, cores_per_chip)
    if groups is None:
        return sequential
    grouped = grouped_placement(system, groups, cores_per_chip)
    if grouped.inter_chip_routes <= sequential.inter_chip_routes:
        return grouped
    return sequential


__all__ = [
    "PlacementReport",
    "apply_best_placement",
    "best_placement",
    "grouped_placement",
    "sequential_placement",
]
