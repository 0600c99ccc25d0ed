"""Tests for core-to-chip placement."""

import pytest

from repro.truenorth.placement import (
    best_placement,
    grouped_placement,
    sequential_placement,
)
from repro.truenorth.system import NeurosynapticSystem


def _chain_system(n_cores: int) -> NeurosynapticSystem:
    system = NeurosynapticSystem()
    for _ in range(n_cores):
        system.new_core()
    for index in range(n_cores - 1):
        system.add_route(index, 0, index + 1, 0)
    return system


class TestSequential:
    def test_single_chip(self):
        report = sequential_placement(_chain_system(5), cores_per_chip=8)
        assert report.chips == 1
        assert report.inter_chip_routes == 0

    def test_split_counts_crossings(self):
        report = sequential_placement(_chain_system(6), cores_per_chip=3)
        assert report.chips == 2
        # Chain 0-1-2 | 3-4-5: exactly one crossing route (2 -> 3).
        assert report.inter_chip_routes == 1
        assert report.total_routes == 5

    def test_empty_system(self):
        report = sequential_placement(NeurosynapticSystem())
        assert report.chips == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            sequential_placement(_chain_system(2), cores_per_chip=0)


class TestGrouped:
    def test_group_kept_together(self):
        system = _chain_system(6)
        report = grouped_placement(
            system, groups=[(0, 1, 2), (3, 4, 5)], cores_per_chip=3
        )
        assert report.chips == 2
        assert report.inter_chip_routes == 1

    def test_grouping_beats_bad_interleaving(self):
        # Routes 0->3, 1->4, 2->5: sequential split at 3 crosses all.
        system = NeurosynapticSystem()
        for _ in range(6):
            system.new_core()
        for index in range(3):
            system.add_route(index, 0, index + 3, 0)
        sequential = sequential_placement(system, cores_per_chip=3)
        grouped = grouped_placement(
            system, groups=[(0, 3), (1, 4), (2, 5)], cores_per_chip=3
        )
        assert sequential.inter_chip_routes == 3
        assert grouped.inter_chip_routes < 3

    def test_uncovered_cores_become_singletons(self):
        system = _chain_system(4)
        report = grouped_placement(system, groups=[(0, 1)], cores_per_chip=2)
        assert set(report.assignment) == {0, 1, 2, 3}

    def test_oversized_group_rejected(self):
        with pytest.raises(ValueError):
            grouped_placement(_chain_system(4), groups=[(0, 1, 2)], cores_per_chip=2)

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            grouped_placement(_chain_system(4), groups=[(0, 1), (1, 2)])


class TestBest:
    def test_picks_fewer_crossings(self):
        system = NeurosynapticSystem()
        for _ in range(6):
            system.new_core()
        for index in range(3):
            system.add_route(index, 0, index + 3, 0)
        report = best_placement(
            system, groups=[(0, 3), (1, 4), (2, 5)], cores_per_chip=2
        )
        assert report.inter_chip_routes == 0

    def test_defaults_to_sequential(self):
        report = best_placement(_chain_system(3))
        assert report.chips == 1
