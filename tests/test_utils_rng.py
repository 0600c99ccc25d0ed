"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import resolve_rng, spawn_generators


class TestResolveRng:
    def test_none_returns_generator(self):
        assert isinstance(resolve_rng(None), np.random.Generator)

    def test_seed_is_deterministic(self):
        a = resolve_rng(42).integers(0, 1000, 10)
        b = resolve_rng(42).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = resolve_rng(1).integers(0, 10**9)
        b = resolve_rng(2).integers(0, 10**9)
        assert a != b

    def test_generator_passthrough_shares_state(self):
        generator = np.random.default_rng(0)
        same = resolve_rng(generator)
        assert same is generator

    def test_numpy_integer_seed_accepted(self):
        assert isinstance(resolve_rng(np.int64(7)), np.random.Generator)

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            resolve_rng("not a seed")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            resolve_rng(1.5)


class TestSpawnGenerators:
    def test_same_seed_gives_identical_streams(self):
        first = spawn_generators(9, 4)
        second = spawn_generators(9, 4)
        for a, b in zip(first, second):
            assert np.array_equal(a.integers(0, 10**9, 8), b.integers(0, 10**9, 8))

    def test_lanes_are_mutually_independent(self):
        lanes = spawn_generators(9, 8)
        draws = {tuple(lane.integers(0, 10**12, 4)) for lane in lanes}
        assert len(draws) == 8

    def test_generator_parent_spawns_fresh_children(self):
        parent = np.random.default_rng(0)
        first = spawn_generators(parent, 2)
        second = spawn_generators(parent, 2)
        a = first[0].integers(0, 10**12, 4)
        b = second[0].integers(0, 10**12, 4)
        assert not np.array_equal(a, b)

    def test_zero_lanes(self):
        assert spawn_generators(0, 0) == []

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            spawn_generators("seed", 2)
