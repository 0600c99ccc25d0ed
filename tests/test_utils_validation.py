"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_shape,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1e-9)

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive("x", -3)


class TestCheckInRange:
    def test_bounds_inclusive(self):
        check_in_range("v", 0.0, 0.0, 1.0)
        check_in_range("v", 1.0, 0.0, 1.0)

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range("v", 1.01, 0.0, 1.0)


class TestCheckShape:
    def test_exact_match(self):
        check_shape("a", np.zeros((2, 3)), (2, 3))

    def test_wildcard(self):
        check_shape("a", np.zeros((2, 7)), (2, -1))

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            check_shape("a", np.zeros((2, 3)), (2, 3, 1))

    def test_extent_mismatch(self):
        with pytest.raises(ValueError):
            check_shape("a", np.zeros((2, 3)), (3, 3))
