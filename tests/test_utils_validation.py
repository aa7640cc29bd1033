"""Tests for repro.utils.validation and the oracles' probability checks."""

import numpy as np
import pytest

from oracles.validation import (
    check_probability,
    check_probability_vector,
    clamp_probability,
)
from repro.utils.validation import normalise


class TestCheckProbability:
    def test_valid_value_passes_through(self):
        assert check_probability(0.4) == pytest.approx(0.4)

    def test_boundaries(self):
        assert check_probability(0.0) == 0.0
        assert check_probability(1.0) == 1.0

    def test_tiny_overshoot_clipped(self):
        assert check_probability(1.0 + 1e-12) == 1.0
        assert check_probability(-1e-12) == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            check_probability(1.5)
        with pytest.raises(ValueError):
            check_probability(-0.2)

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            check_probability(float("nan"))


class TestCheckProbabilityVector:
    def test_valid_vector(self):
        out = check_probability_vector([0.2, 0.3, 0.5])
        assert np.allclose(out, [0.2, 0.3, 0.5])

    def test_sum_not_one_raises(self):
        with pytest.raises(ValueError):
            check_probability_vector([0.2, 0.2])

    def test_negative_entry_raises(self):
        with pytest.raises(ValueError):
            check_probability_vector([1.2, -0.2])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            check_probability_vector([])

    def test_two_dimensional_raises(self):
        with pytest.raises(ValueError):
            check_probability_vector(np.ones((2, 2)) / 4)


class TestNormalise:
    def test_basic(self):
        assert np.allclose(normalise([1.0, 3.0]), [0.25, 0.75])

    def test_already_normalised(self):
        assert np.allclose(normalise([0.5, 0.5]), [0.5, 0.5])

    def test_all_zero_gives_uniform(self):
        assert np.allclose(normalise([0.0, 0.0, 0.0, 0.0]), [0.25] * 4)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            normalise([1.0, -1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            normalise([])

    def test_result_sums_to_one(self):
        out = normalise([0.1, 7.3, 2.2, 0.4])
        assert out.sum() == pytest.approx(1.0)


class TestClampProbability:
    def test_inside_unchanged(self):
        assert clamp_probability(0.3) == pytest.approx(0.3)

    def test_zero_is_floored(self):
        assert clamp_probability(0.0) > 0.0

    def test_one_is_capped(self):
        assert clamp_probability(1.0) < 1.0

    def test_custom_floor(self):
        assert clamp_probability(0.0, floor=0.01) == pytest.approx(0.01)
