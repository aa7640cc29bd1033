"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import default_rng, derive_seed


class TestDefaultRng:
    def test_returns_generator_from_int(self):
        rng = default_rng(42)
        assert isinstance(rng, np.random.Generator)

    def test_same_seed_same_stream(self):
        a = default_rng(7).random(5)
        b = default_rng(7).random(5)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = default_rng(7).random(5)
        b = default_rng(8).random(5)
        assert not np.allclose(a, b)

    def test_passthrough_of_existing_generator(self):
        rng = np.random.default_rng(3)
        assert default_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(default_rng(None), np.random.Generator)


class TestDeriveSeed:
    def test_none_propagates(self):
        assert derive_seed(None, 3) is None

    def test_deterministic(self):
        assert derive_seed(10, 3) == derive_seed(10, 3)

    def test_different_salts_differ(self):
        assert derive_seed(10, 3) != derive_seed(10, 4)

    def test_different_seeds_differ(self):
        assert derive_seed(10, 3) != derive_seed(11, 3)

    def test_result_non_negative(self):
        assert derive_seed(123456, 789) >= 0
