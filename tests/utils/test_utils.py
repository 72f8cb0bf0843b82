"""Utility modules: RNG plumbing, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import rng_from_seed, spawn_rng
from repro.utils.validation import require, require_in_range


class TestRng:
    def test_seed_deterministic(self):
        assert rng_from_seed(7).integers(0, 100) == rng_from_seed(7).integers(0, 100)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert rng_from_seed(gen) is gen

    def test_spawn_differs_by_label(self):
        parent_a = rng_from_seed(1)
        parent_b = rng_from_seed(1)
        child_x = spawn_rng(parent_a, "x")
        child_y = spawn_rng(parent_b, "y")
        assert child_x.integers(0, 1 << 30) != child_y.integers(0, 1 << 30)

    def test_spawn_deterministic(self):
        a = spawn_rng(rng_from_seed(3), "model")
        b = spawn_rng(rng_from_seed(3), "model")
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="nope"):
            require(False, "nope")

    def test_require_in_range(self):
        require_in_range(0.5, 0.0, 1.0, "x")
        with pytest.raises(ValueError, match="x must be"):
            require_in_range(1.5, 0.0, 1.0, "x")
