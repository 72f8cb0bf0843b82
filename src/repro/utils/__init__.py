"""Shared utilities: deterministic RNG handling, disk caching."""

from .rng import spawn_rng, rng_from_seed
from .cache import DiskCache, stable_hash

__all__ = ["spawn_rng", "rng_from_seed", "DiskCache", "stable_hash"]
