"""Daemon-side serving helpers.

:mod:`~repro.serving.batching` coalesces the ``repro serve --daemon``
stdin stream into micro-batches, so concurrent callers share one
batched ``recommend_batch`` call.  See ``docs/serving.md``.
"""

from .batching import BatchingConfig, iter_batches

__all__ = ["BatchingConfig", "iter_batches"]
