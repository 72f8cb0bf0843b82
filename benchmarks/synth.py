"""Shared synthetic labeled corpus for the fast-path benchmarks.

Used by both ``bench_micro.py`` (pytest-benchmark throughput benches) and
``run_benchmarks.py`` (before/after runner), so the two surfaces always
describe the same workload.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import FeatureGraph
from repro.testbed.scores import DatasetLabel

MODELS = ("A", "B", "C")


def synthetic_corpus(n: int, dim: int = 57, seed: int = 0):
    """Labeled feature graphs with 1–5 tables (no testbed labeling needed).

    ``dim=57`` matches ``vertex_dimension(max_columns=5)``, the paper's
    default feature layout.
    """
    rng = np.random.default_rng(seed)
    graphs, labels = [], []
    for i in range(n):
        tables = int(rng.integers(1, 6))
        vertices = rng.normal(size=(tables, dim))
        edges = np.zeros((tables, tables))
        for t in range(1, tables):
            edges[t - 1, t] = rng.uniform(0.2, 1.0)
        graphs.append(FeatureGraph(f"bench{i}", vertices, edges))
        labels.append(DatasetLabel(MODELS, rng.uniform(1, 10, 3),
                                   rng.uniform(0.001, 0.01, 3)))
    return graphs, labels
