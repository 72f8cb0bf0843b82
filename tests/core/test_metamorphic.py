"""Metamorphic invariance suite for the serving stack.

One parametrized harness runs every property against the serving path —
the exact scan:

* advisor level: recommendations are invariant under dataset **row
  permutation** (column statistics are order-free), **column permutation**
  (the vertex feature layout moves, but the learned metric keeps the
  recommendation stable) and **duplicate-query batching** (batched serving
  must agree with itself and with single-query serving);
* index level: KNN rankings are invariant under a **global embedding
  translation** (Euclidean distances are translation-free).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig
from repro.core.serving import ExactIndex
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.db.schema import Dataset
from repro.db.table import Table
from repro.testbed.scores import DatasetLabel

MODELS = ("A", "B", "C")
PATHS = ("exact",)


# ----------------------------------------------------------------------
# Dataset transformations (the metamorphic relations)
# ----------------------------------------------------------------------
def permute_rows(dataset: Dataset, seed: int) -> Dataset:
    """Jointly permute the data-column rows of every table."""
    rng = np.random.default_rng(seed)
    tables = []
    for name, table in dataset.tables.items():
        perm = rng.permutation(table.num_rows)
        data = set(table.data_columns())
        tables.append(Table(name, {
            c: (v[perm] if c in data else v)
            for c, v in table.columns.items()}))
    return Dataset(dataset.name, tables, dataset.foreign_keys)


def permute_columns(dataset: Dataset, seed: int) -> Dataset:
    """Reorder the data columns of every table (contents untouched)."""
    rng = np.random.default_rng(seed)
    tables = []
    for name, table in dataset.tables.items():
        data = table.data_columns()
        shuffled = [data[i] for i in rng.permutation(len(data))]
        keys = [c for c in table.columns if c not in data]
        tables.append(Table(name, {c: table.columns[c]
                                   for c in keys + shuffled}))
    return Dataset(dataset.name, tables, dataset.foreign_keys)


# ----------------------------------------------------------------------
# The serving paths
# ----------------------------------------------------------------------
def path_config(path: str) -> AutoCEConfig:
    if path != "exact":
        raise ValueError(path)
    return AutoCEConfig(hidden_dim=16, embedding_dim=8, knn_k=3,
                        use_incremental=False,
                        dml=DMLConfig(epochs=3, batch_size=8), seed=0)


@pytest.fixture(scope="module")
def corpus():
    datasets = [
        generate_dataset(random_spec(2000 + i, ranges={"num_tables": (1, 4)}))
        for i in range(36)
    ]
    labels = []
    for i in range(36):
        qerr = {0: [1.1, 3.0, 6.0], 1: [6.0, 1.1, 3.0],
                2: [3.0, 6.0, 1.1]}[i % 3]
        labels.append(DatasetLabel(MODELS, qerr, [0.001, 0.002, 0.003]))
    return datasets, labels


@pytest.fixture(scope="module")
def advisors(corpus):
    """One fitted advisor per serving path (identical weights: same seed)."""
    datasets, labels = corpus
    built = {}
    for path in PATHS:
        advisor = AutoCE(path_config(path))
        advisor.fit(datasets, labels)
        built[path] = advisor
    # Every path must actually run the machinery it names.
    assert isinstance(built["exact"].rcs.index, ExactIndex)
    return built


def recommendation_view(rec):
    """The externally observable recommendation: winner + full ranking."""
    return rec.model, [name for name, _ in rec.ranking()]


# ----------------------------------------------------------------------
# Advisor-level invariances
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", PATHS)
class TestRecommendationInvariance:
    def test_row_permutation(self, advisors, corpus, path):
        advisor = advisors[path]
        queries = corpus[0][:6]
        base = advisor.recommend_batch(queries, 0.9)
        permuted = advisor.recommend_batch(
            [permute_rows(d, 7 + i) for i, d in enumerate(queries)], 0.9)
        for a, b in zip(base, permuted):
            assert recommendation_view(a) == recommendation_view(b)

    def test_column_permutation(self, advisors, corpus, path):
        advisor = advisors[path]
        queries = corpus[0][:6]
        base = advisor.recommend_batch(queries, 0.9)
        permuted = advisor.recommend_batch(
            [permute_columns(d, 11 + i) for i, d in enumerate(queries)], 0.9)
        for a, b in zip(base, permuted):
            assert recommendation_view(a) == recommendation_view(b)

    def test_duplicate_query_batching(self, advisors, corpus, path):
        advisor = advisors[path]
        unique = corpus[0][:4]
        pattern = [0, 1, 0, 2, 3, 1, 0, 2]
        batched = advisor.recommend_batch([unique[i] for i in pattern], 0.9)
        singles = advisor.recommend_batch(unique, 0.9)
        for position, i in enumerate(pattern):
            a, b = batched[position], singles[i]
            assert recommendation_view(a) == recommendation_view(b)
            np.testing.assert_array_equal(a.neighbor_indices,
                                          b.neighbor_indices)
            np.testing.assert_array_equal(a.score_vector, b.score_vector)

    def test_single_and_batched_serving_agree(self, advisors, corpus, path):
        advisor = advisors[path]
        queries = corpus[0][:4]
        batched = advisor.recommend_batch(queries, 0.9)
        for dataset, b in zip(queries, batched):
            a = advisor.recommend(dataset, 0.9)
            assert recommendation_view(a) == recommendation_view(b)
            np.testing.assert_array_equal(a.neighbor_indices,
                                          b.neighbor_indices)


# ----------------------------------------------------------------------
# Index-level invariance: global embedding translation
# ----------------------------------------------------------------------
def family_cloud(seed: int = 0, families: int = 64, per_family: int = 24,
                 dim: int = 16):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(families, dim)) * 4.0
    members = (centers[:, None, :]
               + 0.25 * rng.normal(size=(families, per_family, dim))
               ).reshape(-1, dim)
    queries = members[::per_family] + 0.05 * rng.normal(size=(families, dim))
    return members, queries


def make_searcher(path: str, members: np.ndarray):
    if path != "exact":
        raise ValueError(path)
    index = ExactIndex()
    index.rebuild(members)
    return lambda queries, k: index.search(queries, members, k)


@pytest.mark.parametrize("path", PATHS)
def test_translation_invariance_of_knn_rankings(path):
    members, queries = family_cloud()
    shift = np.random.default_rng(42).normal(size=members.shape[1]) * 3.0
    base_idx, base_dist = make_searcher(path, members)(queries, 5)
    moved_idx, moved_dist = make_searcher(path, members + shift)(
        queries + shift, 5)
    np.testing.assert_array_equal(base_idx, moved_idx)
    # Distances are translation-free too, up to Gram-identity cancellation
    # noise on the shifted coordinates.
    np.testing.assert_allclose(base_dist, moved_dist, rtol=1e-5, atol=1e-7)
