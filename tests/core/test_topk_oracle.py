"""Oracle tests for the exact serving path.

``reference_top_k_neighbors`` is the full-width mask/cumsum selection the
serving kernel used for every row before only boundary-tied rows took it;
``top_k_neighbors`` must return identical indices on random, heavily tied
and all-equal rows.  :class:`ExactIndex` caches member norms, and must
return the bytes :func:`exact_search` returns — after a rebuild, after
adds that grow its buffers, after ``replace_embeddings``, and on every
precision-tier pairing of queries and members.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serving import (ExactIndex, RecommendationCandidateSet,
                                exact_search, top_k_neighbors)
from repro.testbed.scores import ScoreLabel

N = 48
DTYPES = (np.float32, np.float64)


def reference_top_k_neighbors(distances: np.ndarray, k: int) -> np.ndarray:
    """Every row through full [Q, N] masks and a cumsum (the old kernel)."""
    distances = np.atleast_2d(distances)
    q, n = distances.shape
    k = min(k, n)
    if k >= n:
        part = np.broadcast_to(np.arange(n), (q, n))
        order = np.lexsort((part, distances), axis=1)
        return np.take_along_axis(np.ascontiguousarray(part), order, axis=1)
    part = np.argpartition(distances, k - 1, axis=1)[:, :k]
    boundary = np.take_along_axis(distances, part, axis=1).max(
        axis=1, keepdims=True)
    closer = distances < boundary
    need = k - closer.sum(axis=1)
    ties = distances == boundary
    tie_rank = np.cumsum(ties, axis=1)
    selected = closer | (ties & (tie_rank <= need[:, None]))
    idx = np.nonzero(selected)[1].reshape(q, k)
    order = np.lexsort((idx, np.take_along_axis(distances, idx, axis=1)),
                       axis=1)
    return np.take_along_axis(idx, order, axis=1)


def distance_rows(kind: str, q: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = rng.random((q, N))
    if kind == "rounded":
        return np.round(rows * 4.0) / 4.0          # five values: heavy ties
    if kind == "all-equal":
        return np.full((q, N), 0.5)
    return rows


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", [1, 2, 5, N - 1, N, N + 3])
@pytest.mark.parametrize("q", [1, 3, 512])
@pytest.mark.parametrize("kind", ["random", "rounded", "all-equal"])
def test_top_k_matches_the_reference(kind, q, k, dtype):
    distances = distance_rows(kind, q, seed=q * 101 + k).astype(dtype)
    got = top_k_neighbors(distances, k)
    want = reference_top_k_neighbors(distances, k)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_mixed_tied_and_untied_rows_in_one_batch():
    distances = distance_rows("random", 64, seed=5)
    distances[::3] = np.round(distances[::3] * 3.0) / 3.0
    for k in (1, 4, 9):
        np.testing.assert_array_equal(top_k_neighbors(distances, k),
                                      reference_top_k_neighbors(distances, k))


# ----------------------------------------------------------------------
# ExactIndex: cached norms, the bytes of exact_search
# ----------------------------------------------------------------------
def cloud(n: int, dim: int, dtype, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, dim)) * 3.0).astype(dtype)


def labels(n: int) -> list[ScoreLabel]:
    rng = np.random.default_rng(n)
    return [ScoreLabel(("A", "B"), rng.random(2), rng.random(2))
            for _ in range(n)]


def assert_same_bytes(got, want) -> None:
    (gi, gd), (wi, wd) = got, want
    np.testing.assert_array_equal(gi, wi)
    assert gd.dtype == wd.dtype
    assert gd.tobytes() == wd.tobytes()


TIERS = [(np.float64, np.float64), (np.float32, np.float32),
         (np.float32, np.float64), (np.float64, np.float32)]


@pytest.mark.parametrize("member_dtype,query_dtype", TIERS)
class TestExactIndexMatchesExactSearch:
    def test_after_rebuild(self, member_dtype, query_dtype):
        members = cloud(300, 24, member_dtype, seed=1)
        queries = cloud(17, 24, query_dtype, seed=2)
        index = ExactIndex()
        index.rebuild(members)
        for k in (1, 5, 300):
            assert_same_bytes(index.search(queries, members, k),
                              exact_search(queries, members, k))

    def test_after_adds_that_grow_the_buffer(self, member_dtype,
                                             query_dtype):
        members = cloud(200, 24, member_dtype, seed=3)
        queries = cloud(9, 24, query_dtype, seed=4)
        rcs = RecommendationCandidateSet(members[:3], labels(3))
        for i, row in enumerate(members[3:], start=3):
            rcs.add(row, labels(1)[0])
            if i in (4, 7, 31, 64, 199):
                assert_same_bytes(rcs.search(queries, 5),
                                  exact_search(queries, rcs.embeddings, 5))
        # The standalone index grows its own norm buffer the same way.
        index = ExactIndex()
        for row in members:
            index.add(row)
        assert_same_bytes(index.search(queries, members, 5),
                          exact_search(queries, members, 5))

    def test_after_replace_embeddings(self, member_dtype, query_dtype):
        rcs = RecommendationCandidateSet(cloud(120, 16, member_dtype, 5),
                                         labels(120))
        queries = cloud(6, 16, query_dtype, seed=6)
        retrained = cloud(120, 16, member_dtype, seed=7)
        rcs.replace_embeddings(retrained)
        assert_same_bytes(rcs.search(queries, 5),
                          exact_search(queries, retrained, 5))


def test_heavily_tied_members_keep_the_lowest_index():
    members = np.repeat(np.eye(4), 12, axis=0)             # 48 rows, 4 values
    queries = np.vstack([np.eye(4), np.full((1, 4), 0.25)])
    index = ExactIndex()
    index.rebuild(members)
    for k in (1, 5, 12, 13, 47):
        assert_same_bytes(index.search(queries, members, k),
                          exact_search(queries, members, k))


def test_unannounced_length_change_rebuilds_the_norms():
    members = cloud(64, 8, np.float64, seed=8)
    queries = cloud(4, 8, np.float64, seed=9)
    index = ExactIndex()
    index.rebuild(members[:10])
    assert_same_bytes(index.search(queries, members, 5),
                      exact_search(queries, members, 5))
