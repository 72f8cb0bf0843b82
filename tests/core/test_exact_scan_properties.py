"""Property suite for the exact scan every RCS is searched by.

Each property is checked on both precision tiers (float32 and float64):

* **brute force**: the Gram-identity scan returns the neighbors a direct
  difference-and-norm computation returns;
* **invariances**: the ranking is unchanged by a global translation, a
  coordinate permutation, an orthogonal rotation and a relabelling of
  members or queries; a power-of-two rescaling rescales the distance
  bytes exactly;
* **degenerate corpora**: constant, all-zero, single-member, empty-then-
  grown, narrow and duplicated corpora still serve, ties going to the
  lowest member index;
* **result shape**: ``[Q, min(k, N)]`` indices, unique and in range, with
  non-negative, non-decreasing distances in the corpus' tier;
* **growth**: an RCS grown member by member serves the bytes of one built
  in a single step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serving import (ExactIndex, RecommendationCandidateSet,
                                exact_search)
from repro.testbed.scores import ScoreLabel

SEEDS = range(4)
DTYPES = (np.float32, np.float64)
DIMS = (2, 8, 64)


def random_points(n: int, dim: int, seed: int, dtype=np.float64,
                  scale: float = 10.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, dim)) * scale).astype(dtype)


def separated_clouds(seed: int, dim: int, families: int = 40,
                     per_family: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Float64 families 50 apart with unit spread, and one query per
    seventh member: neighbor gaps far above any rounding noise."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(families, dim)) * 50.0
    members = (centers[:, None, :]
               + rng.normal(size=(families, per_family, dim))
               ).reshape(-1, dim)
    return members, members[::7] + 0.1


def brute_force_distances(queries: np.ndarray,
                          members: np.ndarray) -> np.ndarray:
    """[Q, N] Euclidean distances from explicit differences, in float64."""
    diff = (np.asarray(queries, dtype=np.float64)[:, None, :]
            - np.asarray(members, dtype=np.float64)[None, :, :])
    return np.sqrt((diff * diff).sum(axis=2))


def brute_force(queries: np.ndarray, members: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    distances = brute_force_distances(queries, members)
    nearest = np.argsort(distances, axis=1, kind="stable")[:, :k]
    return nearest, np.take_along_axis(distances, nearest, axis=1)


def scan(members: np.ndarray, queries: np.ndarray,
         k: int) -> tuple[np.ndarray, np.ndarray]:
    index = ExactIndex()
    index.rebuild(members)
    return index.search(queries, members, k)


def labels(n: int, seed: int = 0) -> list[ScoreLabel]:
    rng = np.random.default_rng(seed)
    return [ScoreLabel(("A", "B", "C"), rng.random(3), rng.random(3))
            for _ in range(n)]


def distance_rtol(dtype) -> float:
    return 1e-4 if np.dtype(dtype) == np.float32 else 1e-9


# ----------------------------------------------------------------------
# Agreement with a brute-force scan
# ----------------------------------------------------------------------
class TestAgainstBruteForce:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_float64_scan_matches_brute_force_on_separated_clouds(
            self, seed, dim):
        members, queries = separated_clouds(seed, dim)
        got_idx, got_dist = scan(members, queries, 5)
        want_idx, want_dist = brute_force(queries, members, 5)
        np.testing.assert_array_equal(got_idx, want_idx)
        # The Gram identity cancels ‖x‖² ≈ 50²·d against 2·q·x.
        np.testing.assert_allclose(got_dist, want_dist, rtol=1e-7,
                                   atol=1e-6)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_returned_neighbors_are_a_true_knn(self, seed, dim, dtype):
        """No member left out is nearer than one returned, up to the
        tier's rounding, and each returned distance is that member's."""
        members = random_points(200, dim, seed, dtype)
        queries = random_points(16, dim, seed + 100, dtype)
        k = 5
        got_idx, got_dist = scan(members, queries, k)
        true = brute_force_distances(queries, members)
        kth = np.sort(true, axis=1)[:, k - 1]
        returned = np.take_along_axis(true, got_idx, axis=1)
        slack = 1e-3 * true.max() if dtype == np.float32 else 1e-9
        assert (returned <= kth[:, None] + slack).all()
        np.testing.assert_allclose(got_dist, returned,
                                   rtol=distance_rtol(dtype),
                                   atol=slack)


# ----------------------------------------------------------------------
# Ranking invariances
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
class TestRankingInvariances:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_translation_leaves_the_ranking_invariant(self, seed, dtype):
        members = random_points(160, 8, seed)
        queries = random_points(12, 8, seed + 1)
        shift = np.random.default_rng(seed + 2).normal(size=8) * 3.0
        base_idx, base_dist = scan(members.astype(dtype),
                                   queries.astype(dtype), 5)
        moved_idx, moved_dist = scan((members + shift).astype(dtype),
                                     (queries + shift).astype(dtype), 5)
        np.testing.assert_array_equal(base_idx, moved_idx)
        np.testing.assert_allclose(base_dist, moved_dist,
                                   rtol=distance_rtol(dtype), atol=1e-3)

    @pytest.mark.parametrize("factor", [0.25, 0.5, 2.0, 4.0])
    def test_power_of_two_rescaling_rescales_distances_exactly(
            self, factor, dtype):
        """Every step of the scan commutes with an exact power-of-two
        rescaling, so the distance bytes scale and the indices stay."""
        members = random_points(96, 16, 5, dtype)
        queries = random_points(9, 16, 6, dtype)
        base_idx, base_dist = scan(members, queries, 7)
        scaled = np.asarray(factor, dtype=dtype)
        got_idx, got_dist = scan(members * scaled, queries * scaled, 7)
        np.testing.assert_array_equal(got_idx, base_idx)
        assert got_dist.dtype == np.dtype(dtype)
        assert got_dist.tobytes() == (base_dist * scaled).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_coordinate_permutation_leaves_the_ranking_invariant(
            self, seed, dtype):
        members = random_points(150, 12, seed, dtype)
        queries = random_points(10, 12, seed + 1, dtype)
        order = np.random.default_rng(seed + 2).permutation(12)
        base_idx, base_dist = scan(members, queries, 5)
        got_idx, got_dist = scan(members[:, order], queries[:, order], 5)
        np.testing.assert_array_equal(got_idx, base_idx)
        np.testing.assert_allclose(got_dist, base_dist,
                                   rtol=distance_rtol(dtype))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_orthogonal_rotation_leaves_the_ranking_invariant(
            self, seed, dtype):
        members = random_points(150, 12, seed)
        queries = random_points(10, 12, seed + 1)
        rotation, _ = np.linalg.qr(
            np.random.default_rng(seed + 2).normal(size=(12, 12)))
        base_idx, base_dist = scan(members.astype(dtype),
                                   queries.astype(dtype), 5)
        got_idx, got_dist = scan((members @ rotation).astype(dtype),
                                 (queries @ rotation).astype(dtype), 5)
        np.testing.assert_array_equal(got_idx, base_idx)
        np.testing.assert_allclose(got_dist, base_dist,
                                   rtol=distance_rtol(dtype), atol=1e-3)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_member_permutation_relabels_the_neighbors(self, seed, dtype):
        members = random_points(150, 8, seed, dtype)
        queries = random_points(10, 8, seed + 1, dtype)
        perm = np.random.default_rng(seed + 2).permutation(150)
        base_idx, base_dist = scan(members, queries, 5)
        got_idx, got_dist = scan(members[perm], queries, 5)
        np.testing.assert_array_equal(perm[got_idx], base_idx)
        np.testing.assert_allclose(got_dist, base_dist,
                                   rtol=distance_rtol(dtype))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_query_permutation_permutes_the_result_rows(self, seed, dtype):
        members = random_points(150, 8, seed, dtype)
        queries = random_points(16, 8, seed + 1, dtype)
        perm = np.random.default_rng(seed + 2).permutation(16)
        base_idx, base_dist = scan(members, queries, 5)
        got_idx, got_dist = scan(members, queries[perm], 5)
        np.testing.assert_array_equal(got_idx, base_idx[perm])
        np.testing.assert_allclose(got_dist, base_dist[perm],
                                   rtol=distance_rtol(dtype))

    @pytest.mark.parametrize("batch", [1, 2, 16])
    def test_batched_rows_match_single_queries(self, batch, dtype):
        members = random_points(120, 8, 11, dtype)
        queries = random_points(batch, 8, 12, dtype)
        batch_idx, batch_dist = scan(members, queries, 4)
        for row, query in enumerate(queries):
            idx, dist = scan(members, query[None, :], 4)
            np.testing.assert_array_equal(idx[0], batch_idx[row])
            np.testing.assert_allclose(dist[0], batch_dist[row],
                                       rtol=distance_rtol(dtype))


# ----------------------------------------------------------------------
# Degenerate corpora
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
class TestDegenerateCorpora:
    def test_constant_corpus_ties_to_the_lowest_indices(self, dtype):
        members = np.full((32, 8), 7.25, dtype=dtype)
        idx, dist = scan(members, members[:4], 3)
        np.testing.assert_array_equal(idx, [[0, 1, 2]] * 4)
        np.testing.assert_array_equal(dist, 0.0)

    def test_zero_corpus(self, dtype):
        members = np.zeros((16, 4), dtype=dtype)
        idx, dist = scan(members, np.ones((2, 4), dtype=dtype), 3)
        np.testing.assert_array_equal(idx, [[0, 1, 2]] * 2)
        np.testing.assert_array_equal(dist, 2.0)          # sqrt(4 · 1²)

    def test_single_member_rcs(self, dtype):
        members = np.array([[1.0, -2.0, 3.0]], dtype=dtype)
        rcs = RecommendationCandidateSet(members, labels(1))
        idx, dist = rcs.search(members, 5)
        np.testing.assert_array_equal(idx, [[0]])
        np.testing.assert_allclose(dist, 0.0, atol=1e-6)

    def test_empty_rcs_grows_via_add(self, dtype):
        rcs = RecommendationCandidateSet()
        assert len(rcs) == 0
        rows = random_points(12, 4, 0, dtype)
        for row, label in zip(rows, labels(12)):
            rcs.add(row, label)
        assert len(rcs) == 12
        assert rcs.embeddings.dtype == np.dtype(dtype)
        queries = random_points(3, 4, 1, dtype)
        got_idx, got_dist = rcs.search(queries, 4)
        want_idx, want_dist = exact_search(queries, rows, 4)
        np.testing.assert_array_equal(got_idx, want_idx)
        assert got_dist.tobytes() == want_dist.tobytes()

    def test_constant_columns_leave_the_ranking_unchanged(self, dtype):
        members = random_points(80, 6, 3, dtype)
        queries = random_points(8, 6, 4, dtype)
        padded_members = np.hstack(
            [members, np.full((80, 3), 2.5, dtype=dtype)])
        padded_queries = np.hstack(
            [queries, np.full((8, 3), 2.5, dtype=dtype)])
        base_idx, base_dist = scan(members, queries, 5)
        got_idx, got_dist = scan(padded_members, padded_queries, 5)
        np.testing.assert_array_equal(got_idx, base_idx)
        np.testing.assert_allclose(got_dist, base_dist,
                                   rtol=distance_rtol(dtype), atol=1e-4)

    def test_corpus_smaller_than_k_returns_every_member_sorted(self, dtype):
        members = np.array([[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                           dtype=dtype)
        rcs = RecommendationCandidateSet(members, labels(3))
        idx, dist = rcs.search(np.zeros((1, 2), dtype=dtype), 10)
        np.testing.assert_array_equal(idx, [[1, 2, 0]])
        np.testing.assert_allclose(dist, [[1.0, 2.0, 3.0]])

    def test_duplicate_members_tie_to_the_lowest_index(self, dtype):
        base = random_points(6, 5, 7, dtype)
        members = np.vstack([base, base, base])           # rows i, i+6, i+12
        idx, dist = scan(members, base, 3)
        expected = np.arange(6)[:, None] + np.array([0, 6, 12])
        np.testing.assert_array_equal(idx, expected)
        assert np.ptp(dist, axis=1).max() == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_narrow_embeddings_match_brute_force(self, dim, dtype):
        members = random_points(60, dim, dim, dtype)
        queries = random_points(7, dim, dim + 10, dtype)
        got_idx, got_dist = scan(members, queries, 4)
        true = brute_force_distances(queries, members)
        returned = np.take_along_axis(true, got_idx, axis=1)
        kth = np.sort(true, axis=1)[:, 3]
        assert (returned <= kth[:, None] + 1e-4).all()
        np.testing.assert_allclose(got_dist, returned, rtol=1e-3, atol=1e-3)


# ----------------------------------------------------------------------
# Result shape and order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", [1, 3, 48, 60])
@pytest.mark.parametrize("n", [1, 7, 48])
def test_result_shape_and_order(n, k, dtype):
    rcs = RecommendationCandidateSet(random_points(n, 6, n, dtype),
                                     labels(n))
    queries = random_points(5, 6, n + 1, dtype)
    idx, dist = rcs.search(queries, k)
    width = min(k, n)
    assert idx.shape == dist.shape == (5, width)
    assert np.issubdtype(idx.dtype, np.integer)
    assert dist.dtype == np.dtype(dtype)
    assert ((idx >= 0) & (idx < n)).all()
    for row in idx:
        assert len(set(row.tolist())) == width
    assert (dist >= 0).all()
    assert (np.diff(dist, axis=1) >= 0).all()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dim", DIMS)
def test_every_member_is_its_own_nearest_neighbor(dim, dtype):
    members = random_points(64, dim, dim, dtype)
    idx, dist = scan(members, members, 1)
    np.testing.assert_array_equal(idx[:, 0], np.arange(64))
    # ‖x‖² + ‖x‖² − 2·x·x cancels to rounding noise, clipped at zero:
    # the dot-product error bound is about d·ε·‖x‖² on each of the three
    # terms, so the distance stays under sqrt(4·d·ε·‖x‖²).
    norms = (members.astype(np.float64) ** 2).sum(axis=1)
    bound = np.sqrt(4 * dim * np.finfo(dtype).eps * norms)
    assert (dist[:, 0] >= 0).all()
    assert (dist[:, 0] <= bound).all()


# ----------------------------------------------------------------------
# Growth
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("size", [1, 3, 4, 5, 8, 9, 17, 33])
def test_grown_rcs_serves_the_bytes_of_a_built_one(size, dtype):
    rows = random_points(size, 8, size, dtype)
    members = labels(size)
    built = RecommendationCandidateSet(rows, members)
    grown = RecommendationCandidateSet()
    for row, label in zip(rows, members):
        grown.add(row, label)
    assert grown.embeddings.tobytes() == built.embeddings.tobytes()
    queries = random_points(4, 8, size + 1, dtype)
    (gi, gd), (bi, bd) = grown.search(queries, 3), built.search(queries, 3)
    np.testing.assert_array_equal(gi, bi)
    assert gd.tobytes() == bd.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [0, 1, 2, 10, 50])
def test_nearest_neighbor_distances_match_brute_force(n, dtype):
    rows = random_points(n, 5, n, dtype)
    rcs = (RecommendationCandidateSet(rows, labels(n)) if n
           else RecommendationCandidateSet())
    got = rcs.nearest_neighbor_distances()
    assert got.shape == (n,)
    if n < 2:
        np.testing.assert_array_equal(got, 0.0)
        return
    true = brute_force_distances(rows, rows)
    np.fill_diagonal(true, np.inf)
    np.testing.assert_allclose(got, true.min(axis=1),
                               rtol=distance_rtol(dtype), atol=1e-4)
