"""Eq. 13 on the exact scan: the KNN predictor and the RCS it reads.

The predicted score vector is the mean of the k nearest members' score
vectors at the user's accuracy weight (Eq. 2), the pick is its argmax,
and ``k`` clamps to the RCS size.  The RCS memoizes one score matrix per
weight and must drop it whenever its members change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serving import (KNNPredictor, RecommendationCandidateSet,
                                exact_search)
from repro.testbed.scores import ScoreLabel

MODELS = ("A", "B", "C", "D")
N = 24
WEIGHTS = (0.0, 0.3, 0.9, 1.0)


def make_rcs(n: int = N, dim: int = 6, seed: int = 0,
             dtype=np.float64) -> RecommendationCandidateSet:
    rng = np.random.default_rng(seed)
    embeddings = (rng.normal(size=(n, dim)) * 4.0).astype(dtype)
    labels = [ScoreLabel(MODELS, rng.random(len(MODELS)),
                         rng.random(len(MODELS))) for _ in range(n)]
    return RecommendationCandidateSet(embeddings, labels)


def queries(q: int, dim: int = 6, seed: int = 99,
            dtype=np.float64) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(q, dim)) * 4.0).astype(dtype)


@pytest.mark.parametrize("weight", WEIGHTS)
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_scores_are_the_mean_of_the_k_nearest_labels(k, weight):
    rcs = make_rcs()
    batch = queries(6)
    recs = KNNPredictor(k).recommend_batch(batch, rcs, weight)
    nearest, distances = exact_search(batch, rcs.embeddings, k)
    for rec, idx, dist in zip(recs, nearest, distances):
        expected = np.mean([rcs.labels[i].score_vector(weight)
                            for i in idx], axis=0)
        np.testing.assert_allclose(rec.score_vector, expected, rtol=1e-12)
        assert rec.model == MODELS[int(np.argmax(expected))]
        np.testing.assert_array_equal(rec.neighbor_indices, idx)
        np.testing.assert_array_equal(rec.neighbor_distances, dist)
        assert rec.model_names == MODELS


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_batch_agrees_with_single_queries(k, dtype):
    rcs = make_rcs(dtype=dtype)
    batch = queries(5, dtype=dtype)
    predictor = KNNPredictor(k)
    batched = predictor.recommend_batch(batch, rcs, 0.9)
    for query, b in zip(batch, batched):
        a = predictor.recommend(query, rcs, 0.9)
        assert a.model == b.model
        np.testing.assert_array_equal(a.neighbor_indices, b.neighbor_indices)
        np.testing.assert_allclose(a.score_vector, b.score_vector)


@pytest.mark.parametrize("k", [N, N + 1, 100])
def test_k_at_or_above_the_rcs_size_averages_every_member(k):
    rcs = make_rcs()
    rec = KNNPredictor(k).recommend(queries(1)[0], rcs, 0.5)
    assert sorted(rec.neighbor_indices.tolist()) == list(range(N))
    np.testing.assert_allclose(rec.score_vector,
                               rcs.score_matrix(0.5).mean(axis=0))


@pytest.mark.parametrize("k", [0, -1, -7])
def test_constructor_rejects_k_below_one(k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        KNNPredictor(k)


@pytest.mark.parametrize("k", [0, -1, -7])
def test_per_call_k_below_one_is_rejected(k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        KNNPredictor(2).recommend_batch(queries(2), make_rcs(), 0.9, k=k)


def test_per_call_k_overrides_the_default():
    rcs = make_rcs()
    rec = KNNPredictor(2).recommend(queries(1)[0], rcs, 0.9, k=4)
    assert len(rec.neighbor_indices) == 4


def test_empty_rcs_cannot_recommend():
    with pytest.raises(ValueError, match="empty RCS"):
        KNNPredictor(2).recommend(np.zeros(6), RecommendationCandidateSet(),
                                  0.9)


def test_empty_rcs_has_no_model_names():
    with pytest.raises(ValueError, match="empty RCS"):
        RecommendationCandidateSet().model_names


@pytest.mark.parametrize("weight", WEIGHTS)
def test_ranking_is_descending_and_names_every_model(weight):
    rec = KNNPredictor(3).recommend(queries(1)[0], make_rcs(), weight)
    ranking = rec.ranking()
    assert sorted(name for name, _ in ranking) == sorted(MODELS)
    scores = [score for _, score in ranking]
    assert scores == sorted(scores, reverse=True)
    assert ranking[0][0] == rec.model


@pytest.mark.parametrize("weight", [-0.1, 1.5])
def test_weight_outside_the_unit_interval_is_rejected(weight):
    with pytest.raises(ValueError, match="accuracy weight"):
        KNNPredictor(2).recommend(queries(1)[0], make_rcs(), weight)


class TestScoreMatrixMemo:
    @pytest.mark.parametrize("weight", WEIGHTS)
    def test_rows_are_the_members_score_vectors(self, weight):
        rcs = make_rcs()
        matrix = rcs.score_matrix(weight)
        assert matrix.shape == (N, len(MODELS))
        for row, label in zip(matrix, rcs.labels):
            np.testing.assert_array_equal(row, label.score_vector(weight))

    def test_repeated_weight_returns_the_memoized_matrix(self):
        rcs = make_rcs()
        assert rcs.score_matrix(0.7) is rcs.score_matrix(0.7)

    def test_add_invalidates_the_memo(self):
        rcs = make_rcs()
        before = rcs.score_matrix(0.7)
        label = ScoreLabel(MODELS, np.ones(4), np.ones(4))
        rcs.add(np.zeros(6), label)
        after = rcs.score_matrix(0.7)
        assert after is not before
        assert after.shape == (N + 1, len(MODELS))
        np.testing.assert_array_equal(after[-1], label.score_vector(0.7))

    def test_replace_embeddings_invalidates_the_memo(self):
        rcs = make_rcs()
        before = rcs.score_matrix(0.7)
        rcs.replace_embeddings(rcs.embeddings * 2.0)
        assert rcs.score_matrix(0.7) is not before


class TestRCSValidation:
    def test_misaligned_embeddings_and_labels_are_rejected(self):
        rcs = make_rcs()
        with pytest.raises(ValueError, match="align"):
            RecommendationCandidateSet(rcs.embeddings, rcs.labels[:-1])

    def test_add_of_the_wrong_dimension_is_rejected(self):
        rcs = make_rcs()
        with pytest.raises(ValueError, match="dimension"):
            rcs.add(np.zeros(7), rcs.labels[0])
        assert len(rcs) == N

    def test_replace_with_the_wrong_count_is_rejected(self):
        rcs = make_rcs()
        with pytest.raises(ValueError, match="count"):
            rcs.replace_embeddings(rcs.embeddings[:-1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_integer_embeddings_are_promoted_and_float_tiers_kept(
            self, dtype):
        rcs = make_rcs(dtype=dtype)
        assert rcs.embeddings.dtype == np.dtype(dtype)
        ints = RecommendationCandidateSet(
            np.arange(12).reshape(4, 3), rcs.labels[:4])
        assert ints.embeddings.dtype == np.float64
