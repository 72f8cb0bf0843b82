"""The RCS (Def. 5) and the KNN predictor (Eq. 13) over one exact scan.

:class:`RecommendationCandidateSet` owns the labeled embeddings and
keeps its :class:`ExactIndex` (cached member norms) size-synced through
``add`` / ``replace_embeddings``; :class:`KNNPredictor` averages the k
nearest labels' score vectors under the user's metric weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...testbed.scores import ScoreLabel
from .kernels import (_as_float_matrix, _common_dtype, exact_search,
                      require_finite_embeddings, squared_distance_matrix,
                      top_k_neighbors)


class ExactIndex:
    """The exhaustive Gram-identity scan with cached member norms.

    :meth:`rebuild` and :meth:`add` keep each member's ``‖x‖²`` in the
    members' precision tier, so a search pays only the query norms, one
    GEMM and the top-k selection — and returns the bytes
    :func:`exact_search` would.  Queries meeting the members at another
    tier (float64 queries over float32 members) take :func:`exact_search`
    itself.  The index re-derives its norms when handed a matrix whose
    length it does not recognize; a same-length change must be announced
    via :meth:`rebuild`, which the RCS does.
    """

    def __init__(self) -> None:
        self._norms = np.zeros(0, dtype=np.float64)
        self._size = 0

    def rebuild(self, embeddings: np.ndarray) -> None:
        embeddings = _as_float_matrix(embeddings)
        self._norms = (embeddings * embeddings).sum(axis=1)
        self._size = len(embeddings)

    def add(self, embedding: np.ndarray) -> None:
        row = _as_float_matrix(embedding).reshape(1, -1)
        if self._size == len(self._norms):
            grown = np.zeros(max(4, 2 * self._size), dtype=row.dtype)
            grown[:self._size] = self._norms[:self._size]
            self._norms = grown
        self._norms[self._size] = (row * row).sum(axis=1)[0]
        self._size += 1

    def search(self, queries: np.ndarray, embeddings: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
        """([Q, k] neighbor indices, [Q, k] Euclidean distances)."""
        if self._size != len(embeddings):
            self.rebuild(embeddings)
        norms = self._norms[:self._size]
        dtype = _common_dtype(np.asarray(queries), np.asarray(embeddings))
        if norms.dtype != dtype:
            return exact_search(queries, embeddings, k)
        queries = np.atleast_2d(np.asarray(queries, dtype=dtype))
        members = np.atleast_2d(np.asarray(embeddings, dtype=dtype))
        # squared_distance_matrix's arithmetic, in place and in its order:
        # (‖q‖² + ‖x‖²) − 2·q·x, clipped at zero.
        distances = np.add((queries * queries).sum(axis=1)[:, None],
                           norms[None, :])
        cross = queries @ members.T
        cross *= 2.0
        distances -= cross
        np.maximum(distances, 0.0, out=distances)
        np.sqrt(distances, out=distances)
        nearest = top_k_neighbors(distances, k)
        return nearest, np.take_along_axis(distances, nearest, axis=1)


@dataclass
class Recommendation:
    """Outcome of one AutoCE recommendation."""

    model: str
    score_vector: np.ndarray
    model_names: tuple[str, ...]
    neighbor_indices: np.ndarray
    neighbor_distances: np.ndarray

    def ranking(self) -> list[tuple[str, float]]:
        order = np.argsort(-self.score_vector)
        return [(self.model_names[i], float(self.score_vector[i])) for i in order]


class RecommendationCandidateSet:
    """Def. 5: labeled embeddings (X, Y) searched by the KNN predictor.

    Embeddings live in an amortized capacity-doubling buffer, so the online
    adaptation path can :meth:`add` members in O(1) amortized instead of
    re-allocating the whole matrix per insert.  Score matrices (one per
    accuracy weight) are memoized for the batched KNN.

    Neighbor queries go through :meth:`search`: the exact scan of the
    always-attached :class:`ExactIndex`.
    """

    def __init__(self, embeddings: np.ndarray | None = None,
                 labels: list[ScoreLabel] | None = None) -> None:
        # The buffer keeps the embeddings' precision tier: a float32 corpus
        # (the serving fast tier) is stored and searched in float32.
        embeddings = (np.zeros((0, 0), dtype=np.float64)
                      if embeddings is None
                      else _as_float_matrix(embeddings))
        self.labels: list[ScoreLabel] = list(labels or [])
        if len(embeddings) != len(self.labels):
            raise ValueError("embeddings and labels must align")
        self._buffer = np.array(embeddings, dtype=embeddings.dtype)
        self._size = len(embeddings)
        self._score_cache: dict[float, np.ndarray] = {}
        self._index = ExactIndex()
        self._index.rebuild(self.embeddings)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def embeddings(self) -> np.ndarray:
        """The live [N, d] embedding matrix (a view of the growth buffer)."""
        return self._buffer[:self._size]

    @property
    def index(self) -> ExactIndex:
        """The neighbor index (the exact scan with cached member norms)."""
        return self._index

    @property
    def model_names(self) -> tuple[str, ...]:
        if not self.labels:
            raise ValueError("empty RCS")
        return self.labels[0].model_names

    def add(self, embedding: np.ndarray, label: ScoreLabel) -> None:
        embedding = _as_float_matrix(embedding).ravel()
        require_finite_embeddings(embedding, "RCS embedding")
        dim = embedding.shape[0]
        if self._size == 0:
            if self._buffer.shape[1] != dim or len(self._buffer) == 0:
                self._buffer = np.zeros((max(4, len(self._buffer)), dim),
                                        dtype=embedding.dtype)
        elif self._buffer.shape[1] != dim:
            raise ValueError(
                f"embedding dimension {dim} != RCS dimension "
                f"{self._buffer.shape[1]}")
        if self._size == len(self._buffer):
            grown = np.zeros((max(4, 2 * len(self._buffer)), dim),
                             dtype=self._buffer.dtype)
            grown[:self._size] = self._buffer[:self._size]
            self._buffer = grown
        self._buffer[self._size] = embedding
        self._size += 1
        self.labels.append(label)
        self._score_cache.clear()
        self._index.add(self._buffer[self._size - 1])

    def replace_embeddings(self, embeddings: np.ndarray) -> None:
        """Refresh stored embeddings after the encoder is retrained.

        Retraining (or a precision-tier switch) changes the corpus
        geometry, so the cached member norms are rebuilt from the new rows.
        """
        embeddings = _as_float_matrix(embeddings)
        require_finite_embeddings(embeddings, "RCS embeddings")
        if len(embeddings) != len(self.labels):
            raise ValueError("embedding count must match labels")
        self._buffer = np.array(embeddings, dtype=embeddings.dtype)
        self._size = len(embeddings)
        self._score_cache.clear()
        self._index.rebuild(self.embeddings)

    def search(self, queries: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest members per query: ([Q, k] indices, [Q, k] distances)."""
        queries = _as_float_matrix(queries)
        k = min(k, self._size)
        return self._index.search(queries, self.embeddings, k)

    def score_matrix(self, accuracy_weight: float) -> np.ndarray:
        """Memoized [N, m] matrix of member score vectors at one weight."""
        key = float(accuracy_weight)
        cached = self._score_cache.get(key)
        if cached is None or len(cached) != len(self.labels):
            cached = np.stack(
                [label.score_vector(key) for label in self.labels])
            self._score_cache[key] = cached
        return cached

    def nearest_neighbor_distances(self) -> np.ndarray:
        """Distance of each member to its nearest other member."""
        if len(self) < 2:
            return np.zeros(len(self), dtype=self._buffer.dtype)
        sq = squared_distance_matrix(self.embeddings, self.embeddings)
        np.fill_diagonal(sq, np.inf)
        return np.sqrt(sq.min(axis=1))


def _require_k(k: int) -> int:
    """``k`` itself when it asks for at least one neighbor."""
    if k < 1:
        raise ValueError(f"k must be >= 1 (got k={k})")
    return k


class KNNPredictor:
    """Eq. 13: average the k nearest labels and pick the top ranker.

    The paper finds k = 2 optimal (Table IV); that is the default.  Neighbor
    search is delegated to :meth:`RecommendationCandidateSet.search`.  A
    ``k`` at or above the RCS size clamps to it; ``k < 1`` is rejected.
    """

    def __init__(self, k: int = 2) -> None:
        self.k = _require_k(k)

    def recommend(self, embedding: np.ndarray, rcs: RecommendationCandidateSet,
                  accuracy_weight: float, k: int | None = None) -> Recommendation:
        return self.recommend_batch(
            _as_float_matrix(embedding), rcs, accuracy_weight, k=k)[0]

    def recommend_batch(self, embeddings: np.ndarray,
                        rcs: RecommendationCandidateSet,
                        accuracy_weight: float,
                        k: int | None = None) -> list[Recommendation]:
        """Vectorized Eq. 13 for Q queries at once.

        One [Q, N] Gram-identity distance matrix, one ``argpartition`` per
        row, and one gather over the memoized score matrix replace Q
        independent full-sort searches.
        """
        k = self.k if k is None else _require_k(k)
        if len(rcs) == 0:
            raise ValueError("cannot recommend from an empty RCS")
        embeddings = _as_float_matrix(embeddings)
        k = min(k, len(rcs))
        nearest, neighbor_distances = rcs.search(embeddings, k)   # [Q, k]
        scores = rcs.score_matrix(accuracy_weight)[nearest].mean(axis=1)
        best = np.argmax(scores, axis=1)
        names = rcs.model_names
        return [
            Recommendation(
                model=names[int(best[i])],
                score_vector=scores[i],
                model_names=names,
                neighbor_indices=nearest[i],
                neighbor_distances=neighbor_distances[i],
            )
            for i in range(len(embeddings))
        ]
