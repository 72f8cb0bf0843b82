"""The serving package: kernels, and the RCS + KNN predictor over one
exact scan.

Layering (no cycles; each module imports only from those above it):

``kernels``
    Precision-tier-aware float substrate: Gram-identity distances,
    top-k selection, finiteness validation, :func:`exact_search`.
``store``
    :class:`ExactIndex` (the exact scan with cached member norms),
    :class:`RecommendationCandidateSet` and :class:`KNNPredictor`.
"""

from .kernels import (_FLOAT_DTYPES, _as_float_matrix, _common_dtype,
                      exact_search, require_finite_embeddings,
                      squared_distance_matrix, top_k_neighbors)
from .store import (ExactIndex, KNNPredictor, Recommendation,
                    RecommendationCandidateSet)

__all__ = [
    "_FLOAT_DTYPES", "_as_float_matrix", "_common_dtype", "exact_search",
    "require_finite_embeddings", "squared_distance_matrix",
    "top_k_neighbors",
    "ExactIndex", "KNNPredictor", "Recommendation",
    "RecommendationCandidateSet",
]
