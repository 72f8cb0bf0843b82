"""The serving package: kernels, quantizer tiers, and the RCS + KNN
predictor over one exact scan.

Layering (no cycles; each module imports only from those above it):

``kernels``
    Precision-tier-aware float substrate: Gram-identity distances,
    top-k selection, finiteness validation, :func:`exact_search`.
``quantizers``
    The int8 / PQ candidate tiers, ``seeded_kmeans``,
    :func:`select_quantizer` and :func:`candidate_scan` routing.
``store``
    :class:`ExactIndex` (the exact scan with cached member norms),
    :class:`RecommendationCandidateSet` and :class:`KNNPredictor`.
"""

from .kernels import (_FLOAT_DTYPES, _as_float_matrix, _common_dtype,
                      exact_search, require_finite_embeddings,
                      squared_distance_matrix, top_k_neighbors)
from .quantizers import (INT8_EXACT_MAX_DIM, CandidateStore, PQStore,
                         QuantizationConfig, QuantizedStore, candidate_scan,
                         quantized_distances_int32_reference,
                         rerank_candidates, seeded_kmeans, select_quantizer)
from .store import (ExactIndex, KNNPredictor, Recommendation,
                    RecommendationCandidateSet)

__all__ = [
    "_FLOAT_DTYPES", "_as_float_matrix", "_common_dtype", "exact_search",
    "require_finite_embeddings", "squared_distance_matrix",
    "top_k_neighbors",
    "INT8_EXACT_MAX_DIM", "CandidateStore", "PQStore",
    "QuantizationConfig", "QuantizedStore", "candidate_scan",
    "quantized_distances_int32_reference", "rerank_candidates",
    "seeded_kmeans", "select_quantizer",
    "ExactIndex", "KNNPredictor", "Recommendation",
    "RecommendationCandidateSet",
]
