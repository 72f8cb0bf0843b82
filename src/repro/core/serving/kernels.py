"""Precision-tier-aware serving kernels (Sec. V-D fast path).

The float substrate of the serving path at either dtype: dtype-preserving
matrix coercion, finiteness validation at the serving boundary, the
Gram-identity distance kernel ``‖a − b‖² = ‖a‖² + ‖b‖² − 2·a·b``,
argpartition top-k selection with lowest-index tie-breaking, and the
exhaustive :func:`exact_search` that combines them.  A float32 matrix
is searched in float32 end-to-end — no silent float64 promotion.
"""

from __future__ import annotations

import numpy as np

#: Floating dtypes preserved by the serving kernels (everything else is
#: promoted to the float64 default).
_FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def _as_float_matrix(a: np.ndarray) -> np.ndarray:
    """2-D float view of ``a``, keeping a float32 tier, promoting the rest."""
    a = np.atleast_2d(np.asarray(a))
    if a.dtype not in _FLOAT_DTYPES:
        return a.astype(np.float64)
    return a


def require_finite_embeddings(embeddings: np.ndarray,
                              context: str = "embeddings") -> None:
    """Reject NaN/inf rows before they enter a candidate set.

    One non-finite row silently poisons the distance ranking (every
    comparison against NaN is false, so ties become unordered), so entry
    points fail loudly instead, naming the offending rows.
    """
    matrix = np.atleast_2d(np.asarray(embeddings))
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        shown = ", ".join(str(int(i)) for i in bad[:5])
        more = f" (+{len(bad) - 5} more)" if len(bad) > 5 else ""
        raise ValueError(
            f"{context} contain non-finite values in row(s) {shown}{more}; "
            "NaN/inf embeddings would poison the distance ranking")


def _common_dtype(a: np.ndarray, b: np.ndarray) -> np.dtype:
    """The precision tier two operands meet at (float32 only when both are)."""
    da = a.dtype if a.dtype in _FLOAT_DTYPES else np.dtype(np.float64)
    db = b.dtype if b.dtype in _FLOAT_DTYPES else np.dtype(np.float64)
    return np.result_type(da, db)


def squared_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances [Q, N] via the Gram identity.

    ``‖a‖² + ‖b‖² − 2·a·b`` avoids materializing the O(Q·N·d) difference
    tensor; numerical noise is clipped at zero.  Runs on the operands'
    common precision tier (float32 in, float32 GEMM out).
    """
    dtype = _common_dtype(np.asarray(a), np.asarray(b))
    a = np.atleast_2d(np.asarray(a, dtype=dtype))
    b = np.atleast_2d(np.asarray(b, dtype=dtype))
    sq = ((a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
          - 2.0 * (a @ b.T))
    return np.maximum(sq, 0.0)


def top_k_neighbors(distances: np.ndarray, k: int) -> np.ndarray:
    """Top-k nearest indices per row of a [Q, N] distance matrix.

    ``argpartition`` selects the k + 1 nearest candidates in O(N), then
    only the first k are sorted.  Distance ties are broken by lowest
    index, so the result matches a full ``argsort(kind="stable")[:k]``
    exactly.  A row whose (k + 1)-th value equals the k-th has a tie
    straddling the boundary, where ``argpartition`` alone may pick an
    arbitrary tied member; only those rows pay the full-width
    :func:`_fill_boundary_ties`.
    """
    distances = np.atleast_2d(distances)
    q, n = distances.shape
    k = min(k, n)
    if k >= n:
        part = np.broadcast_to(np.arange(n), (q, n))
        order = np.lexsort((part, distances), axis=1)
        return np.take_along_axis(np.ascontiguousarray(part), order, axis=1)
    part = np.argpartition(distances, k, axis=1)
    nearest = np.take_along_axis(distances, part[:, :k + 1], axis=1)
    boundary = nearest[:, :k].max(axis=1)
    tied = boundary == nearest[:, k]
    idx = part[:, :k]
    if tied.any():
        idx = idx.copy()
        idx[tied] = _fill_boundary_ties(distances[tied], boundary[tied], k)
    order = np.lexsort((idx, np.take_along_axis(distances, idx, axis=1)),
                       axis=1)
    return np.take_along_axis(idx, order, axis=1)


def _fill_boundary_ties(distances: np.ndarray, boundary: np.ndarray,
                        k: int) -> np.ndarray:
    """The k nearest indices per row (ascending index, unsorted by
    distance): everything strictly closer than the row's k-th smallest
    value ``boundary``, the remainder filled with its lowest-index ties."""
    boundary = boundary[:, None]
    closer = distances < boundary
    need = k - closer.sum(axis=1)
    ties = distances == boundary
    tie_rank = np.cumsum(ties, axis=1)
    selected = closer | (ties & (tie_rank <= need[:, None]))
    return np.nonzero(selected)[1].reshape(len(distances), k)


def exact_search(queries: np.ndarray, embeddings: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive k-NN: ([Q, k] indices, [Q, k] Euclidean distances)."""
    distances = np.sqrt(squared_distance_matrix(queries, embeddings))
    nearest = top_k_neighbors(distances, k)
    return nearest, np.take_along_axis(distances, nearest, axis=1)
