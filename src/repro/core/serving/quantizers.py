"""Quantized candidate tiers: flat int8 codes and product quantization.

Rankings survive quantization because the DML metric space only needs
neighbor *order*, not distances: scans rank the corpus in code space
and only the top ``k · overfetch`` candidates reach the float-tier
re-rank (:func:`rerank_candidates`), so returned distances stay
float-exact.  :class:`QuantizedStore` keeps flat int8 codes (exact
integer arithmetic up to ``INT8_EXACT_MAX_DIM`` dims); :class:`PQStore`
product-quantizes wider embeddings into per-subspace codebooks scanned
with ADC lookup tables; :func:`select_quantizer` picks between them on
the width rule and optionally wraps the chosen store in an IVF coarse
partition (:class:`~repro.core.ivf.IVFStore`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .kernels import (_as_float_matrix, _common_dtype, exact_search,
                      squared_distance_matrix, top_k_neighbors)

# ----------------------------------------------------------------------
# Quantized candidate tiers (int8 flat codes and product quantization)
# ----------------------------------------------------------------------
#: Widest embedding whose assembled int8 code distance (4 · d · 127²) still
#: fits float32's 24-bit mantissa — the exactness bound of the flat int8
#: kernel, and the dimension past which :func:`select_quantizer` switches
#: the "auto" mode to product quantization.
INT8_EXACT_MAX_DIM = 260


@dataclass
class QuantizationConfig:
    """Parameters of the quantized candidate tiers.

    Serving only needs neighbor *rankings* to survive — the DML metric space
    (Eq. 9) is trained so that rank order, not absolute distance, carries the
    recommendation signal — which is exactly what a low-precision candidate
    pass exploits: scan the whole corpus in compressed codes, keep the top
    ``k · overfetch`` candidates, and re-rank only those in the float tier.

    Two code layouts share this config.  The flat int8 tier
    (:class:`QuantizedStore`) keeps one code per dimension and is exact
    integer arithmetic up to ``d = 260``; the product-quantization tier
    (:class:`PQStore`) splits the dimensions into subspaces with a learned
    codebook each, compressing wide embeddings to one byte per subspace.
    :func:`select_quantizer` picks between them (``mode="auto"``) on the
    int8 exactness bound.
    """

    #: Attach a quantized candidate tier to the RCS.
    enabled: bool = False
    #: Code layout: "auto" picks flat int8 for embeddings up to
    #: ``INT8_EXACT_MAX_DIM`` dims and product quantization past that;
    #: "int8" / "pq" pin one layout.
    mode: str = "auto"
    #: PQ: contiguous dimension subspaces (0 = auto-size ~d/128, clipped
    #: to [4, 16]); each subspace is encoded to one uint8 codebook id.
    #: More subspaces = finer codes but a linearly slower ADC scan.
    num_subspaces: int = 0
    #: PQ: centroids per subspace codebook (≤ 256 so codes stay uint8).
    codebook_size: int = 256
    #: PQ: Lloyd-iteration cap of the seeded k-means codebook training.
    kmeans_iters: int = 12
    #: PQ: codebooks train on at most this many (deterministically sampled)
    #: corpus rows; encoding always covers the full corpus.
    kmeans_sample: int = 4096
    #: PQ: opt-in residual refinement — a second codebook pass over the
    #: quantization residuals roughly halves the reconstruction error at
    #: the cost of a second code byte per subspace and a second ADC lookup
    #: per scan.  For recall-critical corpora whose neighbor gaps sit near
    #: the single-pass quantization error.
    residual: bool = False
    #: PQ: RNG seed of the k-means++ init and the training-row sample.
    seed: int = 0
    #: Candidate pool per query = ``k · overfetch``; the float-tier re-rank
    #: only sees this many members, so recall failures require the true
    #: neighbor to be pushed past ``k · (overfetch − 1)`` impostors by
    #: quantization error alone.
    overfetch: int = 8
    #: Corpora smaller than this serve the plain float scan (at those sizes
    #: the candidate pass saves nothing worth the second top-k).
    min_size: int = 64
    #: Recalibrate the scale/zero-points when more than this fraction of the
    #: rows added since the last calibration clipped at the int8 range — the
    #: drift signal that the corpus has outgrown its calibrated envelope.
    drift_clip_fraction: float = 0.02
    #: A single row overshooting the calibrated range by this factor
    #: triggers recalibration immediately (a gross outlier would otherwise
    #: fold onto the range boundary and alias with every other boundary row).
    drift_outlier_factor: float = 2.0
    #: Wrap the selected store in an IVF coarse partition
    #: (:class:`~repro.core.ivf.IVFStore`): a seeded-k-means coarse
    #: quantizer over the corpus, per-cell contiguous code blocks, and a
    #: probed scan touching only the ``nprobe`` nearest cells —
    #: O(N/cells · nprobe) candidate cost instead of O(N).
    ivf: bool = False
    #: IVF: number of coarse cells (0 = auto, ≈ √N clipped).
    ivf_cells: int = 0
    #: IVF: cells probed per query.  ``nprobe ≥ cells`` degrades —
    #: bit-for-bit — to the unpartitioned store scan.
    nprobe: int = 8
    #: IVF: corpora below this many members skip the probed path entirely
    #: (the coarse GEMM + per-cell bookkeeping only pays for itself once
    #: the full code scan is large); the unpartitioned store serves.
    ivf_min_size: int = 1024

    def __post_init__(self) -> None:
        # Fail at configuration time, not from deep inside the RCS attach.
        if self.mode not in ("auto", "int8", "pq"):
            raise ValueError(
                f"unknown quantization mode {self.mode!r}; expected one of "
                "'auto', 'int8', 'pq'")
        if not 1 <= self.codebook_size <= 256:
            raise ValueError("codebook_size must be in [1, 256] "
                             "(PQ codes are uint8)")
        if self.ivf_cells < 0:
            raise ValueError("ivf_cells must be >= 0 (0 = auto)")
        if self.nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        if self.ivf_min_size < 0:
            raise ValueError("ivf_min_size must be >= 0")


def quantized_distances_int32_reference(query_codes: np.ndarray,
                                        member_codes: np.ndarray) -> np.ndarray:
    """[Q, N] code-space squared distances with literal int32 accumulation.

    The ground truth of the quantized kernel: Gram identity over int8 codes
    with every product and partial sum carried in int32 (int8·int8 ≤ 127²
    and a sum over ``d`` dimensions stays far below 2³¹ for any embedding
    width the encoder produces).  The production path
    (:meth:`QuantizedStore.code_distances`) computes the *same integers*
    through a float32 BLAS GEMM; their exact agreement is a property test.
    """
    q = np.atleast_2d(query_codes).astype(np.int32)
    m = np.atleast_2d(member_codes).astype(np.int32)
    cross = q @ m.T
    qn = (q * q).sum(axis=1, dtype=np.int32)
    mn = (m * m).sum(axis=1, dtype=np.int32)
    return qn[:, None] + mn[None, :] - 2 * cross


def rerank_candidates(queries: np.ndarray, embeddings: np.ndarray,
                      candidates: np.ndarray, k: int,
                      member_norms: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Float-tier exact re-rank of per-query candidate lists.

    ``candidates`` is [Q, P] member indices, ascending within each row (the
    order the lowest-index tie-break of :func:`top_k_neighbors` relies on).
    Shared by every quantized candidate pass — flat int8 and PQ alike — so
    returned distances are always float-tier exact regardless of the code
    layout that selected the pool.  ``member_norms`` optionally supplies
    the [N] float-tier ``‖x‖²`` vector (it must have been computed from the
    same embedding matrix, same dtype — the stores memoize it under their
    recalibrate/add staleness contract).
    """
    dtype = _common_dtype(queries, embeddings)
    queries = queries.astype(dtype, copy=False)
    gathered = embeddings[candidates].astype(dtype, copy=False)
    dots = (gathered @ queries[:, :, None])[:, :, 0]
    if member_norms is not None and member_norms.dtype == dtype:
        # The caller's precomputed ‖x‖² (bit-identical to the reductions
        # below when the serving tier matches): skip the norm pass.
        member_norms = member_norms[candidates]
    elif candidates.size >= len(embeddings):
        # One corpus-wide norm pass + a [Q, P] gather: bit-identical to the
        # per-candidate reduction (same per-row multiply-sum order) but
        # O(N·d) instead of O(Q·P·d) — the common case for batched serving,
        # where the candidate pools jointly cover the corpus many times.
        cast = np.asarray(embeddings, dtype=dtype)
        member_norms = (cast * cast).sum(axis=1)[candidates]
    else:
        member_norms = (gathered * gathered).sum(axis=2)
    query_norms = (queries * queries).sum(axis=1)
    sq = np.maximum(member_norms + query_norms[:, None] - 2.0 * dots, 0.0)
    # Rank the sqrt'd values, exactly as exact_search does: in float32 a
    # near-tie distinct in squared space can collapse to one value under
    # sqrt, and the lowest-index tie-break must see what exact_search
    # sees or the two paths return different k-sets at the boundary.
    distances = np.sqrt(sq)
    local = top_k_neighbors(distances, k)
    return (np.take_along_axis(candidates, local, axis=1),
            np.take_along_axis(distances, local, axis=1))


class QuantizedStore:
    """Symmetric int8 codes of the RCS embeddings + the candidate kernel.

    Layout: per-dimension zero-points (the midrange of each dimension over
    the calibration corpus) with one shared symmetric scale.  The shared
    scale is deliberate — it is the only int8 layout whose code-space
    distances are *exactly proportional* to dequantized Euclidean distances
    (``‖x̂_a − x̂_b‖² = scale² · Σ(c_a − c_b)²``; the zero-points cancel),
    so candidate rankings in pure integer arithmetic are the dequantized
    float rankings.  Per-dimension scales would shrink the per-dimension
    rounding error but warp the metric into a range-whitened space, which is
    precisely what the DML embedding geometry must not be searched in.

    The distance kernel is int32-accumulated: every ``(c_a − c_b)²`` term is
    an integer and the full Gram-identity result ``‖c_a‖² + ‖c_b‖² −
    2·c_a·c_b`` is bounded by ``4 · d · 127² < 2²⁴`` for any ``d ≤ 260``, so
    a float32 GEMM over the codes performs the exact integer accumulation
    (every intermediate — cross term, norms and the assembled distance —
    fits the 24-bit mantissa) at BLAS speed — numpy has no fast int8 GEMM.
    Wider embeddings fall back to a float64 GEMM (exact below 2⁵³).  On top of the
    scan, :meth:`search` keeps the ``k · overfetch`` best candidates per
    query and re-ranks them against the live float-tier embedding matrix, so
    returned distances are always float-tier exact.

    :meth:`add` quantizes appended rows under the frozen calibration and
    reports drift (clipped rows / gross outliers); the owner — the RCS —
    responds by calling :meth:`recalibrate` with the live embedding matrix.
    """

    #: Code layout tag (the serving CLI and tier reports read this).
    kind = "int8"

    def __init__(self, embeddings: np.ndarray,
                 config: QuantizationConfig | None = None) -> None:
        self.config = config or QuantizationConfig()
        self.scale = 1.0
        self.zero_point: np.ndarray | None = None   # [d] float64
        self._codes: np.ndarray | None = None       # [capacity, d] int8
        self._codes_float: np.ndarray | None = None  # [N, d] GEMM-tier memo
        self._norms: np.ndarray | None = None       # [capacity] ‖c‖² (float)
        self._size = 0
        self._gemm_dtype = np.dtype(np.float32)
        self._added_since_calibration = 0
        self._clipped_since_calibration = 0
        self.recalibrate(embeddings)

    def __len__(self) -> int:
        return self._size

    @property
    def codes(self) -> np.ndarray:
        """The live [N, d] int8 code matrix."""
        return self._codes[:self._size]

    # -- calibration ----------------------------------------------------
    def recalibrate(self, embeddings: np.ndarray) -> None:
        """(Re)derive scale/zero-points from the corpus and requantize it."""
        embeddings = _as_float_matrix(embeddings)
        n, dim = embeddings.shape
        if n:
            lo = embeddings.min(axis=0).astype(np.float64)
            hi = embeddings.max(axis=0).astype(np.float64)
        else:
            lo = hi = np.zeros(dim, dtype=np.float64)
        self.zero_point = (lo + hi) / 2.0
        # Symmetric shared scale over the widest dimension; the floor keeps
        # a constant (or single-member, or empty) corpus at all-zero codes
        # instead of dividing by zero.
        self.scale = max(float(np.max(hi - self.zero_point, initial=0.0)),
                         1e-12) / 127.0
        # The assembled distance ‖c_a‖² + ‖c_b‖² − 2·c_a·c_b reaches
        # 4 · d · 127² and must fit the GEMM mantissa for the integer
        # arithmetic to be exact: 24 bits buy d ≤ 260 in float32, float64
        # covers the rest.
        self._gemm_dtype = np.dtype(
            np.float32 if 4 * dim * 127 * 127 < 2 ** 24 else np.float64)
        capacity = max(4, n)
        self._codes = np.zeros((capacity, dim), dtype=np.int8)
        self._codes[:n] = self.quantize(embeddings)
        self._codes_float = None
        self._norms = np.zeros(capacity, dtype=self._gemm_dtype)
        codes = self._codes[:n].astype(self._gemm_dtype)
        self._norms[:n] = (codes * codes).sum(axis=1)
        self._size = n
        self._added_since_calibration = 0
        self._clipped_since_calibration = 0

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Int8 codes of ``x`` under the current calibration (clipping)."""
        raw = (np.asarray(_as_float_matrix(x), dtype=np.float64)
               - self.zero_point) / self.scale
        return np.clip(np.rint(raw), -127, 127).astype(np.int8)

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        """Float64 reconstruction ``zero_point + scale · codes``."""
        return self.zero_point + self.scale * np.asarray(codes, np.float64)

    # -- growth ----------------------------------------------------------
    def add(self, embedding: np.ndarray) -> bool:
        """Quantize one appended row; True = drift, caller must recalibrate.

        Drift is either a gross outlier (the row overshoots the calibrated
        range by ``drift_outlier_factor``) or an accumulated clip fraction
        above ``drift_clip_fraction`` — both mean the frozen scale no longer
        covers the corpus and code distances are degrading.
        """
        row = np.asarray(_as_float_matrix(embedding), np.float64).ravel()
        raw = (row - self.zero_point) / self.scale
        overshoot = float(np.max(np.abs(raw), initial=0.0))
        self._added_since_calibration += 1
        if overshoot > 127.5:
            self._clipped_since_calibration += 1
        if self._size == len(self._codes):
            grown = np.zeros((2 * self._size, self._codes.shape[1]),
                             dtype=np.int8)
            grown[:self._size] = self._codes[:self._size]
            self._codes = grown
            grown_norms = np.zeros(2 * self._size, dtype=self._norms.dtype)
            grown_norms[:self._size] = self._norms[:self._size]
            self._norms = grown_norms
        codes = np.clip(np.rint(raw), -127, 127).astype(np.int8)
        self._codes[self._size] = codes
        self._codes_float = None
        c = codes.astype(self._gemm_dtype)
        self._norms[self._size] = (c * c).sum()
        self._size += 1
        if overshoot > 127.5 * self.config.drift_outlier_factor:
            return True
        return (self._clipped_since_calibration
                > self.config.drift_clip_fraction
                * max(self._added_since_calibration, 1))

    # -- the int32-accumulated candidate kernel --------------------------
    def code_distances(self, queries: np.ndarray) -> np.ndarray:
        """[Q, N] code-space squared distances of float-tier queries.

        Exact integer arithmetic end-to-end (see the class docstring for why
        the float32 GEMM qualifies); multiplied by ``scale²`` this is the
        dequantized squared Euclidean distance, but candidate selection only
        ranks, so the factor is never applied.

        The GEMM-tier view of the member codes is memoized between searches
        (dropped by :meth:`add` / :meth:`recalibrate`): a single-query
        serving path must not pay an O(N·d) cast per call.  The memo trades
        the steady-state footprint back up to one float copy of the codes —
        resident-set-critical deployments can drop it after each search.
        """
        qcodes, query_norms = self.query_context(queries)
        members = self._codes_gemm()
        cross = qcodes @ members.T
        return self._norms[:self._size][None, :] - 2.0 * cross \
            + query_norms[:, None]

    def _codes_gemm(self) -> np.ndarray:
        """The memoized GEMM-tier view of the live member codes."""
        if (self._codes_float is None
                or len(self._codes_float) != self._size):
            self._codes_float = self._codes[:self._size].astype(
                self._gemm_dtype)
        return self._codes_float

    def query_context(self, queries: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Per-batch query codes and code norms (shared with the IVF scan)."""
        qcodes = self.quantize(queries).astype(self._gemm_dtype)
        return qcodes, (qcodes * qcodes).sum(axis=1)

    def search(self, queries: np.ndarray, embeddings: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
        """Quantized candidate pass + float-tier re-rank.

        The int8 scan ranks the whole corpus in code space and keeps the
        ``k · overfetch`` best candidates per query — no square roots, no
        exact tie resolution, just one ``argpartition`` — then the float
        tier re-ranks that pool exactly (same tie-breaking as
        :func:`exact_search`, candidates pre-sorted by member index).

        The store heals itself when handed an embedding matrix whose
        length it does not recognize (full recalibration); a same-length
        geometry change must be announced via
        :meth:`recalibrate` — the RCS hooks do — or candidates are selected
        from stale codes (the float re-rank still prices whatever pool
        comes out, so staleness degrades recall, never distances).
        """
        embeddings = np.atleast_2d(np.asarray(embeddings))
        queries = _as_float_matrix(queries)
        n = len(embeddings)
        if n != self._size:
            self.recalibrate(embeddings)
        k = min(k, n)
        pool = k * max(self.config.overfetch, 1)
        if pool >= n or n < self.config.min_size:
            return exact_search(queries, embeddings, k)
        code_sq = self.code_distances(queries)
        candidates = np.argpartition(code_sq, pool - 1, axis=1)[:, :pool]
        candidates.sort(axis=1)
        return rerank_candidates(queries, embeddings, candidates, k)

    # -- persistence ------------------------------------------------------
    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """(arrays, JSON-able meta) capturing calibration, codes and the
        drift-accounting counters — everything :meth:`restore` needs to
        resurrect the store without requantizing."""
        assert self.zero_point is not None and self._codes is not None
        arrays = {"codes": self._codes[:self._size],
                  "zero_point": self.zero_point}
        meta = {"scale": self.scale,
                "added": self._added_since_calibration,
                "clipped": self._clipped_since_calibration}
        return arrays, meta

    @classmethod
    def restore(cls, embeddings: np.ndarray, config: QuantizationConfig,
                arrays: dict[str, np.ndarray],
                meta: dict) -> "QuantizedStore":
        """Rebuild from persisted state — no calibration pass.

        The code norms are recomputed from the saved codes (bit-identical
        to what :meth:`recalibrate` derives — same cast, same reduction);
        everything else loads verbatim, including the drift counters, so a
        restored node recalibrates at exactly the same future add as the
        node that saved it.
        """
        store = cls.__new__(cls)
        store.config = config
        codes = np.asarray(arrays["codes"], dtype=np.int8)
        n, dim = codes.shape
        store.scale = float(meta["scale"])
        store.zero_point = np.asarray(arrays["zero_point"],
                                      dtype=np.float64)
        store._gemm_dtype = np.dtype(
            np.float32 if 4 * dim * 127 * 127 < 2 ** 24 else np.float64)
        capacity = max(4, n)
        store._codes = np.zeros((capacity, dim), dtype=np.int8)
        store._codes[:n] = codes
        store._codes_float = None
        store._norms = np.zeros(capacity, dtype=store._gemm_dtype)
        gemm = store._codes[:n].astype(store._gemm_dtype)
        store._norms[:n] = (gemm * gemm).sum(axis=1)
        store._size = n
        store._added_since_calibration = int(meta["added"])
        store._clipped_since_calibration = int(meta["clipped"])
        return store


# ----------------------------------------------------------------------
# Product-quantization tier (wide embeddings)
# ----------------------------------------------------------------------
def seeded_kmeans(x: np.ndarray, k: int, rng: np.random.Generator,
                  iters: int) -> np.ndarray:
    """Deterministic k-means: k-means++ init from ``rng``, capped Lloyd.

    Every source of randomness flows through the caller's generator (the
    advisor RNG), every tie — centroid assignment, duplicate rows — breaks
    by lowest index, and the scatter-update runs through ``np.add.at``
    (sequential, order-stable), so identical inputs and seed produce
    bit-identical codebooks on every run: the property the CI determinism
    job pins.  When the corpus has fewer distinct rows than ``k`` the
    k-means++ pass runs out of mass (all distances zero) and the remaining
    centroids duplicate the first — assignments still resolve
    deterministically to the lowest centroid index.
    """
    n = len(x)
    k = max(1, min(k, n))
    centroids = np.empty((k, x.shape[1]), dtype=np.float64)
    centroids[0] = x[int(rng.integers(n))]
    d2 = squared_distance_matrix(x, centroids[:1])[:, 0]
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            centroids[j:] = centroids[0]
            break
        choice = int(rng.choice(n, p=d2 / total))
        centroids[j] = x[choice]
        d2 = np.minimum(d2,
                        squared_distance_matrix(x, centroids[j:j + 1])[:, 0])
    for _ in range(iters):
        assign = squared_distance_matrix(x, centroids).argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, x)
        # Empty clusters keep their previous centroid (no random respawn —
        # determinism beats marginally better codebook utilization here).
        updated = np.where(counts[:, None] > 0,
                           sums / np.maximum(counts, 1)[:, None], centroids)
        if np.array_equal(updated, centroids):
            break
        centroids = updated
    return centroids


class PQStore:
    """Product-quantization codes of wide RCS embeddings + the ADC kernel.

    The flat int8 tier stops being attractive past ``INT8_EXACT_MAX_DIM``
    dims: its code distances lose int32 exactness (falling back to a
    float64 GEMM that costs as much as the float tier it was supposed to
    undercut) and one code byte per dimension stops compressing anything.
    Product quantization instead splits the ``d`` dimensions into
    ``num_subspaces`` contiguous subspaces, trains one ``codebook_size``-
    centroid codebook per subspace with :func:`seeded_kmeans`, and encodes
    every member as one uint8 centroid id per subspace — d floats become
    ``num_subspaces`` bytes.

    Scanning is asymmetric-distance computation (ADC): per query batch one
    lookup table of ``−2 · q_m · c_{m,j}`` per subspace is computed once
    (a [Q, K] GEMM against each codebook), and a member's approximate
    distance is its precomputed reconstruction norm plus ``num_subspaces``
    table gathers — no per-member inner products at all, which is the whole
    speedup at d = 512.  The ADC values are rank-only surrogates: they omit
    the per-query ``‖q‖²`` constant (it cannot reorder one query's
    candidates) and may be slightly negative; the top ``k · overfetch``
    candidates are re-ranked exactly in the float tier
    (:func:`rerank_candidates`), so returned distances are float-exact,
    just as in the int8 tier.

    ``residual=True`` adds a second codebook pass over the quantization
    residuals (``x − x̂``): reconstruction error roughly halves, at one
    more code byte and one more ADC gather per subspace — the opt-in knob
    for recall-critical corpora.

    :meth:`add` encodes appended rows under the frozen codebooks and
    reports drift through the reconstruction error: a row whose error
    overshoots the calibration-time maximum by ``drift_outlier_factor``
    (or an accumulated fraction of above-maximum rows past
    ``drift_clip_fraction``) means the frozen codebooks no longer cover
    the corpus geometry, and the owner — the RCS — recalibrates.
    """

    #: Code layout tag (the serving CLI and tier reports read this).
    kind = "pq"

    def __init__(self, embeddings: np.ndarray,
                 config: QuantizationConfig | None = None) -> None:
        self.config = config or QuantizationConfig()
        self._splits: list[slice] = []
        self._codebooks: list[np.ndarray] = []           # M × [K, d_m]
        self._residual_codebooks: list[np.ndarray] = []
        self._codebook_k = 0
        self._num_subspaces = 0
        self._codes: np.ndarray | None = None            # [capacity, M] uint8
        self._residual_codes: np.ndarray | None = None
        self._gather_codes: list[np.ndarray] | None = None  # [M, N] int64 memo
        self._recon_norms: np.ndarray | None = None      # [capacity] ‖x̂‖²
        self._member_norms: np.ndarray | None = None     # [capacity] ‖x‖² (float tier)
        #: Per-codebook [K] centroid norms, folded into the ADC tables so
        #: the plain-PQ scan needs no per-member norm pass at all (the
        #: subspaces are disjoint, so ‖x̂‖² = Σ_m ‖c_m‖²).
        self._centroid_norms: list[list[np.ndarray]] = []
        #: Residual mode only: the per-member cross term ``2 Σ_m c1_m·c2_m``
        #: the folded tables cannot carry ([capacity] float32; None = plain).
        self._scan_bias: np.ndarray | None = None
        self._size = 0
        self._err_scale = 0.0
        self._added_since_calibration = 0
        self._high_error_since_calibration = 0
        self.recalibrate(embeddings)

    def __len__(self) -> int:
        return self._size

    @property
    def codes(self) -> np.ndarray:
        """The live [N, M] uint8 code matrix (first-pass codebook ids)."""
        return self._codes[:self._size]

    @property
    def codebooks(self) -> list[np.ndarray]:
        """The per-subspace [K, d_m] centroid matrices."""
        return self._codebooks

    @property
    def num_subspaces(self) -> int:
        return self._num_subspaces

    # -- calibration ----------------------------------------------------
    def recalibrate(self, embeddings: np.ndarray) -> None:
        """(Re)train the codebooks from the corpus and re-encode it."""
        raw = _as_float_matrix(embeddings)
        # Float-tier member norms for the re-rank, computed on the corpus'
        # own serving tier *before* the float64 cast the codebook math
        # runs on — bit-identical to what the re-rank would recompute.
        member_norms = (raw * raw).sum(axis=1)
        embeddings = np.asarray(raw, dtype=np.float64)
        n, dim = embeddings.shape
        config = self.config
        m = config.num_subspaces
        if m <= 0:
            # The subspace count IS the scan cost: every member costs one
            # table gather per subspace, so the ADC pass only beats the
            # float GEMM when m stays far below d.  ~128 dims per subspace
            # keeps the d = 512 scan ≥ 2× the exact float32 scan (the
            # pq_search bench); corpora whose neighbor gaps sit near the
            # coarser reconstruction error can buy fidelity back with
            # ``residual=True`` (or an explicit ``num_subspaces``) instead
            # of paying gathers on every query.
            m = int(np.clip(dim // 128, 4, 16))
        m = max(1, min(m, max(dim, 1)))
        bounds = np.linspace(0, dim, m + 1).astype(np.int64)
        self._splits = [slice(int(bounds[i]), int(bounds[i + 1]))
                        for i in range(m)]
        self._num_subspaces = m
        rng = np.random.default_rng(config.seed)
        train = embeddings
        if n > config.kmeans_sample:
            train = embeddings[np.sort(
                rng.choice(n, config.kmeans_sample, replace=False))]
        self._codebook_k = max(1, min(config.codebook_size,
                                      max(len(train), 1)))
        self._codebooks = [
            seeded_kmeans(train[:, sl], self._codebook_k, rng,
                          config.kmeans_iters)
            if len(train) else np.zeros((1, sl.stop - sl.start),
                                        dtype=np.float64)
            for sl in self._splits
        ]
        self._codebook_k = len(self._codebooks[0])
        self._residual_codebooks = []
        if config.residual and len(train):
            train_recon = self._encode_with(train, self._codebooks)[1]
            residuals = train - train_recon
            self._residual_codebooks = [
                seeded_kmeans(residuals[:, sl], self._codebook_k, rng,
                              config.kmeans_iters)
                for sl in self._splits
            ]
        self._centroid_norms = [
            [(book * book).sum(axis=1) for book in books]
            for books in ([self._codebooks, self._residual_codebooks]
                          if self._residual_codebooks else [self._codebooks])
        ]
        codes, residual_codes, recon = self._encode(embeddings)
        capacity = max(4, n)
        self._codes = np.zeros((capacity, m), dtype=np.uint8)
        self._codes[:n] = codes
        self._residual_codes = None
        self._scan_bias = None
        if self._residual_codebooks:
            self._residual_codes = np.zeros((capacity, m), dtype=np.uint8)
            self._residual_codes[:n] = residual_codes
            self._scan_bias = np.zeros(capacity, dtype=np.float32)
        self._member_norms = np.zeros(capacity, dtype=member_norms.dtype)
        self._member_norms[:n] = member_norms
        self._recon_norms = np.zeros(capacity, dtype=np.float32)
        self._recon_norms[:n] = (recon * recon).sum(axis=1)
        if self._scan_bias is not None:
            self._scan_bias[:n] = self._recon_norms[:n] - self._fold_norms(
                codes, residual_codes)
        self._gather_codes = None
        self._size = n
        # Drift reference: the worst reconstruction error the calibration
        # itself produced (floored against a perfectly reconstructed tiny
        # corpus, where any genuinely new row warrants a cheap recalibrate).
        err = np.sqrt(np.maximum(((embeddings - recon) ** 2).sum(axis=1),
                                 0.0))
        floor = 1e-9 * max(float(np.abs(embeddings).max()) if n else 0.0, 1.0)
        self._err_scale = max(float(err.max()) if n else 0.0, floor)
        self._added_since_calibration = 0
        self._high_error_since_calibration = 0

    def _fold_norms(self, codes: np.ndarray,
                    residual_codes: np.ndarray | None) -> np.ndarray:
        """Σ_m ‖c_m‖² over every codebook pass — what the folded ADC tables
        already account for per member."""
        folded = np.zeros(len(codes), dtype=np.float64)
        for pass_norms, pass_codes in zip(
                self._centroid_norms,
                [codes] + ([residual_codes]
                           if residual_codes is not None else [])):
            for i in range(self._num_subspaces):
                folded += pass_norms[i][pass_codes[:, i].astype(np.int64)]
        return folded.astype(np.float32)

    def _encode_with(self, x: np.ndarray, codebooks: list[np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray]:
        """([n, M] uint8 codes, [n, d] reconstruction) under ``codebooks``."""
        codes = np.empty((len(x), self._num_subspaces), dtype=np.uint8)
        recon = np.empty_like(x)
        for i, sl in enumerate(self._splits):
            assign = squared_distance_matrix(
                x[:, sl], codebooks[i]).argmin(axis=1)
            codes[:, i] = assign
            recon[:, sl] = codebooks[i][assign]
        return codes, recon

    def _encode(self, x: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Full encode: first-pass codes, residual codes (opt-in), recon."""
        codes, recon = self._encode_with(x, self._codebooks)
        residual_codes = None
        if self._residual_codebooks:
            residual_codes, residual_recon = self._encode_with(
                x - recon, self._residual_codebooks)
            recon = recon + residual_recon
        return codes, residual_codes, recon

    def reconstruct(self) -> np.ndarray:
        """Float64 reconstruction of the live corpus from its codes."""
        recon = np.empty((self._size, self._splits[-1].stop),
                         dtype=np.float64)
        for i, sl in enumerate(self._splits):
            recon[:, sl] = self._codebooks[i][
                self._codes[:self._size, i].astype(np.int64)]
            if self._residual_codes is not None:
                recon[:, sl] += self._residual_codebooks[i][
                    self._residual_codes[:self._size, i].astype(np.int64)]
        return recon

    # -- growth ----------------------------------------------------------
    def add(self, embedding: np.ndarray) -> bool:
        """Encode one appended row; True = drift, caller must recalibrate."""
        raw = _as_float_matrix(embedding).reshape(1, -1)
        row = np.asarray(raw, dtype=np.float64)
        codes, residual_codes, recon = self._encode(row)
        err = float(np.sqrt(max(((row - recon) ** 2).sum(), 0.0)))
        self._added_since_calibration += 1
        if err > self._err_scale:
            self._high_error_since_calibration += 1
        if self._size == len(self._codes):
            grown = np.zeros((2 * self._size, self._num_subspaces),
                             dtype=np.uint8)
            grown[:self._size] = self._codes[:self._size]
            self._codes = grown
            if self._residual_codes is not None:
                grown = np.zeros((2 * self._size, self._num_subspaces),
                                 dtype=np.uint8)
                grown[:self._size] = self._residual_codes[:self._size]
                self._residual_codes = grown
            grown_norms = np.zeros(2 * self._size, dtype=np.float32)
            grown_norms[:self._size] = self._recon_norms[:self._size]
            self._recon_norms = grown_norms
            grown_member = np.zeros(2 * self._size,
                                    dtype=self._member_norms.dtype)
            grown_member[:self._size] = self._member_norms[:self._size]
            self._member_norms = grown_member
            if self._scan_bias is not None:
                grown_bias = np.zeros(2 * self._size, dtype=np.float32)
                grown_bias[:self._size] = self._scan_bias[:self._size]
                self._scan_bias = grown_bias
        self._codes[self._size] = codes[0]
        if self._residual_codes is not None:
            self._residual_codes[self._size] = residual_codes[0]
        self._recon_norms[self._size] = (recon * recon).sum()
        # Norm of the row as the RCS stores it (the corpus tier), so the
        # memo stays bit-identical to a recomputation from the live matrix.
        row_tier = np.asarray(raw[0], dtype=self._member_norms.dtype)
        self._member_norms[self._size] = (row_tier * row_tier).sum()
        if self._scan_bias is not None:
            self._scan_bias[self._size] = (
                self._recon_norms[self._size]
                - self._fold_norms(codes, residual_codes)[0])
        self._gather_codes = None
        self._size += 1
        config = self.config
        if err > self._err_scale * config.drift_outlier_factor:
            return True
        return (self._high_error_since_calibration
                > config.drift_clip_fraction
                * max(self._added_since_calibration, 1))

    # -- the ADC kernel ---------------------------------------------------
    def query_context(self, queries: np.ndarray) -> list[np.ndarray]:
        """The per-batch ADC lookup tables, computed once per query batch.

        One [M, Q, K] float32 table per codebook pass holding
        ``‖c_{m,j}‖² − 2 · q_m · c_{m,j}`` — the centroid norms are folded
        in because the subspaces are disjoint (``‖x̂‖² = Σ_m ‖c_m‖²``), so
        a member's rank surrogate is just M table gathers (2M plus the
        per-member cross-term bias with residuals) and the scan never
        touches a per-member norm array.
        """
        q = np.asarray(_as_float_matrix(queries), dtype=np.float64)
        tables = [self._adc_table(q, self._codebooks,
                                  self._centroid_norms[0])]
        if self._residual_codebooks:
            tables.append(self._adc_table(q, self._residual_codebooks,
                                          self._centroid_norms[1]))
        return tables

    def _adc_table(self, q: np.ndarray, codebooks: list[np.ndarray],
                   centroid_norms: list[np.ndarray]) -> np.ndarray:
        table = np.empty((self._num_subspaces, len(q), self._codebook_k),
                         dtype=np.float32)
        for i, sl in enumerate(self._splits):
            table[i] = centroid_norms[i][None, :] - 2.0 * (q[:, sl]
                                                           @ codebooks[i].T)
        return table

    def _scan_codes(self) -> list[np.ndarray]:
        """Memoized [M, N] int64 transposed code rows for the ADC scan.

        ``np.take`` with a contiguous int64 index row runs ~2× faster than
        with a strided uint8 column view, and the transposition is paid
        once per corpus change (dropped by :meth:`add` /
        :meth:`recalibrate`) instead of once per scan chunk.
        """
        if (self._gather_codes is None
                or self._gather_codes[0].shape[1] != self._size):
            sets = [self._codes[:self._size]]
            if self._residual_codes is not None:
                sets.append(self._residual_codes[:self._size])
            self._gather_codes = [
                np.ascontiguousarray(codes.T.astype(np.int64))
                for codes in sets
            ]
        return self._gather_codes

    def _accumulate_block(self, context: list[np.ndarray],
                          code_sets: list[np.ndarray], start: int,
                          stop: int) -> np.ndarray:
        """One [Q, stop−start] ADC block: bias (residual cross term) or a
        first-table fast path, plus the remaining table gathers.  The single
        accumulation kernel behind both the materialized scan
        (:meth:`adc_distances`) and the chunk-local selection
        (:meth:`_scan_select`)."""
        if self._scan_bias is not None:
            block = np.broadcast_to(
                self._scan_bias[start:stop],
                (context[0].shape[1], stop - start)).copy()
            first = 0
        else:
            block = np.take(context[0][0], code_sets[0][0][start:stop],
                            axis=1)
            first = 1
        for pass_id, (table, codes) in enumerate(zip(context, code_sets)):
            lo = first if pass_id == 0 else 0
            for i in range(lo, self._num_subspaces):
                block += np.take(table[i], codes[i][start:stop], axis=1)
        return block

    def adc_distances(self, queries: np.ndarray) -> np.ndarray:
        """[Q, N] ADC rank surrogates of the whole corpus.

        Chunked over members so the [Q, chunk] accumulator stays cache-
        resident across the M (or 2M) gather passes instead of streaming a
        [Q, N] matrix through memory per subspace.
        """
        context = self.query_context(queries)
        num_queries = context[0].shape[1]
        n = self._size
        out = np.empty((num_queries, n), dtype=np.float32)
        code_sets = self._scan_codes()
        step = int(max(256, (1 << 21) // max(num_queries, 1)))
        for start in range(0, n, step):
            stop = min(start + step, n)
            out[:, start:stop] = self._accumulate_block(context, code_sets,
                                                        start, stop)
        return out

    def _scan_select(self, queries: np.ndarray, pool: int) -> np.ndarray:
        """[Q, pool] ADC-best member indices, selected chunk-locally.

        Equivalent to ``argpartition(adc_distances(q), pool)`` but the
        partial top-``pool`` of each member chunk is taken while the just-
        computed ADC block is still cache-resident, and only the per-chunk
        survivors meet in the final (tiny) partition — the full [Q, N]
        surrogate matrix is never materialized or re-read cold.
        """
        context = self.query_context(queries)
        num_queries = context[0].shape[1]
        n = self._size
        code_sets = self._scan_codes()
        step = int(max(2 * pool, (1 << 21) // max(num_queries, 1)))
        best_vals: list[np.ndarray] = []
        best_idx: list[np.ndarray] = []
        for start in range(0, n, step):
            stop = min(start + step, n)
            block = self._accumulate_block(context, code_sets, start, stop)
            if pool < stop - start:
                local = np.argpartition(block, pool - 1, axis=1)[:, :pool]
                best_vals.append(np.take_along_axis(block, local, axis=1))
                best_idx.append(local + start)
            else:
                best_vals.append(block)
                best_idx.append(np.broadcast_to(np.arange(start, stop),
                                                block.shape))
        vals = np.concatenate(best_vals, axis=1)
        idx = np.concatenate(best_idx, axis=1)
        if pool < vals.shape[1]:
            final = np.argpartition(vals, pool - 1, axis=1)[:, :pool]
            idx = np.take_along_axis(idx, final, axis=1)
        return idx

    def search(self, queries: np.ndarray, embeddings: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
        """ADC candidate pass + float-tier re-rank.

        Mirrors :meth:`QuantizedStore.search` including the overfetch edge:
        a pool of ``k · overfetch ≥ N`` candidates selects the whole corpus
        anyway, so the scan degrades to the plain float search (no
        duplicate or missing candidates), and a corpus below ``min_size``
        never pays the ADC table build.  The store heals itself when handed
        an embedding matrix whose length it does not recognize.
        """
        embeddings = np.atleast_2d(np.asarray(embeddings))
        queries = _as_float_matrix(queries)
        n = len(embeddings)
        if n != self._size:
            self.recalibrate(embeddings)
        k = min(k, n)
        pool = k * max(self.config.overfetch, 1)
        if pool >= n or n < self.config.min_size:
            return exact_search(queries, embeddings, k)
        candidates = self._scan_select(queries, pool)
        candidates.sort(axis=1)
        return rerank_candidates(queries, embeddings, candidates, k,
                                 member_norms=self._member_norms[:n])

    # -- persistence ------------------------------------------------------
    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """(arrays, JSON-able meta) capturing codebooks, codes, the
        reconstruction norms and the drift counters."""
        assert self._codes is not None and self._recon_norms is not None
        arrays: dict[str, np.ndarray] = {
            "codes": self._codes[:self._size],
            "recon_norms": self._recon_norms[:self._size],
        }
        for i, book in enumerate(self._codebooks):
            arrays[f"codebook_{i}"] = book
        if self._residual_codes is not None:
            arrays["residual_codes"] = self._residual_codes[:self._size]
            for i, book in enumerate(self._residual_codebooks):
                arrays[f"residual_codebook_{i}"] = book
        meta = {"err_scale": self._err_scale,
                "added": self._added_since_calibration,
                "high_error": self._high_error_since_calibration,
                "num_subspaces": self._num_subspaces}
        return arrays, meta

    @classmethod
    def restore(cls, embeddings: np.ndarray, config: QuantizationConfig,
                arrays: dict[str, np.ndarray], meta: dict) -> "PQStore":
        """Rebuild from persisted state — **zero** k-means calls.

        Codebooks, codes and reconstruction norms load verbatim; the
        float-tier member norms are recomputed from the live corpus (the
        same reduction :meth:`recalibrate` runs, bit-identical), the
        centroid-norm fold and the residual scan bias are re-derived from
        the loaded codebooks (cheap, deterministic), and the drift
        counters resume exactly where the saving node left them.
        """
        store = cls.__new__(cls)
        store.config = config
        codes = np.asarray(arrays["codes"], dtype=np.uint8)
        n, m = codes.shape
        raw = _as_float_matrix(embeddings)
        member_norms = (raw * raw).sum(axis=1)
        dim = raw.shape[1]
        bounds = np.linspace(0, dim, m + 1).astype(np.int64)
        store._splits = [slice(int(bounds[i]), int(bounds[i + 1]))
                        for i in range(m)]
        store._num_subspaces = m
        store._codebooks = [
            np.asarray(arrays[f"codebook_{i}"], dtype=np.float64)
            for i in range(m)]
        store._codebook_k = len(store._codebooks[0])
        store._residual_codebooks = []
        residual_codes = None
        if "residual_codes" in arrays:
            residual_codes = np.asarray(arrays["residual_codes"],
                                        dtype=np.uint8)
            store._residual_codebooks = [
                np.asarray(arrays[f"residual_codebook_{i}"],
                           dtype=np.float64)
                for i in range(m)]
        store._centroid_norms = [
            [(book * book).sum(axis=1) for book in books]
            for books in ([store._codebooks, store._residual_codebooks]
                          if store._residual_codebooks
                          else [store._codebooks])
        ]
        capacity = max(4, n)
        store._codes = np.zeros((capacity, m), dtype=np.uint8)
        store._codes[:n] = codes
        store._residual_codes = None
        store._scan_bias = None
        if residual_codes is not None:
            store._residual_codes = np.zeros((capacity, m), dtype=np.uint8)
            store._residual_codes[:n] = residual_codes
            store._scan_bias = np.zeros(capacity, dtype=np.float32)
        store._member_norms = np.zeros(capacity, dtype=member_norms.dtype)
        store._member_norms[:n] = member_norms
        store._recon_norms = np.zeros(capacity, dtype=np.float32)
        store._recon_norms[:n] = np.asarray(arrays["recon_norms"],
                                            dtype=np.float32)
        if store._scan_bias is not None:
            store._scan_bias[:n] = store._recon_norms[:n] - store._fold_norms(
                codes, residual_codes)
        store._gather_codes = None
        store._size = n
        store._err_scale = float(meta["err_scale"])
        store._added_since_calibration = int(meta["added"])
        store._high_error_since_calibration = int(meta["high_error"])
        return store


if TYPE_CHECKING:
    from ..ivf import IVFStore

    #: Any quantized candidate tier; everything downstream of
    #: :func:`select_quantizer` is layout-agnostic (``candidate_scan``,
    #: the RCS requantization hooks).
    CandidateStore = QuantizedStore | PQStore | IVFStore
else:
    # Runtime alias kept import-cycle-free: core.ivf imports this module,
    # so the IVF member only joins the union under TYPE_CHECKING and
    # select_quantizer imports it locally.
    CandidateStore = QuantizedStore | PQStore


def select_quantizer(embeddings: np.ndarray,
                     config: QuantizationConfig) -> "CandidateStore":
    """Build the candidate tier a corpus' width calls for.

    ``mode="auto"`` picks flat int8 up to ``INT8_EXACT_MAX_DIM`` dims —
    where its code distances are exact integer arithmetic in a float32
    GEMM — and product quantization past that, where flat int8 loses both
    its exactness bound and its compression ratio.  "int8" / "pq" pin a
    layout regardless of width.  ``ivf=True`` wraps the chosen flat store
    in an :class:`~repro.core.ivf.IVFStore` coarse partition, which probes
    only the ``nprobe`` nearest cells per query and delegates back to the
    flat scan whenever the partition can't beat it (small corpus,
    ``nprobe >= cells``).
    """
    embeddings = _as_float_matrix(embeddings)
    mode = config.mode
    if mode == "auto":
        mode = ("int8" if embeddings.shape[1] <= INT8_EXACT_MAX_DIM
                else "pq")
    base: QuantizedStore | PQStore
    if mode == "pq":
        base = PQStore(embeddings, config)
    else:
        base = QuantizedStore(embeddings, config)
    if config.ivf:
        from ..ivf import IVFStore
        return IVFStore(embeddings, config, store=base)
    return base


def candidate_scan(queries: np.ndarray, embeddings: np.ndarray, k: int,
                   store: "CandidateStore | None" = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Corpus scan at the best attached precision: quantized candidates
    (int8 codes or PQ ADC) when a size-synced store is available, float
    otherwise.  With ``k · overfetch`` covering the whole corpus both
    stores degrade to the plain float scan — same indices, same distances,
    no duplicate or missing candidates."""
    if store is not None and len(store) == len(embeddings):
        return store.search(queries, embeddings, k)
    return exact_search(queries, embeddings, k)
