"""IVF coarse partitioning over the quantized candidate tiers.

Every quantized candidate pass so far — the flat-int8 code GEMM and the PQ
ADC gathers — still touches all N RCS members per query.  This module adds
the standard inverted-file (IVF) layout on top of either store: a coarse
quantizer (``seeded_kmeans``, the same deterministic trainer the PQ
codebooks use) partitions the corpus into cells, the member codes are
materialized as per-cell *contiguous* blocks, and a query only scans the
``nprobe`` cells whose centroids are nearest — turning the candidate-pass
cost from O(N) into O(N/cells · nprobe) plus one [Q, cells] coarse GEMM.

The wrapped store keeps the corpus in its **original member order** and
stays fully functional: :class:`IVFStore` delegates drift accounting and
— crucially — the whole search whenever probing would cover every cell
anyway (``nprobe ≥ cells``), the corpus is below the IVF floor, or the
overfetch pool covers the corpus.  Delegation, not recomputation, is what
makes the ``nprobe ≥ cells`` edge **bit-for-bit** identical to the non-IVF
store: code-distance ties straddling the pool boundary would otherwise be
resolved under a different scan order.

The probed scan mirrors the store kernels exactly: int8 cells run the same
integer-exact code GEMM over contiguous block slices, PQ cells gather the
same folded ADC tables; the per-query survivors (``k · overfetch``, pooled
across the probed cells) are re-ranked in the float tier with the same
padded Gram-identity + ``top_k_neighbors`` idiom, so returned distances
are float-tier exact and ties break by lowest member index — the contract
every other serving path honors.

Determinism: the coarse trainer draws only from ``np.random.default_rng``
seeded with the quantization config seed, cell assignment ties break by
lowest centroid index (``argmin``), and the per-cell scan order is a stable
argsort — identical corpus and config produce bit-identical probes.
"""

from __future__ import annotations

import numpy as np

from .serving import quantizers as _quantizers
from .serving import (PQStore, QuantizationConfig, QuantizedStore,
                      _as_float_matrix, _common_dtype,
                      squared_distance_matrix, top_k_neighbors)

#: Hard ceiling of the auto cell-count rule (≈√N, clipped): past this the
#: coarse probe GEMM itself starts to rival the savings.
_MAX_AUTO_CELLS = 4096


def auto_cells(n: int) -> int:
    """The auto cell count for an ``n``-member corpus: ≈ √N, clipped.

    √N balances the two costs a probe pays — the [Q, cells] coarse GEMM
    and the ``nprobe · N/cells`` member scan — the standard IVF sizing.
    """
    return int(np.clip(np.rint(np.sqrt(max(n, 1))), 1, _MAX_AUTO_CELLS))


class IVFStore:
    """An inverted-file coarse partition wrapped around a candidate store.

    The base store (:class:`QuantizedStore` or :class:`PQStore`) owns the
    codes, the calibration and the drift counters, all in original member
    order; this wrapper owns only the coarse geometry — centroids, member→
    cell assignments, and lazily materialized cell-ordered code blocks —
    and the probed search path.  Everything else delegates, so attaching
    IVF never changes what a non-probed code path computes.
    """

    def __init__(self, embeddings: np.ndarray,
                 config: QuantizationConfig | None = None,
                 store: QuantizedStore | PQStore | None = None) -> None:
        self.config = config or QuantizationConfig()
        if store is None:
            base_mode = self.config.mode
            if base_mode == "auto":
                width = _as_float_matrix(embeddings).shape[1]
                base_mode = ("int8"
                             if width <= _quantizers.INT8_EXACT_MAX_DIM
                             else "pq")
            store = (PQStore(embeddings, self.config) if base_mode == "pq"
                     else QuantizedStore(embeddings, self.config))
        self.store = store
        self.centroids = np.zeros((1, 1), dtype=np.float64)
        self._assignments = np.zeros(4, dtype=np.int64)
        self._size = 0
        self._cell_members: np.ndarray | None = None
        self._cell_offsets: np.ndarray | None = None
        self._blocks: tuple | None = None
        self._member_norms: np.ndarray | None = None
        self._train_coarse(embeddings)

    @property
    def kind(self) -> str:
        """Layout tag: the base tag behind an ``ivf-`` prefix (tier
        reports and the serving CLI surface it)."""
        return f"ivf-{self.store.kind}"

    def __len__(self) -> int:
        return self._size

    @property
    def codes(self) -> np.ndarray:
        """The base store's live code matrix (original member order)."""
        return self.store.codes

    @property
    def num_cells(self) -> int:
        return len(self.centroids)

    # -- coarse calibration ----------------------------------------------
    def _train_coarse(self, embeddings: np.ndarray) -> None:
        """(Re)train the coarse quantizer and assign every member."""
        emb = np.asarray(_as_float_matrix(embeddings), dtype=np.float64)
        n, dim = emb.shape
        config = self.config
        cells = config.ivf_cells if config.ivf_cells > 0 else auto_cells(n)
        cells = max(1, min(cells, max(n, 1)))
        if n == 0:
            self.centroids = np.zeros((1, max(dim, 1)), dtype=np.float64)
            assignments = np.zeros(0, dtype=np.int64)
        else:
            rng = np.random.default_rng(config.seed)
            train = emb
            if n > config.kmeans_sample:
                train = emb[np.sort(
                    rng.choice(n, config.kmeans_sample, replace=False))]
            self.centroids = _quantizers.seeded_kmeans(
                train, cells, rng, config.kmeans_iters)
            assignments = squared_distance_matrix(
                emb, self.centroids).argmin(axis=1).astype(np.int64)
        capacity = max(4, n)
        self._assignments = np.zeros(capacity, dtype=np.int64)
        self._assignments[:n] = assignments
        self._size = n
        self._cell_members = None
        self._cell_offsets = None
        self._blocks = None
        self._member_norms = None

    def recalibrate(self, embeddings: np.ndarray) -> None:
        """Full recalibration: base store first, then the coarse layer."""
        self.store.recalibrate(embeddings)
        self._train_coarse(embeddings)

    # -- growth ----------------------------------------------------------
    def add(self, embedding: np.ndarray) -> bool:
        """Assign one appended row to its nearest (frozen) cell and forward
        the append to the base store; the base drift verdict propagates —
        the RCS responds with :meth:`recalibrate`, which also retrains the
        coarse centroids."""
        row = np.asarray(_as_float_matrix(embedding),
                         dtype=np.float64).reshape(1, -1)
        cell = int(squared_distance_matrix(row, self.centroids)[0].argmin())
        if self._size == len(self._assignments):
            grown = np.zeros(2 * self._size, dtype=np.int64)
            grown[:self._size] = self._assignments[:self._size]
            self._assignments = grown
        self._assignments[self._size] = cell
        self._size += 1
        self._cell_members = None
        self._cell_offsets = None
        self._blocks = None
        self._member_norms = None
        return self.store.add(embedding)

    # -- cell layout ------------------------------------------------------
    def invalidate_blocks(self) -> None:
        """Drop the materialized cell blocks (the fault-injection harness
        mutates the base codes in place; the next probe re-gathers)."""
        self._blocks = None

    def _refresh_cells(self) -> None:
        """Rebuild the CSR cell layout after adds or recalibration.

        Members are stably sorted by cell, so within each cell block the
        member ids are ascending — the order the padded re-rank's
        lowest-index tie-break relies on never needs a second sort.
        """
        if (self._cell_members is not None
                and len(self._cell_members) == self._size):
            return
        assign = self._assignments[:self._size]
        self._cell_members = np.argsort(
            assign, kind="stable").astype(np.int64)
        counts = np.bincount(assign, minlength=len(self.centroids))
        offsets = np.zeros(len(self.centroids) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self._cell_offsets = offsets
        self._blocks = None

    def _cell_blocks(self) -> tuple:
        """Materialize (lazily) the cell-ordered code blocks.

        One fancy-index gather per corpus change turns every probed cell
        into a *contiguous* slice: the int8 path slices a [N, d] GEMM-tier
        code matrix, the PQ path slices [M, N] transposed code rows (plus
        the residual scan bias) — cache-hot dense kernels instead of
        per-probe scatter gathers.
        """
        if self._blocks is not None:
            return self._blocks
        members = self._cell_members
        assert members is not None
        if isinstance(self.store, QuantizedStore):
            codes = self.store._codes_gemm()[members]
            norms = self.store._norms[:self._size][members]
            self._blocks = ("int8", codes, norms)
        else:
            code_sets = [np.ascontiguousarray(cs[:, members])
                         for cs in self.store._scan_codes()]
            bias = None
            if self.store._scan_bias is not None:
                bias = self.store._scan_bias[:self._size][members]
            self._blocks = ("pq", code_sets, bias)
        return self._blocks

    # -- the probed scan --------------------------------------------------
    def _probe_cells(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        """[Q, P] nearest-centroid cells per query (lowest-index ties)."""
        q = np.asarray(_as_float_matrix(queries), dtype=np.float64)
        coarse = squared_distance_matrix(q, self.centroids)
        return top_k_neighbors(coarse, nprobe)

    def _scan_probed(self, queries: np.ndarray, probed: np.ndarray,
                     pool: int) -> tuple[np.ndarray, np.ndarray]:
        """Pool the ``pool`` code-space-best members over each query's
        probed cells.

        Returns ``(members, counts)``: [Q, pool] member ids ordered
        valid-first then ascending (the re-rank contract), and the [Q]
        count of valid slots.  Cells are processed grouped — one dense
        kernel per (cell, querying-subset) — with per-cell partial top-k
        taken while the block is cache-resident, exactly like the PQ
        chunk-local scan.
        """
        blocks = self._cell_blocks()
        offsets = self._cell_offsets
        members_by_cell = self._cell_members
        assert offsets is not None and members_by_cell is not None
        num_queries, p = probed.shape
        store = self.store
        if isinstance(store, QuantizedStore):
            qcodes, qnorms = store.query_context(queries)
            val_dtype = qcodes.dtype
            num_subspaces = 0
            tables: list[np.ndarray] = []
        else:
            tables = store.query_context(queries)
            val_dtype = np.dtype(np.float32)
            num_subspaces = store.num_subspaces
        out_vals = np.full((num_queries, p, pool), np.inf, dtype=val_dtype)
        out_pos = np.zeros((num_queries, p, pool), dtype=np.int64)

        flat = probed.ravel()
        order = np.argsort(flat, kind="stable").astype(np.int64)
        sorted_cells = flat[order]
        starts = np.flatnonzero(
            np.concatenate((np.ones(1, dtype=bool),
                            sorted_cells[1:] != sorted_cells[:-1])))
        bounds = np.append(starts, len(sorted_cells))
        for g in range(len(starts)):
            lo, hi = int(bounds[g]), int(bounds[g + 1])
            cell = int(sorted_cells[lo])
            s, e = int(offsets[cell]), int(offsets[cell + 1])
            width = e - s
            if width == 0:
                continue
            sel = order[lo:hi]
            rows = sel // p
            slots = sel % p
            if blocks[0] == "int8":
                _, codes, norms = blocks
                dots = qcodes[rows] @ codes[s:e].T
                block = (norms[s:e][None, :] + qnorms[rows][:, None]
                         - 2.0 * dots)
            else:
                _, code_sets, bias = blocks
                if bias is not None:
                    block = np.broadcast_to(
                        bias[s:e], (len(rows), width)).astype(
                            np.float32, copy=True)
                    first = 0
                else:
                    block = np.take(tables[0][0][rows],
                                    code_sets[0][0][s:e], axis=1)
                    first = 1
                for pass_id, (table, codes_t) in enumerate(
                        zip(tables, code_sets)):
                    start_sub = first if pass_id == 0 else 0
                    for i in range(start_sub, num_subspaces):
                        block += np.take(table[i][rows],
                                         codes_t[i][s:e], axis=1)
            keep = min(pool, width)
            if keep < width:
                local = np.argpartition(block, keep - 1, axis=1)[:, :keep]
                out_vals[rows, slots, :keep] = np.take_along_axis(
                    block, local, axis=1)
                out_pos[rows, slots, :keep] = local + s
            else:
                out_vals[rows, slots, :width] = block
                out_pos[rows, slots, :width] = np.arange(
                    s, e, dtype=np.int64)[None, :]

        vals = out_vals.reshape(num_queries, p * pool)
        pos = out_pos.reshape(num_queries, p * pool)
        final = np.argpartition(vals, pool - 1, axis=1)[:, :pool]
        sel_vals = np.take_along_axis(vals, final, axis=1)
        sel_pos = np.take_along_axis(pos, final, axis=1)
        members = members_by_cell[sel_pos]
        valid = np.isfinite(sel_vals)
        # Valid-first, then ascending member id: the padded re-rank breaks
        # ties by (local) position, which must coincide with lowest member
        # index.
        reorder = np.lexsort((members, ~valid), axis=1)
        members = np.take_along_axis(members, reorder, axis=1)
        counts = valid.sum(axis=1)
        return members, counts

    def search(self, queries: np.ndarray, embeddings: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
        """Probed candidate pass + padded float-tier re-rank.

        Delegation edges (the whole search runs on the base store, making
        these cases bit-for-bit identical to the non-IVF tier):

        * ``nprobe ≥ cells`` — probing covers every cell anyway;
        * corpus below ``ivf_min_size`` or ``min_size``;
        * ``k · overfetch`` pool covering the corpus (the base store
          further degrades to the exact float scan).

        Like every store, an embedding matrix of unrecognized length heals
        by full recalibration (base + coarse).
        """
        embeddings = np.atleast_2d(np.asarray(embeddings))
        queries = _as_float_matrix(queries)
        n = len(embeddings)
        if n != self._size or n != len(self.store):
            self.recalibrate(embeddings)
        k = min(k, n)
        pool = k * max(self.config.overfetch, 1)
        nprobe = max(self.config.nprobe, 1)
        if (nprobe >= len(self.centroids)
                or n < self.config.ivf_min_size
                or n < self.config.min_size
                or pool >= n):
            return self.store.search(queries, embeddings, k)
        self._refresh_cells()
        probed = self._probe_cells(queries, nprobe)
        members, counts = self._scan_probed(queries, probed, pool)

        dtype = _common_dtype(queries, embeddings)
        qcast = queries.astype(dtype, copy=False)
        norms = self._float_norms(embeddings, dtype)
        width = members.shape[1]
        gathered = embeddings[members].astype(dtype, copy=False)
        dots = (gathered @ qcast[:, :, None])[:, :, 0]
        query_norms = (qcast * qcast).sum(axis=1)
        padded = np.maximum(
            norms[members] + query_norms[:, None] - 2.0 * dots, 0.0)
        padded[np.arange(width) >= counts[:, None]] = np.inf
        local = top_k_neighbors(padded, k)
        indices = np.take_along_axis(members, local, axis=1)
        distances = np.sqrt(np.take_along_axis(padded, local, axis=1))
        short = counts < k
        if short.any():
            # Probed cells held fewer than k members for these queries —
            # the base store answers them over the full corpus.
            s_idx, s_dist = self.store.search(qcast[short], embeddings, k)
            indices[short] = s_idx
            distances[short] = s_dist.astype(distances.dtype, copy=False)
        return indices, distances

    def _float_norms(self, embeddings: np.ndarray,
                     dtype: np.dtype) -> np.ndarray:
        """Memoized float-tier ``‖x‖²`` (bit-identical to recomputation —
        same reduction over the same cast — dropped on add/recalibrate)."""
        if (self._member_norms is None
                or len(self._member_norms) != len(embeddings)
                or self._member_norms.dtype != dtype):
            cast = np.asarray(embeddings, dtype=dtype)
            self._member_norms = (cast * cast).sum(axis=1)
        return self._member_norms

    # -- persistence ------------------------------------------------------
    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """(arrays, JSON-able meta) capturing coarse + base state."""
        arrays, meta = self.store.export_state()
        arrays = dict(arrays)
        arrays["ivf_centroids"] = self.centroids
        arrays["ivf_assignments"] = self._assignments[:self._size]
        meta = dict(meta)
        meta["ivf"] = True
        return arrays, meta

    @classmethod
    def restore(cls, embeddings: np.ndarray, config: QuantizationConfig,
                arrays: dict[str, np.ndarray], meta: dict,
                store: QuantizedStore | PQStore) -> "IVFStore":
        """Rebuild from persisted state — no k-means, no re-encoding."""
        ivf = cls.__new__(cls)
        ivf.config = config
        ivf.store = store
        ivf.centroids = np.asarray(arrays["ivf_centroids"],
                                   dtype=np.float64)
        assignments = np.asarray(arrays["ivf_assignments"], dtype=np.int64)
        n = len(assignments)
        capacity = max(4, n)
        ivf._assignments = np.zeros(capacity, dtype=np.int64)
        ivf._assignments[:n] = assignments
        ivf._size = n
        ivf._cell_members = None
        ivf._cell_offsets = None
        ivf._blocks = None
        ivf._member_norms = None
        return ivf
