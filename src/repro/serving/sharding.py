"""RCS sharding: partitioning, the per-shard runtime, and the top-k merge.

A sharded serving node splits the RCS into ``num_shards`` independent
slices.  Each slice is owned by one worker process holding its own
:class:`ShardRuntime` — embeddings, a quantized candidate store selected
for *that slice's* size and width, and a
:class:`~repro.serving.breaker.TierBreaker` walking the slice's tier
ladder.  The supervisor scatters query embeddings to every shard and
merges the per-shard top-k with the same lowest-index tie-breaking as the
single-process path, so a fully-covered merge is bit-for-bit the answer
the unsharded advisor would have produced.

Partitioning is round-robin on the member index: shard ``s`` owns members
``s, s + S, s + 2S, ...``.  Round-robin keeps shard sizes balanced within
one member and — unlike contiguous ranges — spreads any temporal structure
in the corpus (members are appended in labeling order) evenly, so no
shard degenerates into "all the datasets from one generation".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core.ivf import IVFStore
from ..core.serving import (INT8_EXACT_MAX_DIM, CandidateStore,
                            QuantizationConfig, candidate_scan, exact_search,
                            select_quantizer)
from .breaker import BreakerConfig, ShardHealth, TierBreaker

#: The full tier-degradation ladder, best tier first.  Each shard serves
#: the longest suffix its corpus supports (see :func:`tier_ladder`).
FULL_LADDER = ("pq", "int8", "exact")


def partition_members(num_members: int, num_shards: int) -> list[np.ndarray]:
    """Round-robin member partition: shard ``s`` owns ``s, s+S, s+2S, ...``.

    Shards beyond the member count come back empty (the supervisor clamps
    the shard count, but the function stays total).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    members = np.arange(num_members, dtype=np.int64)
    return [members[s::num_shards] for s in range(num_shards)]


def merge_top_k(indices_parts: list[np.ndarray],
                distances_parts: list[np.ndarray],
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ([Q, k_s] global ids, [Q, k_s] distances) to top-k.

    Ties break by lowest global member index — the same rule as
    :func:`~repro.core.serving.top_k_neighbors` — so a merge over shards
    that each searched exactly reproduces the single-process result
    bit-for-bit.  Shards may contribute fewer than ``k`` columns (slices
    smaller than k, or shards cut from a degraded response); the merge
    returns ``min(k, total available)`` columns.
    """
    parts_i = [np.atleast_2d(p) for p in indices_parts if p is not None]
    parts_d = [np.atleast_2d(p) for p in distances_parts if p is not None]
    if not parts_i or sum(p.shape[1] for p in parts_i) == 0:
        q = parts_i[0].shape[0] if parts_i else 0
        return (np.empty((q, 0), dtype=np.int64),
                np.empty((q, 0), dtype=np.float64))
    idx = np.concatenate(parts_i, axis=1)
    dist = np.concatenate(parts_d, axis=1)
    k = min(k, idx.shape[1])
    order = np.lexsort((idx, dist), axis=1)[:, :k]
    return (np.take_along_axis(idx, order, axis=1),
            np.take_along_axis(dist, order, axis=1))


def tier_ladder(dim: int, quantization: QuantizationConfig | None
                ) -> tuple[str, ...]:
    """The ladder a shard of width ``dim`` serves under.

    Without a quantized tier there is nothing to demote: the ladder is the
    exact scan alone.  With one, the top rung follows the
    :func:`~repro.core.serving.select_quantizer` width rule (PQ past the
    int8 exactness bound) and every demotion path ends at the exact scan.
    """
    if quantization is None or not quantization.enabled:
        return ("exact",)
    mode = quantization.mode
    if mode == "auto":
        mode = "int8" if dim <= INT8_EXACT_MAX_DIM else "pq"
    start = FULL_LADDER.index(mode)
    return FULL_LADDER[start:]


@dataclass
class ShardSpec:
    """Everything a worker needs to build its :class:`ShardRuntime`.

    Plain arrays and config dataclasses only, so the spec pickles cleanly
    through a spawn-context process boundary.
    """

    shard_id: int
    global_ids: np.ndarray                 # [n_s] member ids in the full RCS
    embeddings: np.ndarray                 # [n_s, d] the shard's slice
    quantization: QuantizationConfig | None = None
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: Replay a recall self-probe every this many requests (0 disables).
    probe_every: int = 16
    #: Members sampled (and k used) by the recall self-probe.
    probe_sample: int = 8
    probe_k: int = 5
    seed: int = 0


class ShardRuntime:
    """One shard's serving state: embeddings, tier stores, breaker.

    The runtime serves global member ids (mapped through the shard's
    ``global_ids``) so the supervisor's merge never sees shard-local
    indices.  Tier stores are built lazily per ladder rung and cached —
    a demotion to int8 does not retrain the PQ codebooks it may later be
    re-promoted to.
    """

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.shard_id = spec.shard_id
        self.global_ids = np.asarray(spec.global_ids, dtype=np.int64)
        self.embeddings = np.atleast_2d(np.asarray(spec.embeddings))
        if len(self.global_ids) != len(self.embeddings):
            raise ValueError("global_ids and embeddings must align")
        n, dim = self.embeddings.shape
        self.ladder = tier_ladder(dim if n else 0, spec.quantization)
        self.breaker = TierBreaker(self.ladder, spec.breaker)
        self._stores: dict[str, CandidateStore] = {}
        self.requests_served = 0
        self.last_health = ShardHealth()
        self._rng = np.random.default_rng(spec.seed + 7919 * spec.shard_id)

    def __len__(self) -> int:
        return len(self.global_ids)

    # -- tiers ------------------------------------------------------------
    def _store_for(self, tier: str) -> CandidateStore | None:
        """The cached candidate store of a ladder rung (None = exact)."""
        if tier == "exact" or len(self) == 0:
            return None
        store = self._stores.get(tier)
        if store is None:
            config = self.spec.quantization or QuantizationConfig()
            store = select_quantizer(self.embeddings,
                                     replace(config, enabled=True, mode=tier))
            self._stores[tier] = store
        return store

    def scramble_store(self, tier: str | None = None) -> None:
        """Deterministically corrupt a tier's codes (fault-injection hook).

        Overwrites the live code matrix with seeded noise while leaving the
        calibration in place, modeling a quantizer whose codes have rotted
        (bad restore, bit flips, stale snapshot).  Candidate selection at
        that tier degrades; the float re-rank keeps returned distances
        exact, so the damage is visible only through recall — exactly the
        failure the breaker's recall probe exists to catch.
        """
        tier = tier or self.breaker.tier
        store = self._store_for(tier)
        if store is None:
            return
        if isinstance(store, IVFStore):
            # The IVF wrapper serves codes out of cell-ordered block
            # copies; scramble the flat store underneath and drop the
            # blocks so the rot is what the probed scan actually reads.
            store.invalidate_blocks()
            store = store.store
        codes = store.codes
        noise = self._rng.integers(0, 127, size=codes.shape)
        codes[...] = noise.astype(codes.dtype)
        # Drop the stores' GEMM/scan memos so the scrambled codes are what
        # the next search actually reads.
        if hasattr(store, "_codes_float"):
            store._codes_float = None
        if hasattr(store, "_gather_codes"):
            store._gather_codes = None

    # -- serving ----------------------------------------------------------
    def search(self, queries: np.ndarray, k: int
               ) -> tuple[np.ndarray, np.ndarray]:
        """([Q, k'] global member ids, [Q, k'] distances), k' = min(k, n).

        Serves at the breaker's current tier, replays the recall self-probe
        on schedule, and feeds the observation back into the breaker.
        """
        queries = np.atleast_2d(np.asarray(queries))
        n = len(self)
        if n == 0 or k <= 0:
            empty = np.empty((len(queries), 0), dtype=np.float64)
            return empty.astype(np.int64), empty
        self.requests_served += 1
        tier = self.breaker.tier
        store = self._store_for(tier)
        local, dist = candidate_scan(queries, self.embeddings, min(k, n),
                                     store)
        # Shard slices are frozen after the scatter partition, so the
        # quantizer drift counter (an online-add observable) stays zero
        # here; the breaker still honors it for runtimes that grow.
        health = ShardHealth(recall_probe=self._maybe_probe(tier, store))
        self.last_health = health
        self.breaker.observe(health)
        return self.global_ids[local], dist

    def _maybe_probe(self, tier: str,
                     store: CandidateStore | None) -> float | None:
        """Recall@k of the current tier vs the exact scan, on schedule.

        Replays a seeded sample of the shard's own members.  Scan-shaped
        exact serving needs no probe — it *is* the ground truth.
        """
        spec = self.spec
        if (tier == "exact" or store is None or spec.probe_every <= 0
                or self.requests_served % spec.probe_every != 0):
            return None
        n = len(self)
        sample = min(spec.probe_sample, n)
        if sample == 0:
            return None
        rows = self._rng.choice(n, size=sample, replace=False)
        k = min(spec.probe_k, n)
        approx, _ = store.search(self.embeddings[rows], self.embeddings, k)
        exact, _ = exact_search(self.embeddings[rows], self.embeddings, k)
        return float(np.mean([len(set(a) & set(e)) / k
                              for a, e in zip(approx, exact)]))
