"""AutoCE: the model advisor facade.

Ties together the four stages of Fig. 3: feature engineering (Stage 2.1),
DML-based graph-encoder learning (Stage 2), incremental learning with Mixup
(Stage 3), and the KNN recommendation (Stage 4), plus the online adapting
of Sec. V-E.

Typical usage::

    advisor = AutoCE()
    advisor.fit(datasets, labels)                 # labels from the testbed
    rec = advisor.recommend(new_dataset, accuracy_weight=0.9)
    rec.model                                     # e.g. "DeepDB"

Serving fast path
-----------------
:meth:`AutoCE.recommend_batch` serves many datasets at once: every feature
graph is embedded in **one** GIN forward pass and the KNN search runs as a
single vectorized ``[Q, N]`` distance computation (Gram identity +
``argpartition``), so throughput scales with batch size instead of paying
per-query Python overhead::

    recs = advisor.recommend_batch(datasets, accuracy_weight=0.9)

Serving knobs
-------------
Every RCS is searched by one exact ``[Q, N]`` scan in the advisor's
dtype (:class:`~repro.core.serving.ExactIndex`, member norms cached as
the RCS grows).  Three knobs tune the rest of the serving path:

* **Persistent embedding cache** — both :meth:`recommend` and
  :meth:`recommend_batch` consult an LRU embedding memo-cache keyed by the
  feature graph's content fingerprint (``AutoCEConfig.embedding_cache_size``,
  set ``0`` to disable).  With ``AutoCEConfig.embedding_cache_dir`` set the
  cache is write-through to disk and stamped with a content hash of the
  encoder weights, so a serving node restarted from
  :func:`~repro.core.persistence.load_advisor` serves repeat traffic from
  disk without a single GIN forward — while any retraining (``fit`` /
  ``adapt_online``) changes the stamp and invalidates every stale entry.
* **Parallel featurization** — ``AutoCEConfig.featurize_workers`` fans the
  per-dataset featurizer out over a thread pool (the column kernels are
  numpy-heavy and release the GIL); ``0`` means one worker per CPU.
* **Mixed precision tiers** — ``AutoCEConfig.serving_dtype`` serves the KNN
  path at a lower tier than the training loop (float32 embeddings over
  float64 encoder weights, no destructive downcast).

``AutoCEConfig.featurize_sample_rows`` optionally enables the row-sampling
featurizer sketch for very large tables; the exact featurizer is the
default.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import DTypeLike

from ..db.schema import Dataset
from ..testbed.scores import ScoreLabel
from ..utils.cache import MISSING, LRUCache, PersistentLRUCache
from .dml import DMLConfig, DMLTrainer
from .encoder import GINEncoder
from .graph import DEFAULT_MAX_COLUMNS, FeatureGraph, build_feature_graph
from .incremental import IncrementalConfig, incremental_learning
from .online import DriftDetector, OnlineAdapter
from .serving import KNNPredictor, Recommendation, RecommendationCandidateSet


@dataclass
class AutoCEConfig:
    """All hyper-parameters of the advisor in one place."""

    max_columns: int = DEFAULT_MAX_COLUMNS
    hidden_dim: int = 96
    embedding_dim: int = 64
    num_layers: int = 2
    #: Numeric precision tier of the encoder, the DML training tensors and
    #: the serving embeddings: "float64" (reference, the default) or
    #: "float32" (the fast tier — half the memory bandwidth on the GIN and
    #: KNN kernels, with recommendation agreement measured in the README /
    #: ROADMAP precision-tier section).
    dtype: str = "float64"
    #: Mixed-tier mode: the precision tier of the *serving* embeddings (the
    #: RCS and every query embedding), independent of the training tier.
    #: ``None`` serves at ``dtype``; "float32" over a float64-trained
    #: advisor keeps the encoder weights at full precision (so later
    #: ``fit`` / ``adapt_online`` still train in float64) while the KNN
    #: kernels run on the fast tier — no destructive ``set_dtype`` downcast.
    serving_dtype: str | None = None
    #: The paper's Table IV optimum is k = 2 on a 1 000-dataset corpus; on
    #: this reproduction's smaller default corpus a slightly larger
    #: neighborhood averages out label noise (see the Table IV bench).
    knn_k: int = 5
    dml: DMLConfig = field(default_factory=DMLConfig)
    incremental: IncrementalConfig = field(default_factory=IncrementalConfig)
    use_incremental: bool = True
    #: False = the "No Augmentation" ablation of Fig. 11(b).
    incremental_augment: bool = True
    #: LRU capacity of the serving-path embedding memo-cache (0 disables).
    embedding_cache_size: int = 1024
    #: Directory for the disk tier of the embedding cache (None = in-memory
    #: only).  Entries survive process restarts; they are invalidated by a
    #: generation stamp derived from the encoder weights.
    embedding_cache_dir: str | None = None
    #: Thread-pool width for featurizing many datasets (1 = serial,
    #: 0 = one worker per CPU).
    featurize_workers: int = 1
    #: Row-sampling sketch for the featurizer (None = exact, the default).
    featurize_sample_rows: int | None = None
    seed: int = 0


class AutoCE:
    """The learned CE-model advisor (offline training, online prediction)."""

    def __init__(self, config: AutoCEConfig | None = None) -> None:
        self.config = config or AutoCEConfig()
        self.encoder: GINEncoder | None = None
        self.trainer: DMLTrainer | None = None
        self.rcs: RecommendationCandidateSet | None = None
        self.predictor = KNNPredictor(k=self.config.knn_k)
        self.detector = DriftDetector()
        self._graphs: list[FeatureGraph] = []
        self._labels: list[ScoreLabel] = []
        # The persistent variant needs the encoder-weight generation stamp,
        # so it is attached lazily once the advisor is fitted (or reloaded).
        self.embedding_cache: LRUCache | PersistentLRUCache | None = (
            LRUCache(self.config.embedding_cache_size)
            if self.config.embedding_cache_size > 0
            and not self.config.embedding_cache_dir else None)
        self._generation: str | None = None
        self.loss_history: list[float] = []

    # ------------------------------------------------------------------
    # Stage 2.1: feature engineering
    # ------------------------------------------------------------------
    def featurize(self, dataset: Dataset) -> FeatureGraph:
        return build_feature_graph(
            dataset, max_columns=self.config.max_columns,
            sample_rows=self.config.featurize_sample_rows)

    def featurize_many(
            self, datasets: list[Dataset] | list[FeatureGraph]
    ) -> list[FeatureGraph]:
        """Featurize a batch, fanning raw datasets out over a thread pool.

        Prebuilt :class:`FeatureGraph` entries pass through untouched.  With
        ``featurize_workers != 1`` the raw datasets are featurized
        concurrently — the column-statistics kernels are numpy-heavy and
        release the GIL, so multi-core serving nodes overlap them.
        """
        graphs: list = list(datasets)
        raw = [i for i, d in enumerate(graphs)
               if not isinstance(d, FeatureGraph)]
        workers = self.config.featurize_workers
        if workers == 0:
            workers = os.cpu_count() or 1
        if len(raw) > 1 and workers > 1:
            with ThreadPoolExecutor(max_workers=min(workers, len(raw))) as pool:
                built = list(pool.map(self.featurize,
                                      [graphs[i] for i in raw]))
            for i, graph in zip(raw, built):
                graphs[i] = graph
        else:
            for i in raw:
                graphs[i] = self.featurize(graphs[i])
        return graphs

    # ------------------------------------------------------------------
    # Stages 2–3: training
    # ------------------------------------------------------------------
    def fit(self, datasets: list[Dataset] | list[FeatureGraph],
            labels: list[ScoreLabel]) -> "AutoCE":
        """Train the advisor from labeled datasets (or prebuilt graphs)."""
        if len(datasets) != len(labels):
            raise ValueError("datasets and labels must align")
        return self.fit_graphs(self.featurize_many(datasets), labels)

    def fit_graphs(self, graphs: list[FeatureGraph],
                   labels: list[ScoreLabel]) -> "AutoCE":
        config = self.config
        self._graphs = list(graphs)
        self._labels = list(labels)
        self.encoder = GINEncoder(
            vertex_dim=graphs[0].vertex_dim,
            hidden_dim=config.hidden_dim,
            embedding_dim=config.embedding_dim,
            num_layers=config.num_layers,
            seed=config.seed,
            dtype=np.dtype(config.dtype),
        )
        self.trainer = DMLTrainer(self.encoder, config.dml)
        self.loss_history = self.trainer.train(self._graphs, self._labels)
        if config.use_incremental and len(graphs) >= 2 * config.incremental.folds:
            incremental_learning(self.trainer, self._graphs, self._labels,
                                 config.incremental,
                                 augment=config.incremental_augment)
        self._invalidate_embedding_cache()
        self._rebuild_rcs()
        return self

    def _rebuild_rcs(self) -> None:
        embeddings = np.asarray(self.encoder.embed(self._graphs),
                                dtype=self.serving_dtype)
        self.rcs = RecommendationCandidateSet(embeddings, list(self._labels))

    # ------------------------------------------------------------------
    # Embedding memo-cache
    # ------------------------------------------------------------------
    def embedding_generation(self) -> str:
        """Content hash of the encoder weights — the cache generation stamp.

        Two advisors with identical weights (e.g. one saved and reloaded on
        a restarted serving node) share a generation, so persistent cache
        entries stay valid across the restart; any retraining changes the
        weights and therefore the stamp.
        """
        if self.encoder is None:
            raise RuntimeError("AutoCE is not fitted; call fit() first")
        if self._generation is None:
            digest = hashlib.sha256()
            # The precision tier is part of the generation: identical logical
            # weights served at a different dtype produce different
            # embeddings, and a float32 node must never be handed a stale
            # float64 entry (or vice versa) from a shared cache directory.
            # The serving tier folds in for the same reason: cached rows
            # live at that tier.
            digest.update(str(self.encoder.dtype).encode())
            digest.update(str(self.serving_dtype).encode())
            for param in self.encoder.parameters():
                data = np.ascontiguousarray(param.data)
                digest.update(str(data.shape).encode())
                digest.update(str(data.dtype).encode())
                digest.update(data.tobytes())
            self._generation = digest.hexdigest()[:16]
        return self._generation

    def _serving_cache(self) -> LRUCache | PersistentLRUCache | None:
        """The embedding cache, attaching the persistent tier on first use."""
        config = self.config
        if config.embedding_cache_size <= 0:
            return self.embedding_cache
        if config.embedding_cache_dir:
            generation = self.embedding_generation()
            if isinstance(self.embedding_cache, PersistentLRUCache):
                self.embedding_cache.set_generation(generation)
            else:
                self.embedding_cache = PersistentLRUCache(
                    config.embedding_cache_dir,
                    maxsize=config.embedding_cache_size,
                    generation=generation)
        return self.embedding_cache

    def _invalidate_embedding_cache(self) -> None:
        """Drop memoized embeddings after any encoder weight change.

        The persistent cache re-stamps itself from the new weights on the
        next lookup (see :meth:`_serving_cache`), which also wipes the
        now-stale disk entries; the plain LRU is simply cleared.
        """
        self._generation = None
        if isinstance(self.embedding_cache, PersistentLRUCache):
            if self.encoder is not None:
                self.embedding_cache.set_generation(self.embedding_generation())
            else:
                self.embedding_cache.clear()
        elif self.embedding_cache is not None:
            self.embedding_cache.clear()

    # ------------------------------------------------------------------
    # Precision tiers
    # ------------------------------------------------------------------
    @property
    def serving_dtype(self) -> np.dtype:
        """The tier of the serving embeddings (RCS rows, query embeddings,
        embedding-cache entries): ``config.serving_dtype`` when the mixed-
        tier mode is on, the training ``config.dtype`` otherwise."""
        return np.dtype(self.config.serving_dtype or self.config.dtype)

    def set_dtype(self, dtype: DTypeLike) -> "AutoCE":
        """Switch the advisor's *full* precision tier (e.g. ``"float32"``).

        On a fitted advisor this casts the encoder weights in place,
        re-embeds the RCS on the new tier and invalidates the embedding
        cache (the generation stamp folds in the dtype, so persistent disk
        entries written at the old tier can never be served at the new one).
        Downcasting a float64-trained advisor to float32 is the supported
        destructive cast; *upcasting* a float32-trained (or float32-saved)
        advisor raises — the discarded mantissa bits are unrecoverable, and
        silently serving zero-padded float64 weights as if they were the
        full-precision originals is exactly the kind of bad cast the
        persistence metadata exists to prevent.  To serve a float64-trained
        advisor at a lower tier *without* losing the float64 weights, use
        :meth:`set_serving_dtype` (the mixed-tier mode) instead.
        """
        dtype = np.dtype(dtype)
        if dtype.name not in ("float32", "float64"):
            raise ValueError(f"unsupported precision tier {dtype.name!r}")
        if (self.encoder is not None
                and np.dtype(self.encoder.dtype) == np.float32
                and dtype == np.float64):
            raise ValueError(
                "cannot upcast a float32 advisor to float64: the encoder "
                "weights live at float32 (trained or reloaded from a "
                "float32 save) and the discarded mantissa bits are "
                "unrecoverable. "
                "Retrain at float64, or serve a float64-trained advisor at "
                "a lower tier with set_serving_dtype()/--serving-dtype "
                "instead of set_dtype().")
        self.config.dtype = dtype.name
        if self.encoder is not None and self.encoder.dtype != dtype:
            self.encoder.to(dtype)
            self._invalidate_embedding_cache()
            if self._graphs:
                self._rebuild_rcs()
        return self

    def set_serving_dtype(self, dtype: DTypeLike) -> "AutoCE":
        """Enter (or leave) the mixed-tier serving mode.

        ``dtype`` of ``None`` serves at the training tier again; "float32"
        over a float64-trained advisor is the scale-out configuration: the
        encoder keeps its float64 weights (later ``fit`` / ``adapt_online``
        calls still train at full precision) while the RCS, the query
        embeddings and the embedding cache move to the fast tier.  On a
        fitted advisor the RCS is re-derived from the full-precision encoder
        and the cache generation re-stamps itself, so entries written at the
        old serving tier are never served at the new one.
        """
        if dtype is not None:
            dtype = np.dtype(dtype)
            if dtype.name not in ("float32", "float64"):
                raise ValueError(
                    f"unsupported serving precision tier {dtype.name!r}")
        effective_before = self.serving_dtype
        self.config.serving_dtype = None if dtype is None else dtype.name
        # Re-asserting the tier the node already serves at (e.g. `repro
        # serve --serving-dtype float32` on an advisor *saved* with that
        # tier) must stay a no-op: the reloaded RCS rows are already
        # correct, and re-embedding the corpus would throw away exactly the
        # warm start persistence provides.  The cache stamp folds the
        # *effective* tier, so it is unchanged too.
        if self.encoder is not None and self.serving_dtype != effective_before:
            self._invalidate_embedding_cache()
            if self._graphs:
                self._rebuild_rcs()
        return self

    # ------------------------------------------------------------------
    # Stage 4: recommendation
    # ------------------------------------------------------------------
    def _embed_graphs(self, graphs: list[FeatureGraph]) -> np.ndarray:
        """Embed graphs through the memo-cache; misses share one forward."""
        cache = self._serving_cache()
        if cache is None:
            return np.asarray(self.encoder.embed(graphs),
                              dtype=self.serving_dtype)
        out = np.empty((len(graphs), self.encoder.embedding_dim),
                       dtype=self.serving_dtype)
        miss_indices: list[int] = []
        keys = [graph.fingerprint() for graph in graphs]
        for i, key in enumerate(keys):
            hit = cache.get(key, MISSING)
            if hit is MISSING:
                miss_indices.append(i)
            else:
                out[i] = hit
        if miss_indices:
            # Duplicate datasets within one cold batch share one forward row.
            positions_by_key: dict[str, list[int]] = {}
            for i in miss_indices:
                positions_by_key.setdefault(keys[i], []).append(i)
            fresh = np.asarray(self.encoder.embed(
                [graphs[positions[0]]
                 for positions in positions_by_key.values()]),
                dtype=self.serving_dtype)
            for row, (key, positions) in zip(fresh, positions_by_key.items()):
                cache.put(key, row)
                for i in positions:
                    out[i] = row
        return out

    def embed(self, dataset: Dataset | FeatureGraph) -> np.ndarray:
        self._require_fitted()
        graph = dataset if isinstance(dataset, FeatureGraph) else self.featurize(dataset)
        return self._embed_graphs([graph])[0]

    def embed_many(self, datasets: list[Dataset] | list[FeatureGraph]
                   ) -> np.ndarray:
        """Batched query embedding: parallel featurization + one forward.

        The public half of :meth:`recommend_batch`, exposed so external
        serving paths can embed through the same memo-cache and then run
        their own neighbor search.
        """
        self._require_fitted()
        if not datasets:
            return np.zeros((0, self.encoder.embedding_dim),
                            dtype=self.serving_dtype)
        return self._embed_graphs(self.featurize_many(datasets))

    def recommend(self, dataset: Dataset | FeatureGraph,
                  accuracy_weight: float = 1.0,
                  k: int | None = None) -> Recommendation:
        """Select the best CE model for a dataset under the given weights.

        ``accuracy_weight`` is w_a of Eq. 2 (w_e = 1 − w_a): 1.0 asks for
        pure accuracy, 0.0 for pure inference efficiency.
        """
        self._require_fitted()
        embedding = self.embed(dataset)
        return self.predictor.recommend(embedding, self.rcs, accuracy_weight, k=k)

    def recommend_batch(self, datasets: list[Dataset] | list[FeatureGraph],
                        accuracy_weight: float = 1.0,
                        k: int | None = None) -> list[Recommendation]:
        """Batched serving: one GIN forward + one vectorized KNN for Q queries.

        Equivalent to ``[self.recommend(d, accuracy_weight, k) for d in
        datasets]`` but orders of magnitude cheaper at high throughput: raw
        datasets are featurized in parallel (``featurize_workers``), cache
        misses are embedded together in a single forward pass, and the KNN
        search runs one vectorized exact pass.
        """
        self._require_fitted()
        if not datasets:
            return []
        return self.predictor.recommend_batch(
            self.embed_many(datasets), self.rcs, accuracy_weight, k=k)

    # ------------------------------------------------------------------
    # Online adapting (Sec. V-E)
    # ------------------------------------------------------------------
    def is_drifted(self, dataset: Dataset | FeatureGraph) -> bool:
        """True when the dataset falls outside the trained distribution."""
        self._require_fitted()
        return self.detector.is_drifted(self.embed(dataset), self.rcs)

    def adapt_online(self, dataset: Dataset | FeatureGraph,
                     label: ScoreLabel, update_epochs: int = 5) -> None:
        """Incorporate a freshly labeled drifted dataset (online learning)."""
        self._require_fitted()
        graph = dataset if isinstance(dataset, FeatureGraph) else self.featurize(dataset)
        adapter = OnlineAdapter(self.trainer, self.detector, update_epochs)
        adapter.adapt(graph, label, self._graphs, self._labels, self.rcs)
        if self.rcs.embeddings.dtype != self.serving_dtype:
            # Safety net only: the adapter refreshes the RCS on its own
            # tier, so this recast (a second norm rebuild) runs only if the
            # RCS somehow left the configured serving tier.
            self.rcs.replace_embeddings(
                np.asarray(self.rcs.embeddings, dtype=self.serving_dtype))
        self._invalidate_embedding_cache()

    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if self.encoder is None or self.rcs is None:
            raise RuntimeError("AutoCE is not fitted; call fit() first")
