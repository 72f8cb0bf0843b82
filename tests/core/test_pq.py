"""Property tests for the product-quantization candidate tier (:class:`PQStore`).

Each class pins one property of the PQ tier over seeded randomized
embedding clouds: bit-identical codebooks from the same RNG (the CI
determinism contract), the ADC reconstruction-error bound against exact
distances, a ranking-correlation floor (Kendall tau) on the overfetch
candidate pool, degenerate corpora (constant columns, corpora smaller
than the codebook), drift-triggered recalibration, the
:func:`select_quantizer` width rule, and the overfetch edge — for flat
int8 and PQ alike — where ``k · overfetch ≥ N`` must degrade to the
plain float scan with no duplicate or missing candidates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serving import (INT8_EXACT_MAX_DIM, PQStore,
                                QuantizationConfig, QuantizedStore,
                                RecommendationCandidateSet, candidate_scan,
                                exact_search, seeded_kmeans,
                                select_quantizer)
from repro.testbed.scores import ScoreLabel

SEEDS = range(6)


def family_cloud(seed: int, families: int = 40, per_family: int = 6,
                 dim: int = 48, spread: float = 8.0,
                 noise: float = 0.5) -> np.ndarray:
    """A family-structured wide cloud (the regime PQ serves)."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(families, dim)) * spread
    return (centers[:, None, :]
            + noise * rng.normal(size=(families, per_family, dim))
            ).reshape(-1, dim)


def pq_config(**overrides) -> QuantizationConfig:
    base = dict(enabled=True, mode="pq", num_subspaces=8, codebook_size=32,
                min_size=16, overfetch=4)
    base.update(overrides)
    return QuantizationConfig(**base)


def kendall_tau(a: np.ndarray, b: np.ndarray) -> float:
    """Tau-a over all pairs (ties count as neither concordant nor not)."""
    iu = np.triu_indices(len(a), 1)
    s = (np.sign(a[:, None] - a[None, :])
         * np.sign(b[:, None] - b[None, :]))[iu]
    return float(s.sum() / len(s))


class TestSeededKMeansDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_rng_gives_bit_identical_codebooks_and_codes(self, seed):
        emb = family_cloud(seed)
        a = PQStore(emb, pq_config(seed=seed))
        b = PQStore(emb, pq_config(seed=seed))
        for ca, cb in zip(a.codebooks, b.codebooks):
            np.testing.assert_array_equal(ca, cb)
        np.testing.assert_array_equal(a.codes, b.codes)
        np.testing.assert_array_equal(a.reconstruct(), b.reconstruct())

    def test_recalibrate_reproduces_the_construction_state(self):
        emb = family_cloud(0)
        store = PQStore(emb, pq_config())
        codes = store.codes.copy()
        books = [c.copy() for c in store.codebooks]
        store.recalibrate(emb)
        np.testing.assert_array_equal(store.codes, codes)
        for before, after in zip(books, store.codebooks):
            np.testing.assert_array_equal(before, after)

    def test_kmeans_with_fewer_rows_than_centroids_duplicates_head(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4))
        centroids = seeded_kmeans(x, 16, np.random.default_rng(1), 8)
        # Every distinct row earns a centroid; the overflow duplicates
        # deterministically instead of crashing or going random.
        assert len(centroids) == 5
        again = seeded_kmeans(x, 16, np.random.default_rng(1), 8)
        np.testing.assert_array_equal(centroids, again)

    def test_kmeans_duplicate_rows_break_ties_deterministically(self):
        x = np.tile(np.arange(3.0)[:, None], (4, 2))   # 12 rows, 3 distinct
        a = seeded_kmeans(x, 8, np.random.default_rng(3), 8)
        b = seeded_kmeans(x, 8, np.random.default_rng(3), 8)
        np.testing.assert_array_equal(a, b)


class TestADCReconstructionBound:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_adc_distance_error_is_bounded_by_reconstruction_error(
            self, seed):
        """``adc + ‖q‖²`` is exactly ``‖q − x̂‖²`` (up to float32), so by
        the triangle inequality the ADC distance can differ from the true
        distance by at most the member's reconstruction error."""
        emb = family_cloud(seed)
        store = PQStore(emb, pq_config(seed=seed))
        queries = emb[::7] + 0.1
        adc = store.adc_distances(queries).astype(np.float64)
        qnorm = (queries * queries).sum(axis=1)
        adc_dist = np.sqrt(np.maximum(adc + qnorm[:, None], 0.0))
        true_dist = np.sqrt(
            ((queries[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2))
        recon_err = np.sqrt(
            ((emb - store.reconstruct()) ** 2).sum(axis=1))
        slack = 1e-3 * (1.0 + true_dist.max())   # float32 table rounding
        assert (np.abs(adc_dist - true_dist)
                <= recon_err[None, :] + slack).all()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_residual_refinement_reduces_reconstruction_error(self, seed):
        emb = family_cloud(seed)
        plain = PQStore(emb, pq_config(seed=seed))
        refined = PQStore(emb, pq_config(seed=seed, residual=True))
        err = ((emb - plain.reconstruct()) ** 2).sum()
        err_refined = ((emb - refined.reconstruct()) ** 2).sum()
        assert err_refined < err

    def test_residual_search_matches_exact_on_separated_clouds(self):
        emb = family_cloud(1, spread=30.0, noise=0.2)
        store = PQStore(emb, pq_config(seed=1, residual=True))
        queries = emb[::5] + 0.05
        qi, qd = store.search(queries, emb, 5)
        ei, ed = exact_search(queries, emb, 5)
        np.testing.assert_array_equal(qi, ei)
        np.testing.assert_allclose(qd, ed, rtol=1e-6, atol=1e-9)


class TestRankingCorrelation:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_kendall_tau_floor_on_the_overfetch_pool(self, seed):
        """The ADC ordering of each query's top ``k · overfetch``
        candidates must correlate with the exact ordering — the ranking-
        fidelity contract a candidate tier is actually serving under."""
        emb = family_cloud(seed)
        config = pq_config(seed=seed)
        store = PQStore(emb, config)
        queries = emb[::11] + 0.2
        adc = store.adc_distances(queries)
        true_sq = ((queries[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2)
        pool = 5 * config.overfetch
        taus = []
        for q in range(len(queries)):
            candidates = np.argpartition(adc[q], pool - 1)[:pool]
            taus.append(kendall_tau(adc[q][candidates],
                                    true_sq[q][candidates]))
        assert np.mean(taus) >= 0.5
        assert min(taus) > 0.0

    def test_search_matches_exact_on_separated_clouds(self):
        emb = family_cloud(2, spread=30.0, noise=0.2)
        store = PQStore(emb, pq_config(seed=2))
        queries = emb[::5] + 0.05
        qi, qd = store.search(queries, emb, 5)
        ei, ed = exact_search(queries, emb, 5)
        np.testing.assert_array_equal(qi, ei)
        np.testing.assert_allclose(qd, ed, rtol=1e-6, atol=1e-9)


class TestDegenerateCorpora:
    def test_constant_columns_encode_and_search(self):
        emb = family_cloud(3)
        emb[:, ::3] = 7.25                       # a third of the dims frozen
        store = PQStore(emb, pq_config(seed=3))
        recon = store.reconstruct()
        np.testing.assert_allclose(recon[:, ::3], 7.25, atol=1e-9)
        qi, _ = store.search(emb[:4] + 0.01, emb, 3)
        ei, _ = exact_search(emb[:4] + 0.01, emb, 3)
        np.testing.assert_array_equal(qi, ei)

    def test_corpus_smaller_than_codebook_reconstructs_exactly(self):
        emb = family_cloud(4)[:10]
        store = PQStore(emb, pq_config(seed=4, codebook_size=256,
                                       min_size=2, overfetch=1))
        # Ten distinct rows, 256 centroids: every row earns its own
        # centroid and the reconstruction is exact.
        np.testing.assert_allclose(store.reconstruct(), emb,
                                   rtol=1e-12, atol=1e-9)
        qi, _ = store.search(emb[:3] + 0.01, emb, 2)
        ei, _ = exact_search(emb[:3] + 0.01, emb, 2)
        np.testing.assert_array_equal(qi, ei)

    def test_constant_corpus_serves_below_min_size(self):
        emb = np.full((32, 40), 7.25)
        store = PQStore(emb, pq_config(min_size=64))
        idx, dist = store.search(emb[:4], emb, 3)
        np.testing.assert_array_equal(idx, [[0, 1, 2]] * 4)
        np.testing.assert_array_equal(dist, 0.0)

    def test_single_member_rcs(self):
        emb = family_cloud(5)[:1]
        store = PQStore(emb, pq_config(min_size=1, overfetch=1))
        idx, dist = store.search(emb, emb, 5)
        np.testing.assert_array_equal(idx, [[0]])
        np.testing.assert_allclose(dist, 0.0, atol=1e-9)

    def test_empty_store_grows_via_add(self):
        store = PQStore(np.zeros((0, 16)), pq_config())
        assert len(store) == 0
        emb = family_cloud(0, dim=16)[:12]
        for row in emb:
            store.add(row)
        assert len(store) == 12

    def test_narrow_embedding_clips_subspace_count(self):
        emb = family_cloud(0, dim=3)
        store = PQStore(emb, pq_config(num_subspaces=16))
        assert store.num_subspaces == 3
        assert store.codes.shape == (len(emb), 3)


class TestDriftRecalibration:
    def test_in_range_adds_do_not_trigger_recalibration(self):
        emb = family_cloud(0)
        store = PQStore(emb, pq_config())
        for row in emb[:50]:
            assert not store.add(row)
        assert len(store) == len(emb) + 50

    def test_gross_outlier_triggers_immediately(self):
        emb = family_cloud(0)
        store = PQStore(emb, pq_config())
        span = emb.max() - emb.min()
        assert store.add(emb[0] + 50.0 * span)

    def test_accumulated_high_error_rows_trigger(self):
        """Rows above the calibration-time error ceiling accumulate toward
        the clip-fraction threshold instead of each triggering alone."""
        emb = family_cloud(0, spread=2.0, noise=0.1)
        config = pq_config(drift_clip_fraction=0.1,
                           drift_outlier_factor=1e9)
        store = PQStore(emb, config)
        for row in emb[:50]:
            assert not store.add(row)
        rng = np.random.default_rng(9)
        # Far enough off the family manifold to beat the calibration error.
        odd = emb[0] + 3.0 * rng.normal(size=emb.shape[1])
        verdicts = [store.add(odd) for _ in range(6)]
        assert verdicts[:5] == [False] * 5
        assert verdicts[5]

    def test_recalibrate_restores_the_error_envelope(self):
        emb = family_cloud(0)
        store = PQStore(emb, pq_config())
        grown = np.vstack([emb, emb * 4.0])
        store.recalibrate(grown)
        err = np.sqrt(((grown - store.reconstruct()) ** 2).sum(axis=1))
        assert len(store) == len(grown)
        assert err.max() <= store._err_scale * (1 + 1e-9)

    def test_rcs_add_recalibrates_the_pq_store_on_drift(self):
        emb = family_cloud(0, dim=24)
        labels = [ScoreLabel(("A", "B"), np.array([1.0, 0.5]),
                             np.array([0.5, 1.0])) for _ in range(len(emb))]
        rcs = RecommendationCandidateSet(
            emb, labels, quantization=pq_config(num_subspaces=4))
        assert isinstance(rcs.quantized, PQStore)
        drifted = emb[0] + 100.0 * (emb.max() - emb.min())
        rcs.add(drifted, labels[0])
        store = rcs.quantized
        assert len(store) == len(rcs)
        # Recalibration folded the drifted row into the codebooks: its
        # reconstruction now sits inside the refreshed error envelope.
        err = np.sqrt(((rcs.embeddings - store.reconstruct()) ** 2)
                      .sum(axis=1))
        assert err.max() <= store._err_scale * (1 + 1e-9)


class TestSelectQuantizer:
    def test_auto_picks_int8_up_to_the_exactness_bound(self):
        rng = np.random.default_rng(0)
        config = QuantizationConfig(enabled=True)
        at_bound = select_quantizer(
            rng.normal(size=(20, INT8_EXACT_MAX_DIM)), config)
        assert isinstance(at_bound, QuantizedStore)
        past_bound = select_quantizer(
            rng.normal(size=(20, INT8_EXACT_MAX_DIM + 1)), config)
        assert isinstance(past_bound, PQStore)

    def test_mode_pins_override_the_width_rule(self):
        rng = np.random.default_rng(0)
        wide = rng.normal(size=(20, 300))
        narrow = rng.normal(size=(20, 16))
        assert isinstance(
            select_quantizer(wide, QuantizationConfig(mode="int8")),
            QuantizedStore)
        assert isinstance(
            select_quantizer(narrow, QuantizationConfig(mode="pq")),
            PQStore)

    def test_unknown_mode_fails_at_configuration_time(self):
        with pytest.raises(ValueError, match="quantization mode"):
            QuantizationConfig(mode="PQ")     # wrong case must not crash late

    def test_oversized_codebook_fails_at_configuration_time(self):
        with pytest.raises(ValueError, match="codebook_size"):
            QuantizationConfig(codebook_size=257)

    def test_rcs_attaches_pq_for_wide_embeddings(self):
        emb = family_cloud(0, dim=INT8_EXACT_MAX_DIM + 40)
        labels = [ScoreLabel(("A", "B"), np.array([1.0, 0.5]),
                             np.array([0.5, 1.0])) for _ in range(len(emb))]
        rcs = RecommendationCandidateSet(
            emb, labels, quantization=QuantizationConfig(enabled=True,
                                                         min_size=8))
        assert isinstance(rcs.quantized, PQStore)

    def test_set_quantization_swaps_the_layout(self):
        emb = family_cloud(0, dim=24)
        labels = [ScoreLabel(("A", "B"), np.array([1.0, 0.5]),
                             np.array([0.5, 1.0])) for _ in range(len(emb))]
        rcs = RecommendationCandidateSet(
            emb, labels,
            quantization=QuantizationConfig(enabled=True, min_size=8))
        assert isinstance(rcs.quantized, QuantizedStore)
        rcs.set_quantization(pq_config(num_subspaces=4, min_size=8))
        assert isinstance(rcs.quantized, PQStore)
        rcs.set_quantization(None)
        assert rcs.quantized is None


class TestOverfetchEdge:
    """``k · overfetch ≥ N`` must degrade to the full float re-rank —
    indices and distances bit-equal to :func:`exact_search`, every row
    free of duplicate or missing candidates — for flat int8 and PQ alike.
    """

    @staticmethod
    def _stores(emb):
        config = QuantizationConfig(enabled=True, min_size=4, overfetch=8)
        pq = pq_config(min_size=4, overfetch=8, num_subspaces=4,
                       codebook_size=16)
        return (QuantizedStore(emb, config), PQStore(emb, pq))

    @pytest.mark.parametrize("kind", ["int8", "pq"])
    @pytest.mark.parametrize("k", [8, 20, 64])
    def test_pool_covering_the_corpus_degrades_to_exact(self, kind, k):
        emb = family_cloud(0, families=16, per_family=4, dim=24)  # N = 64
        store = dict(zip(("int8", "pq"), self._stores(emb)))[kind]
        assert k * store.config.overfetch >= len(emb)
        queries = emb[::9] + 0.01
        qi, qd = store.search(queries, emb, k)
        ei, ed = exact_search(queries, emb, k)
        np.testing.assert_array_equal(qi, ei)
        np.testing.assert_array_equal(qd, ed)
        for row in qi:
            assert len(set(row.tolist())) == min(k, len(emb))

    @pytest.mark.parametrize("kind", ["int8", "pq"])
    def test_candidate_scan_honors_the_edge(self, kind):
        emb = family_cloud(1, families=12, per_family=4, dim=24)  # N = 48
        store = dict(zip(("int8", "pq"), self._stores(emb)))[kind]
        queries = emb[:5] + 0.02
        qi, qd = candidate_scan(queries, emb, 6, store)   # 6·8 = 48 ≥ N
        ei, ed = exact_search(queries, emb, 6)
        np.testing.assert_array_equal(qi, ei)
        np.testing.assert_array_equal(qd, ed)


class TestAdvisorIntegration:
    @staticmethod
    def _fitted(quantization):
        from repro.core.advisor import AutoCE, AutoCEConfig
        from repro.core.dml import DMLConfig
        from repro.core.graph import FeatureGraph
        from repro.testbed.scores import DatasetLabel

        rng = np.random.default_rng(0)
        graphs, labels = [], []
        for i in range(24):
            tables = int(rng.integers(1, 4))
            graphs.append(FeatureGraph(
                f"g{i}", rng.normal(size=(tables, 12)),
                np.zeros((tables, tables))))
            qerr = {0: [1.1, 3.0, 6.0], 1: [6.0, 1.1, 3.0],
                    2: [3.0, 6.0, 1.1]}[i % 3]
            labels.append(DatasetLabel(("A", "B", "C"), qerr,
                                       [0.001, 0.002, 0.003]))
        advisor = AutoCE(AutoCEConfig(
            hidden_dim=8, embedding_dim=8, knn_k=3, use_incremental=False,
            dml=DMLConfig(epochs=2, batch_size=8), seed=0,
            quantization=quantization))
        advisor.fit(graphs, labels)
        return advisor, graphs

    def test_pq_round_trips_through_persistence(self, tmp_path):
        from repro.core.persistence import load_advisor, save_advisor

        quantization = pq_config(num_subspaces=4, codebook_size=16,
                                 min_size=8, residual=True)
        advisor, graphs = self._fitted(quantization)
        assert isinstance(advisor.rcs.quantized, PQStore)
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        node = load_advisor(path)
        restored = node.config.quantization
        assert restored.mode == "pq"
        assert restored.num_subspaces == 4
        assert restored.codebook_size == 16
        assert restored.residual
        assert isinstance(node.rcs.quantized, PQStore)
        # Same rows + same seeded k-means → bit-identical codes, and the
        # reloaded node serves the original recommendations.
        np.testing.assert_array_equal(node.rcs.quantized.codes,
                                      advisor.rcs.quantized.codes)
        before = [r.model for r in advisor.recommend_batch(graphs[:6], 0.9)]
        after = [r.model for r in node.recommend_batch(graphs[:6], 0.9)]
        assert before == after

    def test_generation_stamp_folds_the_pq_params(self):
        advisor, _ = self._fitted(QuantizationConfig(enabled=True,
                                                     min_size=8))
        int8_generation = advisor.embedding_generation()
        advisor.set_quantization(True, mode="pq")
        assert advisor.embedding_generation() != int8_generation

    def test_set_quantization_rejects_an_unknown_mode(self):
        advisor, _ = self._fitted(QuantizationConfig())
        with pytest.raises(ValueError, match="quantization mode"):
            advisor.set_quantization(True, mode="product")


@pytest.mark.slow
class TestWideCorpusRecall:
    """Benchmark-shaped recall property: a wide family-structured RCS must
    clear the same recall floor the ``pq_search`` bench reports."""

    def test_recall_at_5_on_a_wide_rcs(self):
        rng = np.random.default_rng(0)
        families, per, dim = 256, 16, 512
        centers = rng.normal(size=(families, dim)) * 4.0
        members = (centers[:, None, :]
                   + 0.3 * rng.normal(size=(families, per, dim))
                   ).reshape(-1, dim).astype(np.float32)
        queries = members[::per][:256] + np.float32(0.05)
        store = PQStore(members, QuantizationConfig(
            enabled=True, mode="pq", kmeans_sample=2048))
        qi, _ = store.search(queries, members, 5)
        ei, _ = exact_search(queries, members, 5)
        recall = np.mean([len(set(a) & set(e)) / 5
                          for a, e in zip(qi, ei)])
        assert recall >= 0.95
