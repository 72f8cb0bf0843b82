"""Scale-out serving: persistent embedding cache, parallel featurization,
drift-detector degenerate cases, and the killed-and-reloaded node path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig
from repro.core.graph import FeatureGraph
from repro.core.online import DriftDetector
from repro.core.persistence import load_advisor, save_advisor
from repro.core.serving import (ExactIndex, RecommendationCandidateSet,
                                exact_search)
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.testbed.scores import DatasetLabel
from repro.utils.cache import PersistentLRUCache

MODELS = ("A", "B", "C")


def tiny_corpus(n=16, dim=10, seed=3):
    rng = np.random.default_rng(seed)
    graphs, labels = [], []
    for i in range(n):
        tables = int(rng.integers(1, 4))
        vertices = rng.normal(size=(tables, dim)) * 0.3
        vertices[:, 0] += float(i % 3)
        edges = np.zeros((tables, tables))
        for t in range(1, tables):
            edges[t - 1, t] = 0.4
        graphs.append(FeatureGraph(f"g{i}", vertices, edges))
        labels.append(DatasetLabel(MODELS, rng.uniform(1, 9, 3),
                                   rng.uniform(0.001, 0.01, 3)))
    return graphs, labels


def fast_config(**overrides):
    base = dict(hidden_dim=16, embedding_dim=8, use_incremental=False,
                dml=DMLConfig(epochs=4, batch_size=8, seed=0), seed=0)
    base.update(overrides)
    return AutoCEConfig(**base)


class TestPersistentServingCache:
    def test_reloaded_node_serves_repeats_without_gin_forward(self, tmp_path):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config(
            embedding_cache_dir=str(tmp_path / "emb")))
        advisor.fit_graphs(graphs, labels)
        first = advisor.recommend_batch(graphs[:6], 0.9)   # populates disk
        save_advisor(advisor, str(tmp_path / "advisor.npz"))
        del advisor                                        # node killed

        reloaded = load_advisor(str(tmp_path / "advisor.npz"))
        forwards = []
        original = reloaded.encoder.embed
        reloaded.encoder.embed = lambda batch: forwards.append(len(batch)) or original(batch)
        replay = reloaded.recommend_batch(graphs[:6], 0.9)
        assert forwards == []                              # zero GIN forwards
        assert isinstance(reloaded.embedding_cache, PersistentLRUCache)
        assert reloaded.embedding_cache.disk_hits == 6
        assert [r.model for r in replay] == [r.model for r in first]
        for a, b in zip(replay, first):
            np.testing.assert_allclose(a.score_vector, b.score_vector)

    def test_retraining_invalidates_persistent_entries(self, tmp_path):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config(
            embedding_cache_dir=str(tmp_path / "emb")))
        advisor.fit_graphs(graphs, labels)
        advisor.recommend(graphs[0], 0.9)
        generation = advisor.embedding_generation()
        advisor.adapt_online(graphs[1], labels[1], update_epochs=1)
        assert advisor.embedding_generation() != generation
        # The old entry must not be served under the new encoder.
        forwards = []
        original = advisor.encoder.embed
        advisor.encoder.embed = lambda batch: forwards.append(len(batch)) or original(batch)
        advisor.recommend(graphs[0], 0.9)
        assert forwards == [1]

    def test_generation_is_weight_content_hash(self, tmp_path):
        graphs, labels = tiny_corpus()
        a = AutoCE(fast_config()).fit_graphs(graphs, labels)
        b = AutoCE(fast_config()).fit_graphs(graphs, labels)
        assert a.embedding_generation() == b.embedding_generation()
        b.encoder.parameters()[0].data[0] += 1e-9
        b._generation = None
        assert a.embedding_generation() != b.embedding_generation()

    def test_in_memory_default_unchanged(self):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config())
        advisor.fit_graphs(graphs, labels)
        advisor.recommend(graphs[0], 0.9)
        advisor.recommend(graphs[0], 0.9)
        assert advisor.embedding_cache.hits == 1
        assert not isinstance(advisor.embedding_cache, PersistentLRUCache)


class TestParallelFeaturize:
    def test_threaded_featurization_matches_serial(self):
        datasets = [generate_dataset(random_spec(100 + i,
                                                 ranges={"num_tables": (1, 3)}))
                    for i in range(6)]
        serial = AutoCE(AutoCEConfig(featurize_workers=1))
        threaded = AutoCE(AutoCEConfig(featurize_workers=4))
        graphs_s = serial.featurize_many(datasets)
        graphs_t = threaded.featurize_many(datasets)
        for a, b in zip(graphs_s, graphs_t):
            assert a.name == b.name
            np.testing.assert_array_equal(a.vertices, b.vertices)
            np.testing.assert_array_equal(a.edges, b.edges)

    def test_prebuilt_graphs_pass_through(self):
        graphs, _ = tiny_corpus(4)
        advisor = AutoCE(AutoCEConfig(featurize_workers=4))
        assert advisor.featurize_many(graphs) == graphs

    def test_worker_auto_mode(self):
        advisor = AutoCE(AutoCEConfig(featurize_workers=0))
        datasets = [generate_dataset(random_spec(7, ranges={"num_tables": (1, 2)}))
                    for _ in range(2)]
        graphs = advisor.featurize_many(datasets)
        assert all(isinstance(g, FeatureGraph) for g in graphs)


class TestAdvisorExactIndex:
    def test_rcs_serves_through_the_exact_index(self):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config())
        advisor.fit_graphs(graphs, labels)
        assert isinstance(advisor.rcs.index, ExactIndex)
        queries = advisor.embed_many(graphs[:4])
        got = advisor.rcs.search(queries, 3)
        want = exact_search(queries, advisor.rcs.embeddings, 3)
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()


class TestDriftDetectorDegenerateRCS:
    def test_single_member_rcs_never_flags_drift(self):
        rcs = RecommendationCandidateSet(
            np.zeros((1, 4)),
            [DatasetLabel(MODELS, [1, 2, 3], [0.1, 0.2, 0.3])])
        detector = DriftDetector()
        assert detector.threshold(rcs) == np.inf
        assert not detector.is_drifted(np.full(4, 100.0), rcs)

    def test_empty_rcs_never_flags_drift(self):
        rcs = RecommendationCandidateSet()
        assert DriftDetector().threshold(rcs) == np.inf

    def test_two_members_restore_normal_behaviour(self):
        label = DatasetLabel(MODELS, [1, 2, 3], [0.1, 0.2, 0.3])
        rcs = RecommendationCandidateSet(
            np.array([[0.0, 0.0], [1.0, 0.0]]), [label, label])
        detector = DriftDetector()
        assert np.isfinite(detector.threshold(rcs))
        assert detector.is_drifted(np.array([50.0, 50.0]), rcs)
        assert not detector.is_drifted(np.array([0.1, 0.0]), rcs)
