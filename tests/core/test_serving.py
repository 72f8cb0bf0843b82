"""Serving: the in-memory embedding cache and its counters, input
checks at the advisor's entry points, the exact index, and drift-detector
degenerate cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig
from repro.core.graph import FeatureGraph
from repro.core.online import DriftDetector
from repro.core.serving import (ExactIndex, RecommendationCandidateSet,
                                exact_search)
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.testbed.scores import DatasetLabel

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
    """Repeat traffic is served from the in-memory LRU; retraining must
    empty it."""

    def test_retraining_invalidates_persistent_entries(self):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config())
        advisor.fit_graphs(graphs, labels)
        advisor.recommend(graphs[0], 0.9)
        assert len(advisor.embedding_cache) == 1
        advisor.adapt_online(graphs[1], labels[1], update_epochs=1)
        assert len(advisor.embedding_cache) == 0
        # The old entry must not be served under the new encoder.
        forwards = []
        original = advisor.encoder.embed
        advisor.encoder.embed = lambda batch: forwards.append(len(batch)) or original(batch)
        served = advisor.embed(graphs[0])
        assert forwards == [1]
        assert served.tobytes() == original([graphs[0]])[0].tobytes()

    def test_in_memory_default_unchanged(self):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config())
        advisor.fit_graphs(graphs, labels)
        advisor.recommend(graphs[0], 0.9)
        advisor.recommend(graphs[0], 0.9)
        assert advisor.embedding_cache.hits == 1


class TestCacheCountsWithinABatch:
    """Each distinct cold fingerprint in a batch is one miss and one
    forward row; a repeat within the batch is a hit."""

    @pytest.mark.parametrize("batch, hits, misses, rows", [
        ("ggh", 1, 2, [2]),
        ("ghg", 1, 2, [2]),
        ("ggg", 2, 1, [1]),
        ("gh", 0, 2, [2]),
    ])
    def test_cold_batch(self, batch, hits, misses, rows):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config())
        advisor.fit_graphs(graphs, labels)
        forwards = []
        original = advisor.encoder.embed
        advisor.encoder.embed = lambda b: forwards.append(len(b)) or original(b)
        queries = [{"g": graphs[0], "h": graphs[1]}[c] for c in batch]
        got = advisor.embed_many(queries)
        cache = advisor.embedding_cache
        assert (cache.hits, cache.misses) == (hits, misses)
        assert forwards == rows
        want = original(queries)
        for row, expected in zip(got, want):
            assert row.tobytes() == expected.tobytes()

    def test_warm_batch_is_all_hits(self):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config())
        advisor.fit_graphs(graphs, labels)
        advisor.embed_many([graphs[0], graphs[1]])
        forwards = []
        original = advisor.encoder.embed
        advisor.encoder.embed = lambda b: forwards.append(len(b)) or original(b)
        advisor.embed_many([graphs[1], graphs[0], graphs[1]])
        assert forwards == []
        assert (advisor.embedding_cache.hits,
                advisor.embedding_cache.misses) == (3, 2)


class TestFeaturizeMany:
    def test_prebuilt_graphs_pass_through(self):
        graphs, _ = tiny_corpus(4)
        advisor = AutoCE(AutoCEConfig())
        assert advisor.featurize_many(graphs) == graphs

    def test_datasets_are_featurized_in_order(self):
        datasets = [generate_dataset(random_spec(100 + i,
                                                 ranges={"num_tables": (1, 3)}))
                    for i in range(3)]
        advisor = AutoCE(AutoCEConfig())
        graphs = advisor.featurize_many(datasets)
        for dataset, graph in zip(datasets, graphs):
            want = advisor.featurize(dataset)
            assert graph.name == want.name == dataset.name
            np.testing.assert_array_equal(graph.vertices, want.vertices)
            np.testing.assert_array_equal(graph.edges, want.edges)


#: Inputs that are neither a Dataset nor a FeatureGraph.
NOT_A_DATASET = {"none": None, "path": "ds.npz", "ndarray": np.zeros((2, 3))}

#: Entry point → call with one bad input; batch entry points get it second.
ENTRY_POINTS = {
    "embed": lambda a, g, bad: a.embed(bad),
    "recommend": lambda a, g, bad: a.recommend(bad),
    "embed_many": lambda a, g, bad: a.embed_many([g, bad]),
    "featurize_many": lambda a, g, bad: a.featurize_many([g, bad]),
    "recommend_batch": lambda a, g, bad: a.recommend_batch([g, bad]),
}


class TestNonDatasetInput:
    @pytest.fixture(scope="class")
    def advisor(self):
        graphs, labels = tiny_corpus()
        return AutoCE(fast_config()).fit_graphs(graphs, labels), graphs

    @pytest.mark.parametrize("bad", sorted(NOT_A_DATASET))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_type_error_names_position_and_type(self, advisor, entry, bad):
        advisor, graphs = advisor
        value = NOT_A_DATASET[bad]
        where = "datasets[1]" if entry.endswith(("many", "batch")) else "dataset"
        forwards = []
        original = advisor.encoder.embed
        advisor.encoder.embed = lambda b: forwards.append(len(b)) or original(b)
        try:
            with pytest.raises(TypeError) as raised:
                ENTRY_POINTS[entry](advisor, graphs[0], value)
        finally:
            del advisor.encoder.embed
        message = str(raised.value)
        assert message.startswith(where + " ")
        assert type(value).__name__ in message
        assert forwards == []


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
