"""Round-trip tests for advisor persistence (save_advisor / load_advisor)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig
from repro.core.graph import FeatureGraph
from repro.core.persistence import (FORMAT_VERSION, AdvisorLoadError,
                                    _label_from_dict, _label_to_dict,
                                    load_advisor, save_advisor)
from repro.testbed.faults import FaultPlan
from repro.testbed.scores import DatasetLabel, ScoreLabel

MODELS = ("A", "B", "C")


def tiny_corpus(n=12, dim=10, seed=3):
    rng = np.random.default_rng(seed)
    graphs, labels = [], []
    for i in range(n):
        kind = i % 3
        tables = int(rng.integers(1, 4))
        vertices = rng.normal(size=(tables, dim)) * 0.3
        vertices[:, 0] += {0: 2.0, 1: -2.0, 2: 0.0}[kind]
        edges = np.zeros((tables, tables))
        for t in range(1, tables):
            edges[t - 1, t] = 0.4
        graphs.append(FeatureGraph(f"g{i}", vertices, edges))
        qerr = {0: [1.1, 3.0, 6.0], 1: [6.0, 1.1, 3.0], 2: [3.0, 6.0, 1.1]}[kind]
        labels.append(DatasetLabel(MODELS, qerr, [0.001, 0.002, 0.003],
                                   qerror_medians=[1.0, 2.0, 3.0],
                                   qerror_p95=[2.0, 5.0, 9.0],
                                   qerror_p99=[3.0, 8.0, 12.0]))
    return graphs, labels


@pytest.fixture(scope="module")
def fitted():
    graphs, labels = tiny_corpus()
    config = AutoCEConfig(hidden_dim=16, embedding_dim=8,
                          dml=DMLConfig(epochs=8, batch_size=6, seed=0),
                          use_incremental=False, seed=0)
    advisor = AutoCE(config)
    advisor.fit_graphs(graphs, labels)
    return advisor, graphs, labels


class TestRoundTrip:
    def test_recommendations_identical(self, fitted, tmp_path):
        advisor, graphs, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path)
        for graph in graphs:
            for w in (1.0, 0.7, 0.3):
                a = advisor.recommend(graph, w)
                b = reloaded.recommend(graph, w)
                assert a.model == b.model
                np.testing.assert_allclose(a.score_vector, b.score_vector)

    def test_embeddings_identical(self, fitted, tmp_path):
        advisor, graphs, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path)
        np.testing.assert_allclose(reloaded.embed(graphs[0]),
                                   advisor.embed(graphs[0]), rtol=1e-12)
        np.testing.assert_allclose(reloaded.rcs.embeddings,
                                   advisor.rcs.embeddings, rtol=1e-12)

    def test_config_round_trips(self, fitted, tmp_path):
        advisor, _, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path)
        assert reloaded.config == advisor.config

    def test_labels_keep_raw_statistics(self, fitted, tmp_path):
        advisor, _, labels = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path)
        original, restored = labels[0], reloaded._labels[0]
        assert isinstance(restored, DatasetLabel)
        np.testing.assert_allclose(restored.qerror_means, original.qerror_means)
        np.testing.assert_allclose(restored.qerror_p99, original.qerror_p99)
        # D-error and percentile re-normalization still work post-reload.
        assert restored.d_error("A", 1.0) == original.d_error("A", 1.0)
        assert (restored.with_accuracy_metric("p95").best_model(1.0)
                == original.with_accuracy_metric("p95").best_model(1.0))

    def test_drift_detection_survives_reload(self, fitted, tmp_path):
        advisor, graphs, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path)
        far = FeatureGraph("far", np.full((2, graphs[0].vertex_dim), 50.0),
                           np.zeros((2, 2)))
        assert advisor.is_drifted(far) == reloaded.is_drifted(far)

    def test_reloaded_advisor_can_adapt_online(self, fitted, tmp_path):
        advisor, graphs, labels = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path)
        size_before = len(reloaded.rcs)
        reloaded.adapt_online(graphs[0], labels[0], update_epochs=1)
        assert len(reloaded.rcs) == size_before + 1


class TestErrors:
    def test_unfitted_advisor_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_advisor(AutoCE(), str(tmp_path / "nope.npz"))

    def test_version_mismatch_rejected(self, fitted, tmp_path):
        advisor, _, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        metadata = json.loads(bytes(arrays["metadata"]).decode("utf-8"))
        metadata["format_version"] = FORMAT_VERSION + 999
        arrays["metadata"] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="format version"):
            load_advisor(path)

    def test_previous_format_version_still_accepted(self, fitted, tmp_path):
        """v1 saves (pre-IVF, per-label JSON, no quantizer block) must keep
        loading: the version gate is a whitelist, not an equality check."""
        advisor, graphs, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        metadata = json.loads(bytes(arrays["metadata"]).decode("utf-8"))
        metadata["format_version"] = 1
        arrays["metadata"] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        reloaded = load_advisor(path)
        a = advisor.recommend(graphs[0], 0.9)
        b = reloaded.recommend(graphs[0], 0.9)
        assert a.model == b.model


#: ``ann`` blocks as builds with LSH search serialized them: the default
#: config, a pinned quantized-projection family with its nested block, and
#: "index off".
LEGACY_ANN_BLOCKS = {
    "default": {
        "threshold": 1024, "num_tables": 8, "num_bits": 0, "num_probes": 4,
        "min_candidates": 16, "max_candidates": 1024, "bucket_cap": 0,
        "whiten": True, "family": "auto", "auto_e2lsh": True,
        "probe_sample": 64, "probe_fallback_threshold": 0.5,
        "probe_min_recall": 0.85, "probe_max_pool_fraction": 0.05,
        "e2lsh_threshold": 4096,
        "e2lsh": {"num_tables": 10, "num_projections": 0, "radius": 0.0,
                  "radius_scale": 2.4, "calibration_sample": 256,
                  "calibration_k": 5, "num_probes": 16, "bucket_cap": 128,
                  "min_candidates": 16, "max_candidates": 2048, "seed": 0},
        "seed": 0},
    "e2lsh": {
        "threshold": 8, "family": "e2lsh", "seed": 0,
        "e2lsh": {"num_tables": 12, "num_probes": 32, "min_candidates": 4,
                  "seed": 0}},
    "null": None,
}


class TestLegacyAnnBlock:
    """Advisor files from builds with LSH search still load and serve."""

    @pytest.mark.parametrize("block", sorted(LEGACY_ANN_BLOCKS))
    @pytest.mark.parametrize("version", [1, 2])
    def test_ann_block_is_ignored(self, fitted, tmp_path, version, block):
        advisor, graphs, _ = fitted
        plain = str(tmp_path / "plain.npz")
        legacy = str(tmp_path / "legacy.npz")
        save_advisor(advisor, plain)
        with np.load(plain) as data:
            arrays = {k: data[k] for k in data.files}
        metadata = json.loads(bytes(arrays["metadata"]).decode("utf-8"))
        assert "ann" not in metadata["config"]
        metadata["format_version"] = version
        metadata["config"]["ann"] = LEGACY_ANN_BLOCKS[block]
        arrays["metadata"] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
        np.savez(legacy, **arrays)
        want = load_advisor(plain).recommend_batch(graphs, 0.9)
        got = load_advisor(legacy).recommend_batch(graphs, 0.9)
        for a, b in zip(got, want):
            assert a.model == b.model
            np.testing.assert_array_equal(a.neighbor_indices,
                                          b.neighbor_indices)
            assert (a.neighbor_distances.tobytes()
                    == b.neighbor_distances.tobytes())


class TestLabelPayloads:
    def test_score_label_round_trip(self):
        label = ScoreLabel(MODELS, sa=[1.0, 0.5, 0.0], se=[0.0, 0.5, 1.0])
        restored = _label_from_dict(_label_to_dict(label))
        assert not isinstance(restored, DatasetLabel)
        np.testing.assert_allclose(restored.sa, label.sa)
        np.testing.assert_allclose(restored.se, label.se)

    def test_dataset_label_with_missing_optionals(self):
        label = DatasetLabel(MODELS, [1, 2, 3], [0.1, 0.2, 0.3])
        restored = _label_from_dict(_label_to_dict(label))
        assert isinstance(restored, DatasetLabel)
        assert restored.qerror_p95 is None
        np.testing.assert_allclose(restored.qerror_means, [1, 2, 3])

    def test_reloaded_arrays_are_float64_ndarrays(self):
        label = DatasetLabel(MODELS, [1.5, 2.0, 3.0], [0.1, 0.2, 0.3],
                             qerror_medians=[1.0, 2.0, 3.0],
                             qerror_p95=[2.0, 5.0, 9.0],
                             qerror_p99=[3.0, 8.0, 12.0],
                             fit_times=[0.5, 0.6, 0.7])
        restored = _label_from_dict(_label_to_dict(label))
        for name in ("qerror_means", "latency_means", "qerror_medians",
                     "fit_times", "qerror_p95", "qerror_p99", "sa", "se"):
            value = getattr(restored, name)
            assert isinstance(value, np.ndarray), name
            assert value.dtype == np.float64, name

    def test_reloaded_label_behaves_identically(self):
        """Save → load → re-normalize: every derived quantity must match."""
        label = DatasetLabel(MODELS, [1.5, 2.0, 3.0], [0.1, 0.2, 0.3],
                             qerror_medians=[1.0, 2.0, 3.0],
                             qerror_p95=[2.0, 5.0, 9.0],
                             qerror_p99=[3.0, 8.0, 12.0])
        restored = _label_from_dict(_label_to_dict(label))
        for w in (1.0, 0.6, 0.0):
            np.testing.assert_array_equal(restored.score_vector(w),
                                          label.score_vector(w))
            assert restored.best_model(w) == label.best_model(w)
            for model in MODELS:
                assert restored.d_error(model, w) == label.d_error(model, w)
        for metric in ("median", "p95", "p99"):
            a = restored.with_accuracy_metric(metric)
            b = label.with_accuracy_metric(metric)
            np.testing.assert_array_equal(a.sa, b.sa)
            np.testing.assert_array_equal(a.se, b.se)
        # Array-indexed operations (fancy indexing would reject raw Python
        # lists if the load path ever stopped coercing) survive a reload.
        sub = restored.subset(["C", "A"])
        np.testing.assert_array_equal(sub.qerror_means, [3.0, 1.5])
        np.testing.assert_array_equal(restored.label_matrix(),
                                      label.label_matrix())


class TestCrashSafety:
    """Torn and corrupted advisor files (via the fault harness) either load
    fully or raise AdvisorLoadError — never a half-restored advisor."""

    def saved(self, fitted, tmp_path):
        advisor, graphs, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        return advisor, graphs, path

    def test_missing_file_raises_a_typed_error(self, tmp_path):
        with pytest.raises(AdvisorLoadError, match="cannot load advisor"):
            load_advisor(str(tmp_path / "never-written.npz"))

    def test_typed_error_is_a_value_error(self):
        assert issubclass(AdvisorLoadError, ValueError)

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.7, 0.95])
    def test_torn_write_raises_instead_of_half_loading(self, fitted,
                                                       tmp_path, fraction):
        _, _, path = self.saved(fitted, tmp_path)
        FaultPlan(tear_fraction=fraction).tear_file(path)
        with pytest.raises(AdvisorLoadError):
            load_advisor(path)

    def test_corrupt_bytes_load_fully_or_raise_typed(self, fitted, tmp_path):
        advisor, graphs, path = self.saved(fitted, tmp_path)
        for seed in range(5):
            clean = str(tmp_path / f"clean{seed}.npz")
            save_advisor(advisor, clean)
            FaultPlan(seed=seed, corrupt_bytes=4).corrupt_file(clean)
            try:
                reloaded = load_advisor(clean)
            except AdvisorLoadError:
                continue
            # The flips happened to miss anything load-bearing: the advisor
            # must be *fully* restored, i.e. able to serve every graph.
            for graph in graphs[:3]:
                rec = reloaded.recommend(graph, 0.7)
                assert rec.model in MODELS

    def test_dangling_array_member_raises_typed(self, fitted, tmp_path):
        # A "format-valid" zip missing a required member (e.g. a partial
        # copy) must not produce an advisor with half its weights.
        advisor, _, path = self.saved(fitted, tmp_path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "param_0"}
        np.savez_compressed(path, **arrays)
        with pytest.raises(AdvisorLoadError):
            load_advisor(path)
