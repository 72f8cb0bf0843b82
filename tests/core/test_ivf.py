"""IVF coarse-partition tier: probed search, delegation edges, no-op
re-enables, and warm persistence (the O(1)-restart contract).

The wrapper's correctness story is delegation: every edge where probing
cannot help (``nprobe >= cells``, corpora below the floors, pools that
cover the corpus anyway) must be *bit-for-bit* the flat quantized tier,
and the probed path itself only narrows candidates — the float re-rank
keeps returned distances exact.  Persistence must restore the whole
stack — codebooks, coarse centroids, cell assignments, drift counters —
without a single k-means call.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.serving.quantizers as quantizers_module
from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig
from repro.core.graph import FeatureGraph
from repro.core.ivf import IVFStore, auto_cells
from repro.core.persistence import load_advisor, save_advisor
from repro.core.serving import (PQStore, QuantizationConfig,
                                QuantizedStore, exact_search,
                                select_quantizer)
from repro.testbed.scores import DatasetLabel

MODELS = ("A", "B", "C")


def family_cloud(seed: int = 0, families: int = 32, per_family: int = 16,
                 dim: int = 16):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(families, dim)) * 4.0
    members = (centers[:, None, :]
               + 0.25 * rng.normal(size=(families, per_family, dim))
               ).reshape(-1, dim)
    queries = members[::per_family] + 0.05 * rng.normal(size=(families, dim))
    return members, queries


def ivf_config(mode: str = "int8", **overrides) -> QuantizationConfig:
    base = dict(enabled=True, mode=mode, min_size=8, overfetch=4,
                ivf=True, ivf_min_size=8)
    if mode == "pq":
        base.update(num_subspaces=4, codebook_size=32)
    base.update(overrides)
    return QuantizationConfig(**base)


@pytest.fixture
def count_kmeans(monkeypatch):
    """Count every seeded_kmeans call (codebooks *and* coarse training).

    Patched on ``repro.core.serving.quantizers`` — the canonical home after
    the predictor split; both PQ codebook training and the IVF coarse
    trainer resolve the function through that module.
    """
    calls = {"n": 0}
    real = quantizers_module.seeded_kmeans

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(quantizers_module, "seeded_kmeans", counting)
    return calls


# ----------------------------------------------------------------------
# Config validation and sizing
# ----------------------------------------------------------------------
class TestConfig:
    @pytest.mark.parametrize("bad", [dict(ivf_cells=-1), dict(nprobe=0),
                                     dict(ivf_min_size=-1)])
    def test_invalid_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            QuantizationConfig(enabled=True, ivf=True, **bad)

    def test_auto_cells_is_sqrt_clipped(self):
        assert auto_cells(1) == 1
        assert auto_cells(8192) == 91        # rint(sqrt(8192))
        assert auto_cells(10**9) == 4096     # clipped at the ceiling

    def test_select_quantizer_wraps_and_tags(self):
        members, _ = family_cloud(families=8, per_family=8)
        store = select_quantizer(members, ivf_config("int8"))
        assert isinstance(store, IVFStore)
        assert store.kind == "ivf-int8"
        assert isinstance(store.store, QuantizedStore)
        pq = select_quantizer(members, ivf_config("pq"))
        assert pq.kind == "ivf-pq"
        assert isinstance(pq.store, PQStore)


# ----------------------------------------------------------------------
# Search: delegation edges and recall
# ----------------------------------------------------------------------
class TestSearch:
    @pytest.mark.parametrize("mode", ["int8", "pq"])
    def test_nprobe_at_least_cells_is_bitwise_flat(self, mode):
        """The headline edge: nprobe >= cells serves the flat tier."""
        members, queries = family_cloud()
        flat = select_quantizer(members, ivf_config(mode, ivf=False))
        ivf = select_quantizer(members, ivf_config(
            mode, ivf_cells=16, nprobe=16))
        assert isinstance(ivf, IVFStore)
        fi, fd = flat.search(queries, members, 5)
        ii, id_ = ivf.search(queries, members, 5)
        np.testing.assert_array_equal(fi, ii)
        np.testing.assert_array_equal(fd, id_)

    @pytest.mark.parametrize("mode", ["int8", "pq"])
    def test_below_ivf_floor_is_bitwise_flat(self, mode):
        members, queries = family_cloud(families=4, per_family=8)
        flat = select_quantizer(members, ivf_config(mode, ivf=False))
        ivf = select_quantizer(members, ivf_config(
            mode, ivf_cells=4, nprobe=1, ivf_min_size=len(members) + 1))
        fi, fd = flat.search(queries, members, 5)
        ii, id_ = ivf.search(queries, members, 5)
        np.testing.assert_array_equal(fi, ii)
        np.testing.assert_array_equal(fd, id_)

    @pytest.mark.parametrize("mode", ["int8", "pq"])
    def test_probed_recall_on_clustered_corpus(self, mode):
        members, queries = family_cloud()
        ivf = select_quantizer(members, ivf_config(
            mode, ivf_cells=32, nprobe=4,
            **({"num_subspaces": 16, "codebook_size": 128}
               if mode == "pq" else {})))
        idx, dist = ivf.search(queries, members, 5)
        exact_idx, exact_dist = exact_search(queries, members, 5)
        recall = np.mean([len(set(a) & set(e)) / 5
                          for a, e in zip(idx, exact_idx)])
        assert recall >= 0.95
        # Returned distances come from the float re-rank: exact for every
        # member the probe selected.
        full = np.sqrt(((queries[:, None, :] - members[idx]) ** 2
                        ).sum(axis=2))
        np.testing.assert_allclose(dist, full, rtol=1e-9, atol=1e-9)

    def test_add_assigns_to_frozen_cells_and_is_searchable(self):
        members, _ = family_cloud()
        ivf = select_quantizer(members, ivf_config(
            "int8", ivf_cells=16, nprobe=4))
        grown = np.vstack([members, members[3] + 0.01])
        ivf.add(grown[-1])
        assert len(ivf) == len(grown)
        idx, _ = ivf.search(grown[-1:], grown, 2)
        assert set(idx[0]) == {3, len(grown) - 1}


# ----------------------------------------------------------------------
# Advisor integration: no-op re-enable + warm persistence
# ----------------------------------------------------------------------
def fitted_advisor(quantization: QuantizationConfig) -> tuple:
    rng = np.random.default_rng(0)
    graphs, labels = [], []
    for i in range(24):
        tables = int(rng.integers(1, 4))
        graphs.append(FeatureGraph(f"g{i}", rng.normal(size=(tables, 12)),
                                   np.zeros((tables, tables))))
        qerr = {0: [1.1, 3.0, 6.0], 1: [6.0, 1.1, 3.0],
                2: [3.0, 6.0, 1.1]}[i % 3]
        labels.append(DatasetLabel(MODELS, qerr, [0.001, 0.002, 0.003]))
    advisor = AutoCE(AutoCEConfig(
        hidden_dim=8, embedding_dim=8, knn_k=3, use_incremental=False,
        dml=DMLConfig(epochs=2, batch_size=8), seed=0,
        quantization=quantization))
    advisor.fit(graphs, labels)
    return advisor, graphs


class TestNoOpReenable:
    def test_unchanged_config_keeps_the_store(self, count_kmeans):
        """Regression: re-enabling with unchanged values must not retrain
        codebooks (it used to rebuild the store every call)."""
        advisor, _ = fitted_advisor(ivf_config(
            "int8", ivf_cells=4, nprobe=2))
        store = advisor.rcs.quantized
        assert isinstance(store, IVFStore)
        count_kmeans["n"] = 0
        advisor.set_quantization(True, mode="int8")
        assert count_kmeans["n"] == 0
        assert advisor.rcs.quantized is store

    def test_changed_mode_retrains(self, count_kmeans):
        advisor, _ = fitted_advisor(ivf_config(
            "int8", ivf_cells=4, nprobe=2))
        count_kmeans["n"] = 0
        advisor.set_quantization(True, mode="pq")
        assert count_kmeans["n"] > 0
        assert advisor.rcs.quantized.kind == "ivf-pq"


class TestWarmPersistence:
    def test_reload_is_byte_identical_with_zero_kmeans(self, tmp_path,
                                                       count_kmeans):
        advisor, graphs = fitted_advisor(ivf_config(
            "pq", ivf_cells=4, nprobe=2))
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        count_kmeans["n"] = 0
        node = load_advisor(path)
        assert count_kmeans["n"] == 0, \
            "warm load must attach persisted codebooks, not retrain"
        restored = node.rcs.quantized
        original = advisor.rcs.quantized
        assert isinstance(restored, IVFStore)
        np.testing.assert_array_equal(restored.centroids,
                                      original.centroids)
        np.testing.assert_array_equal(restored.codes, original.codes)
        qi, qd = original.search(advisor.rcs.embeddings[:8],
                                 advisor.rcs.embeddings, 5)
        ri, rd = restored.search(node.rcs.embeddings[:8],
                                node.rcs.embeddings, 5)
        np.testing.assert_array_equal(qi, ri)
        np.testing.assert_array_equal(qd, rd)
        before = [r.model for r in advisor.recommend_batch(graphs[:6], 0.9)]
        after = [r.model for r in node.recommend_batch(graphs[:6], 0.9)]
        assert before == after

    def test_drift_counters_survive_reload(self, tmp_path):
        """Regression: drift accounting used to silently reset on load,
        hiding accumulated quantizer rot from the recalibration policy."""
        advisor, _ = fitted_advisor(ivf_config(
            "int8", ivf_cells=4, nprobe=2))
        base = advisor.rcs.quantized.store
        base._added_since_calibration = 5
        base._clipped_since_calibration = 2
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path).rcs.quantized.store
        assert reloaded._added_since_calibration == 5
        assert reloaded._clipped_since_calibration == 2

    def test_rows_only_save_retrains_on_load(self, tmp_path, count_kmeans):
        advisor, graphs = fitted_advisor(ivf_config(
            "int8", ivf_cells=4, nprobe=2))
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path, include_quantizer_state=False)
        count_kmeans["n"] = 0
        node = load_advisor(path)
        assert count_kmeans["n"] > 0, "cold load retrains from the rows"
        # Same rows + same seeded k-means: the retrained store still
        # serves the saved node's answers.
        before = [r.model for r in advisor.recommend_batch(graphs[:6], 0.9)]
        after = [r.model for r in node.recommend_batch(graphs[:6], 0.9)]
        assert before == after
