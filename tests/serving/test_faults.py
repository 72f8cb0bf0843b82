"""The fault-injection harness itself, and the storage faults it drives —
torn and corrupted cache entries — and NaN embeddings entering the RCS."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serving import RecommendationCandidateSet
from repro.testbed.faults import FaultPlan
from repro.testbed.scores import ScoreLabel
from repro.utils.cache import MISSING, DiskCache

MODELS = ("A", "B", "C")


def score_label(seed=0):
    rng = np.random.default_rng(seed)
    return ScoreLabel(MODELS, rng.uniform(size=3), rng.uniform(size=3))


BLOB = bytes(range(256)) * 4


class TestFaultPlanSchedule:
    def test_empty_plan_injects_nothing(self, tmp_path):
        plan = FaultPlan()
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        plan.tear_file(empty)
        plan.corrupt_file(empty)
        assert empty.read_bytes() == b""
        # A plan keeping every byte and flipping none leaves a file intact.
        blob = tmp_path / "blob"
        blob.write_bytes(BLOB)
        idle = FaultPlan(tear_fraction=1.0, corrupt_bytes=0)
        idle.tear_file(blob)
        idle.corrupt_file(blob)
        assert blob.read_bytes() == BLOB

    def test_plan_pickles(self, tmp_path):
        import pickle

        plan = FaultPlan(seed=3, tear_fraction=0.25, corrupt_bytes=5)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        payloads = []
        for run, fault in enumerate((plan, clone)):
            path = tmp_path / f"blob{run}"
            path.write_bytes(BLOB)
            fault.corrupt_file(path)
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.99, 1.0])
    def test_tear_keeps_the_leading_fraction(self, tmp_path, fraction):
        path = tmp_path / "blob"
        path.write_bytes(BLOB)
        FaultPlan(tear_fraction=fraction).tear_file(path)
        assert path.read_bytes() == BLOB[:int(len(BLOB) * fraction)]

    @pytest.mark.parametrize("seed", range(4))
    def test_corrupt_flips_at_most_the_planned_bytes(self, tmp_path, seed):
        path = tmp_path / "blob"
        path.write_bytes(BLOB)
        FaultPlan(seed=seed, corrupt_bytes=8).corrupt_file(path)
        data = path.read_bytes()
        assert len(data) == len(BLOB)
        changed = [i for i, (a, b) in enumerate(zip(data, BLOB)) if a != b]
        # A position drawn twice flips back, so at most 8 bytes differ.
        assert 0 < len(changed) <= 8
        assert all(data[i] == BLOB[i] ^ 0xFF for i in changed)


class TestTornAndCorruptCacheEntries:
    def entry_path(self, cache: DiskCache, key: str):
        return cache._path(key)

    def test_torn_entry_reads_as_a_miss_not_a_crash(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cache.put("weights", {"rows": list(range(500))})
        FaultPlan(tear_fraction=0.5).tear_file(self.entry_path(cache, "weights"))
        assert cache.get("weights", MISSING) is MISSING
        # The torn file was discarded; a rewrite fully heals the entry.
        cache.put("weights", {"rows": [1]})
        assert cache.get("weights") == {"rows": [1]}

    def test_corrupt_entry_reads_as_a_miss_not_garbage(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cache.put("emb", np.arange(64, dtype=np.float64))
        FaultPlan(seed=2, corrupt_bytes=16).corrupt_file(
            self.entry_path(cache, "emb"))
        value = cache.get("emb", MISSING)
        # A flipped pickle either fails to parse (miss) or -- for flips in
        # the payload -- still parses; it must never raise mid-serve.
        if value is not MISSING:
            assert isinstance(value, np.ndarray)

    def test_tear_is_deterministic_for_a_given_plan(self, tmp_path):
        payloads = []
        for run in range(2):
            path = tmp_path / f"blob{run}"
            path.write_bytes(bytes(range(256)) * 4)
            FaultPlan(seed=7, tear_fraction=0.25).tear_file(path)
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    def test_corrupt_is_deterministic_for_a_given_seed(self, tmp_path):
        payloads = []
        for run in range(2):
            path = tmp_path / f"blob{run}"
            path.write_bytes(bytes(range(256)) * 4)
            FaultPlan(seed=7).corrupt_file(path)
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]
        assert payloads[0] != bytes(range(256)) * 4


class TestRCSRejectsNonFiniteEmbeddings:
    def make_rcs(self, n=6, dim=5, seed=0):
        rng = np.random.default_rng(seed)
        return RecommendationCandidateSet(
            rng.normal(size=(n, dim)),
            [score_label(i) for i in range(n)])

    def test_add_rejects_a_nan_embedding(self):
        rcs = self.make_rcs()
        bad = np.ones(5)
        bad[2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            rcs.add(bad, score_label(9))
        assert len(rcs) == 6                    # nothing half-added

    def test_add_rejects_an_inf_embedding(self):
        rcs = self.make_rcs()
        with pytest.raises(ValueError, match="non-finite"):
            rcs.add(np.full(5, np.inf), score_label(9))

    def test_replace_embeddings_rejects_and_names_the_bad_rows(self):
        rcs = self.make_rcs()
        replacement = np.ones((6, 5))
        replacement[1, 3] = np.nan
        replacement[4, 0] = np.inf
        with pytest.raises(ValueError, match=r"row\(s\) 1, 4"):
            rcs.replace_embeddings(replacement)
        # The stored corpus is untouched by the rejected replace.
        assert np.isfinite(rcs.embeddings).all()

    def test_finite_embeddings_still_flow(self):
        rcs = self.make_rcs()
        rcs.add(np.ones(5), score_label(9))
        assert len(rcs) == 7
