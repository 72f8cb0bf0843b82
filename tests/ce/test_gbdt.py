"""From-scratch gradient-boosted trees."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ce import gbdt
from repro.ce.base import TrainingContext
from repro.ce.chow_liu import mutual_information
from repro.ce.gbdt import GradientBoostedTrees, RegressionTree
from repro.cli import fast_testbed_config
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.workload.generator import generate_workload


class TestRegressionTree:
    def test_fits_step_function(self):
        x = np.linspace(0, 1, 200).reshape(-1, 1)
        y = (x[:, 0] > 0.5).astype(np.float64)
        tree = RegressionTree(max_depth=2).fit(x, y)
        pred = tree.predict(x)
        assert np.mean((pred - y) ** 2) < 0.01

    def test_constant_target_single_leaf(self):
        x = np.random.default_rng(0).normal(size=(50, 3))
        y = np.full(50, 7.0)
        tree = RegressionTree(max_depth=3).fit(x, y)
        assert tree.root.is_leaf
        np.testing.assert_allclose(tree.predict(x[:5]), 7.0)

    def test_depth_limit(self):
        x = np.random.default_rng(0).normal(size=(200, 1))
        y = np.sin(x[:, 0] * 10)
        tree = RegressionTree(max_depth=1).fit(x, y)
        # Depth 1 → at most 2 leaves → at most 2 distinct predictions.
        assert len(np.unique(tree.predict(x))) <= 2

    def test_min_samples_leaf(self):
        x = np.arange(10, dtype=np.float64).reshape(-1, 1)
        y = x[:, 0]
        tree = RegressionTree(max_depth=5, min_samples_leaf=4).fit(x, y)

        def leaf_sizes(node, xs):
            if node.is_leaf:
                return [len(xs)]
            mask = xs[:, node.feature] <= node.threshold
            return leaf_sizes(node.left, xs[mask]) + leaf_sizes(node.right, xs[~mask])
        assert min(leaf_sizes(tree.root, x)) >= 4


class TestGBDT:
    def test_improves_over_mean_baseline(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(300, 4))
        y = 3 * x[:, 0] + np.sin(x[:, 1] * 6)
        model = GradientBoostedTrees(n_estimators=30, learning_rate=0.3).fit(x, y)
        residual = np.mean((model.predict(x) - y) ** 2)
        baseline = np.var(y)
        assert residual < baseline * 0.1

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 3))
        y = x[:, 0] * 2
        a = GradientBoostedTrees(seed=5, subsample=0.8).fit(x, y).predict(x)
        b = GradientBoostedTrees(seed=5, subsample=0.8).fit(x, y).predict(x)
        np.testing.assert_allclose(a, b)

    def test_predict_shape(self):
        x = np.random.default_rng(0).normal(size=(50, 2))
        model = GradientBoostedTrees(n_estimators=3).fit(x, x[:, 0])
        assert model.predict(x[:7]).shape == (7,)

    def test_no_extrapolation_beyond_targets(self):
        """Trees cannot predict outside the training target range —
        the failure mode behind LW-XGB's Q-error in the paper."""
        x = np.linspace(0, 1, 100).reshape(-1, 1)
        y = x[:, 0] * 10
        model = GradientBoostedTrees(n_estimators=20).fit(x, y)
        far = model.predict(np.array([[100.0]]))[0]
        assert far <= y.max() + 1e-6

    def test_shrinkage_slows_fit(self):
        x = np.random.default_rng(2).normal(size=(150, 2))
        y = x[:, 0]
        fast = GradientBoostedTrees(n_estimators=3, learning_rate=1.0).fit(x, y)
        slow = GradientBoostedTrees(n_estimators=3, learning_rate=0.05).fit(x, y)
        assert (np.mean((fast.predict(x) - y) ** 2)
                < np.mean((slow.predict(x) - y) ** 2))


# ----------------------------------------------------------------------
# Oracle: the per-cut scalar split loop the vectorized scan replaced.
# ----------------------------------------------------------------------
class ScalarLoopTree(RegressionTree):
    """RegressionTree whose split search is the original per-cut loop."""

    def candidates(self, X, y):
        """Yield (feature, cut, gain, threshold) in the loop's scan order."""
        n, d = X.shape
        total_sum = y.sum()
        total_sq = float(((y - y.mean()) ** 2).sum())
        for feature in range(d):
            order = np.argsort(X[:, feature], kind="stable")
            xs = X[order, feature]
            ys = y[order]
            prefix = np.cumsum(ys)
            prefix_sq = np.cumsum(ys * ys)
            change = np.nonzero(np.diff(xs) > 0)[0]
            for cut in change:
                left_n = cut + 1
                right_n = n - left_n
                if left_n < self.min_samples_leaf or right_n < self.min_samples_leaf:
                    continue
                left_sum = prefix[cut]
                right_sum = total_sum - left_sum
                left_sse = prefix_sq[cut] - left_sum ** 2 / left_n
                right_sse = (prefix_sq[-1] - prefix_sq[cut]) - right_sum ** 2 / right_n
                gain = total_sq - (left_sse + right_sse)
                yield feature, cut, gain, 0.5 * (xs[cut] + xs[cut + 1])

    def _best_split(self, X, y):
        best = (None, None, 0.0)  # feature, threshold, gain
        for feature, _, gain, threshold in self.candidates(X, y):
            if gain > best[2] + self.min_gain:
                best = (feature, threshold, gain)
        return best


def tree_nodes(node):
    """Pre-order (feature, threshold, value, is_leaf) of every node."""
    out = [(node.feature, node.threshold, node.value, node.is_leaf)]
    if not node.is_leaf:
        out += tree_nodes(node.left) + tree_nodes(node.right)
    return out


def assert_same_tree(fast, oracle, X):
    assert tree_nodes(fast.root) == tree_nodes(oracle.root)
    assert fast.predict(X).tobytes() == oracle.predict(X).tobytes()


def make_inputs(kind, n, seed):
    """Seeded split-search inputs covering the scan's corner cases."""
    rng = np.random.default_rng(seed)
    if kind == "continuous":
        X = rng.normal(size=(n, 5))
        y = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=n)
    elif kind == "integer":
        # Integer-valued features with many duplicates, a constant column
        # and an exact duplicate column (identical gains across features).
        base = rng.integers(0, 4, size=(n, 3)).astype(np.float64)
        X = np.column_stack([base, np.full(n, 2.0), base[:, 0],
                             rng.integers(0, 2, size=n)])
        y = base[:, 0] * 1.5 - base[:, 1] + rng.integers(0, 3, size=n)
    elif kind == "range-encoding":
        # Shaped like LW-XGB's flat range features: bounds pinned at 0/1
        # unless a predicate narrows them, log-card targets.
        lo = np.where(rng.random((n, 4)) < 0.6, 0.0, rng.random((n, 4)))
        hi = np.where(rng.random((n, 4)) < 0.6, 1.0, rng.random((n, 4)))
        X = np.column_stack([lo, np.maximum(lo, hi)])
        y = np.log1p((X[:, 4:] - X[:, :4]).prod(axis=1) * 1e4)
    else:
        raise ValueError(kind)
    return X, y


class TestVectorizedSplitMatchesLoop:
    @pytest.mark.parametrize("kind", ["continuous", "integer", "range-encoding"])
    @pytest.mark.parametrize("msl", [1, 3, 5])
    @pytest.mark.parametrize("size", ["2msl-1", "2msl", 60, 300])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_tree(self, kind, msl, size, seed):
        n = {"2msl-1": 2 * msl - 1, "2msl": 2 * msl}.get(size, size)
        X, y = make_inputs(kind, n, seed)
        fast = RegressionTree(max_depth=4, min_samples_leaf=msl).fit(X, y)
        oracle = ScalarLoopTree(max_depth=4, min_samples_leaf=msl).fit(X, y)
        assert_same_tree(fast, oracle, X)

    @pytest.mark.parametrize("min_gain", [1e-9, 0.01, 0.1, 1.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_gains_within_min_gain(self, min_gain, seed):
        """Many cuts with gains close together: the running-best rule
        (move only when gain > best + min_gain) decides the pick."""
        X, y = make_inputs("integer", 120, seed)
        X = X + np.random.default_rng(seed).integers(0, 2, size=X.shape) * 0.5
        fast = RegressionTree(max_depth=3, min_gain=min_gain).fit(X, y)
        oracle = ScalarLoopTree(max_depth=3, min_gain=min_gain).fit(X, y)
        assert_same_tree(fast, oracle, X)

    @pytest.mark.parametrize("kind", ["continuous", "integer", "range-encoding"])
    @pytest.mark.parametrize("n", [60, 300, 3000])
    def test_every_gain_bit_identical(self, kind, n):
        """Not only the pick: every candidate's gain, in scan order.  The
        large case has enough cuts that squaring with ``x * x`` instead of
        the loop's scalar ``pow`` shows up in some gain."""
        X, y = make_inputs(kind, n, 5)
        feature, cut, gain, _ = RegressionTree()._split_gains(X, y)
        want = list(ScalarLoopTree().candidates(X, y))
        assert feature.tolist() == [c[0] for c in want]
        assert cut.tolist() == [int(c[1]) for c in want]
        assert gain.tobytes() == np.array([c[2] for c in want]).tobytes()

    def test_tie_rule_is_not_argmax(self):
        """The record rule keeps an earlier cut when a later one beats it by
        less than min_gain; argmax would take the later one.  Feature 0's
        best cut (gain 1.2) is found first, feature 1's perfect cut (gain
        2.0) does not clear 1.2 + min_gain."""
        X = np.column_stack([[0, 1, 2, 4, 3, 5, 6, 7], np.arange(8)]).astype(np.float64)
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.float64)
        for cls in (RegressionTree, ScalarLoopTree):
            tree = cls(max_depth=1, min_samples_leaf=1, min_gain=1.0)
            feature, threshold, gain = tree._best_split(X, y)
            assert (feature, threshold) == (0, 2.5)
            assert gain == pytest.approx(1.2)
        # Without the margin both pick the perfect split.
        assert RegressionTree(min_samples_leaf=1)._best_split(X, y)[:2] == (1, 3.5)

    def test_no_candidate_returns_none(self):
        X = np.ones((10, 3))
        y = np.arange(10, dtype=np.float64)
        assert RegressionTree()._best_split(X, y) == (None, None, 0.0)

    @pytest.mark.parametrize("subsample", [0.5, 0.8])
    @pytest.mark.parametrize("kind", ["continuous", "integer", "range-encoding"])
    def test_boosted_ensemble_and_subsample_path(self, monkeypatch, kind,
                                                 subsample):
        X, y = make_inputs(kind, 150, 7)
        fast = GradientBoostedTrees(n_estimators=8, subsample=subsample,
                                    seed=3).fit(X, y)
        monkeypatch.setattr(gbdt, "RegressionTree", ScalarLoopTree)
        oracle = GradientBoostedTrees(n_estimators=8, subsample=subsample,
                                      seed=3).fit(X, y)
        for a, b in zip(fast.trees, oracle.trees, strict=True):
            assert_same_tree(a, b, X)
        assert fast.predict(X).tobytes() == oracle.predict(X).tobytes()

    def test_lwxgb_fit_and_estimate_on_fast_testbed_dataset(self, monkeypatch):
        config = fast_testbed_config(seed=4)
        dataset = generate_dataset(random_spec(11))
        workload = generate_workload(
            dataset, num_train=config.num_train_queries,
            num_test=config.num_test_queries, seed=config.seed)
        ctx = TrainingContext.build(dataset, workload, seed=config.seed,
                                    sample_size=config.sample_size)
        fast = config.build_candidates()["LW-XGB"]
        fast.fit(ctx)
        monkeypatch.setattr(gbdt, "RegressionTree", ScalarLoopTree)
        oracle = config.build_candidates()["LW-XGB"]
        oracle.fit(ctx)
        for a, b in zip(fast._model.trees, oracle._model.trees, strict=True):
            assert tree_nodes(a.root) == tree_nodes(b.root)
        queries = workload.train + workload.test
        got = np.array([fast.estimate(q) for q in queries])
        want = np.array([oracle.estimate(q) for q in queries])
        assert got.tobytes() == want.tobytes()


class TestSubsampleSmallInput:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_fewer_rows_than_two_leaves(self, n):
        """subsample < 1 on fewer than 2·min_samples_leaf rows used to ask
        for a sample larger than the population."""
        X = np.arange(n, dtype=np.float64).reshape(-1, 1)
        y = X[:, 0] * 2.0
        model = GradientBoostedTrees(n_estimators=4, min_samples_leaf=3,
                                     subsample=0.5).fit(X, y)
        np.testing.assert_allclose(model.predict(X), y.mean())


class TestMutualInformation:
    @staticmethod
    def add_at_oracle(a, b, bins_a, bins_b):
        n = len(a)
        if n == 0:
            return 0.0
        joint = np.zeros((bins_a, bins_b))
        np.add.at(joint, (a, b), 1.0)
        joint /= n
        pa = joint.sum(axis=1, keepdims=True)
        pb = joint.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(joint > 0, joint / (pa * pb), 1.0)
            terms = np.where(joint > 0, joint * np.log(ratio), 0.0)
        return float(terms.sum())

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_bit_identical_to_add_at(self, dtype):
        rng = np.random.default_rng(0)
        for _ in range(300):
            bins_a, bins_b = rng.integers(1, 40, size=2)
            n = int(rng.integers(0, 500))
            a = rng.integers(0, bins_a, size=n).astype(dtype)
            b = np.where(rng.random(n) < 0.5, a % bins_b,
                         rng.integers(0, bins_b, size=n)).astype(dtype)
            got = mutual_information(a, b, int(bins_a), int(bins_b))
            want = self.add_at_oracle(a, b, int(bins_a), int(bins_b))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
