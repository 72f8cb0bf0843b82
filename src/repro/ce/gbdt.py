"""Gradient-boosted regression trees, from scratch.

A CPU re-implementation of the XGBoost-style regressor behind LW-XGB.  With
squared loss, second-order boosting reduces to fitting each tree to the
current residuals with variance-reduction splits, which is what we implement
(exact greedy splits over sorted feature values, depth- and leaf-size
bounded, shrinkage between rounds).

Split search is XGBoost's exact greedy algorithm as one vectorized scan per
node: a stable ``argsort`` of the node's rows on every column, column-wise
``cumsum`` prefix sums of ``y`` and ``y²``, and the gain of every
(feature, cut) pair from those sums.  A cut is a candidate only where the
sorted feature value changes and both sides keep ``min_samples_leaf`` rows;
the others are dropped before the arithmetic.  The gain of each candidate
is computed with the same float64 operations a per-cut scalar loop performs
(``left_sum ** 2`` goes through ``np.float_power``, i.e. libm ``pow`` like
a numpy scalar power, not the ``x * x`` fast path of ``np.power``), so the
gains are bit-identical to such a loop.

Tie rule: candidates are scanned feature-major, then cut-ascending, and the
running best moves only when ``gain > best + min_gain`` (starting from
``best = 0``).  The scan reproduces that exactly by jumping from record to
record with ``flatnonzero``; an ``argmax`` would pick differently among
gains within ``min_gain`` of each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RegressionTree:
    """A single variance-reduction regression tree."""

    def __init__(self, max_depth: int = 3, min_samples_leaf: int = 3,
                 min_gain: float = 1e-9):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self.root: TreeNode | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        self.root = self._build(X, y, depth=0)
        return self

    def _split_gains(self, X: np.ndarray, y: np.ndarray):
        """Gain of every candidate cut, in scan order.

        Returns ``(feature, cut, gain, xs)``: parallel arrays over the
        candidates (cut ``c`` puts sorted rows ``0..c`` left) and the
        node's sorted columns ``xs`` of shape ``[d, n]``.
        """
        n, d = X.shape
        total_sum = y.sum()
        total_sq = float(((y - y.mean()) ** 2).sum())
        # Rows sorted on every column at once: [d, n], one row per feature.
        columns = X.T
        order = np.argsort(columns, axis=1, kind="stable")
        xs = np.take_along_axis(columns, order, axis=1)
        ys = y[order]
        prefix = np.cumsum(ys, axis=1)
        prefix_sq = np.cumsum(ys * ys, axis=1)
        # Candidates only where the feature value changes and both sides
        # keep min_samples_leaf rows.
        left_n = np.arange(1, n)
        right_n = n - left_n
        valid = np.diff(xs, axis=1) > 0
        valid &= (left_n >= self.min_samples_leaf) & (right_n >= self.min_samples_leaf)
        feature, cut = np.nonzero(valid)  # feature-major, cut-ascending
        left_sum = prefix[feature, cut]
        right_sum = total_sum - left_sum
        left_sse = prefix_sq[feature, cut] - np.float_power(left_sum, 2) / left_n[cut]
        right_sse = ((prefix_sq[feature, -1] - prefix_sq[feature, cut])
                     - np.float_power(right_sum, 2) / right_n[cut])
        gain = total_sq - (left_sse + right_sse)
        return feature, cut, gain, xs

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        feature, cut, gain, xs = self._split_gains(X, y)
        # Running best, moved only by gain > best + min_gain (see module doc).
        best, best_gain, start = -1, 0.0, 0
        while True:
            above = np.flatnonzero(gain[start:] > best_gain + self.min_gain)
            if not len(above):
                break
            best = start + int(above[0])
            best_gain = gain[best]
            start = best + 1
        if best < 0:
            return None, None, 0.0
        f, c = feature[best], cut[best]
        return int(f), 0.5 * (xs[f, c] + xs[f, c + 1]), best_gain

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> TreeNode:
        node = TreeNode(value=float(y.mean()) if len(y) else 0.0)
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf:
            return node
        feature, threshold, gain = self._best_split(X, y)
        if feature is None:
            return node
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X), dtype=np.float64)
        # Iterative traversal per row (trees are tiny: depth <= max_depth).
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out


class GradientBoostedTrees:
    """Least-squares gradient boosting with shrinkage."""

    def __init__(self, n_estimators: int = 30, learning_rate: float = 0.3,
                 max_depth: int = 3, min_samples_leaf: int = 3,
                 subsample: float = 1.0, seed: int = 0):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self.base_prediction = 0.0
        self.trees: list[RegressionTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        rng = np.random.default_rng(self.seed)
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.base_prediction = float(y.mean()) if len(y) else 0.0
        current = np.full(len(y), self.base_prediction)
        self.trees = []
        for _ in range(self.n_estimators):
            residual = y - current
            if self.subsample < 1.0:
                size = min(len(y), max(2 * self.min_samples_leaf,
                                       int(self.subsample * len(y))))
                idx = rng.choice(len(y), size=size, replace=False)
            else:
                idx = np.arange(len(y))
            tree = RegressionTree(self.max_depth, self.min_samples_leaf)
            tree.fit(X[idx], residual[idx])
            self.trees.append(tree)
            current = current + self.learning_rate * tree.predict(X)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.full(len(X), self.base_prediction)
        for tree in self.trees:
            out += self.learning_rate * tree.predict(X)
        return out
