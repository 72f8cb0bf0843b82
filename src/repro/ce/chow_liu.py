"""Chow–Liu tree-structured Bayesian networks (the BayesCard substrate).

Learns the maximum-mutual-information spanning tree over discretized
columns, stores Laplace-smoothed CPTs along tree edges, and answers
conjunctive box queries exactly by upward message passing.
"""

from __future__ import annotations

import networkx as nx
import numpy as np


def mutual_information(a: np.ndarray, b: np.ndarray,
                       bins_a: int, bins_b: int) -> float:
    """Empirical mutual information between two discretized columns."""
    n = len(a)
    if n == 0:
        return 0.0
    # Integer counts are exact: the table equals a float scatter-add bit for bit.
    cells = np.asarray(a, dtype=np.intp) * bins_b + np.asarray(b, dtype=np.intp)
    joint = np.bincount(cells, minlength=bins_a * bins_b).reshape(bins_a, bins_b) / n
    pa = joint.sum(axis=1, keepdims=True)
    pb = joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(joint > 0, joint / (pa * pb), 1.0)
        terms = np.where(joint > 0, joint * np.log(ratio), 0.0)
    return float(terms.sum())


class ChowLiuTree:
    """Tree-structured Bayesian network over discretized columns."""

    def __init__(self, alpha: float = 0.1):
        self.alpha = alpha
        self.columns: list[str] = []
        self.n_bins: dict[str, int] = {}
        self.parent: dict[str, str | None] = {}
        self.children: dict[str, list[str]] = {}
        # CPTs: root -> vector P(x); edge child -> matrix P(child | parent)
        # with shape [parent_bins, child_bins].
        self.marginal: dict[str, np.ndarray] = {}
        self.cpt: dict[str, np.ndarray] = {}

    def fit(self, ids: dict[str, np.ndarray], n_bins: dict[str, int]) -> "ChowLiuTree":
        self.columns = list(ids)
        self.n_bins = dict(n_bins)
        n = len(next(iter(ids.values())))

        if len(self.columns) == 1:
            col = self.columns[0]
            self.parent = {col: None}
            self.children = {col: []}
            self.marginal[col] = self._smoothed_marginal(ids[col], n_bins[col])
            return self

        graph = nx.Graph()
        graph.add_nodes_from(self.columns)
        for i, a in enumerate(self.columns):
            for b in self.columns[i + 1:]:
                mi = mutual_information(ids[a], ids[b], n_bins[a], n_bins[b])
                graph.add_edge(a, b, weight=-mi)  # min spanning tree of -MI
        tree = nx.minimum_spanning_tree(graph)

        root = self.columns[0]
        self.parent = {root: None}
        self.children = {c: [] for c in self.columns}
        for parent, child in nx.bfs_edges(tree, root):
            self.parent[child] = parent
            self.children[parent].append(child)

        self.marginal[root] = self._smoothed_marginal(ids[root], n_bins[root])
        for child, parent in self.parent.items():
            if parent is None:
                continue
            self.cpt[child] = self._smoothed_conditional(
                ids[parent], ids[child], n_bins[parent], n_bins[child])
        return self

    # ------------------------------------------------------------------
    def _smoothed_marginal(self, values: np.ndarray, bins: int) -> np.ndarray:
        counts = np.bincount(values, minlength=bins).astype(np.float64)
        counts += self.alpha
        return counts / counts.sum()

    def _smoothed_conditional(self, parent: np.ndarray, child: np.ndarray,
                              parent_bins: int, child_bins: int) -> np.ndarray:
        joint = np.full((parent_bins, child_bins), self.alpha)
        np.add.at(joint, (parent, child), 1.0)
        return joint / joint.sum(axis=1, keepdims=True)

    # ------------------------------------------------------------------
    def query_probability(self, allowed: dict[str, np.ndarray]) -> float:
        """P(∧ columns in allowed masses) by upward message passing.

        ``allowed[col]`` is a per-bin coverage vector in [0, 1]; columns
        missing from ``allowed`` are unconstrained.
        """
        root = next(c for c, p in self.parent.items() if p is None)

        def message(node: str) -> np.ndarray:
            mass = allowed.get(node, np.ones(self.n_bins[node]))
            vector = np.asarray(mass, dtype=np.float64).copy()
            for child in self.children[node]:
                child_message = message(child)
                vector *= self.cpt[child] @ child_message
            return vector

        return float(np.dot(self.marginal[root], message(root)))
