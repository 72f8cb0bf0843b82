"""Datasets: collections of tables plus a PK–FK join graph.

The paper's synthetic datasets are 1–5 tables where a "main" table exposes a
primary key and other tables reference it through foreign keys, forming an
acyclic join graph (a forest).  :class:`Dataset` stores the tables and the
foreign-key edges and offers graph utilities (connected sub-schemas, join
paths) used by the workload generator, the ground-truth counter and the
feature extractor.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from .table import PK_COLUMN, Table


@dataclass(frozen=True)
class ForeignKey:
    """A PK–FK edge: ``child.fk_column`` references ``parent.pk``."""

    child: str
    fk_column: str
    parent: str

    def __post_init__(self):
        if not self.fk_column.startswith("fk_"):
            raise ValueError(f"foreign-key column {self.fk_column!r} must start with 'fk_'")


class Dataset:
    """A named set of tables with foreign-key relationships."""

    def __init__(self, name: str, tables: list[Table], foreign_keys: list[ForeignKey]):
        self.name = name
        self.tables: dict[str, Table] = {t.name: t for t in tables}
        if len(self.tables) != len(tables):
            raise ValueError("duplicate table names")
        self.foreign_keys = list(foreign_keys)
        self._validate()
        self._graph = self._build_graph()
        if not nx.is_forest(self._graph) and self._graph.number_of_nodes() > 0:
            raise ValueError("join graph must be acyclic (a forest)")

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for fk in self.foreign_keys:
            if fk.child not in self.tables or fk.parent not in self.tables:
                raise ValueError(f"foreign key {fk} references unknown table")
            child = self.tables[fk.child]
            parent = self.tables[fk.parent]
            if fk.fk_column not in child:
                raise ValueError(f"table {fk.child!r} lacks column {fk.fk_column!r}")
            if PK_COLUMN not in parent:
                raise ValueError(f"table {fk.parent!r} lacks a primary key")
            # Joins address parent rows by key (pk value == row index).
            if not np.array_equal(parent[PK_COLUMN], np.arange(parent.num_rows)):
                raise ValueError(
                    f"table {fk.parent!r} primary key must hold 0 .. "
                    f"{parent.num_rows - 1} in row order")
            fk_values = child[fk.fk_column]
            if fk_values.min(initial=0) < 0 or fk_values.max(initial=0) >= parent.num_rows:
                raise ValueError(
                    f"foreign key {fk.child}.{fk.fk_column} has values outside "
                    f"the parent key range [0, {parent.num_rows})"
                )

    def _build_graph(self) -> nx.Graph:
        graph = nx.Graph()
        graph.add_nodes_from(self.tables)
        for fk in self.foreign_keys:
            if graph.has_edge(fk.child, fk.parent):
                # Two FKs between one table pair form a (multi-)cycle.
                raise ValueError("join graph must be acyclic (a forest)")
            graph.add_edge(fk.child, fk.parent, fk=fk)
        return graph

    # ------------------------------------------------------------------
    @property
    def table_names(self) -> list[str]:
        return list(self.tables)

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    @property
    def total_rows(self) -> int:
        return sum(t.num_rows for t in self.tables.values())

    def __getitem__(self, name: str) -> Table:
        return self.tables[name]

    def __repr__(self) -> str:
        return (f"Dataset({self.name!r}, tables={self.num_tables}, "
                f"fks={len(self.foreign_keys)})")

    # ------------------------------------------------------------------
    # Join-graph utilities
    # ------------------------------------------------------------------
    def join_graph(self) -> nx.Graph:
        return self._graph.copy()

    def fk_between(self, a: str, b: str) -> ForeignKey | None:
        """The FK joining tables ``a`` and ``b`` (either direction), if any."""
        if self._graph.has_edge(a, b):
            return self._graph.edges[a, b]["fk"]
        return None

    def is_connected_subset(self, tables: tuple[str, ...]) -> bool:
        if len(tables) == 1:
            return tables[0] in self.tables
        sub = self._graph.subgraph(tables)
        return sub.number_of_nodes() == len(tables) and nx.is_connected(sub)

    def subset_edges(self, tables: tuple[str, ...]) -> list[ForeignKey]:
        """All FK edges with both endpoints inside ``tables``."""
        table_set = set(tables)
        return [fk for fk in self.foreign_keys
                if fk.child in table_set and fk.parent in table_set]

    def connected_subsets(self, max_size: int | None = None) -> list[tuple[str, ...]]:
        """Enumerate all connected table subsets (join templates)."""
        names = sorted(self.tables)
        limit = max_size or len(names)
        found: set[tuple[str, ...]] = set()
        # BFS over subsets, growing connected sets one neighbour at a time.
        frontier = [frozenset([n]) for n in names]
        seen = set(frontier)
        while frontier:
            current = frontier.pop()
            found.add(tuple(sorted(current)))
            if len(current) >= limit:
                continue
            neighbours = set()
            for node in current:
                neighbours.update(self._graph.neighbors(node))
            for neighbour in neighbours - current:
                grown = current | {neighbour}
                if grown not in seen:
                    seen.add(grown)
                    frontier.append(grown)
        return sorted(found)

    def join_correlation(self, fk: ForeignKey) -> float:
        """Feature used by AutoCE: |set(FK values)| / |set(PK values)|.

        Section V-A of the paper computes the join correlation as the ratio of
        the FK column's distinct values over the parent PK column's distinct
        values, which recovers the generation parameter ``p`` of process F3.
        """
        child = self.tables[fk.child]
        parent = self.tables[fk.parent]
        ndv_fk = len(np.unique(child[fk.fk_column]))
        return float(ndv_fk) / float(parent.num_rows)
