"""Join materialization and sampling for data-driven CE models.

Data-driven estimators (DeepDB, BayesCard, NeuroCard, UAE) learn a joint
distribution over the columns of a *join template*.  This module materializes
the row-index composition of a template's join result (bounded by a row cap,
falling back to uniform down-sampling when the join explodes) and exposes a
cache so that the testbed fits all models from one shared sample per
template.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import rng_from_seed
from .counting import join_size
from .schema import Dataset
from .table import PK_COLUMN


def fk_groups(fk_values: np.ndarray, parent_rows: int):
    """Precompute child-row groups per parent key value.

    Returns ``(order, starts)`` such that ``order[starts[v]:starts[v+1]]`` are
    the child row indices whose FK equals ``v``, in ascending row order (the
    sort is stable).  Shared by join sampling and the plan executor.
    """
    order = np.argsort(fk_values, kind="stable")
    counts = np.bincount(fk_values, minlength=parent_rows)
    starts = np.concatenate(([0], np.cumsum(counts)))
    return order, starts


def materialize_join(dataset: Dataset, tables: tuple[str, ...],
                     max_rows: int = 200_000,
                     seed: int | np.random.Generator = 0) -> dict[str, np.ndarray]:
    """Row indices per table composing the join over ``tables``.

    Returns a dict ``{table: int64 array}`` where position ``i`` across all
    arrays identifies the ``i``-th joined row.  If the intermediate result
    exceeds ``max_rows`` it is uniformly down-sampled (the exact join size is
    still available from :func:`repro.db.counting.join_size`).
    """
    tables = tuple(tables)
    if not dataset.is_connected_subset(tables):
        raise ValueError(f"{tables} is not a connected join template")
    rng = rng_from_seed(seed)

    root = tables[0]
    result: dict[str, np.ndarray] = {root: np.arange(dataset[root].num_rows, dtype=np.int64)}
    attached = {root}
    remaining = set(tables) - attached

    while remaining:
        progress = False
        for fk in dataset.subset_edges(tables):
            child_in = fk.child in attached
            parent_in = fk.parent in attached
            if child_in == parent_in:
                continue
            progress = True
            if child_in:
                # Attach the parent: each joined row maps to exactly one
                # parent row (pk value == row index).
                fk_values = dataset[fk.child][fk.fk_column]
                parent_rows = fk_values[result[fk.child]]
                result[fk.parent] = parent_rows
                attached.add(fk.parent)
                remaining.discard(fk.parent)
            else:
                # Attach the child: each joined row fans out to every child
                # row referencing its parent key.
                parent = dataset[fk.parent]
                child = dataset[fk.child]
                order, starts = fk_groups(child[fk.fk_column], parent.num_rows)
                parent_keys = parent[PK_COLUMN][result[fk.parent]]
                fanouts = starts[parent_keys + 1] - starts[parent_keys]
                total = int(fanouts.sum())
                keep = np.repeat(np.arange(len(parent_keys)), fanouts)
                # Enumerate matching child rows for every joined row.
                offsets = np.concatenate(([0], np.cumsum(fanouts)))[:-1]
                within = np.arange(total) - np.repeat(offsets, fanouts)
                child_rows = order[np.repeat(starts[parent_keys], fanouts) + within]
                for name in list(result):
                    result[name] = result[name][keep]
                result[fk.child] = child_rows
                attached.add(fk.child)
                remaining.discard(fk.child)
            size = len(next(iter(result.values())))
            if size > max_rows:
                chosen = rng.choice(size, size=max_rows, replace=False)
                chosen.sort()
                for name in list(result):
                    result[name] = result[name][chosen]
        if not progress:
            raise RuntimeError("join template is not connected via FK edges")
    return result


def subsample_dataset(dataset: Dataset, fraction: float,
                      seed: int | np.random.Generator = 0) -> Dataset:
    """Row-subsample every table while keeping PK-FK integrity.

    Used by the Sampling selection baseline (Sec. VII-A).  Tables are
    processed in FK-dependency order (parents before children); child rows
    are drawn only from rows whose FK targets survived, and if a table
    would end up empty one row is force-kept together with (recursively)
    the parent rows it references.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rng = rng_from_seed(seed)

    parents_of: dict[str, list] = {name: [] for name in dataset.table_names}
    for fk in dataset.foreign_keys:
        parents_of[fk.child].append(fk)

    # Topological order: parents before children (join graph is a forest).
    ordered: list[str] = []
    remaining = set(dataset.table_names)
    while remaining:
        progressed = False
        for name in sorted(remaining):
            if all(fk.parent not in remaining for fk in parents_of[name]):
                ordered.append(name)
                remaining.discard(name)
                progressed = True
        if not progressed:  # pragma: no cover - schema is validated acyclic
            raise RuntimeError("cyclic FK dependencies")

    keep: dict[str, set[int]] = {}

    def ensure_row(name: str, row: int) -> None:
        """Force-keep a row plus (recursively) its referenced parent rows."""
        if row in keep.setdefault(name, set()):
            return
        keep[name].add(row)
        for fk in parents_of[name]:
            parent_row = int(dataset[name][fk.fk_column][row])
            ensure_row(fk.parent, parent_row)

    for name in ordered:
        table = dataset[name]
        kept_parents = {fk.parent: keep.get(fk.parent, set())
                        for fk in parents_of[name]}
        valid = np.ones(table.num_rows, dtype=bool)
        for fk in parents_of[name]:
            parent_keep = np.zeros(dataset[fk.parent].num_rows, dtype=bool)
            parent_keep[list(kept_parents[fk.parent])] = True
            valid &= parent_keep[table[fk.fk_column]]
        candidates = np.nonzero(valid)[0]
        size = max(1, int(round(fraction * table.num_rows)))
        already = keep.setdefault(name, set())
        if len(candidates) > 0:
            chosen = rng.choice(candidates, size=min(size, len(candidates)),
                                replace=False)
            already.update(int(r) for r in chosen)
        if not already:
            ensure_row(name, int(rng.integers(0, table.num_rows)))

    # Renumber PKs and remap FKs.
    rows_by_table = {name: np.array(sorted(keep[name]), dtype=np.int64)
                     for name in dataset.table_names}
    remap: dict[str, np.ndarray] = {}
    for name, rows in rows_by_table.items():
        table = dataset[name]
        if table.has_pk:
            mapping = np.full(table.num_rows, -1, dtype=np.int64)
            mapping[rows] = np.arange(len(rows))
            remap[name] = mapping

    new_tables = []
    for name in dataset.table_names:
        table = dataset[name]
        rows = rows_by_table[name]
        columns: dict[str, np.ndarray] = {}
        for col, values in table.columns.items():
            taken = values[rows]
            if col == PK_COLUMN:
                taken = np.arange(len(rows), dtype=np.int64)
            elif col.startswith("fk_"):
                parent = next(fk.parent for fk in dataset.foreign_keys
                              if fk.child == name and fk.fk_column == col)
                taken = remap[parent][taken]
            columns[col] = taken
        new_tables.append(type(table)(name, columns))
    return Dataset(f"{dataset.name}_sample", new_tables, dataset.foreign_keys)


class JoinSampleCache:
    """Shared per-dataset cache of join samples keyed by template.

    ``sample(tables, n)`` returns ``(columns, join_cardinality)`` where
    ``columns`` maps qualified column names (``"table.column"``) to value
    arrays of length ≤ n, drawn uniformly from the template's join result.
    """

    def __init__(self, dataset: Dataset, max_rows: int = 200_000,
                 seed: int = 0):
        self.dataset = dataset
        self.max_rows = max_rows
        self.seed = seed
        self._joins: dict[tuple[str, ...], dict[str, np.ndarray]] = {}
        self._sizes: dict[tuple[str, ...], int] = {}

    def template_size(self, tables: tuple[str, ...]) -> int:
        key = tuple(sorted(tables))
        if key not in self._sizes:
            self._sizes[key] = join_size(self.dataset, key)
        return self._sizes[key]

    def _indices(self, key: tuple[str, ...]) -> dict[str, np.ndarray]:
        if key not in self._joins:
            self._joins[key] = materialize_join(
                self.dataset, key, max_rows=self.max_rows, seed=self.seed)
        return self._joins[key]

    def sample(self, tables: tuple[str, ...], n: int,
               seed: int | np.random.Generator = 0):
        key = tuple(sorted(tables))
        indices = self._indices(key)
        size = len(next(iter(indices.values()))) if indices else 0
        rng = rng_from_seed(seed)
        if size == 0:
            return {}, self.template_size(key)
        if size > n:
            chosen = rng.choice(size, size=n, replace=False)
        else:
            chosen = np.arange(size)
        columns: dict[str, np.ndarray] = {}
        for table, rows in indices.items():
            for column in self.dataset[table].data_columns():
                columns[f"{table}.{column}"] = self.dataset[table][column][rows[chosen]]
        return columns, self.template_size(key)

    def clear(self) -> None:
        self._joins.clear()
