"""Physical plan execution over the columnar tables.

Executes the optimizer's plans with real numpy operators — hash joins with
build/probe phases, index nested-loop joins via direct PK addressing, and
sequential vs sorted-index scans — so that plans with smaller intermediate
results genuinely run faster.  This is the causal link Table V relies on:
better cardinalities → better join orders/operators → lower wall-clock.

Both join kernels rest on the dense-key invariant that
:class:`~repro.db.schema.Dataset` checks for every FK parent: the ``pk``
column holds ``0 .. n-1``, so a key value *is* a row index.

* FK → PK (the left side holds the FK): a semi-join probe.  The right
  scan's rows are set in a boolean bitmap over the parent table, and each
  left row's FK value indexes that bitmap.
* PK → FK (the left side holds the parent): a grouped fan-out.  The child's
  rows grouped by FK value (:func:`~repro.db.sampling.fk_groups`) are built
  once per ``(child, fk_column)`` and cached; a right scan with predicates
  filters the cached groups through a bitmap of its rows.

Within an FK group, child rows come out in ascending row order, so every
join returns the same int64 row arrays a sort-and-search join would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..db.sampling import fk_groups
from ..db.schema import Dataset, ForeignKey
from .plans import JoinNode, PlanNode, ScanNode


@dataclass
class ExecutionResult:
    rows: int
    elapsed: float


class Executor:
    """Executes physical plans; keeps per-column sorted indexes and
    per-FK child groups lazily."""

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self._sorted: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        self._groups: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def _sorted_index(self, table: str, column: str):
        key = (table, column)
        if key not in self._sorted:
            values = self.dataset[table][column]
            order = np.argsort(values, kind="stable")
            self._sorted[key] = (values[order], order)
        return self._sorted[key]

    def _fk_groups(self, fk: ForeignKey):
        key = (fk.child, fk.fk_column)
        if key not in self._groups:
            self._groups[key] = fk_groups(self.dataset[fk.child][fk.fk_column],
                                          self.dataset[fk.parent].num_rows)
        return self._groups[key]

    def _scan(self, node: ScanNode) -> np.ndarray:
        table = self.dataset[node.table]
        if not node.predicates:
            return np.arange(table.num_rows, dtype=np.int64)
        if node.method == "index":
            # Use the sorted index for the first predicate, refine the rest.
            first, *rest = node.predicates
            values, order = self._sorted_index(node.table, first.column)
            lo = np.searchsorted(values, first.lo, side="left")
            hi = np.searchsorted(values, first.hi, side="right")
            rows = order[lo:hi]
            for pred in rest:
                column = table[pred.column][rows]
                rows = rows[(column >= pred.lo) & (column <= pred.hi)]
            return np.sort(rows)
        mask = table.select([(p.column, p.lo, p.hi) for p in node.predicates])
        return np.nonzero(mask)[0].astype(np.int64)

    # ------------------------------------------------------------------
    def _execute_node(self, node: PlanNode) -> dict[str, np.ndarray]:
        """Returns the intermediate result as row indices per table."""
        if isinstance(node, ScanNode):
            return {node.table: self._scan(node)}

        left = self._execute_node(node.left)
        right_rows = self._scan(node.right)
        fk = node.fk
        child_in_left = fk.child in left

        if child_in_left:
            # Left holds the FK; new table is the parent (PK side).
            fk_values = self.dataset[fk.child][fk.fk_column][left[fk.child]]
            if node.method == "indexnl" and len(node.right.predicates) == 0:
                # Direct PK addressing: pk value == row index.
                result = {name: rows for name, rows in left.items()}
                result[fk.parent] = fk_values
                return result
            # Hash join: semi-join probe of every FK value against a bitmap
            # of the parent rows the right scan kept.
            member = np.zeros(self.dataset[fk.parent].num_rows, dtype=bool)
            member[right_rows] = True
            keep = member[fk_values]
            result = {name: rows[keep] for name, rows in left.items()}
            result[fk.parent] = fk_values[keep]
            return result

        # Left holds the parent (PK side); new table is the child (FK side).
        # order[starts[k]:starts[k + 1]] are the child rows with FK == k.
        order, starts = self._fk_groups(fk)
        if node.right.predicates:
            # Keep only the scanned child rows; the groups stay ordered.
            member = np.zeros(self.dataset[fk.child].num_rows, dtype=bool)
            member[right_rows] = True
            order = order[member[order]]
            counts = np.bincount(self.dataset[fk.child][fk.fk_column][order],
                                 minlength=len(starts) - 1)
            starts = np.concatenate(([0], np.cumsum(counts)))
        parent_keys = left[fk.parent]  # pk value == row index
        fanouts = starts[parent_keys + 1] - starts[parent_keys]
        total = int(fanouts.sum())
        keep = np.repeat(np.arange(len(parent_keys)), fanouts)
        offsets = np.concatenate(([0], np.cumsum(fanouts)))[:-1]
        within = np.arange(total) - np.repeat(offsets, fanouts)
        result = {name: rows[keep] for name, rows in left.items()}
        result[fk.child] = order[np.repeat(starts[parent_keys], fanouts) + within]
        return result

    # ------------------------------------------------------------------
    def execute(self, plan: PlanNode) -> ExecutionResult:
        start = time.perf_counter()
        result = self._execute_node(plan)
        rows = len(next(iter(result.values()))) if result else 0
        return ExecutionResult(rows=rows, elapsed=time.perf_counter() - start)
