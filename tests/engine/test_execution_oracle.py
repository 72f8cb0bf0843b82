"""Oracle check of the join kernels in :class:`repro.engine.execution.Executor`.

``ReferenceExecutor`` keeps the sort-and-search joins the executor used
before its bitmap semi-joins and cached FK groups: a ``searchsorted``
membership probe for FK → PK hash joins and a stable ``argsort`` of the
scanned child rows for PK → FK fan-outs.  Every plan here must give
byte-identical int64 row arrays per table under both executors, and as many
rows as the exact count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.db.counting import count_join
from repro.db.table import PK_COLUMN
from repro.engine.e2e import TrueCardEstimator
from repro.engine.execution import Executor
from repro.engine.optimizer import Optimizer
from repro.engine.plans import JoinNode, ScanNode, plan_joins
from repro.workload.generator import generate_query
from repro.workload.query import Predicate, Query


class ReferenceExecutor(Executor):
    """The executor's joins as sort-and-search kernels (the oracle)."""

    def _execute_node(self, node):
        if isinstance(node, ScanNode):
            return {node.table: self._scan(node)}

        left = self._execute_node(node.left)
        right_rows = self._scan(node.right)
        fk = node.fk

        if fk.child in left:
            fk_values = self.dataset[fk.child][fk.fk_column][left[fk.child]]
            if node.method == "indexnl" and len(node.right.predicates) == 0:
                result = {name: rows for name, rows in left.items()}
                result[fk.parent] = fk_values
                return result
            if len(right_rows) == 0:
                keep = np.zeros(len(fk_values), dtype=bool)
            else:
                positions = np.searchsorted(right_rows, fk_values)
                positions = np.minimum(positions, len(right_rows) - 1)
                keep = right_rows[positions] == fk_values
            result = {name: rows[keep] for name, rows in left.items()}
            result[fk.parent] = fk_values[keep]
            return result

        child = self.dataset[fk.child]
        fk_values = child[fk.fk_column][right_rows]
        order = np.argsort(fk_values, kind="stable")
        sorted_fk = fk_values[order]
        parent_keys = self.dataset[fk.parent][PK_COLUMN][left[fk.parent]]
        starts = np.searchsorted(sorted_fk, parent_keys, side="left")
        stops = np.searchsorted(sorted_fk, parent_keys, side="right")
        fanouts = stops - starts
        total = int(fanouts.sum())
        keep = np.repeat(np.arange(len(parent_keys)), fanouts)
        offsets = np.concatenate(([0], np.cumsum(fanouts)))[:-1]
        within = np.arange(total) - np.repeat(offsets, fanouts)
        child_positions = order[np.repeat(starts, fanouts) + within]
        result = {name: rows[keep] for name, rows in left.items()}
        result[fk.child] = right_rows[child_positions]
        return result


# ----------------------------------------------------------------------
def assert_same_rows(dataset, plan, fast: Executor, reference: Executor,
                     query: Query) -> None:
    got = fast._execute_node(plan)
    want = reference._execute_node(plan)
    assert list(got) == list(want)
    for table in want:
        assert got[table].dtype == np.int64, table
        assert want[table].dtype == np.int64, table
        assert got[table].tobytes() == want[table].tobytes(), table
    assert fast.execute(plan).rows == count_join(dataset, query.tables,
                                                 query.predicate_tuples())


def join_kinds(plan) -> set[tuple[str, str]]:
    """``(method, direction)`` of every join; direction names the new side."""
    return {(join.method, "parent" if join.fk.child in join.left.tables
             else "child") for join in plan_joins(plan)}


def random_plan(dataset, query: Query, rng: np.random.Generator):
    """A random left-deep plan: join order, join and scan methods."""
    preds = {t: tuple(p for p in query.predicates if p.table == t)
             for t in query.tables}

    def scan(table: str) -> ScanNode:
        return ScanNode(table, preds[table], str(rng.choice(["seq", "index"])))

    remaining = list(query.tables)
    first = remaining.pop(int(rng.integers(0, len(remaining))))
    plan, placed = scan(first), {first}
    while remaining:
        options = [(t, fk) for t in remaining for fk in dataset.foreign_keys
                   if (fk.child == t and fk.parent in placed)
                   or (fk.parent == t and fk.child in placed)]
        table, fk = options[int(rng.integers(0, len(options)))]
        methods = ["hash", "indexnl"] if fk.parent == table else ["hash"]
        plan = JoinNode(plan, scan(table), fk, str(rng.choice(methods)))
        placed.add(table)
        remaining.remove(table)
    return plan


#: Deliberately wrong estimates: everything tiny, everything huge.
WRONG_ESTIMATES = (lambda q: 1.0, lambda q: 1e9)


def exercise(dataset, queries: int, seed: int) -> set[tuple[str, str]]:
    """Plans ``queries`` random queries every way; returns the join kinds."""
    rng = np.random.default_rng(seed)
    templates = [t for t in dataset.connected_subsets() if len(t) > 1]
    planner = Optimizer(dataset)
    truecard = TrueCardEstimator(dataset)
    noisy_rng = np.random.default_rng(seed + 1)
    estimators = (*WRONG_ESTIMATES, truecard.estimate,
                  lambda q: truecard.estimate(q)
                  * float(noisy_rng.uniform(0.01, 100.0)) + 1.0)
    fast, reference = Executor(dataset), ReferenceExecutor(dataset)
    kinds: set[tuple[str, str]] = set()
    for _ in range(queries):
        query = generate_query(dataset, rng, templates)
        plans = [planner.plan(query, estimate).plan
                 for estimate in estimators]
        plans.append(random_plan(dataset, query, rng))
        for plan in plans:
            assert_same_rows(dataset, plan, fast, reference, query)
            kinds |= join_kinds(plan)
    return kinds


ALL_KINDS = {("hash", "parent"), ("indexnl", "parent"), ("hash", "child")}


class TestSmallDataset:
    def test_random_queries_all_join_kinds(self, small_dataset):
        assert exercise(small_dataset, queries=40, seed=11) == ALL_KINDS

    def test_optimizer_plans_cover_all_join_kinds(self, small_dataset):
        """Correct and deliberately wrong estimates between them pick every
        join method and direction, without the random plans."""
        rng = np.random.default_rng(5)
        templates = [t for t in small_dataset.connected_subsets()
                     if len(t) > 1]
        planner = Optimizer(small_dataset)
        truecard = TrueCardEstimator(small_dataset)
        kinds: set[tuple[str, str]] = set()
        for _ in range(40):
            query = generate_query(small_dataset, rng, templates)
            for estimate in (truecard.estimate, *WRONG_ESTIMATES):
                kinds |= join_kinds(planner.plan(query, estimate).plan)
        assert kinds == ALL_KINDS


def empty_predicate(dataset, table: str) -> tuple[Predicate, ...]:
    column = dataset[table].data_columns()[0]
    top = int(dataset[table][column].max())
    return (Predicate(table, column, top + 1, top + 5),)


def some_predicate(dataset, table: str) -> tuple[Predicate, ...]:
    column = dataset[table].data_columns()[0]
    values = dataset[table][column]
    lo, hi = np.percentile(values, [25, 60]).astype(int)
    return (Predicate(table, column, int(lo), int(hi)),)


@pytest.mark.parametrize("right", ["none", "some", "empty"])
@pytest.mark.parametrize("scan_method", ["seq", "index"])
class TestRightScans:
    """Both join directions with right scans that keep all, some or no
    rows, and a left side that is itself filtered."""

    def predicates(self, dataset, table, right):
        if right == "none":
            return ()
        if right == "empty":
            return empty_predicate(dataset, table)
        return some_predicate(dataset, table)

    def test_fk_to_pk(self, small_dataset, right, scan_method):
        fast, reference = (Executor(small_dataset),
                           ReferenceExecutor(small_dataset))
        for fk in small_dataset.foreign_keys:
            for left_preds in ((), some_predicate(small_dataset, fk.child)):
                preds = self.predicates(small_dataset, fk.parent, right)
                query = Query((fk.child, fk.parent), left_preds + preds)
                for method in ("hash", "indexnl"):
                    plan = JoinNode(ScanNode(fk.child, left_preds),
                                    ScanNode(fk.parent, preds, scan_method),
                                    fk, method)
                    assert_same_rows(small_dataset, plan, fast, reference,
                                     query)

    def test_pk_to_fk(self, small_dataset, right, scan_method):
        fast, reference = (Executor(small_dataset),
                           ReferenceExecutor(small_dataset))
        for fk in small_dataset.foreign_keys:
            for left_preds in ((), some_predicate(small_dataset, fk.parent)):
                preds = self.predicates(small_dataset, fk.child, right)
                query = Query((fk.parent, fk.child), left_preds + preds)
                plan = JoinNode(ScanNode(fk.parent, left_preds),
                                ScanNode(fk.child, preds, scan_method),
                                fk, "hash")
                assert_same_rows(small_dataset, plan, fast, reference, query)

    def test_empty_left_side(self, small_dataset, right, scan_method):
        fast, reference = (Executor(small_dataset),
                           ReferenceExecutor(small_dataset))
        for fk in small_dataset.foreign_keys:
            for outer, inner in ((fk.child, fk.parent), (fk.parent, fk.child)):
                left_preds = empty_predicate(small_dataset, outer)
                preds = self.predicates(small_dataset, inner, right)
                plan = JoinNode(ScanNode(outer, left_preds),
                                ScanNode(inner, preds, scan_method), fk,
                                "hash")
                assert_same_rows(small_dataset, plan, fast, reference,
                                 Query((outer, inner), left_preds + preds))


def schema_shape(dataset) -> str:
    degree = {name: 0 for name in dataset.table_names}
    for fk in dataset.foreign_keys:
        degree[fk.child] += 1
        degree[fk.parent] += 1
    widest = max(degree.values())
    if widest <= 2:
        return "chain"
    return "star" if widest == dataset.num_tables - 1 else "tree"


SHAPES = [(3, "chain"), (4, "chain"), (5, "chain"), (4, "star"), (5, "star")]


def generated_schema(num_tables: int, shape: str):
    """The first ``random_spec`` draw with the given size and join shape."""
    for seed in range(500):
        spec = random_spec(seed, ranges={"num_tables": (num_tables,
                                                        num_tables),
                                         "rows": (300, 1500)})
        dataset = generate_dataset(spec)
        if schema_shape(dataset) == shape:
            return dataset
    raise AssertionError(f"no {num_tables}-table {shape} in 500 seeds")


@pytest.mark.parametrize("num_tables,shape", SHAPES)
def test_generated_schemas(num_tables, shape):
    dataset = generated_schema(num_tables, shape)
    assert dataset.num_tables == num_tables
    assert exercise(dataset, queries=12, seed=num_tables) == ALL_KINDS
