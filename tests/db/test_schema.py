"""Dataset schemas: FK validation, join-graph utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.schema import Dataset, ForeignKey
from repro.db.table import PK_COLUMN, Table


def chain_dataset():
    """a <- b <- c (b references a, c references b)."""
    a = Table("a", {PK_COLUMN: np.arange(4), "col0": np.arange(4)})
    b = Table("b", {PK_COLUMN: np.arange(6), "fk_a": np.array([0, 1, 1, 2, 3, 0]),
                    "col0": np.arange(6)})
    c = Table("c", {"fk_b": np.array([0, 2, 5, 5]), "col0": np.arange(4)})
    return Dataset("chain", [a, b, c],
                   [ForeignKey("b", "fk_a", "a"), ForeignKey("c", "fk_b", "b")])


class TestValidation:
    def test_fk_column_prefix_enforced(self):
        with pytest.raises(ValueError):
            ForeignKey("b", "a_ref", "a")

    def test_unknown_table_rejected(self):
        a = Table("a", {PK_COLUMN: np.arange(3), "col0": np.arange(3)})
        with pytest.raises(ValueError, match="unknown table"):
            Dataset("d", [a], [ForeignKey("b", "fk_a", "a")])

    def test_fk_out_of_range_rejected(self):
        a = Table("a", {PK_COLUMN: np.arange(2), "col0": np.arange(2)})
        b = Table("b", {"fk_a": np.array([0, 5]), "col0": np.arange(2)})
        with pytest.raises(ValueError, match="outside"):
            Dataset("d", [a, b], [ForeignKey("b", "fk_a", "a")])

    def test_missing_pk_rejected(self):
        a = Table("a", {"col0": np.arange(2)})
        b = Table("b", {"fk_a": np.array([0, 1]), "col0": np.arange(2)})
        with pytest.raises(ValueError, match="primary key"):
            Dataset("d", [a, b], [ForeignKey("b", "fk_a", "a")])

    @pytest.mark.parametrize("pk", [
        np.array([1, 0, 2]),      # permuted
        np.array([0, 1, 1]),      # duplicate key
        np.array([1, 2, 3]),      # offset
    ])
    def test_non_dense_parent_pk_rejected(self, pk):
        """Joins address parent rows by key, so pk must equal row index."""
        a = Table("a", {PK_COLUMN: pk, "col0": np.arange(3)})
        b = Table("b", {"fk_a": np.array([0, 2]), "col0": np.arange(2)})
        with pytest.raises(ValueError, match="'a' primary key"):
            Dataset("d", [a, b], [ForeignKey("b", "fk_a", "a")])

    def test_pk_checked_only_on_fk_parents(self):
        a = Table("a", {PK_COLUMN: np.array([2, 0, 1]), "col0": np.arange(3)})
        assert Dataset("d", [a], []).num_tables == 1

    def test_duplicate_table_names_rejected(self):
        a = Table("a", {"col0": np.arange(2)})
        with pytest.raises(ValueError, match="duplicate"):
            Dataset("d", [a, a], [])

    def test_cycle_rejected(self):
        a = Table("a", {PK_COLUMN: np.arange(2), "fk_b": np.array([0, 1]),
                        "col0": np.arange(2)})
        b = Table("b", {PK_COLUMN: np.arange(2), "fk_a": np.array([0, 1]),
                        "col0": np.arange(2)})
        with pytest.raises(ValueError, match="acyclic"):
            Dataset("d", [a, b],
                    [ForeignKey("b", "fk_a", "a"), ForeignKey("a", "fk_b", "b")])


class TestGraphUtilities:
    def test_connected_subsets_chain(self):
        ds = chain_dataset()
        subsets = ds.connected_subsets()
        assert ("a",) in subsets
        assert ("a", "b") in subsets
        assert ("b", "c") in subsets
        assert ("a", "b", "c") in subsets
        assert ("a", "c") not in subsets  # not adjacent

    def test_connected_subsets_max_size(self):
        ds = chain_dataset()
        subsets = ds.connected_subsets(max_size=2)
        assert all(len(s) <= 2 for s in subsets)

    def test_is_connected_subset(self):
        ds = chain_dataset()
        assert ds.is_connected_subset(("a", "b"))
        assert not ds.is_connected_subset(("a", "c"))
        assert ds.is_connected_subset(("b",))

    def test_fk_between(self):
        ds = chain_dataset()
        fk = ds.fk_between("a", "b")
        assert fk.child == "b" and fk.parent == "a"
        assert ds.fk_between("a", "c") is None

    def test_subset_edges(self):
        ds = chain_dataset()
        edges = ds.subset_edges(("a", "b", "c"))
        assert len(edges) == 2
        assert len(ds.subset_edges(("a", "c"))) == 0

    def test_join_correlation(self):
        ds = chain_dataset()
        fk = ds.fk_between("a", "b")
        # b.fk_a has distinct values {0,1,2,3} over a's 4 keys.
        assert ds.join_correlation(fk) == pytest.approx(1.0)

    def test_total_rows(self):
        assert chain_dataset().total_rows == 14

    def test_getitem(self):
        assert chain_dataset()["a"].name == "a"
