"""Unit tests for the column store (columns, tables, catalog)."""

import datetime

import numpy as np
import pytest

from repro.errors import CatalogError, StorageError
from repro.storage import (
    Catalog,
    Column,
    DictionaryColumn,
    Table,
    date_to_int,
    int_to_date,
)


class TestDateCodec:
    def test_epoch_is_zero(self):
        assert date_to_int("1970-01-01") == 0

    def test_roundtrip(self):
        for iso in ("1992-01-01", "1995-03-15", "1998-08-02", "2026-07-06"):
            assert int_to_date(date_to_int(iso)).isoformat() == iso

    def test_accepts_date_objects(self):
        d = datetime.date(1994, 1, 1)
        assert date_to_int(d) == date_to_int("1994-01-01")

    def test_ordering_preserved(self):
        assert date_to_int("1994-01-01") < date_to_int("1995-01-01")


class TestColumn:
    def test_basic_properties(self):
        column = Column("x", np.arange(10, dtype=np.int32))
        assert len(column) == 10
        assert column.nbytes == 40
        assert column.dtype == np.int32

    def test_values_are_readonly(self):
        column = Column("x", np.arange(5))
        with pytest.raises(ValueError):
            column.values[0] = 99

    def test_rejects_2d(self):
        with pytest.raises(StorageError):
            Column("m", np.zeros((2, 2)))

    def test_slice_is_view(self):
        column = Column("x", np.arange(100))
        view = column.slice(10, 20)
        assert view.base is column.values
        assert list(view) == list(range(10, 20))

    def test_take(self):
        column = Column("x", np.array([10, 20, 30, 40]))
        assert list(column.take(np.array([3, 0]))) == [40, 10]


class TestDictionaryColumn:
    def test_from_strings_sorted_codes(self):
        column = DictionaryColumn.from_strings("s", ["b", "a", "b", "c"])
        assert column.dictionary == ["a", "b", "c"]
        assert list(column.values) == [1, 0, 1, 2]

    def test_decode_roundtrip(self):
        strings = ["MAIL", "AIR", "MAIL", "SHIP"]
        column = DictionaryColumn.from_strings("m", strings)
        assert column.decode() == strings

    def test_code_for(self):
        column = DictionaryColumn.from_strings("s", ["x", "y"])
        assert column.code_for("y") == 1

    def test_code_for_missing_raises(self):
        column = DictionaryColumn.from_strings("s", ["x"])
        with pytest.raises(StorageError):
            column.code_for("zzz")

    def test_decode_subset(self):
        column = DictionaryColumn.from_strings("s", ["a", "b", "c"])
        assert column.decode(np.array([2, 0])) == ["c", "a"]


class TestTable:
    def make(self):
        return Table("t", [
            Column("a", np.arange(4, dtype=np.int64)),
            Column("b", np.array([5, 6, 7, 8], dtype=np.int32)),
        ])

    def test_shape(self):
        table = self.make()
        assert table.num_rows == 4
        assert len(table) == 4
        assert table.column_names == ["a", "b"]
        assert table.nbytes == 4 * 8 + 4 * 4

    def test_column_lookup(self):
        assert list(self.make().column("b").values) == [5, 6, 7, 8]

    def test_missing_column(self):
        with pytest.raises(CatalogError):
            self.make().column("zz")

    def test_contains(self):
        table = self.make()
        assert "a" in table and "zz" not in table

    def test_ragged_rejected(self):
        with pytest.raises(StorageError):
            Table("t", [Column("a", np.arange(3)), Column("b", np.arange(4))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(StorageError):
            Table("t", [Column("a", np.arange(3)), Column("a", np.arange(3))])

    def test_project_preserves_order(self):
        projected = self.make().project(["b", "a"])
        assert projected.column_names == ["b", "a"]

    def test_with_column(self):
        extended = self.make().with_column(Column("c", np.zeros(4)))
        assert extended.column_names == ["a", "b", "c"]
        assert self.make().column_names == ["a", "b"]  # original untouched

    def test_row(self):
        row = self.make().row(2)
        assert row == {"a": 2, "b": 7}

    def test_row_out_of_range(self):
        with pytest.raises(StorageError):
            self.make().row(10)

    def test_select_mask(self):
        mask = np.array([True, False, True, False])
        selected = self.make().select(mask)
        assert list(selected.column("a").values) == [0, 2]
        assert selected.num_rows == 2

    def test_select_slice_is_a_read_only_view(self):
        table = self.make()
        selected = table.select(slice(1, 3))
        assert list(selected.column("b").values) == [6, 7]
        for column in selected.columns:
            assert np.shares_memory(column.values,
                                    table.column(column.name).values)
            assert not column.values.flags.writeable
        assert table.select(slice(2, 2)).num_rows == 0

    @pytest.mark.parametrize(
        "rows", [np.array([False, True, True]), slice(1, 3)])
    def test_select_keeps_dictionary_columns(self, rows):
        strings = DictionaryColumn.from_strings("s", ["b", "a", "c"])
        table = Table("t", [Column("n", np.arange(3)), strings])
        selected = table.select(rows)
        assert type(selected.column("n")) is Column
        kept = selected.column("s")
        assert isinstance(kept, DictionaryColumn)
        assert kept.decode() == ["a", "c"]
        # Columns are immutable, so the decode dictionary is shared.
        assert kept.dictionary is strings.dictionary

    def test_empty_table(self):
        table = Table("empty", [])
        assert table.num_rows == 0
        assert table.nbytes == 0


class TestCatalog:
    def test_add_and_lookup(self):
        catalog = Catalog()
        catalog.add(Table("t", [Column("a", np.arange(3))]))
        assert "t" in catalog
        assert catalog.table("t").num_rows == 3

    def test_column_reference(self):
        catalog = Catalog()
        catalog.add(Table("t", [Column("a", np.arange(3))]))
        assert list(catalog.column("t.a").values) == [0, 1, 2]

    def test_missing_table(self):
        with pytest.raises(CatalogError):
            Catalog().table("nope")

    def test_bad_reference_format(self):
        catalog = Catalog()
        catalog.add(Table("t", [Column("a", np.arange(3))]))
        with pytest.raises(CatalogError):
            catalog.column("just_a_table")

    def test_nbytes_sums_tables(self):
        catalog = Catalog()
        catalog.add(Table("t1", [Column("a", np.arange(3, dtype=np.int64))]))
        catalog.add(Table("t2", [Column("b", np.arange(5, dtype=np.int32))]))
        assert catalog.nbytes == 24 + 20

    def test_replace_table(self):
        catalog = Catalog()
        catalog.add(Table("t", [Column("a", np.arange(3))]))
        catalog.add(Table("t", [Column("a", np.arange(7))]))
        assert catalog.table("t").num_rows == 7
