"""Tests for the deterministic TPC-H generator."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.storage import DictionaryColumn, date_to_int
from repro.tpch import generate
from repro.tpch.dbgen import (
    DATE_MAX,
    DATE_MIN,
    MKT_SEGMENTS,
    ORDER_PRIORITIES,
)


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = generate(0.001, seed=5)
        b = generate(0.001, seed=5)
        for table in ("lineitem", "orders", "customer"):
            for column in a.table(table).columns:
                assert np.array_equal(
                    column.values, b.table(table).column(column.name).values
                ), f"{table}.{column.name}"

    def test_different_seed_different_data(self):
        a = generate(0.001, seed=5)
        b = generate(0.001, seed=6)
        assert not np.array_equal(
            a.column("lineitem.l_quantity"),
            b.column("lineitem.l_quantity").values,
        )

    def test_determinism_across_table_subsets(self):
        full = generate(0.001, seed=5)
        only_li = generate(0.001, seed=5, tables=["lineitem"])
        assert np.array_equal(
            full.column("lineitem.l_discount").values,
            only_li.column("lineitem.l_discount").values,
        )


class TestCardinalities:
    def test_scale_factor_scaling(self):
        catalog = generate(0.01, seed=1)
        assert len(catalog.table("orders")) == 15_000
        assert len(catalog.table("customer")) == 1_500
        assert len(catalog.table("supplier")) == 100
        assert len(catalog.table("part")) == 2_000

    def test_fixed_size_dimensions(self):
        catalog = generate(0.01, seed=1)
        assert len(catalog.table("nation")) == 25
        assert len(catalog.table("region")) == 5

    def test_lineitems_per_order_one_to_seven(self):
        catalog = generate(0.005, seed=1)
        keys = catalog.column("lineitem.l_orderkey").values
        _, counts = np.unique(keys, return_counts=True)
        assert counts.min() >= 1
        assert counts.max() <= 7
        # Expected mean is 4; allow generous slack.
        assert 3.0 < counts.mean() < 5.0

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(WorkloadError):
            generate(0.0)
        with pytest.raises(WorkloadError):
            generate(-1)

    def test_unknown_table_rejected(self):
        with pytest.raises(WorkloadError):
            generate(0.001, tables=["linitem"])  # typo

    def test_subset_generation(self):
        catalog = generate(0.001, tables=["customer"])
        assert "customer" in catalog
        assert "lineitem" not in catalog


class TestValueDistributions:
    @pytest.fixture(scope="class")
    def catalog(self):
        return generate(0.01, seed=42)

    def test_order_dates_in_spec_window(self, catalog):
        dates = catalog.column("orders.o_orderdate").values
        assert dates.min() >= DATE_MIN
        assert dates.max() <= DATE_MAX

    def test_ship_after_order(self, catalog):
        orders = catalog.table("orders")
        li = catalog.table("lineitem")
        order_dates = dict(zip(orders.column("o_orderkey").values.tolist(),
                               orders.column("o_orderdate").values.tolist()))
        ship = li.column("l_shipdate").values
        keys = li.column("l_orderkey").values
        sample = np.random.default_rng(0).choice(len(keys), 500, replace=False)
        for i in sample:
            assert ship[i] > order_dates[int(keys[i])]

    def test_receipt_after_ship(self, catalog):
        li = catalog.table("lineitem")
        assert np.all(li.column("l_receiptdate").values >
                      li.column("l_shipdate").values)

    def test_quantity_range(self, catalog):
        quantity = catalog.column("lineitem.l_quantity").values
        assert quantity.min() >= 1 and quantity.max() <= 50

    def test_discount_and_tax_ranges(self, catalog):
        disc = catalog.column("lineitem.l_discount").values
        tax = catalog.column("lineitem.l_tax").values
        assert disc.min() >= 0 and disc.max() <= 10
        assert tax.min() >= 0 and tax.max() <= 8

    def test_q6_selectivity_plausible(self, catalog):
        # shipdate in 1994 (~1/7) * discount in 5..7 (~3/11) * qty<24 (~23/50)
        li = catalog.table("lineitem")
        mask = (
            (li.column("l_shipdate").values >= date_to_int("1994-01-01"))
            & (li.column("l_shipdate").values < date_to_int("1995-01-01"))
            & (li.column("l_discount").values >= 5)
            & (li.column("l_discount").values <= 7)
            & (li.column("l_quantity").values < 24)
        )
        selectivity = mask.mean()
        assert 0.005 < selectivity < 0.05

    def test_market_segments(self, catalog):
        segment = catalog.column("customer.c_mktsegment")
        assert isinstance(segment, DictionaryColumn)
        assert segment.dictionary == sorted(MKT_SEGMENTS)
        counts = np.bincount(segment.values, minlength=5)
        assert (counts > 0).all()

    def test_order_priorities(self, catalog):
        priority = catalog.column("orders.o_orderpriority")
        assert isinstance(priority, DictionaryColumn)
        assert priority.dictionary == sorted(ORDER_PRIORITIES)

    def test_linestatus_follows_shipdate(self, catalog):
        li = catalog.table("lineitem")
        status = li.column("l_linestatus")
        assert isinstance(status, DictionaryColumn)
        cutoff = date_to_int("1995-06-17")
        ship = li.column("l_shipdate").values
        decoded = np.array(status.decode())
        assert (decoded[ship <= cutoff] == "F").all()
        assert (decoded[ship > cutoff] == "O").all()

    def test_foreign_keys_valid(self, catalog):
        custkeys = catalog.column("orders.o_custkey").values
        assert custkeys.min() >= 1
        assert custkeys.max() <= len(catalog.table("customer"))
        orderkeys = catalog.column("lineitem.l_orderkey").values
        assert orderkeys.max() <= len(catalog.table("orders"))

    def test_linenumbers_within_order(self, catalog):
        li = catalog.table("lineitem")
        keys = li.column("l_orderkey").values
        linenumbers = li.column("l_linenumber").values
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        assert (linenumbers[first] == 1).all()

    @pytest.mark.parametrize("sf", [0.001, 0.01, 0.05])
    def test_linenumbers_equal_the_per_order_loop(self, sf):
        """``l_linenumber`` is built without a Python loop over orders;
        the loop it replaced stays here as the oracle."""
        li = generate(sf, seed=11, tables=["lineitem"]).table("lineitem")
        _, per_order = np.unique(li.column("l_orderkey").values,
                                 return_counts=True)
        oracle = np.concatenate(
            [np.arange(1, k + 1, dtype=np.int32) for k in per_order])
        linenumbers = li.column("l_linenumber").values
        assert linenumbers.dtype == oracle.dtype
        assert linenumbers.tobytes() == oracle.tobytes()

    def test_partsupp_four_suppliers_per_part(self, catalog):
        ps = catalog.table("partsupp")
        _, counts = np.unique(ps.column("ps_partkey").values,
                              return_counts=True)
        assert (counts == 4).all()
