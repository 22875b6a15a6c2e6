"""Tests for sample-based selectivity estimation."""

import numpy as np
import pytest

from repro.errors import PlanError
from repro.planner import (
    AggregateSpec,
    Predicate,
    ScalarAggregate,
    Scan,
    Select,
    conjunction_selectivity,
    estimate_selectivity,
    translate,
)
from repro.storage import Catalog, Column, Table, date_to_int


@pytest.fixture(scope="module")
def known_catalog():
    """A catalog with exactly known value distributions."""
    n = 10_000
    catalog = Catalog()
    catalog.add(Table("t", [
        # uniform 0..99: P(x < 25) = 0.25 exactly by construction
        Column("u", np.tile(np.arange(100), n // 100).astype(np.int64)),
        Column("all_ones", np.ones(n, dtype=np.int64)),
    ]))
    return catalog


class TestEstimateSelectivity:
    def test_uniform_quartile(self, known_catalog):
        estimate = estimate_selectivity(
            known_catalog, "t", Predicate("u", cmp="lt", value=25))
        assert estimate == pytest.approx(0.25, abs=0.06)

    def test_range_predicate(self, known_catalog):
        estimate = estimate_selectivity(
            known_catalog, "t", Predicate("u", lo=10, hi=19))
        assert estimate == pytest.approx(0.10, abs=0.05)

    def test_never_exactly_zero(self, known_catalog):
        estimate = estimate_selectivity(
            known_catalog, "t", Predicate("u", cmp="gt", value=10**9))
        assert estimate > 0

    def test_all_pass(self, known_catalog):
        estimate = estimate_selectivity(
            known_catalog, "t", Predicate("all_ones", cmp="eq", value=1))
        assert estimate == 1.0

    def test_deterministic(self, known_catalog):
        predicate = Predicate("u", cmp="lt", value=50)
        a = estimate_selectivity(known_catalog, "t", predicate)
        b = estimate_selectivity(known_catalog, "t", predicate)
        assert a == b

    def test_small_table_uses_all_rows(self):
        catalog = Catalog()
        catalog.add(Table("s", [Column("x", np.arange(10, dtype=np.int64))]))
        estimate = estimate_selectivity(
            catalog, "s", Predicate("x", cmp="lt", value=5))
        assert estimate == 0.5  # exact: sample == full column

    def test_missing_column(self, known_catalog):
        with pytest.raises(PlanError):
            estimate_selectivity(known_catalog, "t",
                                 Predicate("ghost", cmp="lt", value=1))

    def test_conjunction_assumes_independence(self, known_catalog):
        total = conjunction_selectivity(known_catalog, "t", [
            Predicate("u", cmp="lt", value=50),
            Predicate("u", cmp="ge", value=0),
        ])
        assert total == pytest.approx(0.5, abs=0.1)

    def test_conjunction_floor(self, known_catalog):
        total = conjunction_selectivity(known_catalog, "t", [
            Predicate("u", cmp="gt", value=10**9)] * 5)
        assert total >= 1e-4


class TestTranslatorIntegration:
    def test_hints_reflect_sampled_selectivity(self, small_catalog):
        start = date_to_int("1994-01-01")
        end = date_to_int("1995-01-01")
        plan = ScalarAggregate(
            Select(Scan("lineitem"), [
                Predicate("l_shipdate", lo=start, hi=end - 1),
                Predicate("l_discount", lo=5, hi=7),
                Predicate("l_quantity", cmp="lt", value=24),
            ]),
            [AggregateSpec("result", "sum", "l_extendedprice")])
        with_stats = translate(plan, catalog=small_catalog)
        without = translate(plan)
        pick = lambda g: [n.hints["selectivity_estimate"]
                          for n in g.nodes.values()
                          if n.primitive == "materialize"][0]
        # Q6's true selectivity is ~2%; the sampled hint should be far
        # tighter than the default 0.5.
        assert pick(with_stats) < 0.15
        assert pick(without) == 0.5

    def test_stats_reduce_buffer_waste(self, small_catalog):
        """Sampled hints shrink the peak memory of the translated plan."""
        from tests.conftest import make_executor
        start = date_to_int("1994-01-01")
        plan = ScalarAggregate(
            Select(Scan("lineitem"), [
                Predicate("l_shipdate", lo=start,
                          hi=date_to_int("1995-01-01") - 1),
                Predicate("l_quantity", cmp="lt", value=24),
            ]),
            [AggregateSpec("result", "sum", "l_extendedprice")])
        executor = make_executor()
        smart = executor.run(translate(plan, catalog=small_catalog),
                             small_catalog, model="oaat")
        naive = executor.run(translate(plan), small_catalog, model="oaat")
        assert smart.stats.peak_device_bytes["dev0"] < \
            naive.stats.peak_device_bytes["dev0"]
        # and results agree, of course
        assert int(smart.output("result")[0]) == \
            int(naive.output("result")[0])
