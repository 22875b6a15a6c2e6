"""TPC-H Q5 as a primitive graph — local supplier volume (5-way join).

The most join-intensive plan in the repo; five pipelines:

1. region -> nation: restrict nations to the region (semi-probe) and
   hash-build the surviving nation keys;
2. customer: semi-probe against the region's nations, build
   ``c_custkey -> c_nationkey``;
3. orders: one-year date filter, inner probe to customers, build
   ``o_orderkey -> customer nation`` (payload gathered through the probe);
4. supplier: build ``s_suppkey -> s_nationkey`` straight off the scan;
5. lineitem: inner probe to orders (gathering the customer nation),
   inner probe to suppliers (gathering the supplier nation), keep rows
   where the two nations agree (the paper-style map+filter+materialize
   idiom), compute revenue, HASH_AGG by nation.

Exercises chained probes and repeated GATHER_PAYLOAD inside a single
pipeline, under every execution model.
"""

from __future__ import annotations

import functools

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.planner.logical import (AggregateSpec, Derive, Derived,
                                   GroupAggregate, HashJoin, Predicate, Rename,
                                   Scan, Select, SemiJoin)
from repro.planner.translate import translate
from repro.primitives.values import GroupTable
from repro.storage import Catalog, DictionaryColumn, date_to_int
from repro.tpch.reference import Q5Row, _add_months

__all__ = ["PLAN", "build", "finalize", "template"]


#: Pipelines 1-2: customers of the region's nations (custkey ->
#: nationkey); the region name is bound by :func:`build`.
_CUSTOMERS = SemiJoin(
    probe=Scan("customer"),
    build=SemiJoin(
        probe=Scan("nation"),
        build=Select(Scan("region"), [Predicate("r_name", id="f_region")],
                     ids={"r_regionkey": "m_rkey"}, hints={}),
        probe_key="n_regionkey", build_key="r_regionkey",
        build_id="build_region", probe_id="probe_region",
        ids={"n_nationkey": "sel_nkey"}, hints={}),
    probe_key="c_nationkey", build_key="n_nationkey",
    build_id="build_nation", probe_id="probe_cnation",
    ids={"c_custkey": "sel_ckey", "c_nationkey": "sel_cnat"},
    hints=dict(selectivity_estimate=0.25))

#: Pipeline 3: the year's orders joined to customers, the customer's
#: nation carried as payload "nation"; the dates are bound by :func:`build`.
_ORDERS = Rename(
    HashJoin(probe=Select(Scan("orders"),
                          [Predicate("o_orderdate", id="f_odate")],
                          ids={"o_orderkey": "m_okey",
                               "o_custkey": "m_ocust"},
                          hints=dict(selectivity_estimate=0.2)),
             build=_CUSTOMERS, probe_key="o_custkey",
             build_key="c_custkey", payload=["c_nationkey"],
             build_id="build_cust", probe_id="probe_cust",
             side_id="jl_orders",
             ids={"o_orderkey": "sel_okey2", "c_nationkey": "cust_nat"},
             hints=dict(selectivity_estimate=0.1)),
    {"nation": "c_nationkey"})

#: Pipelines 4-5: lineitems joined to orders and suppliers; keep rows
#: where the customer and supplier nations agree, revenue per nation.
#: Supplier keys are unique, so the second probe keeps row order but may
#: drop unmatched rows: every carried column is realigned through it.
PLAN = GroupAggregate(
    Derive(
        Select(
            Derive(
                HashJoin(
                    probe=HashJoin(
                        probe=Scan("lineitem"), build=_ORDERS,
                        probe_key="l_orderkey", build_key="o_orderkey",
                        payload=["nation"], build_id="build_orders",
                        probe_id="probe_ord", side_id="jl_line",
                        ids={"l_suppkey": "l_supp",
                             "l_extendedprice": "l_price",
                             "l_discount": "l_disc", "nation": "o_nation"},
                        hints=dict(selectivity_estimate=0.05)),
                    build=Scan("supplier"), probe_key="l_suppkey",
                    build_key="s_suppkey", payload=["s_nationkey"],
                    build_id="build_supp", probe_id="probe_supp",
                    side_id="jl_supp",
                    ids={"l_extendedprice": "s_price",
                         "l_discount": "s_disc", "nation": "s_onation",
                         "s_nationkey": "s_nation"},
                    hints=dict(selectivity_estimate=0.05)),
                [Derived("nation_diff", "sub", "nation", "s_nationkey",
                         id="nation_diff")]),
            [Predicate("nation_diff", cmp="eq", value=0, id="f_same")],
            ids={"nation": "k_nation", "l_extendedprice": "k_price",
                 "l_discount": "k_disc"},
            hints=dict(selectivity_estimate=0.05)),
        [Derived("revenue", "disc_price", "l_extendedprice", "l_discount",
                 id="revenue")]),
    keys=["nation"], aggregates=[AggregateSpec("agg_rev", "sum",
                                               "revenue")],
    cost_params=dict(groups=5))


#: :data:`PLAN` translated once, read-only: every :func:`build` binds a
#: fresh graph from it.
template = functools.cache(
    functools.partial(translate, PLAN, name="q5"))


def build(catalog: Catalog, *, region: str = "ASIA",
          date: str = "1994-01-01", device: str | None = None
          ) -> PrimitiveGraph:
    """Build the Q5 primitive graph (needs *catalog* for the region code)."""
    start = date_to_int(date)
    end = date_to_int(_add_months(date, 12))
    region_names = catalog.column("region.r_name")
    assert isinstance(region_names, DictionaryColumn)
    return template().bind({
        "f_region": dict(cmp="eq", value=region_names.code_for(region)),
        "f_odate": dict(lo=start, hi=end - 1),
    }, device)


def finalize(result: QueryResult, catalog: Catalog) -> list[Q5Row]:
    """Decode nation keys to names, order by revenue descending."""
    agg = result.output("agg_rev")
    assert isinstance(agg, GroupTable)
    nation = catalog.table("nation")
    names = catalog.column("nation.n_name")
    assert isinstance(names, DictionaryColumn)
    name_of = {
        int(key): names.dictionary[int(code)]
        for key, code in zip(nation.column("n_nationkey").values,
                             names.values)
    }
    rows = [
        Q5Row(nation=name_of[int(key)], revenue=int(value))
        for key, value in zip(agg.keys, agg.aggregates["sum"])
    ]
    rows.sort(key=lambda r: (-r.revenue, r.nation))
    return rows
