"""TPC-H Q3 as a primitive graph — the paper's "multiple joins" query.

Three pipelines, split at the hash-build breakers:

1. customer: segment filter -> materialize custkey -> HASH_BUILD;
2. orders: date filter -> materialize (orderkey, custkey) -> semi-probe
   against the customer table -> materialize the surviving orderkey /
   orderdate / shippriority -> HASH_BUILD with payload;
3. lineitem: shipdate filter -> materialize (orderkey, price, discount)
   -> inner probe against the orders table -> gather the joined rows ->
   revenue map -> HASH_AGG by orderkey.

The top-10-by-revenue ordering runs on the host in :func:`finalize`,
using the payload carried in the orders hash table.
"""

from __future__ import annotations

import functools

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.planner.logical import (AggregateSpec, Derive, Derived,
                                   GroupAggregate, HashJoin, Predicate, Scan,
                                   Select, SemiJoin)
from repro.planner.translate import translate
from repro.primitives.values import GroupTable, HashTable
from repro.storage import Catalog, DictionaryColumn, date_to_int
from repro.tpch.reference import Q3Row

__all__ = ["PLAN", "build", "finalize", "template"]


#: The Q3 plan; its three filters are bound by :func:`build`.
PLAN = GroupAggregate(
    Derive(
        HashJoin(
            # Pipeline 3: unshipped lineitems joined to pipeline 2's table.
            probe=Select(Scan("lineitem"),
                         [Predicate("l_shipdate", id="f_lship")],
                         ids={"l_orderkey": "m_lkey",
                              "l_extendedprice": "m_price",
                              "l_discount": "m_disc"},
                         hints=dict(selectivity_estimate=0.6)),
            # Pipeline 2: open orders of those customers.
            build=SemiJoin(
                probe=Select(Scan("orders"),
                             [Predicate("o_orderdate", id="f_odate")],
                             ids={"o_orderkey": "m_okey",
                                  "o_custkey": "m_ocust",
                                  "o_orderdate": "m_odate",
                                  "o_shippriority": "m_oprio"},
                             hints=dict(selectivity_estimate=0.6)),
                # Pipeline 1: customers in the segment.
                build=Select(Scan("customer"),
                             [Predicate("c_mktsegment", id="f_seg")],
                             ids={"c_custkey": "m_cust"},
                             hints=dict(selectivity_estimate=0.25)),
                probe_key="o_custkey", build_key="c_custkey",
                build_id="build_cust", probe_id="probe_cust",
                ids={"o_orderkey": "sel_okey", "o_orderdate": "sel_odate",
                     "o_shippriority": "sel_oprio"},
                hints=dict(selectivity_estimate=0.25)),
            probe_key="l_orderkey", build_key="o_orderkey",
            payload=["o_orderdate", "o_shippriority"],
            build_id="build_orders", probe_id="probe_ord", side_id="jleft",
            ids={"l_orderkey": "j_lkey", "l_extendedprice": "j_price",
                 "l_discount": "j_disc"},
            hints=dict(selectivity_estimate=0.1), output=True),
        [Derived("revenue", "disc_price", "l_extendedprice", "l_discount",
                 id="revenue")]),
    keys=["l_orderkey"], aggregates=[AggregateSpec("agg_rev", "sum",
                                                   "revenue")])


#: :data:`PLAN` translated once, read-only: every :func:`build` binds a
#: fresh graph from it.
template = functools.cache(
    functools.partial(translate, PLAN, name="q3"))


def build(catalog: Catalog, *, segment: str = "BUILDING",
          date: str = "1995-03-15", device: str | None = None
          ) -> PrimitiveGraph:
    """Build the Q3 primitive graph.

    Needs *catalog* to translate the market-segment literal into its
    dictionary code (predicates run on encoded columns).
    """
    cutoff = date_to_int(date)
    seg_column = catalog.column("customer.c_mktsegment")
    assert isinstance(seg_column, DictionaryColumn)
    return template().bind({
        "f_seg": dict(cmp="eq", value=seg_column.code_for(segment)),
        "f_odate": dict(cmp="lt", value=cutoff),
        "f_lship": dict(cmp="gt", value=cutoff),
    }, device)


def finalize(result: QueryResult, catalog: Catalog, *, limit: int = 10
             ) -> list[Q3Row]:
    """Top-*limit* orders by revenue, with order date and ship priority."""
    agg = result.output("agg_rev")
    orders_table = result.output("build_orders")
    assert isinstance(agg, GroupTable) and isinstance(orders_table, HashTable)
    rows = [
        Q3Row(
            orderkey=int(key),
            revenue=int(rev),
            orderdate=orders_table.lookup_payload(int(key), "o_orderdate"),
            shippriority=orders_table.lookup_payload(int(key),
                                                     "o_shippriority"),
        )
        for key, rev in zip(agg.keys, agg.aggregates["sum"])
    ]
    rows.sort(key=lambda r: (-r.revenue, r.orderdate, r.orderkey))
    return rows[:limit]
