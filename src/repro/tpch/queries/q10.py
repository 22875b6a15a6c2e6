"""TPC-H Q10 as a primitive graph — returned item reporting.

Two pipelines:

1. orders: quarter filter -> materialize orderkey -> HASH_BUILD with the
   customer key as payload;
2. lineitem: returnflag = 'R' filter, inner probe against the quarter's
   orders, GATHER_PAYLOAD of the customer key, revenue map, HASH_AGG per
   customer.

Customer attributes (account balance, nation name) attach on the host in
:func:`finalize`, exactly like Q3's order attributes.
"""

from __future__ import annotations

import functools

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.planner.logical import (AggregateSpec, Derive, Derived,
                                   GroupAggregate, HashJoin, Predicate, Scan,
                                   Select)
from repro.planner.translate import translate
from repro.primitives.values import GroupTable
from repro.storage import Catalog, DictionaryColumn, date_to_int
from repro.tpch.reference import Q10Row, _add_months

__all__ = ["PLAN", "build", "finalize", "template"]


#: The Q10 plan; its two filters are bound by :func:`build`.
PLAN = GroupAggregate(
    Derive(
        HashJoin(
            # Pipeline 2: returned lineitems joined back to their customers.
            probe=Select(Scan("lineitem"),
                         [Predicate("l_returnflag", id="f_returned")],
                         ids={"l_orderkey": "m_lkey",
                              "l_extendedprice": "m_price",
                              "l_discount": "m_disc"},
                         hints=dict(selectivity_estimate=0.35)),
            # Pipeline 1: the quarter's orders with their customers.
            build=Select(Scan("orders"),
                         [Predicate("o_orderdate", id="f_odate")],
                         ids={"o_orderkey": "m_okey",
                              "o_custkey": "m_ocust"},
                         hints=dict(selectivity_estimate=0.05)),
            probe_key="l_orderkey", build_key="o_orderkey",
            payload=["o_custkey"], build_id="build_orders",
            probe_id="probe", side_id="jleft",
            ids={"l_extendedprice": "j_price", "l_discount": "j_disc",
                 "o_custkey": "custkeys"},
            hints=dict(selectivity_estimate=0.02)),
        [Derived("revenue", "disc_price", "l_extendedprice", "l_discount",
                 id="revenue")]),
    keys=["o_custkey"], aggregates=[AggregateSpec("agg_rev", "sum",
                                                  "revenue")])


#: :data:`PLAN` translated once, read-only: every :func:`build` binds a
#: fresh graph from it.
template = functools.cache(
    functools.partial(translate, PLAN, name="q10"))


def build(catalog: Catalog, *, date: str = "1993-10-01",
          device: str | None = None) -> PrimitiveGraph:
    """Build the Q10 primitive graph for the quarter starting at *date*."""
    start = date_to_int(date)
    end = date_to_int(_add_months(date, 3))
    returnflag = catalog.column("lineitem.l_returnflag")
    assert isinstance(returnflag, DictionaryColumn)
    return template().bind({
        "f_odate": dict(lo=start, hi=end - 1),
        "f_returned": dict(cmp="eq", value=returnflag.code_for("R")),
    }, device)


def finalize(result: QueryResult, catalog: Catalog, *, limit: int = 20
             ) -> list[Q10Row]:
    """Attach customer attributes; top-*limit* by revenue descending."""
    agg = result.output("agg_rev")
    assert isinstance(agg, GroupTable)
    cust = catalog.table("customer")
    acctbal_of = dict(zip(cust.column("c_custkey").values.tolist(),
                          cust.column("c_acctbal").values.tolist()))
    nationkey_of = dict(zip(cust.column("c_custkey").values.tolist(),
                            cust.column("c_nationkey").values.tolist()))
    nation = catalog.table("nation")
    names = catalog.column("nation.n_name")
    assert isinstance(names, DictionaryColumn)
    name_of = {
        int(k): names.dictionary[int(code)]
        for k, code in zip(nation.column("n_nationkey").values,
                           names.values)
    }
    rows = [
        Q10Row(custkey=int(c), revenue=int(r),
               acctbal=int(acctbal_of[int(c)]),
               nation=name_of[int(nationkey_of[int(c)])])
        for c, r in zip(agg.keys, agg.aggregates["sum"])
    ]
    rows.sort(key=lambda r: (-r.revenue, r.custkey))
    return rows[:limit]
