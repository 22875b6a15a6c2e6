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
from repro.primitives.values import GroupTable
from repro.storage import Catalog, DictionaryColumn, date_to_int
from repro.tpch.reference import Q10Row, _add_months

__all__ = ["build", "finalize", "template"]


@functools.cache
def template() -> PrimitiveGraph:
    """The Q10 plan without its literals, built once and read-only; every
    :func:`build` binds one fresh graph from it."""
    g = PrimitiveGraph("q10")

    # Pipeline 1: the quarter's orders with their customers.
    g.add_node("f_odate", "filter_bitmap")
    g.connect("orders.o_orderdate", "f_odate", 0)
    for node_id, ref in (("m_okey", "orders.o_orderkey"),
                         ("m_ocust", "orders.o_custkey")):
        g.add_node(node_id, "materialize",
                   hints=dict(selectivity_estimate=0.05))
        g.connect(ref, node_id, 0)
        g.connect("f_odate", node_id, 1)
    g.add_node("build_orders", "hash_build",
               params=dict(payload_names=("o_custkey",)))
    g.connect("m_okey", "build_orders", 0)
    g.connect("m_ocust", "build_orders", 1)

    # Pipeline 2: returned lineitems joined back to their customers.
    g.add_node("f_returned", "filter_bitmap")
    g.connect("lineitem.l_returnflag", "f_returned", 0)
    for node_id, ref in (("m_lkey", "lineitem.l_orderkey"),
                         ("m_price", "lineitem.l_extendedprice"),
                         ("m_disc", "lineitem.l_discount")):
        g.add_node(node_id, "materialize",
                   hints=dict(selectivity_estimate=0.35))
        g.connect(ref, node_id, 0)
        g.connect("f_returned", node_id, 1)
    g.add_node("probe", "hash_probe", params=dict(mode="inner"))
    g.connect("m_lkey", "probe", 0)
    g.connect("build_orders", "probe", 1)
    g.add_node("jleft", "join_side", params=dict(side="left"))
    g.connect("probe", "jleft", 0)
    for node_id, source in (("j_price", "m_price"), ("j_disc", "m_disc")):
        g.add_node(node_id, "materialize_position",
                   hints=dict(selectivity_estimate=0.02))
        g.connect(source, node_id, 0)
        g.connect("jleft", node_id, 1)
    g.add_node("custkeys", "gather_payload", params=dict(name="o_custkey"),
               hints=dict(selectivity_estimate=0.02))
    g.connect("probe", "custkeys", 0)
    g.connect("build_orders", "custkeys", 1)
    g.add_node("revenue", "map", params=dict(op="disc_price"))
    g.connect("j_price", "revenue", 0)
    g.connect("j_disc", "revenue", 1)
    g.add_node("agg_rev", "hash_agg", params=dict(fn="sum"))
    g.connect("custkeys", "agg_rev", 0)
    g.connect("revenue", "agg_rev", 1)
    g.mark_output("agg_rev")
    return g


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
