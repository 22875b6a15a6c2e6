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
from repro.primitives.values import GroupTable, HashTable
from repro.storage import Catalog, DictionaryColumn, date_to_int
from repro.tpch.reference import Q3Row

__all__ = ["build", "finalize", "template"]


@functools.cache
def template() -> PrimitiveGraph:
    """The Q3 plan without its literals, built once and read-only; every
    :func:`build` binds one fresh graph from it."""
    g = PrimitiveGraph("q3")

    # Pipeline 1: customers in the segment.
    g.add_node("f_seg", "filter_bitmap")
    g.add_node("m_cust", "materialize", hints=dict(selectivity_estimate=0.25))
    g.add_node("build_cust", "hash_build")
    g.connect("customer.c_mktsegment", "f_seg", 0)
    g.connect("customer.c_custkey", "m_cust", 0)
    g.connect("f_seg", "m_cust", 1)
    g.connect("m_cust", "build_cust", 0)

    # Pipeline 2: open orders of those customers.
    g.add_node("f_odate", "filter_bitmap")
    g.connect("orders.o_orderdate", "f_odate", 0)
    for node_id, ref in (("m_okey", "orders.o_orderkey"),
                         ("m_ocust", "orders.o_custkey"),
                         ("m_odate", "orders.o_orderdate"),
                         ("m_oprio", "orders.o_shippriority")):
        g.add_node(node_id, "materialize",
                   hints=dict(selectivity_estimate=0.6))
        g.connect(ref, node_id, 0)
        g.connect("f_odate", node_id, 1)
    g.add_node("probe_cust", "hash_probe", params=dict(mode="semi"))
    g.connect("m_ocust", "probe_cust", 0)
    g.connect("build_cust", "probe_cust", 1)
    for node_id, source in (("sel_okey", "m_okey"),
                            ("sel_odate", "m_odate"),
                            ("sel_oprio", "m_oprio")):
        g.add_node(node_id, "materialize_position",
                   hints=dict(selectivity_estimate=0.25))
        g.connect(source, node_id, 0)
        g.connect("probe_cust", node_id, 1)
    g.add_node("build_orders", "hash_build",
               params=dict(payload_names=("o_orderdate", "o_shippriority")))
    g.connect("sel_okey", "build_orders", 0)
    g.connect("sel_odate", "build_orders", 1)
    g.connect("sel_oprio", "build_orders", 2)

    # Pipeline 3: unshipped lineitems joined and aggregated.
    g.add_node("f_lship", "filter_bitmap")
    g.connect("lineitem.l_shipdate", "f_lship", 0)
    for node_id, ref in (("m_lkey", "lineitem.l_orderkey"),
                         ("m_price", "lineitem.l_extendedprice"),
                         ("m_disc", "lineitem.l_discount")):
        g.add_node(node_id, "materialize",
                   hints=dict(selectivity_estimate=0.6))
        g.connect(ref, node_id, 0)
        g.connect("f_lship", node_id, 1)
    g.add_node("probe_ord", "hash_probe", params=dict(mode="inner"))
    g.connect("m_lkey", "probe_ord", 0)
    g.connect("build_orders", "probe_ord", 1)
    g.add_node("jleft", "join_side", params=dict(side="left"))
    g.connect("probe_ord", "jleft", 0)
    for node_id, source in (("j_lkey", "m_lkey"),
                            ("j_price", "m_price"),
                            ("j_disc", "m_disc")):
        g.add_node(node_id, "materialize_position",
                   hints=dict(selectivity_estimate=0.1))
        g.connect(source, node_id, 0)
        g.connect("jleft", node_id, 1)
    g.add_node("revenue", "map", params=dict(op="disc_price"))
    g.connect("j_price", "revenue", 0)
    g.connect("j_disc", "revenue", 1)
    g.add_node("agg_rev", "hash_agg", params=dict(fn="sum"))
    g.connect("j_lkey", "agg_rev", 0)
    g.connect("revenue", "agg_rev", 1)
    g.mark_output("agg_rev")
    g.mark_output("build_orders")
    return g


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
