"""TPC-H Q4 as a primitive graph — the paper's "subquery" query.

Two pipelines:

1. lineitem: commit/receipt comparison -> late-lineitem filter ->
   materialize orderkey -> HASH_BUILD.  The breaker sits right behind the
   scan — the paper's "query starts with building a hash table" — which
   is the structural condition for the OpenCL pinned-memory anomaly the
   4-phase models reproduce (Section V-C).
2. orders: quarter date range -> materialize (orderkey, orderpriority) ->
   EXISTS as a semi-probe against the late-lineitem table -> gather the
   priorities -> HASH_AGG count per priority.
"""

from __future__ import annotations

import functools

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.primitives.values import GroupTable
from repro.storage import Catalog, DictionaryColumn, date_to_int
from repro.tpch.reference import Q4Row, _add_months

__all__ = ["build", "finalize", "template"]


@functools.cache
def template() -> PrimitiveGraph:
    """The Q4 plan without its literals, built once and read-only; every
    :func:`build` binds one fresh graph from it."""
    g = PrimitiveGraph("q4")

    # Pipeline 1: orderkeys of lineitems delivered late.
    g.add_node("lateness", "map", params=dict(op="sub"))
    g.add_node("f_late", "filter_bitmap", params=dict(cmp="gt", value=0))
    g.add_node("m_lkey", "materialize", hints=dict(selectivity_estimate=0.7))
    g.add_node("build_late", "hash_build")
    g.connect("lineitem.l_receiptdate", "lateness", 0)
    g.connect("lineitem.l_commitdate", "lateness", 1)
    g.connect("lateness", "f_late", 0)
    g.connect("lineitem.l_orderkey", "m_lkey", 0)
    g.connect("f_late", "m_lkey", 1)
    g.connect("m_lkey", "build_late", 0)

    # Pipeline 2: orders in the quarter with a late lineitem.
    g.add_node("f_lo", "filter_bitmap")
    g.add_node("f_hi", "filter_bitmap")
    g.add_node("f_range", "bitmap_and")
    g.connect("orders.o_orderdate", "f_lo", 0)
    g.connect("orders.o_orderdate", "f_hi", 0)
    g.connect("f_lo", "f_range", 0)
    g.connect("f_hi", "f_range", 1)
    for node_id, ref in (("m_okey", "orders.o_orderkey"),
                         ("m_oprio", "orders.o_orderpriority")):
        g.add_node(node_id, "materialize",
                   hints=dict(selectivity_estimate=0.05))
        g.connect(ref, node_id, 0)
        g.connect("f_range", node_id, 1)
    g.add_node("exists", "hash_probe", params=dict(mode="semi"))
    g.connect("m_okey", "exists", 0)
    g.connect("build_late", "exists", 1)
    g.add_node("sel_prio", "materialize_position",
               hints=dict(selectivity_estimate=0.05))
    g.connect("m_oprio", "sel_prio", 0)
    g.connect("exists", "sel_prio", 1)
    g.add_node("agg_prio", "hash_agg", params=dict(fn="count"),
               cost_params=dict(groups=5))
    g.connect("sel_prio", "agg_prio", 0)
    g.mark_output("agg_prio")
    return g


def build(catalog: Catalog | None = None, *, date: str = "1993-07-01",
          device: str | None = None) -> PrimitiveGraph:
    """Build the Q4 primitive graph for the quarter starting at *date*."""
    start = date_to_int(date)
    end = date_to_int(_add_months(date, 3))
    return template().bind({"f_lo": dict(cmp="ge", value=start),
                                  "f_hi": dict(cmp="lt", value=end)}, device)


def finalize(result: QueryResult, catalog: Catalog) -> list[Q4Row]:
    """Decode priorities and order by priority name (the query's ORDER BY)."""
    agg = result.output("agg_prio")
    assert isinstance(agg, GroupTable)
    prio = catalog.column("orders.o_orderpriority")
    assert isinstance(prio, DictionaryColumn)
    rows = [
        Q4Row(orderpriority=prio.dictionary[int(code)], order_count=int(n))
        for code, n in zip(agg.keys, agg.aggregates["count"])
    ]
    rows.sort(key=lambda r: r.orderpriority)
    return rows
