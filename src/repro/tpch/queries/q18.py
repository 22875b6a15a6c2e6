"""TPC-H Q18 as a primitive graph — large volume customers (HAVING).

Three pipelines, including the repo's only *breaker-only* pipeline:

1. lineitem: HASH_AGG quantity per orderkey;
2. a pipeline with no scans at all — GROUP_KEYS / GROUP_VALUES unpack the
   aggregate table, a filter keeps groups whose sum exceeds the
   threshold (SQL's HAVING), and the surviving orderkeys are hash-built;
3. orders: semi-probe against the big-order keys and HASH_BUILD the
   matches with custkey/date/price payload for host-side finalization.
"""

from __future__ import annotations

import functools

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.primitives.values import GroupTable, HashTable
from repro.storage import Catalog
from repro.tpch.reference import Q18Row

__all__ = ["build", "finalize", "template"]


@functools.cache
def template() -> PrimitiveGraph:
    """The Q18 plan without its literals, built once and read-only; every
    :func:`build` binds one fresh graph from it."""
    g = PrimitiveGraph("q18")

    # Pipeline 1: quantity per order.
    g.add_node("agg_qty", "hash_agg", params=dict(fn="sum"))
    g.connect("lineitem.l_orderkey", "agg_qty", 0)
    g.connect("lineitem.l_quantity", "agg_qty", 1)

    # Pipeline 2 (breaker-only): HAVING sum > quantity.
    g.add_node("gkeys", "group_keys")
    g.connect("agg_qty", "gkeys", 0)
    g.add_node("gsums", "group_values", params=dict(fn="sum"))
    g.connect("agg_qty", "gsums", 0)
    g.add_node("f_big", "filter_bitmap")
    g.connect("gsums", "f_big", 0)
    g.add_node("big_keys", "materialize",
               hints=dict(selectivity_estimate=0.05))
    g.connect("gkeys", "big_keys", 0)
    g.connect("f_big", "big_keys", 1)
    g.add_node("build_big", "hash_build")
    g.connect("big_keys", "build_big", 0)

    # Pipeline 3: the qualifying orders with their attributes.
    g.add_node("exists_big", "hash_probe", params=dict(mode="semi"))
    g.connect("orders.o_orderkey", "exists_big", 0)
    g.connect("build_big", "exists_big", 1)
    for node_id, ref in (("sel_okey", "orders.o_orderkey"),
                         ("sel_ckey", "orders.o_custkey"),
                         ("sel_date", "orders.o_orderdate"),
                         ("sel_price", "orders.o_totalprice")):
        g.add_node(node_id, "materialize_position",
                   hints=dict(selectivity_estimate=0.01))
        g.connect(ref, node_id, 0)
        g.connect("exists_big", node_id, 1)
    g.add_node("build_orders", "hash_build",
               params=dict(payload_names=("o_custkey", "o_orderdate", "o_totalprice")))
    g.connect("sel_okey", "build_orders", 0)
    g.connect("sel_ckey", "build_orders", 1)
    g.connect("sel_date", "build_orders", 2)
    g.connect("sel_price", "build_orders", 3)
    g.mark_output("build_orders")
    g.mark_output("agg_qty")
    return g


def build(catalog: Catalog | None = None, *, quantity: int = 300,
          device: str | None = None) -> PrimitiveGraph:
    """Build the Q18 primitive graph (HAVING sum(l_quantity) > *quantity*)."""
    return template().bind({"f_big": dict(cmp="gt", value=quantity)}, device)


def finalize(result: QueryResult, catalog: Catalog, *, limit: int = 100
             ) -> list[Q18Row]:
    """Assemble the result rows, ordered by total price descending."""
    orders = result.output("build_orders")
    qty = result.output("agg_qty")
    assert isinstance(orders, HashTable) and isinstance(qty, GroupTable)
    qty_of = dict(zip(qty.keys.tolist(),
                      qty.aggregates["sum"].tolist()))
    rows = [
        Q18Row(
            custkey=orders.lookup_payload(int(okey), "o_custkey"),
            orderkey=int(okey),
            orderdate=orders.lookup_payload(int(okey), "o_orderdate"),
            totalprice=orders.lookup_payload(int(okey), "o_totalprice"),
            sum_qty=int(qty_of[int(okey)]),
        )
        for okey in orders.keys
    ]
    rows.sort(key=lambda r: (-r.totalprice, r.orderdate, r.orderkey))
    return rows[:limit]
