"""TPC-H Q12 as a primitive graph — shipping modes and order priority.

Two pipelines:

1. orders: HASH_BUILD directly over the full orderkey scan, carrying the
   order priority as payload (no filter — Q12's orders side is unfiltered);
2. lineitem: mode IN-list (two filters + BITMAP_OR), the three date
   predicates, an inner probe, then GATHER_PAYLOAD to pull each joined
   order's priority, a BETWEEN map classifying it as high/low, and a
   combined (shipmode, class) HASH_AGG count.

Exercises the extension primitives ``bitmap_or`` and ``gather_payload``
and a completely unfiltered build pipeline.
"""

from __future__ import annotations

import functools

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.primitives.values import GroupTable
from repro.storage import Catalog, DictionaryColumn, date_to_int
from repro.tpch.reference import Q12Row, _add_months

__all__ = ["build", "finalize", "template"]


@functools.cache
def template() -> PrimitiveGraph:
    """The Q12 plan without its literals, built once and read-only; every
    :func:`build` binds one fresh graph from it."""
    g = PrimitiveGraph("q12")

    # Pipeline 1: the orders hash table with priority payload.
    g.add_node("build_orders", "hash_build",
               params=dict(payload_names=("o_orderpriority",)))
    g.connect("orders.o_orderkey", "build_orders", 0)
    g.connect("orders.o_orderpriority", "build_orders", 1)

    # Pipeline 2: qualifying lineitems joined back to their orders.
    g.add_node("f_mode_a", "filter_bitmap")
    g.add_node("f_mode_b", "filter_bitmap")
    g.add_node("modes", "bitmap_or")
    g.connect("lineitem.l_shipmode", "f_mode_a", 0)
    g.connect("lineitem.l_shipmode", "f_mode_b", 0)
    g.connect("f_mode_a", "modes", 0)
    g.connect("f_mode_b", "modes", 1)

    g.add_node("commit_slack", "map", params=dict(op="sub"))
    g.connect("lineitem.l_receiptdate", "commit_slack", 0)
    g.connect("lineitem.l_commitdate", "commit_slack", 1)
    g.add_node("f_late", "filter_bitmap", params=dict(cmp="gt", value=0))
    g.connect("commit_slack", "f_late", 0)

    g.add_node("ship_slack", "map", params=dict(op="sub"))
    g.connect("lineitem.l_commitdate", "ship_slack", 0)
    g.connect("lineitem.l_shipdate", "ship_slack", 1)
    g.add_node("f_shipped_early", "filter_bitmap",
               params=dict(cmp="gt", value=0))
    g.connect("ship_slack", "f_shipped_early", 0)

    g.add_node("f_receipt", "filter_bitmap")
    g.connect("lineitem.l_receiptdate", "f_receipt", 0)

    g.add_node("and1", "bitmap_and")
    g.add_node("and2", "bitmap_and")
    g.add_node("and3", "bitmap_and")
    g.connect("modes", "and1", 0)
    g.connect("f_late", "and1", 1)
    g.connect("and1", "and2", 0)
    g.connect("f_shipped_early", "and2", 1)
    g.connect("and2", "and3", 0)
    g.connect("f_receipt", "and3", 1)

    for node_id, ref in (("m_lkey", "lineitem.l_orderkey"),
                         ("m_mode", "lineitem.l_shipmode")):
        g.add_node(node_id, "materialize",
                   hints=dict(selectivity_estimate=0.05))
        g.connect(ref, node_id, 0)
        g.connect("and3", node_id, 1)

    g.add_node("probe", "hash_probe", params=dict(mode="inner"))
    g.connect("m_lkey", "probe", 0)
    g.connect("build_orders", "probe", 1)
    g.add_node("jleft", "join_side", params=dict(side="left"))
    g.connect("probe", "jleft", 0)
    g.add_node("mode_sel", "materialize_position",
               hints=dict(selectivity_estimate=0.05))
    g.connect("m_mode", "mode_sel", 0)
    g.connect("jleft", "mode_sel", 1)
    g.add_node("prio_vals", "gather_payload",
               params=dict(name="o_orderpriority"),
               hints=dict(selectivity_estimate=0.05))
    g.connect("probe", "prio_vals", 0)
    g.connect("build_orders", "prio_vals", 1)
    g.add_node("is_high", "map")
    g.connect("prio_vals", "is_high", 0)
    g.add_node("keys", "map", params=dict(op="combine_keys", const=2))
    g.connect("mode_sel", "keys", 0)
    g.connect("is_high", "keys", 1)
    g.add_node("agg", "hash_agg", params=dict(fn="count"),
               cost_params=dict(groups=4))
    g.connect("keys", "agg", 0)
    g.mark_output("agg")
    return g


def build(catalog: Catalog, *, modes: tuple[str, str] = ("MAIL", "SHIP"),
          date: str = "1994-01-01", device: str | None = None
          ) -> PrimitiveGraph:
    """Build the Q12 primitive graph (needs *catalog* for dictionary
    codes)."""
    start = date_to_int(date)
    end = date_to_int(_add_months(date, 12))
    shipmode = catalog.column("lineitem.l_shipmode")
    assert isinstance(shipmode, DictionaryColumn)
    mode_a, mode_b = (shipmode.code_for(m) for m in modes)
    priority = catalog.column("orders.o_orderpriority")
    assert isinstance(priority, DictionaryColumn)
    high_codes = sorted(priority.dictionary.index(p)
                        for p in ("1-URGENT", "2-HIGH"))
    return template().bind({
        "f_mode_a": dict(cmp="eq", value=mode_a),
        "f_mode_b": dict(cmp="eq", value=mode_b),
        "f_receipt": dict(lo=start, hi=end - 1),
        "is_high": dict(op="between", const=(high_codes[0], high_codes[-1])),
    }, device)


def finalize(result: QueryResult, catalog: Catalog) -> list[Q12Row]:
    """Split the combined (shipmode, class) counts into Q12's two columns."""
    table = result.output("agg")
    assert isinstance(table, GroupTable)
    shipmode = catalog.column("lineitem.l_shipmode")
    assert isinstance(shipmode, DictionaryColumn)
    high: dict[int, int] = {}
    low: dict[int, int] = {}
    for key, count in zip(table.keys, table.aggregates["count"]):
        mode_code, is_high = divmod(int(key), 2)
        (high if is_high else low)[mode_code] = int(count)
    rows = [
        Q12Row(shipmode.dictionary[code], high.get(code, 0),
               low.get(code, 0))
        for code in sorted(set(high) | set(low))
    ]
    return rows
