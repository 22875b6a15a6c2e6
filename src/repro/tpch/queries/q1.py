"""TPC-H Q1 as a primitive graph — the pricing-summary report.

One pipeline: a shipdate filter, late materialization of six lineitem
columns, a combined (returnflag, linestatus) group key, the two revenue
expressions, and five HASH_AGG breakers sharing the pipeline — which
exercises multi-breaker pipelines in every execution model.
"""

from __future__ import annotations

import functools

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.primitives.values import GroupTable
from repro.storage import Catalog, DictionaryColumn, date_to_int

__all__ = ["build", "finalize", "template"]

_AGGS = {
    "agg_qty": ("m_qty", "sum"),
    "agg_price": ("m_price", "sum"),
    "agg_disc_price": ("disc_price", "sum"),
    "agg_charge": ("charge", "sum"),
    "agg_count": (None, "count"),
}


@functools.cache
def template() -> PrimitiveGraph:
    """The Q1 plan without its literals, built once and read-only; every
    :func:`build` binds one fresh graph from it."""
    g = PrimitiveGraph("q1")
    g.add_node("f_ship", "filter_bitmap")
    materialized = {
        "m_rf": "lineitem.l_returnflag",
        "m_ls": "lineitem.l_linestatus",
        "m_qty": "lineitem.l_quantity",
        "m_price": "lineitem.l_extendedprice",
        "m_disc": "lineitem.l_discount",
        "m_tax": "lineitem.l_tax",
    }
    g.connect("lineitem.l_shipdate", "f_ship", 0)
    for node_id, ref in materialized.items():
        g.add_node(node_id, "materialize",
                   hints=dict(selectivity_estimate=0.99))
        g.connect(ref, node_id, 0)
        g.connect("f_ship", node_id, 1)

    # group key = returnflag * |linestatus dictionary| + linestatus
    g.add_node("keys", "map", params=dict(op="combine_keys", const=2))
    g.connect("m_rf", "keys", 0)
    g.connect("m_ls", "keys", 1)

    g.add_node("disc_price", "map", params=dict(op="disc_price"))
    g.connect("m_price", "disc_price", 0)
    g.connect("m_disc", "disc_price", 1)
    g.add_node("charge", "map", params=dict(op="tax_price"))
    g.connect("disc_price", "charge", 0)
    g.connect("m_tax", "charge", 1)

    for agg_id, (value_node, fn) in _AGGS.items():
        g.add_node(agg_id, "hash_agg", params=dict(fn=fn),
                   cost_params=dict(groups=6))
        g.connect("keys", agg_id, 0)
        if value_node is not None:
            g.connect(value_node, agg_id, 1)
        g.mark_output(agg_id)
    return g


def build(catalog: Catalog | None = None, *, delta_days: int = 90,
          device: str | None = None) -> PrimitiveGraph:
    """Build the Q1 primitive graph (cutoff = 1998-12-01 - *delta_days*)."""
    cutoff = date_to_int("1998-12-01") - delta_days
    return template().bind({"f_ship": dict(cmp="le", value=cutoff)}, device)


def finalize(result: QueryResult, catalog: Catalog
             ) -> dict[tuple[str, str], dict]:
    """Decode group keys and assemble the reference-oracle layout."""
    rf = catalog.column("lineitem.l_returnflag")
    ls = catalog.column("lineitem.l_linestatus")
    assert isinstance(rf, DictionaryColumn) and isinstance(ls, DictionaryColumn)

    named = {
        "agg_qty": "sum_qty",
        "agg_price": "sum_base_price",
        "agg_disc_price": "sum_disc_price",
        "agg_charge": "sum_charge",
        "agg_count": "count",
    }
    out: dict[tuple[str, str], dict] = {}
    for agg_id, out_name in named.items():
        table = result.output(agg_id)
        assert isinstance(table, GroupTable)
        fn = _AGGS[agg_id][1]
        for key, value in zip(table.keys, table.aggregates[fn]):
            rname = rf.dictionary[int(key) // len(ls.dictionary)]
            lname = ls.dictionary[int(key) % len(ls.dictionary)]
            out.setdefault((rname, lname), {})[out_name] = int(value)
    return out
