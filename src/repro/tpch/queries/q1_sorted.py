"""TPC-H Q1 via the sort-based aggregation path (SORT_AGG, Table I).

An alternative plan for Q1 that exercises the paper's sort-aggregation
primitives instead of the shared hash table: combine the group key,
stable-sort the qualifying rows by it (SORT_POSITIONS), reorder every
value column with MATERIALIZE_POSITION, derive the group-boundary prefix
sum (GROUP_PREFIX), and run one SORT_AGG per aggregate.

Sorting needs the complete input, so this plan runs under
operator-at-a-time (the runtime enforces it); the hash-based
:mod:`repro.tpch.queries.q1` remains the chunkable production plan.  The
``ablation_hash_vs_sort`` benchmark compares the two.
"""

from __future__ import annotations

import functools

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.primitives.values import GroupTable
from repro.storage import Catalog, DictionaryColumn, date_to_int

__all__ = ["build", "finalize", "template"]

_AGGS = {
    "agg_qty": ("s_qty", "sum"),
    "agg_price": ("s_price", "sum"),
    "agg_disc_price": ("disc_price", "sum"),
    "agg_charge": ("charge", "sum"),
    "agg_count": ("s_qty", "count"),
}


@functools.cache
def template() -> PrimitiveGraph:
    """The sort-based Q1 plan without its literals, built once and read-only; every
    :func:`build` binds one fresh graph from it."""
    g = PrimitiveGraph("q1_sorted")
    g.add_node("f_ship", "filter_bitmap")
    g.connect("lineitem.l_shipdate", "f_ship", 0)

    materialized = {
        "m_rf": "lineitem.l_returnflag",
        "m_ls": "lineitem.l_linestatus",
        "m_qty": "lineitem.l_quantity",
        "m_price": "lineitem.l_extendedprice",
        "m_disc": "lineitem.l_discount",
        "m_tax": "lineitem.l_tax",
    }
    for node_id, ref in materialized.items():
        g.add_node(node_id, "materialize",
                   hints=dict(selectivity_estimate=0.99))
        g.connect(ref, node_id, 0)
        g.connect("f_ship", node_id, 1)

    g.add_node("keys", "map", params=dict(op="combine_keys", const=2))
    g.connect("m_rf", "keys", 0)
    g.connect("m_ls", "keys", 1)

    # The sort path: permutation over the combined key.
    g.add_node("order", "sort_positions")
    g.connect("keys", "order", 0)
    g.add_node("s_keys", "materialize_position")
    g.connect("keys", "s_keys", 0)
    g.connect("order", "s_keys", 1)
    g.add_node("boundaries", "group_prefix")
    g.connect("s_keys", "boundaries", 0)

    for node_id, source in (("s_qty", "m_qty"), ("s_price", "m_price"),
                            ("s_disc", "m_disc"), ("s_tax", "m_tax")):
        g.add_node(node_id, "materialize_position")
        g.connect(source, node_id, 0)
        g.connect("order", node_id, 1)

    g.add_node("disc_price", "map", params=dict(op="disc_price"))
    g.connect("s_price", "disc_price", 0)
    g.connect("s_disc", "disc_price", 1)
    g.add_node("charge", "map", params=dict(op="tax_price"))
    g.connect("disc_price", "charge", 0)
    g.connect("s_tax", "charge", 1)

    for agg_id, (value_node, fn) in _AGGS.items():
        g.add_node(agg_id, "sort_agg", params=dict(fn=fn))
        g.connect(value_node, agg_id, 0)
        g.connect("boundaries", agg_id, 1)
        g.mark_output(agg_id)
    # Also expose the sorted keys so finalize can name the dense groups.
    g.mark_output("s_keys")
    return g


def build(catalog: Catalog | None = None, *, delta_days: int = 90,
          device: str | None = None) -> PrimitiveGraph:
    """Build the sort-based Q1 primitive graph."""
    cutoff = date_to_int("1998-12-01") - delta_days
    return template().bind({"f_ship": dict(cmp="le", value=cutoff)}, device)


def finalize(result: QueryResult, catalog: Catalog
             ) -> dict[tuple[str, str], dict]:
    """Decode dense group indices back to (returnflag, linestatus)."""
    import numpy as np

    rf = catalog.column("lineitem.l_returnflag")
    ls = catalog.column("lineitem.l_linestatus")
    assert isinstance(rf, DictionaryColumn) and isinstance(ls, DictionaryColumn)

    sorted_keys = result.output("s_keys")
    distinct = np.unique(np.asarray(sorted_keys))

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
        for dense, value in zip(table.keys, table.aggregates[fn]):
            combined = int(distinct[int(dense)])
            rname = rf.dictionary[combined // len(ls.dictionary)]
            lname = ls.dictionary[combined % len(ls.dictionary)]
            out.setdefault((rname, lname), {})[out_name] = int(value)
    return out
