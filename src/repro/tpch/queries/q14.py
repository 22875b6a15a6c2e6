"""TPC-H Q14 as a primitive graph — the promotion-effect query.

Two pipelines:

1. part: a BETWEEN map flags PROMO part types (dictionary codes for
   ``PROMO*`` are contiguous because the dictionary is sorted), and the
   part keys are hash-built with the flag as payload;
2. lineitem: one-month shipdate filter, revenue map, inner probe against
   the part table, GATHER_PAYLOAD of the promo flag, a conditional
   revenue map, and two AGG_BLOCK sums (promo and total).

``finalize`` computes the paper-schema percentage on the host.
"""

from __future__ import annotations

import functools

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.storage import Catalog, DictionaryColumn, date_to_int
from repro.tpch.reference import _add_months

__all__ = ["build", "finalize", "template"]


@functools.cache
def template() -> PrimitiveGraph:
    """The Q14 plan without its literals, built once and read-only; every
    :func:`build` binds one fresh graph from it."""
    g = PrimitiveGraph("q14")

    # Pipeline 1: part keys with a promo flag payload.
    g.add_node("is_promo", "map")
    g.connect("part.p_type", "is_promo", 0)
    g.add_node("build_part", "hash_build",
               params=dict(payload_names=("is_promo",)))
    g.connect("part.p_partkey", "build_part", 0)
    g.connect("is_promo", "build_part", 1)

    # Pipeline 2: the month's lineitems joined to their parts.
    g.add_node("f_ship", "filter_bitmap")
    g.connect("lineitem.l_shipdate", "f_ship", 0)
    for node_id, ref in (("m_partkey", "lineitem.l_partkey"),
                         ("m_price", "lineitem.l_extendedprice"),
                         ("m_disc", "lineitem.l_discount")):
        g.add_node(node_id, "materialize",
                   hints=dict(selectivity_estimate=0.02))
        g.connect(ref, node_id, 0)
        g.connect("f_ship", node_id, 1)
    g.add_node("revenue", "map", params=dict(op="disc_price"))
    g.connect("m_price", "revenue", 0)
    g.connect("m_disc", "revenue", 1)

    g.add_node("probe", "hash_probe", params=dict(mode="inner"))
    g.connect("m_partkey", "probe", 0)
    g.connect("build_part", "probe", 1)
    g.add_node("jleft", "join_side", params=dict(side="left"))
    g.connect("probe", "jleft", 0)
    g.add_node("rev_sel", "materialize_position",
               hints=dict(selectivity_estimate=0.02))
    g.connect("revenue", "rev_sel", 0)
    g.connect("jleft", "rev_sel", 1)
    g.add_node("promo_flag", "gather_payload", params=dict(name="is_promo"),
               hints=dict(selectivity_estimate=0.02))
    g.connect("probe", "promo_flag", 0)
    g.connect("build_part", "promo_flag", 1)
    g.add_node("promo_rev", "map", params=dict(op="mul"))
    g.connect("rev_sel", "promo_rev", 0)
    g.connect("promo_flag", "promo_rev", 1)

    g.add_node("sum_total", "agg_block", params=dict(fn="sum"))
    g.connect("rev_sel", "sum_total", 0)
    g.add_node("sum_promo", "agg_block", params=dict(fn="sum"))
    g.connect("promo_rev", "sum_promo", 0)
    g.mark_output("sum_total")
    g.mark_output("sum_promo")
    return g


def build(catalog: Catalog, *, date: str = "1995-09-01",
          device: str | None = None) -> PrimitiveGraph:
    """Build the Q14 primitive graph (needs *catalog* for the PROMO code
    band)."""
    start = date_to_int(date)
    end = date_to_int(_add_months(date, 1))
    ptype = catalog.column("part.p_type")
    assert isinstance(ptype, DictionaryColumn)
    promo_codes = [i for i, name in enumerate(ptype.dictionary)
                   if name.startswith("PROMO")]
    if not promo_codes:
        raise ValueError("part.p_type dictionary has no PROMO types")
    return template().bind({
        "is_promo": dict(op="between",
                         const=(promo_codes[0], promo_codes[-1])),
        "f_ship": dict(lo=start, hi=end - 1),
    }, device)


def finalize(result: QueryResult, catalog: Catalog) -> float:
    """``100 * promo_revenue / total_revenue`` (0.0 on an empty month)."""
    total = int(result.output("sum_total")[0])
    promo = int(result.output("sum_promo")[0])
    return 100.0 * promo / total if total else 0.0
