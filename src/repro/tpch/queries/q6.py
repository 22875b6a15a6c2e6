"""TPC-H Q6 as a primitive graph — the paper's "heavy aggregation" query.

One pipeline: three bitmap filters (shipdate range, discount range,
quantity) conjoined, late materialization of price and discount, a revenue
map, and a block-wide sum — ending at the AGG_BLOCK pipeline breaker.
"""

from __future__ import annotations

import functools

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.storage import Catalog, date_to_int
from repro.tpch.reference import _add_months

__all__ = ["build", "finalize", "template"]


@functools.cache
def template() -> PrimitiveGraph:
    """The Q6 plan without its literals, built once and read-only; every
    :func:`build` binds one fresh graph from it."""
    g = PrimitiveGraph("q6")
    for node_id in ("f_ship", "f_disc", "f_qty"):
        g.add_node(node_id, "filter_bitmap")
    g.add_node("and_sd", "bitmap_and")
    g.add_node("and_all", "bitmap_and")
    g.add_node("m_price", "materialize", hints=dict(selectivity_estimate=0.05))
    g.add_node("m_disc", "materialize", hints=dict(selectivity_estimate=0.05))
    g.add_node("revenue", "map", params=dict(op="mul"))
    g.add_node("sum_rev", "agg_block", params=dict(fn="sum"))

    g.connect("lineitem.l_shipdate", "f_ship", 0)
    g.connect("lineitem.l_discount", "f_disc", 0)
    g.connect("lineitem.l_quantity", "f_qty", 0)
    g.connect("f_ship", "and_sd", 0)
    g.connect("f_disc", "and_sd", 1)
    g.connect("and_sd", "and_all", 0)
    g.connect("f_qty", "and_all", 1)
    g.connect("lineitem.l_extendedprice", "m_price", 0)
    g.connect("and_all", "m_price", 1)
    g.connect("lineitem.l_discount", "m_disc", 0)
    g.connect("and_all", "m_disc", 1)
    g.connect("m_price", "revenue", 0)
    g.connect("m_disc", "revenue", 1)
    g.connect("revenue", "sum_rev", 0)
    g.mark_output("sum_rev")
    return g


def build(catalog: Catalog | None = None, *, date: str = "1994-01-01",
          discount: int = 6, quantity: int = 24,
          device: str | None = None) -> PrimitiveGraph:
    """Build the Q6 primitive graph.

    Args match :func:`repro.tpch.reference.q6`; *device* annotates every
    node (default device when omitted).
    """
    start = date_to_int(date)
    end = date_to_int(_add_months(date, 12))
    return template().bind({
        "f_ship": dict(lo=start, hi=end - 1),
        "f_disc": dict(lo=discount - 1, hi=discount + 1),
        "f_qty": dict(cmp="lt", value=quantity),
    }, device)


def finalize(result: QueryResult, catalog: Catalog) -> int:
    """Extract the revenue scalar (same units as the reference oracle)."""
    return int(result.output("sum_rev")[0])
