"""TPC-H Q6 as a primitive graph — the paper's "heavy aggregation" query.

One pipeline: three bitmap filters (shipdate range, discount range,
quantity) conjoined, late materialization of price and discount, a revenue
map, and a block-wide sum — ending at the AGG_BLOCK pipeline breaker.
"""

from __future__ import annotations

import functools

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.planner.logical import (AggregateSpec, Derive, Derived, Predicate,
                                   ScalarAggregate, Scan, Select)
from repro.planner.translate import translate
from repro.storage import Catalog, date_to_int
from repro.tpch.reference import _add_months

__all__ = ["PLAN", "build", "finalize", "template"]


#: The Q6 plan; its three filters are bound by :func:`build`.
PLAN = ScalarAggregate(
    Derive(
        Select(Scan("lineitem"), [Predicate("l_shipdate", id="f_ship"),
                                  Predicate("l_discount", id="f_disc"),
                                  Predicate("l_quantity", id="f_qty")],
               and_ids=["and_sd", "and_all"],
               ids={"l_extendedprice": "m_price", "l_discount": "m_disc"},
               hints=dict(selectivity_estimate=0.05)),
        [Derived("revenue", "mul", "l_extendedprice", "l_discount",
                 id="revenue")]),
    [AggregateSpec("sum_rev", "sum", "revenue")])


#: :data:`PLAN` translated once, read-only: every :func:`build` binds a
#: fresh graph from it.
template = functools.cache(
    functools.partial(translate, PLAN, name="q6"))


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
