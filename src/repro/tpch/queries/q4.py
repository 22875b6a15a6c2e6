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
from repro.planner.logical import (AggregateSpec, Derive, Derived,
                                   GroupAggregate, Predicate, Scan, Select,
                                   SemiJoin)
from repro.planner.translate import translate
from repro.primitives.values import GroupTable
from repro.storage import Catalog, DictionaryColumn, date_to_int
from repro.tpch.reference import Q4Row, _add_months

__all__ = ["PLAN", "build", "finalize", "template"]


#: The Q4 plan; its quarter bounds are bound by :func:`build`.
PLAN = GroupAggregate(
    SemiJoin(
        # Pipeline 2: orders in the quarter with a late lineitem.
        probe=Select(Scan("orders"), [Predicate("o_orderdate", id="f_lo"),
                                      Predicate("o_orderdate", id="f_hi")],
                     and_ids=["f_range"],
                     ids={"o_orderkey": "m_okey",
                          "o_orderpriority": "m_oprio"},
                     hints=dict(selectivity_estimate=0.05)),
        # Pipeline 1: orderkeys of lineitems delivered late.
        build=Select(
            Derive(Scan("lineitem"),
                   [Derived("lateness", "sub", "l_receiptdate",
                            "l_commitdate", id="lateness")]),
            [Predicate("lateness", cmp="gt", value=0, id="f_late")],
            ids={"l_orderkey": "m_lkey"},
            hints=dict(selectivity_estimate=0.7)),
        probe_key="o_orderkey", build_key="l_orderkey",
        build_id="build_late", probe_id="exists",
        ids={"o_orderpriority": "sel_prio"},
        hints=dict(selectivity_estimate=0.05)),
    keys=["o_orderpriority"], aggregates=[AggregateSpec("agg_prio",
                                                        "count")],
    cost_params=dict(groups=5))


#: :data:`PLAN` translated once, read-only: every :func:`build` binds a
#: fresh graph from it.
template = functools.cache(
    functools.partial(translate, PLAN, name="q4"))


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
