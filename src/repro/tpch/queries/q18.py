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
from repro.planner.logical import (AggregateSpec, GroupAggregate, HashBuild,
                                   Predicate, Scan, Select, SemiJoin)
from repro.planner.translate import translate
from repro.primitives.values import GroupTable, HashTable
from repro.storage import Catalog
from repro.tpch.reference import Q18Row

__all__ = ["PLAN", "build", "finalize", "template"]


#: The Q18 plan; the HAVING threshold is bound by :func:`build`.
PLAN = HashBuild(
    # Pipeline 3: the qualifying orders with their attributes.
    SemiJoin(
        probe=Scan("orders"),
        # Pipeline 2 (breaker-only): HAVING sum > quantity.
        build=Select(
            # Pipeline 1: quantity per order, itself an output.
            GroupAggregate(Scan("lineitem"), keys=["l_orderkey"],
                           aggregates=[AggregateSpec("agg_qty", "sum",
                                                     "l_quantity")],
                           ids={"l_orderkey": "gkeys", "agg_qty": "gsums"},
                           output=True),
            [Predicate("agg_qty", id="f_big")],
            ids={"l_orderkey": "big_keys"},
            hints=dict(selectivity_estimate=0.05)),
        probe_key="o_orderkey", build_key="l_orderkey",
        build_id="build_big", probe_id="exists_big",
        ids={"o_orderkey": "sel_okey", "o_custkey": "sel_ckey",
             "o_orderdate": "sel_date", "o_totalprice": "sel_price"},
        hints=dict(selectivity_estimate=0.01)),
    key="o_orderkey", payload=["o_custkey", "o_orderdate", "o_totalprice"],
    id="build_orders")


#: :data:`PLAN` translated once, read-only: every :func:`build` binds a
#: fresh graph from it.
template = functools.cache(
    functools.partial(translate, PLAN, name="q18"))


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
