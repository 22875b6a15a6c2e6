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
from repro.planner.logical import (AggregateSpec, AnyOf, Derive, Derived,
                                   GroupAggregate, HashJoin, Predicate, Scan,
                                   Select)
from repro.planner.translate import translate
from repro.primitives.values import GroupTable
from repro.storage import Catalog, DictionaryColumn, date_to_int
from repro.tpch.reference import Q12Row, _add_months

__all__ = ["PLAN", "build", "finalize", "template"]


#: The Q12 plan; the two modes, the receipt year and the high-priority
#: band are bound by :func:`build`.
PLAN = GroupAggregate(
    Derive(
        HashJoin(
            # Pipeline 2: qualifying lineitems joined back to their orders.
            probe=Select(
                Derive(Scan("lineitem"),
                       [Derived("commit_slack", "sub", "l_receiptdate",
                                "l_commitdate", id="commit_slack"),
                        Derived("ship_slack", "sub", "l_commitdate",
                                "l_shipdate", id="ship_slack")]),
                [AnyOf([Predicate("l_shipmode", id="f_mode_a"),
                        Predicate("l_shipmode", id="f_mode_b")],
                       ids=["modes"]),
                 Predicate("commit_slack", cmp="gt", value=0, id="f_late"),
                 Predicate("ship_slack", cmp="gt", value=0,
                           id="f_shipped_early"),
                 Predicate("l_receiptdate", id="f_receipt")],
                and_ids=["and1", "and2", "and3"],
                ids={"l_orderkey": "m_lkey", "l_shipmode": "m_mode"},
                hints=dict(selectivity_estimate=0.05)),
            # Pipeline 1: the unfiltered orders with their priority.
            build=Scan("orders"), probe_key="l_orderkey",
            build_key="o_orderkey", payload=["o_orderpriority"],
            build_id="build_orders", probe_id="probe", side_id="jleft",
            ids={"l_shipmode": "mode_sel", "o_orderpriority": "prio_vals"},
            hints=dict(selectivity_estimate=0.05)),
        [Derived("is_high", None, "o_orderpriority", id="is_high")]),
    keys=["l_shipmode", "is_high"], second_key_domain=2, key_id="keys",
    aggregates=[AggregateSpec("agg", "count")], cost_params=dict(groups=4))


#: :data:`PLAN` translated once, read-only: every :func:`build` binds a
#: fresh graph from it.
template = functools.cache(
    functools.partial(translate, PLAN, name="q12"))


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
