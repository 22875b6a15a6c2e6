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
from repro.planner.logical import (AggregateSpec, Derive, Derived, HashJoin,
                                   Predicate, ScalarAggregate, Scan, Select)
from repro.planner.translate import translate
from repro.storage import Catalog, DictionaryColumn, date_to_int
from repro.tpch.reference import _add_months

__all__ = ["PLAN", "build", "finalize", "template"]


#: The Q14 plan; the month and the PROMO code band are bound by
#: :func:`build`.
PLAN = ScalarAggregate(
    Derive(
        HashJoin(
            # Pipeline 2: the month's lineitems joined to their parts.
            probe=Derive(
                Select(Scan("lineitem"),
                       [Predicate("l_shipdate", id="f_ship")],
                       ids={"l_partkey": "m_partkey",
                            "l_extendedprice": "m_price",
                            "l_discount": "m_disc"},
                       hints=dict(selectivity_estimate=0.02)),
                [Derived("revenue", "disc_price", "l_extendedprice",
                         "l_discount", id="revenue")]),
            # Pipeline 1: part keys with a promo flag payload.
            build=Derive(Scan("part"), [Derived("is_promo", None, "p_type",
                                                id="is_promo")]),
            probe_key="l_partkey", build_key="p_partkey",
            payload=["is_promo"], build_id="build_part", probe_id="probe",
            side_id="jleft",
            ids={"revenue": "rev_sel", "is_promo": "promo_flag"},
            hints=dict(selectivity_estimate=0.02)),
        [Derived("promo_rev", "mul", "revenue", "is_promo",
                 id="promo_rev")]),
    [AggregateSpec("sum_total", "sum", "revenue"),
     AggregateSpec("sum_promo", "sum", "promo_rev")])


#: :data:`PLAN` translated once, read-only: every :func:`build` binds a
#: fresh graph from it.
template = functools.cache(
    functools.partial(translate, PLAN, name="q14"))


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
