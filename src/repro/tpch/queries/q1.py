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
from repro.planner.logical import (AggregateSpec, Derive, Derived,
                                   GroupAggregate, Predicate, Scan, Select)
from repro.planner.translate import translate
from repro.primitives.values import GroupTable
from repro.storage import Catalog, DictionaryColumn, date_to_int

__all__ = ["FIELDS", "LINEITEMS", "PLAN", "PRICES", "assemble", "build",
           "finalize", "template"]

#: The shipdate filter (bound by :func:`build`) and the six columns it
#: materializes, and the two revenue expressions; the sort-based plan
#: (:mod:`repro.tpch.queries.q1_sorted`) shares both.
LINEITEMS = Select(Scan("lineitem"), [Predicate("l_shipdate", id="f_ship")],
                   ids={"l_returnflag": "m_rf", "l_linestatus": "m_ls",
                        "l_quantity": "m_qty", "l_extendedprice": "m_price",
                        "l_discount": "m_disc", "l_tax": "m_tax"},
                   hints=dict(selectivity_estimate=0.99))
PRICES = [Derived("disc_price", "disc_price", "l_extendedprice",
                  "l_discount", id="disc_price"),
          Derived("charge", "tax_price", "disc_price", "l_tax", id="charge")]

#: The Q1 plan.
PLAN = GroupAggregate(
    Derive(LINEITEMS, PRICES),
    # group key = returnflag * |linestatus dictionary| + linestatus
    keys=["l_returnflag", "l_linestatus"], second_key_domain=2,
    key_id="keys",
    aggregates=[AggregateSpec("agg_qty", "sum", "l_quantity"),
                AggregateSpec("agg_price", "sum", "l_extendedprice"),
                AggregateSpec("agg_disc_price", "sum", "disc_price"),
                AggregateSpec("agg_charge", "sum", "charge"),
                AggregateSpec("agg_count", "count")],
    cost_params=dict(groups=6))

#: Aggregate node id -> the reference oracle's field.
FIELDS = {"agg_qty": "sum_qty", "agg_price": "sum_base_price",
          "agg_disc_price": "sum_disc_price", "agg_charge": "sum_charge",
          "agg_count": "count"}


#: :data:`PLAN` translated once, read-only: every :func:`build` binds a
#: fresh graph from it.
template = functools.cache(
    functools.partial(translate, PLAN, name="q1"))


def build(catalog: Catalog | None = None, *, delta_days: int = 90,
          device: str | None = None) -> PrimitiveGraph:
    """Build the Q1 primitive graph (cutoff = 1998-12-01 - *delta_days*)."""
    cutoff = date_to_int("1998-12-01") - delta_days
    return template().bind({"f_ship": dict(cmp="le", value=cutoff)}, device)


def finalize(result: QueryResult, catalog: Catalog
             ) -> dict[tuple[str, str], dict]:
    """Decode group keys and assemble the reference-oracle layout."""
    return assemble(result, catalog, PLAN, int)


def assemble(result: QueryResult, catalog: Catalog, plan: GroupAggregate,
             combined_key) -> dict[tuple[str, str], dict]:
    """The oracle's layout of *plan*'s aggregate outputs; *combined_key*
    maps an output group key to its combined (returnflag, linestatus)
    code."""
    rf = catalog.column("lineitem.l_returnflag")
    ls = catalog.column("lineitem.l_linestatus")
    assert isinstance(rf, DictionaryColumn) and isinstance(ls, DictionaryColumn)
    out: dict[tuple[str, str], dict] = {}
    for spec in plan.aggregates:
        table = result.output(spec.name)
        assert isinstance(table, GroupTable)
        for key, value in zip(table.keys, table.aggregates[spec.fn]):
            rf_code, ls_code = divmod(combined_key(key), len(ls.dictionary))
            out.setdefault((rf.dictionary[rf_code], ls.dictionary[ls_code]),
                           {})[FIELDS[spec.name]] = int(value)
    return out
