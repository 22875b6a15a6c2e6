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

import numpy as np

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.planner.logical import (AggregateSpec, Derive, Derived,
                                   GroupAggregate, Sort)
from repro.planner.translate import translate
from repro.storage import Catalog, date_to_int
from repro.tpch.queries import q1

__all__ = ["PLAN", "build", "finalize", "template"]

#: The sort-based Q1 plan: a stable permutation over the combined key,
#: the revenue expressions over the sorted rows, and the sorted keys an
#: output too, after the aggregates, so finalize can name the dense
#: groups.
PLAN = GroupAggregate(
    Derive(Sort(Derive(q1.LINEITEMS,
                       [Derived("keys", "combine_keys", "l_returnflag",
                                "l_linestatus", const=2, id="keys")]),
                key="keys", id="order",
                ids={"keys": "s_keys", "l_quantity": "s_qty",
                     "l_extendedprice": "s_price", "l_discount": "s_disc",
                     "l_tax": "s_tax"}),
           q1.PRICES),
    keys=["keys"], sort=True, key_id="boundaries",
    aggregates=[AggregateSpec("agg_qty", "sum", "l_quantity"),
                AggregateSpec("agg_price", "sum", "l_extendedprice"),
                AggregateSpec("agg_disc_price", "sum", "disc_price"),
                AggregateSpec("agg_charge", "sum", "charge"),
                AggregateSpec("agg_count", "count", "l_quantity")])


#: :data:`PLAN` translated once, read-only: every :func:`build` binds a
#: fresh graph from it.
template = functools.cache(
    functools.partial(translate, PLAN, name="q1_sorted"))


def build(catalog: Catalog | None = None, *, delta_days: int = 90,
          device: str | None = None) -> PrimitiveGraph:
    """Build the sort-based Q1 primitive graph."""
    cutoff = date_to_int("1998-12-01") - delta_days
    return template().bind({"f_ship": dict(cmp="le", value=cutoff)}, device)


def finalize(result: QueryResult, catalog: Catalog
             ) -> dict[tuple[str, str], dict]:
    """Decode dense group indices back to (returnflag, linestatus)."""
    distinct = np.unique(np.asarray(result.output("s_keys")))
    return q1.assemble(result, catalog, PLAN,
                       lambda dense: int(distinct[int(dense)]))
