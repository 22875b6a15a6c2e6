"""TPC-H Q19 as a primitive graph — disjunctive clause predicates.

Q19's WHERE is a disjunction of three conjunctive clauses spanning both
join sides (part brand/container/size, lineitem quantity).  The plan
evaluates the part-side of each clause as a 0/1 indicator during the
build pipeline (BETWEEN maps over dictionary-code ranges — the sorted
dictionaries make brand equality and container *prefix* classes simple
code bands), carries the three indicators as hash-table payload, and the
lineitem pipeline combines them with the quantity bands into a single
match flag that gates the revenue reduction.

Clauses are mutually exclusive by brand, so OR is a plain sum.
"""

from __future__ import annotations

import functools

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.planner.logical import (AggregateSpec, Derive, Derived, HashJoin,
                                   ScalarAggregate, Scan)
from repro.planner.translate import translate
from repro.storage import Catalog, DictionaryColumn
from repro.tpch.reference import Q19_CLAUSES

__all__ = ["PLAN", "build", "finalize", "template"]


def _code_band(column: DictionaryColumn, prefix: str) -> tuple[int, int]:
    """The contiguous code range of dictionary entries starting with
    *prefix* (sorted dictionaries keep prefixed families adjacent)."""
    codes = [i for i, name in enumerate(column.dictionary)
             if name.startswith(prefix)]
    if not codes:
        raise ValueError(f"no dictionary entries with prefix {prefix!r}")
    assert codes == list(range(codes[0], codes[-1] + 1)), prefix
    return codes[0], codes[-1]


def _plan() -> ScalarAggregate:
    part_side, payload, joined, matches = [], [], [], []
    for index, (_, _, lo, hi, size_hi) in enumerate(Q19_CLAUSES):
        # Part side: a 0/1 indicator per clause, carried as payload; the
        # brand and container bands are bound by :func:`build`.
        brand, cont, size, both, clause = (
            f"is_brand{index}", f"is_cont{index}", f"is_size{index}",
            f"bc{index}", f"clause{index}")
        part_side += [
            Derived(brand, None, "p_brand", id=brand),
            Derived(cont, None, "p_container", id=cont),
            Derived(size, "between", "p_size", const=(1, size_hi), id=size),
            Derived(both, "mul", brand, cont, id=both),
            Derived(clause, "mul", both, size, id=clause)]
        payload.append(clause)
        # Lineitem side: the clause's part flag times its quantity band.
        qty_ok, match = f"qty_ok{index}", f"match{index}"
        joined += [
            Derived(qty_ok, "between", "l_quantity", const=(lo, hi),
                    id=qty_ok),
            Derived(match, "mul", clause, qty_ok, id=match)]
        matches.append(match)
    # Brands are disjoint, so the OR of the clauses is their sum.
    joined += [
        Derived("any01", "add", matches[0], matches[1], id="any01"),
        Derived("any", "add", "any01", matches[2], id="any"),
        Derived("revenue", "disc_price", "l_extendedprice", "l_discount",
                id="revenue"),
        Derived("matched_rev", "mul", "revenue", "any", id="matched_rev")]
    return ScalarAggregate(
        Derive(HashJoin(
            probe=Scan("lineitem"), build=Derive(Scan("part"), part_side),
            probe_key="l_partkey", build_key="p_partkey", payload=payload,
            build_id="build_part", probe_id="probe", side_id="jleft",
            ids={"l_quantity": "qty", "l_extendedprice": "price",
                 "l_discount": "disc",
                 **{name: f"part_ok{i}" for i, name in enumerate(payload)}},
            hints={}), joined),
        [AggregateSpec("sum_rev", "sum", "matched_rev")])


#: The Q19 plan.
PLAN = _plan()


#: :data:`PLAN` translated once, read-only: every :func:`build` binds a
#: fresh graph from it.
template = functools.cache(
    functools.partial(translate, PLAN, name="q19"))


def build(catalog: Catalog, *, device: str | None = None) -> PrimitiveGraph:
    """Build the Q19 primitive graph (clauses from ``Q19_CLAUSES``)."""
    brand = catalog.column("part.p_brand")
    container = catalog.column("part.p_container")
    assert isinstance(brand, DictionaryColumn)
    assert isinstance(container, DictionaryColumn)
    params = {}
    for index, (brand_name, prefix, _, _, _) in enumerate(Q19_CLAUSES):
        brand_code = brand.code_for(brand_name)
        params[f"is_brand{index}"] = dict(op="between",
                                          const=(brand_code, brand_code))
        params[f"is_cont{index}"] = dict(
            op="between", const=_code_band(container, prefix + " "))
    return template().bind(params, device)


def finalize(result: QueryResult, catalog: Catalog) -> int:
    """The matched revenue scalar (same units as the oracle)."""
    return int(result.output("sum_rev")[0])
