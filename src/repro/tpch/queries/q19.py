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
from repro.storage import Catalog, DictionaryColumn
from repro.tpch.reference import Q19_CLAUSES

__all__ = ["build", "finalize", "template"]


def _code_band(column: DictionaryColumn, prefix: str) -> tuple[int, int]:
    """The contiguous code range of dictionary entries starting with
    *prefix* (sorted dictionaries keep prefixed families adjacent)."""
    codes = [i for i, name in enumerate(column.dictionary)
             if name.startswith(prefix)]
    if not codes:
        raise ValueError(f"no dictionary entries with prefix {prefix!r}")
    assert codes == list(range(codes[0], codes[-1] + 1)), prefix
    return codes[0], codes[-1]


@functools.cache
def template() -> PrimitiveGraph:
    """The Q19 plan without its literals, built once and read-only; every
    :func:`build` binds one fresh graph from it."""
    g = PrimitiveGraph("q19")

    # Pipeline 1 (part): a 0/1 indicator per clause, carried as payload.
    payload_names = []
    for index, (_, _, _, _, size_hi) in enumerate(Q19_CLAUSES):
        g.add_node(f"is_brand{index}", "map")
        g.connect("part.p_brand", f"is_brand{index}", 0)
        g.add_node(f"is_cont{index}", "map")
        g.connect("part.p_container", f"is_cont{index}", 0)
        g.add_node(f"is_size{index}", "map",
                   params=dict(op="between", const=(1, size_hi)))
        g.connect("part.p_size", f"is_size{index}", 0)
        g.add_node(f"bc{index}", "map", params=dict(op="mul"))
        g.connect(f"is_brand{index}", f"bc{index}", 0)
        g.connect(f"is_cont{index}", f"bc{index}", 1)
        g.add_node(f"clause{index}", "map", params=dict(op="mul"))
        g.connect(f"bc{index}", f"clause{index}", 0)
        g.connect(f"is_size{index}", f"clause{index}", 1)
        payload_names.append(f"clause{index}")

    g.add_node("build_part", "hash_build",
               params=dict(payload_names=tuple(payload_names)))
    g.connect("part.p_partkey", "build_part", 0)
    for slot, name in enumerate(payload_names, start=1):
        g.connect(name, "build_part", slot)

    # Pipeline 2 (lineitem): join, combine with quantity bands, reduce.
    g.add_node("probe", "hash_probe", params=dict(mode="inner"))
    g.connect("lineitem.l_partkey", "probe", 0)
    g.connect("build_part", "probe", 1)
    g.add_node("jleft", "join_side", params=dict(side="left"))
    g.connect("probe", "jleft", 0)
    for node_id, ref in (("qty", "lineitem.l_quantity"),
                         ("price", "lineitem.l_extendedprice"),
                         ("disc", "lineitem.l_discount")):
        g.add_node(node_id, "materialize_position")
        g.connect(ref, node_id, 0)
        g.connect("jleft", node_id, 1)

    match_terms = []
    for index, (_, _, lo, hi, _) in enumerate(Q19_CLAUSES):
        g.add_node(f"part_ok{index}", "gather_payload",
                   params=dict(name=f"clause{index}"))
        g.connect("probe", f"part_ok{index}", 0)
        g.connect("build_part", f"part_ok{index}", 1)
        g.add_node(f"qty_ok{index}", "map",
                   params=dict(op="between", const=(lo, hi)))
        g.connect("qty", f"qty_ok{index}", 0)
        g.add_node(f"match{index}", "map", params=dict(op="mul"))
        g.connect(f"part_ok{index}", f"match{index}", 0)
        g.connect(f"qty_ok{index}", f"match{index}", 1)
        match_terms.append(f"match{index}")

    # Brands are disjoint, so the OR of the clauses is their sum.
    g.add_node("any01", "map", params=dict(op="add"))
    g.connect(match_terms[0], "any01", 0)
    g.connect(match_terms[1], "any01", 1)
    g.add_node("any", "map", params=dict(op="add"))
    g.connect("any01", "any", 0)
    g.connect(match_terms[2], "any", 1)

    g.add_node("revenue", "map", params=dict(op="disc_price"))
    g.connect("price", "revenue", 0)
    g.connect("disc", "revenue", 1)
    g.add_node("matched_rev", "map", params=dict(op="mul"))
    g.connect("revenue", "matched_rev", 0)
    g.connect("any", "matched_rev", 1)
    g.add_node("sum_rev", "agg_block", params=dict(fn="sum"))
    g.connect("matched_rev", "sum_rev", 0)
    g.mark_output("sum_rev")
    return g


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
