"""TPC-H Q5 as a primitive graph — local supplier volume (5-way join).

The most join-intensive plan in the repo; five pipelines:

1. region -> nation: restrict nations to the region (semi-probe) and
   hash-build the surviving nation keys;
2. customer: semi-probe against the region's nations, build
   ``c_custkey -> c_nationkey``;
3. orders: one-year date filter, inner probe to customers, build
   ``o_orderkey -> customer nation`` (payload gathered through the probe);
4. supplier: build ``s_suppkey -> s_nationkey`` straight off the scan;
5. lineitem: inner probe to orders (gathering the customer nation),
   inner probe to suppliers (gathering the supplier nation), keep rows
   where the two nations agree (the paper-style map+filter+materialize
   idiom), compute revenue, HASH_AGG by nation.

Exercises chained probes and repeated GATHER_PAYLOAD inside a single
pipeline, under every execution model.
"""

from __future__ import annotations

import functools

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.primitives.values import GroupTable
from repro.storage import Catalog, DictionaryColumn, date_to_int
from repro.tpch.reference import Q5Row, _add_months

__all__ = ["build", "finalize", "template"]


@functools.cache
def template() -> PrimitiveGraph:
    """The Q5 plan without its literals, built once and read-only; every
    :func:`build` binds one fresh graph from it."""
    g = PrimitiveGraph("q5")

    # Pipeline 1a: the region key(s) for the named region.
    g.add_node("f_region", "filter_bitmap")
    g.connect("region.r_name", "f_region", 0)
    g.add_node("m_rkey", "materialize")
    g.connect("region.r_regionkey", "m_rkey", 0)
    g.connect("f_region", "m_rkey", 1)
    g.add_node("build_region", "hash_build")
    g.connect("m_rkey", "build_region", 0)

    # Pipeline 1b: nations within the region.
    g.add_node("probe_region", "hash_probe", params=dict(mode="semi"))
    g.connect("nation.n_regionkey", "probe_region", 0)
    g.connect("build_region", "probe_region", 1)
    g.add_node("sel_nkey", "materialize_position")
    g.connect("nation.n_nationkey", "sel_nkey", 0)
    g.connect("probe_region", "sel_nkey", 1)
    g.add_node("build_nation", "hash_build")
    g.connect("sel_nkey", "build_nation", 0)

    # Pipeline 2: customers of those nations (custkey -> nationkey).
    g.add_node("probe_cnation", "hash_probe", params=dict(mode="semi"))
    g.connect("customer.c_nationkey", "probe_cnation", 0)
    g.connect("build_nation", "probe_cnation", 1)
    for node_id, ref in (("sel_ckey", "customer.c_custkey"),
                         ("sel_cnat", "customer.c_nationkey")):
        g.add_node(node_id, "materialize_position",
                   hints=dict(selectivity_estimate=0.25))
        g.connect(ref, node_id, 0)
        g.connect("probe_cnation", node_id, 1)
    g.add_node("build_cust", "hash_build",
               params=dict(payload_names=("c_nationkey",)))
    g.connect("sel_ckey", "build_cust", 0)
    g.connect("sel_cnat", "build_cust", 1)

    # Pipeline 3: one-year orders joined to customers.
    g.add_node("f_odate", "filter_bitmap")
    g.connect("orders.o_orderdate", "f_odate", 0)
    for node_id, ref in (("m_okey", "orders.o_orderkey"),
                         ("m_ocust", "orders.o_custkey")):
        g.add_node(node_id, "materialize",
                   hints=dict(selectivity_estimate=0.2))
        g.connect(ref, node_id, 0)
        g.connect("f_odate", node_id, 1)
    g.add_node("probe_cust", "hash_probe", params=dict(mode="inner"))
    g.connect("m_ocust", "probe_cust", 0)
    g.connect("build_cust", "probe_cust", 1)
    g.add_node("jl_orders", "join_side", params=dict(side="left"))
    g.connect("probe_cust", "jl_orders", 0)
    g.add_node("sel_okey2", "materialize_position",
               hints=dict(selectivity_estimate=0.1))
    g.connect("m_okey", "sel_okey2", 0)
    g.connect("jl_orders", "sel_okey2", 1)
    g.add_node("cust_nat", "gather_payload", params=dict(name="c_nationkey"),
               hints=dict(selectivity_estimate=0.1))
    g.connect("probe_cust", "cust_nat", 0)
    g.connect("build_cust", "cust_nat", 1)
    g.add_node("build_orders", "hash_build",
               params=dict(payload_names=("nation",)))
    g.connect("sel_okey2", "build_orders", 0)
    g.connect("cust_nat", "build_orders", 1)

    # Pipeline 4: supplier nation lookup table.
    g.add_node("build_supp", "hash_build",
               params=dict(payload_names=("s_nationkey",)))
    g.connect("supplier.s_suppkey", "build_supp", 0)
    g.connect("supplier.s_nationkey", "build_supp", 1)

    # Pipeline 5: lineitems joined to orders and suppliers.
    g.add_node("probe_ord", "hash_probe", params=dict(mode="inner"))
    g.connect("lineitem.l_orderkey", "probe_ord", 0)
    g.connect("build_orders", "probe_ord", 1)
    g.add_node("jl_line", "join_side", params=dict(side="left"))
    g.connect("probe_ord", "jl_line", 0)
    for node_id, ref in (("l_supp", "lineitem.l_suppkey"),
                         ("l_price", "lineitem.l_extendedprice"),
                         ("l_disc", "lineitem.l_discount")):
        g.add_node(node_id, "materialize_position",
                   hints=dict(selectivity_estimate=0.05))
        g.connect(ref, node_id, 0)
        g.connect("jl_line", node_id, 1)
    g.add_node("o_nation", "gather_payload", params=dict(name="nation"),
               hints=dict(selectivity_estimate=0.05))
    g.connect("probe_ord", "o_nation", 0)
    g.connect("build_orders", "o_nation", 1)

    g.add_node("probe_supp", "hash_probe", params=dict(mode="inner"))
    g.connect("l_supp", "probe_supp", 0)
    g.connect("build_supp", "probe_supp", 1)
    g.add_node("jl_supp", "join_side", params=dict(side="left"))
    g.connect("probe_supp", "jl_supp", 0)
    # Supplier keys are unique, so the probe keeps row order but may drop
    # unmatched rows; realign every carried column through the pairs.
    for node_id, source in (("s_price", "l_price"), ("s_disc", "l_disc"),
                            ("s_onation", "o_nation")):
        g.add_node(node_id, "materialize_position",
                   hints=dict(selectivity_estimate=0.05))
        g.connect(source, node_id, 0)
        g.connect("jl_supp", node_id, 1)
    g.add_node("s_nation", "gather_payload", params=dict(name="s_nationkey"),
               hints=dict(selectivity_estimate=0.05))
    g.connect("probe_supp", "s_nation", 0)
    g.connect("build_supp", "s_nation", 1)

    # Keep rows where the customer and supplier nations agree.
    g.add_node("nation_diff", "map", params=dict(op="sub"))
    g.connect("s_onation", "nation_diff", 0)
    g.connect("s_nation", "nation_diff", 1)
    g.add_node("f_same", "filter_bitmap", params=dict(cmp="eq", value=0))
    g.connect("nation_diff", "f_same", 0)
    for node_id, source in (("k_nation", "s_onation"),
                            ("k_price", "s_price"), ("k_disc", "s_disc")):
        g.add_node(node_id, "materialize",
                   hints=dict(selectivity_estimate=0.05))
        g.connect(source, node_id, 0)
        g.connect("f_same", node_id, 1)
    g.add_node("revenue", "map", params=dict(op="disc_price"))
    g.connect("k_price", "revenue", 0)
    g.connect("k_disc", "revenue", 1)
    g.add_node("agg_rev", "hash_agg", params=dict(fn="sum"),
               cost_params=dict(groups=5))
    g.connect("k_nation", "agg_rev", 0)
    g.connect("revenue", "agg_rev", 1)
    g.mark_output("agg_rev")
    return g


def build(catalog: Catalog, *, region: str = "ASIA",
          date: str = "1994-01-01", device: str | None = None
          ) -> PrimitiveGraph:
    """Build the Q5 primitive graph (needs *catalog* for the region code)."""
    start = date_to_int(date)
    end = date_to_int(_add_months(date, 12))
    region_names = catalog.column("region.r_name")
    assert isinstance(region_names, DictionaryColumn)
    return template().bind({
        "f_region": dict(cmp="eq", value=region_names.code_for(region)),
        "f_odate": dict(lo=start, hi=end - 1),
    }, device)


def finalize(result: QueryResult, catalog: Catalog) -> list[Q5Row]:
    """Decode nation keys to names, order by revenue descending."""
    agg = result.output("agg_rev")
    assert isinstance(agg, GroupTable)
    nation = catalog.table("nation")
    names = catalog.column("nation.n_name")
    assert isinstance(names, DictionaryColumn)
    name_of = {
        int(key): names.dictionary[int(code)]
        for key, code in zip(nation.column("n_nationkey").values,
                             names.values)
    }
    rows = [
        Q5Row(nation=name_of[int(key)], revenue=int(value))
        for key, value in zip(agg.keys, agg.aggregates["sum"])
    ]
    rows.sort(key=lambda r: (-r.revenue, r.nation))
    return rows
