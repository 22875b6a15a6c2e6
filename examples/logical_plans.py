#!/usr/bin/env python3
"""Driving ADAMANT from a logical plan (the optimizer boundary).

ADAMANT consumes plans "generated from any existing optimizer".  This
example writes an ad-hoc analytical query as a logical plan — revenue per
order priority for discounted 1994 lineitems, a query that is not among
the four pre-built ones — translates it to a primitive graph, and runs it
across all execution models and two drivers.
"""

import numpy as np

from repro import AdamantExecutor
from repro.devices import CudaDevice, OpenCLDevice
from repro.hardware import GPU_RTX_2080_TI
from repro.planner import (
    AggregateSpec,
    Derive,
    Derived,
    GroupAggregate,
    HashJoin,
    Predicate,
    Scan,
    Select,
    translate,
)
from repro.storage import date_to_int
from repro.tpch import generate


def oracle(catalog):
    """Straight-numpy answer used to check the executor."""
    li = catalog.table("lineitem")
    orders = catalog.table("orders")
    start, end = date_to_int("1994-01-01"), date_to_int("1995-01-01")
    ship = li.column("l_shipdate").values
    mask = (ship >= start) & (ship < end) & \
        (li.column("l_discount").values >= 5)
    revenue = (li.column("l_extendedprice").values[mask].astype(np.int64)
               * li.column("l_discount").values[mask])
    keys = li.column("l_orderkey").values[mask]
    prio_of = dict(zip(orders.column("o_orderkey").values.tolist(),
                       orders.column("o_orderpriority").values.tolist()))
    out: dict[int, int] = {}
    for key, value in zip(keys.tolist(), revenue.tolist()):
        out[prio_of[key]] = out.get(prio_of[key], 0) + value
    return out


def main() -> None:
    catalog = generate(scale_factor=0.01, seed=5)
    start, end = date_to_int("1994-01-01"), date_to_int("1995-01-01")

    lineitems = Derive(
        Select(Scan("lineitem"), [
            Predicate("l_shipdate", lo=start, hi=end - 1),
            Predicate("l_discount", cmp="ge", value=5),
        ]),
        [Derived("revenue", "mul", "l_extendedprice", "l_discount")],
    )
    plan = GroupAggregate(
        HashJoin(probe=lineitems, build=Scan("orders"),
                 probe_key="l_orderkey", build_key="o_orderkey",
                 payload=["o_orderpriority"]),
        keys=["o_orderpriority"],
        aggregates=[AggregateSpec("rev", "sum", "revenue")],
    )
    graph = translate(plan, name="revenue_per_priority")
    print(f"translated into {len(graph.nodes)} primitives, "
          f"{len(graph.edges)} edges")

    expected_by_prio = oracle(catalog)
    for driver, label in ((CudaDevice, "CUDA"), (OpenCLDevice, "OpenCL")):
        executor = AdamantExecutor()
        executor.plug_device("gpu", driver, GPU_RTX_2080_TI)
        for model in ("oaat", "chunked", "four_phase_pipelined"):
            result = executor.run(graph, catalog, model=model,
                                  chunk_size=2**13)
            table = result.output("rev")
            got = dict(zip(table.keys.tolist(),
                           table.aggregates["sum"].tolist()))
            ok = got == expected_by_prio
            print(f"{label:7s} {model:22s} oracle match: {ok} "
                  f"({result.stats.makespan * 1e3:8.2f} ms simulated)")


if __name__ == "__main__":
    main()
