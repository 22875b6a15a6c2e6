#!/usr/bin/env python3
"""Cost-based device placement and heterogeneous chunk splitting.

Plugs a GPU and a CPU, lets the placement annotator choose a device per
pipeline of TPC-H Q3 from the calibrated cost model, runs the annotated
copy of the plan it returns, and then compares against the
``split_chunked`` model that fans each pipeline's chunks across *both*
devices.
"""

from repro import AdamantExecutor
from repro.devices import CudaDevice, OpenMPDevice
from repro.hardware import CPU_XEON_5220R, GPU_RTX_2080_TI
from repro.planner import annotate_devices
from repro.tpch import generate, reference
from repro.tpch.queries import q3

SCALE = 1024  # logical SF ~20


def main() -> None:
    catalog = generate(scale_factor=0.02, seed=42)
    executor = AdamantExecutor()
    executor.plug_device("gpu", CudaDevice, GPU_RTX_2080_TI)
    executor.plug_device("cpu", OpenMPDevice, CPU_XEON_5220R)

    graph, reports = annotate_devices(q3.build(catalog), catalog,
                                      executor.devices, data_scale=SCALE)
    print("placement decisions (per pipeline):")
    for report in reports:
        estimates = ", ".join(f"{name}={sec * 1e3:.1f}ms"
                              for name, sec in sorted(report.estimates.items()))
        print(f"  pipeline {report.pipeline_index}: -> {report.chosen} "
              f"({estimates})")

    expected = reference.q3(catalog)
    placed = executor.run(graph, catalog, model="four_phase_pipelined",
                          chunk_size=2**20 * 32, data_scale=SCALE)
    print(f"\nannotated plan: ok={q3.finalize(placed, catalog) == expected} "
          f"time={placed.stats.makespan:.3f} s")

    split = executor.run(q3.build(catalog), catalog, model="split_chunked",
                         chunk_size=2**20 * 32, data_scale=SCALE)
    print(f"split across both devices: "
          f"ok={q3.finalize(split, catalog) == expected} "
          f"time={split.stats.makespan:.3f} s")


if __name__ == "__main__":
    main()
