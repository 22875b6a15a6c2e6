"""Figure 10: abstraction-layer overhead per query and driver.

The paper measures "the difference between the overall execution time and
the total sum of processing time of the individual primitives".  We do the
same on the virtual clock: makespan minus the compute-category busy time,
broken down into the overhead categories (launch/arg-mapping, allocation,
transfer handling).  Expected shape: OpenCL has the largest overhead
(explicit data mapping), and overhead stays small relative to execution.
"""

from __future__ import annotations

from repro.bench import Report, fmt_seconds
from repro.devices import CudaDevice, OpenCLDevice, OpenMPDevice
from repro.hardware import CPU_I7_8700, GPU_RTX_2080_TI
from repro.tpch.queries import q3, q4, q6
from benchmarks.conftest import DATA_SCALE, PAPER_CHUNK
from tests.conftest import make_executor

DRIVERS = [
    ("OpenMP (CPU)", OpenMPDevice, CPU_I7_8700),
    ("OpenCL (CPU)", OpenCLDevice, CPU_I7_8700),
    ("OpenCL (GPU)", OpenCLDevice, GPU_RTX_2080_TI),
    ("CUDA (GPU)", CudaDevice, GPU_RTX_2080_TI),
]


def measure(catalog, driver, spec, build):
    executor = make_executor(driver, spec)
    result = executor.run(build(), catalog, model="chunked",
                          chunk_size=PAPER_CHUNK, data_scale=DATA_SCALE)
    stats = result.stats
    categories = stats.time_by_category
    return {
        "total": stats.makespan,
        "compute": stats.compute_time,
        "launch": categories.get("launch", 0.0),
        "alloc": categories.get("alloc", 0.0),
        "overhead": stats.abstraction_overhead,
    }


def build_report(catalog) -> Report:
    report = Report("fig10_overhead",
                    "Figure 10: abstraction overhead (total - sum of "
                    "primitive times)")
    for qname, build in (("Q3", lambda: q3.build(catalog)),
                         ("Q4", q4.build), ("Q6", q6.build)):
        rows = []
        for label, driver, spec in DRIVERS:
            m = measure(catalog, driver, spec, build)
            rows.append([
                label, fmt_seconds(m["total"]), fmt_seconds(m["compute"]),
                fmt_seconds(m["launch"]), fmt_seconds(m["alloc"]),
                f"{100 * m['launch'] / m['total']:.2f}%",
            ])
        report.line(f"--- {qname} ---")
        report.table(["driver", "total", "kernel time", "launch+mapping",
                      "alloc", "mapping share"], rows)
        report.line()
    return report


def test_fig10_overhead(benchmark, catalog):
    report = benchmark.pedantic(build_report, args=(catalog,),
                                rounds=1, iterations=1)
    report.emit()

    for build in (q6.build, q4.build):
        opencl = measure(catalog, OpenCLDevice, GPU_RTX_2080_TI, build)
        cuda = measure(catalog, CudaDevice, GPU_RTX_2080_TI, build)
        openmp = measure(catalog, OpenMPDevice, CPU_I7_8700, build)
        # OpenCL pays the explicit kernel-argument mapping.
        assert opencl["launch"] > cuda["launch"]
        assert opencl["launch"] > openmp["launch"]
        # "the abstraction layers ... are minimal compared to direct
        # execution": handling overhead is a small share of the total.
        assert opencl["launch"] / opencl["total"] < 0.05
        assert cuda["launch"] / cuda["total"] < 0.05
