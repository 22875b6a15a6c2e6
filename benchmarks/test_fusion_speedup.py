"""Kernel fusion: warm Q6 fused vs unfused on one engine device.

Beyond the paper: the planner's fusion pass collapses Q6's MAP/FILTER
tree (three FILTER_BITMAPs and two BITMAP_ANDs) into one fused kernel
per chunk.  Cold runs are transfer-bound — the savings hide under the
interconnect — so the benchmark measures *warm* engine runs, where the
residency cache serves the scan columns from device memory and compute
dominates the makespan: exactly the regime in which per-node launches
and intermediate bitmaps are pure overhead.  Each mode gets its own
engine, warmed by one identical run first.  The machine-readable
summary lands in ``BENCH_fusion.json`` at the repo root.

Asserted shapes (the issue's acceptance bar, on the chunked model at
default paper scale):
* fused Q6 launches >= 40% fewer kernels than unfused;
* fused warm makespan is >= 15% lower than unfused;
* fused and unfused answers are identical.
"""

from __future__ import annotations

import json
import pathlib

from repro.bench import Report, fmt_seconds
from repro.devices import CudaDevice, OpenMPDevice
from repro.engine import Engine
from repro.hardware import CPU_I7_8700, GPU_A100
from repro.tpch.queries import q6
from benchmarks.conftest import DATA_SCALE, LOGICAL_SF, PAPER_CHUNK

BENCH_JSON = pathlib.Path(__file__).resolve().parents[1] / "BENCH_fusion.json"

DEVICES = (
    ("a100_cuda", CudaDevice, GPU_A100),
    ("i7_openmp", OpenMPDevice, CPU_I7_8700),
)


def warm_run(driver, spec, catalog, *, fuse: bool):
    """Warm the residency cache with one run, measure the second.

    Residency-warm, not result-warm: with the subplan cache on, the
    second run is served whole from the first one's results and launches
    no kernel at all.
    """
    engine = Engine(enable_subplan_cache=False)
    engine.plug_device("dev0", driver, spec)
    engine.execute(q6.build(), catalog, chunk_size=PAPER_CHUNK,
                   data_scale=DATA_SCALE, fuse=fuse)
    return engine.execute(q6.build(), catalog, chunk_size=PAPER_CHUNK,
                          data_scale=DATA_SCALE, fuse=fuse)


def run_comparison(catalog) -> dict:
    devices = {}
    for name, driver, spec in DEVICES:
        unfused = warm_run(driver, spec, catalog, fuse=False)
        fused = warm_run(driver, spec, catalog, fuse=True)
        devices[name] = {
            "unfused": {
                "makespan_s": unfused.stats.makespan,
                "compute_s": unfused.stats.compute_time,
                "kernels_launched": unfused.stats.kernels_launched,
                "fused_nodes": unfused.stats.fused_nodes,
            },
            "fused": {
                "makespan_s": fused.stats.makespan,
                "compute_s": fused.stats.compute_time,
                "kernels_launched": fused.stats.kernels_launched,
                "fused_nodes": fused.stats.fused_nodes,
            },
            "makespan_reduction": 1 - (fused.stats.makespan
                                       / unfused.stats.makespan),
            "launch_reduction": 1 - (fused.stats.kernels_launched
                                     / unfused.stats.kernels_launched),
            "answers_equal": (
                unfused.output("sum_rev").tolist()
                == fused.output("sum_rev").tolist()),
        }
    return {
        "workload": {
            "query": "Q6",
            "model": "chunked",
            "logical_sf": LOGICAL_SF,
            "chunk_size": PAPER_CHUNK,
            "data_scale": DATA_SCALE,
            "mode": "warm (residency cache populated by one prior run)",
        },
        "devices": devices,
    }


def test_fusion_speedup(benchmark, catalog):
    summary = benchmark.pedantic(run_comparison, args=(catalog,),
                                 rounds=1, iterations=1)
    BENCH_JSON.write_text(json.dumps(summary, indent=2) + "\n")

    report = Report(
        "fusion_speedup",
        f"Kernel fusion: warm Q6 (chunked) at logical SF ~{LOGICAL_SF:.0f}, "
        f"fused vs unfused")
    rows = []
    for name, entry in summary["devices"].items():
        rows.append([
            name,
            fmt_seconds(entry["unfused"]["makespan_s"]),
            fmt_seconds(entry["fused"]["makespan_s"]),
            f"-{entry['makespan_reduction'] * 100:.1f}%",
            f"{entry['unfused']['kernels_launched']}"
            f" -> {entry['fused']['kernels_launched']}",
            f"-{entry['launch_reduction'] * 100:.1f}%",
        ])
    report.table(
        ["device", "unfused", "fused", "makespan", "launches", "launch red."],
        rows)
    report.emit()

    for name, entry in summary["devices"].items():
        assert entry["answers_equal"], name
        assert entry["fused"]["fused_nodes"] == 1, name
        assert entry["launch_reduction"] >= 0.40, name
        assert entry["makespan_reduction"] >= 0.15, name
