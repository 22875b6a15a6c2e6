"""Cost-based optimizer: ``model="auto"`` vs every fixed execution model.

The optimizer's promise is that nobody has to hand-tune the execution
model per query and device mix: the beam search prices placement x
model x fusion x chunk size with the same cost model the simulator
charges, so the plan it picks should match — or beat, via a better
chunk size — the best fixed configuration, and leave the worst one far
behind.

Workload: warm Q3/Q6/Q18 at paper scale (SF 0.05 x 2048 data scale,
2^25 chunk) on a mixed pair of GPUs — an RTX 2080 Ti driven through
CUDA and an A100 driven through OpenCL.  "Warm" means one auto run
first so the cost-overlay calibration has folded in the observed
runtime before the measured run, exactly how a resident engine would
behave.

Assertions per query:

* auto **beats the worst** fixed model by >= 20%;
* every successful configuration produces identical answers;
* auto is **no slower than the best** fixed model at the paper chunk —
  its own check per query (:func:`test_auto_no_slower_than_best_fixed`),
  because it is not met on Q6 and the other two claims must not hide
  behind it.

The machine-readable summary lands in ``BENCH_optimizer.json`` at the
repo root.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.bench import Report, fmt_seconds
from repro.core.executor import AdamantExecutor
from repro.core.models import MODELS
from repro.devices import CudaDevice, OpenCLDevice
from repro.hardware import GPU_A100, GPU_RTX_2080_TI
from repro.planner.optimizer import PlanOptimizer
from repro.tpch.queries import q3, q6, q18

from benchmarks.conftest import DATA_SCALE, PAPER_CHUNK, PHYSICAL_SF

BENCH_JSON = (pathlib.Path(__file__).resolve().parents[1]
              / "BENCH_optimizer.json")

QUERIES = {
    "Q3": lambda catalog: q3.build(catalog),
    "Q6": lambda catalog: q6.build(),
    "Q18": lambda catalog: q18.build(),
}


def make_executor() -> AdamantExecutor:
    executor = AdamantExecutor()
    executor.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI, default=True)
    executor.plug_device("gpu1", OpenCLDevice, GPU_A100)
    return executor


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return bool(np.array_equal(a, b))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return sorted(a) == sorted(b) and all(
            _same(v, b[k]) for k, v in a.items())
    if dataclasses.is_dataclass(a):
        # A hash table's ``positions`` records which build-row slot was
        # retained per key — it shifts with chunk boundaries even though
        # keys/offsets/payload (the semantic content) are identical, and
        # auto may pick a different chunk size than the fixed runs.
        names = {f.name for f in dataclasses.fields(a)}
        skip = {"positions"} if {"keys", "positions"} <= names else set()
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a) if f.name not in skip)
    return bool(a == b)


def identical_outputs(result_a, result_b) -> bool:
    if sorted(result_a.outputs) != sorted(result_b.outputs):
        return False
    return all(_same(result_a.output(nid), result_b.output(nid))
               for nid in result_a.outputs)


def run_comparison(catalog) -> dict:
    queries = {}
    for qname, build in QUERIES.items():
        fixed = {}
        results = {}
        for model in sorted(MODELS):
            executor = make_executor()
            try:
                result = executor.run(
                    build(catalog), catalog, model=model,
                    chunk_size=PAPER_CHUNK, data_scale=DATA_SCALE)
            except Exception as exc:  # noqa: BLE001 - e.g. oaat OOMs
                fixed[model] = {"error": type(exc).__name__}
                continue
            fixed[model] = {"makespan_s": result.stats.makespan}
            results[model] = result

        # Warm auto: one run folds the overlay calibration, the second
        # is measured (and its choice re-derived for the report).
        executor = make_executor()
        executor.run(build(catalog), catalog, model="auto",
                     chunk_size=PAPER_CHUNK, data_scale=DATA_SCALE)
        overlay = executor.overlay.factors(executor.devices)
        chosen = PlanOptimizer(
            catalog, executor.devices, default_device="gpu0",
            data_scale=DATA_SCALE, overlay=overlay,
        ).search(build(catalog), chunk_size=PAPER_CHUNK).chosen
        auto_result = executor.run(build(catalog), catalog, model="auto",
                                   chunk_size=PAPER_CHUNK,
                                   data_scale=DATA_SCALE)

        ok = {m: e["makespan_s"] for m, e in fixed.items()
              if "makespan_s" in e}
        best = min(ok, key=ok.get)
        worst = max(ok, key=ok.get)
        queries[qname] = {
            "fixed": fixed,
            "auto": {
                "makespan_s": auto_result.stats.makespan,
                "chosen": chosen.describe(),
                "estimated_s": chosen.cost.total,
            },
            "best_fixed": best,
            "worst_fixed": worst,
            "speedup_vs_worst": ok[worst] / auto_result.stats.makespan,
            "answers_equal": all(
                identical_outputs(auto_result, result)
                for result in results.values()),
        }
    return {
        "workload": {
            "queries": sorted(QUERIES),
            "sf": PHYSICAL_SF,
            "data_scale": DATA_SCALE,
            "chunk_size": PAPER_CHUNK,
            "devices": ["gpu0 (RTX 2080 Ti, CUDA)",
                        "gpu1 (A100, OpenCL)"],
            "warm": "one auto run folds the overlay before measuring",
        },
        "queries": queries,
    }


def test_optimizer_speedup(benchmark, catalog):
    summary = benchmark.pedantic(run_comparison, args=(catalog,),
                                 rounds=1, iterations=1)
    BENCH_JSON.write_text(json.dumps(summary, indent=2) + "\n")

    report = Report(
        "optimizer_speedup",
        f"Cost-based optimizer: auto vs fixed models, warm Q3/Q6/Q18 at "
        f"SF {PHYSICAL_SF}x{DATA_SCALE}, RTX 2080 Ti (CUDA) + A100 "
        f"(OpenCL)")
    rows = []
    for qname, entry in summary["queries"].items():
        ok = {m: e["makespan_s"] for m, e in entry["fixed"].items()
              if "makespan_s" in e}
        rows.append([
            qname,
            fmt_seconds(entry["auto"]["makespan_s"]),
            f"{entry['best_fixed']} ({fmt_seconds(ok[entry['best_fixed']])})",
            f"{entry['worst_fixed']} "
            f"({fmt_seconds(ok[entry['worst_fixed']])})",
            f"{entry['speedup_vs_worst']:.2f}x",
            entry["auto"]["chosen"],
        ])
    report.table(
        ["query", "auto", "best fixed", "worst fixed", "vs worst",
         "auto chose"], rows)
    report.emit()

    for qname, entry in summary["queries"].items():
        assert entry["answers_equal"], qname
        auto_s = entry["auto"]["makespan_s"]
        worst_s = entry["fixed"][entry["worst_fixed"]]["makespan_s"]
        # Auto must beat the worst fixed choice by at least 20%.
        assert auto_s <= worst_s * 0.8, (
            f"{qname}: auto {auto_s:.4f}s within 20% of worst fixed "
            f"{entry['worst_fixed']} {worst_s:.4f}s")


@pytest.mark.parametrize("qname", [
    "Q3",
    pytest.param("Q6", marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: the optimizer picks split_chunked with sum_rev "
        "fused, whose estimate equals its run (0.4231 s), over the "
        "unfused plan, which runs 2.7 % faster (0.4118 s) - a pricing "
        "error of the hand-written estimator. Remove this mark the day "
        "the dry-run pricer fixes the pick."))),
    "Q18",
])
def test_auto_no_slower_than_best_fixed(benchmark, qname):
    """Auto must be no slower than the best fixed choice — checked on
    the published file, which :func:`test_optimizer_speedup` has just
    regenerated.  (Reading it goes through the ``benchmark`` fixture so
    that ``--benchmark-only``, which CI passes, does not skip the
    check.)"""
    entry = benchmark.pedantic(
        lambda: json.loads(BENCH_JSON.read_text())["queries"][qname],
        rounds=1, iterations=1)
    auto_s = entry["auto"]["makespan_s"]
    best_s = entry["fixed"][entry["best_fixed"]]["makespan_s"]
    assert auto_s <= best_s + 1e-9, (
        f"{qname}: auto {auto_s:.4f}s slower than best fixed "
        f"{entry['best_fixed']} {best_s:.4f}s")
