"""Engine throughput: a mixed Q3/Q4/Q6 stream on one shared GPU.

Beyond the paper: the multi-query engine interleaves concurrent queries'
pipelines on the shared device and keeps base-table columns resident
across queries.  The benchmark submits the mixed batch twice — cold
(empty device) and warm (columns resident from the first batch) — and
reports queries per virtual second for each, against the single-shot
sequential baseline.  The machine-readable summary lands in
``BENCH_engine.json`` at the repo root.

Asserted shapes:
* the concurrent batch finishes within the sum of the sequential runs;
* the warm batch moves strictly fewer H2D bytes than the cold one;
* warm throughput is at least cold throughput.
"""

from __future__ import annotations

import json
import pathlib

from repro.bench import Report, fmt_bytes, fmt_seconds
from repro.devices import CudaDevice
from repro.engine import Engine, QueryRequest
from repro.hardware import GPU_A100
from repro.tpch.queries import q3, q4, q6
from benchmarks.conftest import DATA_SCALE, LOGICAL_SF, PAPER_CHUNK
from tests.conftest import make_executor

BENCH_JSON = pathlib.Path(__file__).resolve().parents[1] / "BENCH_engine.json"
QUERIES = ("Q3", "Q4", "Q6")


def mixed_batch(catalog) -> list[QueryRequest]:
    """Fresh graphs per submission (graphs carry runtime edge state)."""
    return [
        QueryRequest(graph=q3.build(catalog), catalog=catalog,
                     chunk_size=PAPER_CHUNK, data_scale=DATA_SCALE,
                     label="Q3"),
        QueryRequest(graph=q4.build(), catalog=catalog,
                     chunk_size=PAPER_CHUNK, data_scale=DATA_SCALE,
                     label="Q4"),
        QueryRequest(graph=q6.build(), catalog=catalog,
                     chunk_size=PAPER_CHUNK, data_scale=DATA_SCALE,
                     label="Q6"),
    ]


def run_stream(catalog) -> dict:
    # Sequential baseline: the single-shot executor, fresh world per query.
    executor = make_executor(CudaDevice, GPU_A100)
    sequential = [
        executor.run(request.graph, catalog, chunk_size=PAPER_CHUNK,
                     data_scale=DATA_SCALE)
        for request in mixed_batch(catalog)
    ]

    # Residency-warm, not result-warm: the subplan cache would serve the
    # second batch from the first one's results without touching a column.
    engine = Engine(enable_subplan_cache=False)
    engine.plug_device("dev0", CudaDevice, GPU_A100)
    rounds = {}
    for name in ("cold", "warm"):
        results = engine.run_concurrent(mixed_batch(catalog))
        combined = max(r.stats.makespan for r in results)
        rounds[name] = {
            "combined_makespan_s": combined,
            "queries_per_vsecond": len(results) / combined,
            "h2d_transfer_bytes": sum(r.stats.transfer_bytes
                                      for r in results),
            "residency_hits": sum(r.stats.residency_hits for r in results),
            "residency_hit_bytes": sum(r.stats.residency_hit_bytes
                                       for r in results),
            "per_query_makespan_s": {
                label: r.stats.makespan
                for label, r in zip(QUERIES, results)
            },
        }
    return {
        "workload": {
            "queries": list(QUERIES),
            "logical_sf": LOGICAL_SF,
            "chunk_size": PAPER_CHUNK,
            "data_scale": DATA_SCALE,
        },
        "sequential": {
            "total_makespan_s": sum(r.stats.makespan for r in sequential),
            "queries_per_vsecond": (len(sequential)
                                    / sum(r.stats.makespan
                                          for r in sequential)),
            "h2d_transfer_bytes": sum(r.stats.transfer_bytes
                                      for r in sequential),
        },
        "concurrent": rounds,
        "residency_cache": engine.residency_stats()["dev0"],
    }


def test_engine_throughput(benchmark, catalog):
    summary = benchmark.pedantic(run_stream, args=(catalog,),
                                 rounds=1, iterations=1)
    cold = summary["concurrent"]["cold"]
    warm = summary["concurrent"]["warm"]
    sequential = summary["sequential"]

    BENCH_JSON.write_text(json.dumps(summary, indent=2) + "\n")

    report = Report(
        "engine_throughput",
        f"Engine: mixed Q3/Q4/Q6 stream at logical SF ~{LOGICAL_SF:.0f} "
        f"(A100, shared device, cross-query residency)")
    report.table(
        ["mode", "makespan", "queries/vs", "H2D bytes", "cache hits"],
        [
            ["sequential", fmt_seconds(sequential["total_makespan_s"]),
             f"{sequential['queries_per_vsecond']:.1f}",
             fmt_bytes(sequential["h2d_transfer_bytes"]), "-"],
            ["concurrent cold", fmt_seconds(cold["combined_makespan_s"]),
             f"{cold['queries_per_vsecond']:.1f}",
             fmt_bytes(cold["h2d_transfer_bytes"]),
             str(cold["residency_hits"])],
            ["concurrent warm", fmt_seconds(warm["combined_makespan_s"]),
             f"{warm['queries_per_vsecond']:.1f}",
             fmt_bytes(warm["h2d_transfer_bytes"]),
             str(warm["residency_hits"])],
        ])
    report.emit()

    # Interleaving on the shared device beats running back to back.
    assert cold["combined_makespan_s"] <= sequential["total_makespan_s"]
    # The warm cache removes H2D traffic and never hurts throughput.
    assert warm["h2d_transfer_bytes"] < cold["h2d_transfer_bytes"]
    assert warm["residency_hits"] > 0
    assert warm["queries_per_vsecond"] >= cold["queries_per_vsecond"]
