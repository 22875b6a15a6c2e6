"""Figure 11: execution-model comparison and the HeavyDB baseline.

The paper's headline experiment: Q3/Q4/Q6 at larger-than-memory scale
factors, chunk size 2^25 values, across execution models (naive chunked,
pipelined, 4-phase chunked, 4-phase pipelined) and SDKs (OpenCL, CUDA),
plus HeavyDB with and without transfer.

Expected shapes (asserted):
* 4-phase beats naive chunked by roughly 1.3-3x (best Q6, worst Q3);
* Q4 + OpenCL: 4-phase is ~2x SLOWER than chunked (pinned-memory
  anomaly); CUDA overcomes it;
* 4-phase pipelined adds little over 4-phase chunked (transfer dominates);
* HeavyDB hot is comparable to naive chunked; cold start is up to ~4x
  slower than ADAMANT's best model; Q3 OOMs on HeavyDB at SF >= 100.
"""

from __future__ import annotations

from repro.baselines import HeavyDBSimulator
from repro.bench import Report, fmt_seconds
from repro.devices import CudaDevice, OpenCLDevice
from repro.hardware import GPU_A100, GPU_RTX_2080_TI
from repro.tpch.queries import q3, q4, q6
from benchmarks.conftest import DATA_SCALE, LOGICAL_SF, PAPER_CHUNK
from tests.conftest import make_executor

MODELS = ["chunked", "pipelined", "four_phase_chunked",
          "four_phase_pipelined"]
SDKS = [("OpenCL", OpenCLDevice), ("CUDA", CudaDevice)]


def run_matrix(catalog, spec=GPU_RTX_2080_TI):
    times: dict[tuple[str, str, str], float] = {}
    for sdk_name, driver in SDKS:
        executor = make_executor(driver, spec)
        for qname, build in (("Q3", lambda: q3.build(catalog)),
                             ("Q4", q4.build), ("Q6", q6.build)):
            for model in MODELS:
                result = executor.run(build(), catalog, model=model,
                                      chunk_size=PAPER_CHUNK,
                                      data_scale=DATA_SCALE)
                times[(qname, sdk_name, model)] = result.stats.makespan
    return times


def build_report(catalog) -> Report:
    report = Report(
        "fig11_models",
        f"Figure 11: execution models at logical SF ~{LOGICAL_SF:.0f} "
        f"(chunk 2^25)")
    times = run_matrix(catalog)
    rows = []
    for qname in ("Q3", "Q4", "Q6"):
        for sdk_name, _ in SDKS:
            chunked = times[(qname, sdk_name, "chunked")]
            row = [qname, sdk_name]
            for model in MODELS:
                t = times[(qname, sdk_name, model)]
                row.append(f"{fmt_seconds(t)} ({chunked / t:.2f}x)")
            rows.append(row)
    report.table(["query", "SDK", *MODELS], rows)

    report.line()
    report.line("HeavyDB baseline (A100, SF 100/120/140):")
    sim = HeavyDBSimulator(GPU_A100)
    rows = []
    for query in (3, 4, 6):
        for sf in (100, 120, 140):
            hot = sim.run(query, sf, cold=False)
            cold = sim.run(query, sf, cold=True)
            rows.append([f"Q{query}", f"SF{sf}",
                         fmt_seconds(hot.seconds),
                         fmt_seconds(cold.seconds)])
    report.table(["query", "scale", "HeavyDB w/o transfer",
                  "HeavyDB w transfer"], rows)
    return report


def test_fig11_models(benchmark, catalog):
    report = benchmark.pedantic(build_report, args=(catalog,),
                                rounds=1, iterations=1)
    report.emit()

    times = run_matrix(catalog)

    # 4-phase vs chunked: 1.3-3x for CUDA everywhere and OpenCL on Q3/Q6.
    for qname in ("Q3", "Q4", "Q6"):
        ratio = (times[(qname, "CUDA", "chunked")]
                 / times[(qname, "CUDA", "four_phase_pipelined")])
        assert 1.3 < ratio < 3.5, (qname, ratio)
    for qname in ("Q3", "Q6"):
        ratio = (times[(qname, "OpenCL", "chunked")]
                 / times[(qname, "OpenCL", "four_phase_pipelined")])
        assert 1.3 < ratio < 3.5, (qname, ratio)

    # The Q4 + OpenCL pinned anomaly: 4-phase slower than chunked.
    anomaly = (times[("Q4", "OpenCL", "four_phase_chunked")]
               / times[("Q4", "OpenCL", "chunked")])
    assert 1.2 < anomaly < 3.0, anomaly

    # Pipelining adds little on top of 4-phase chunked (transfer bound).
    for qname in ("Q3", "Q4", "Q6"):
        gain = (times[(qname, "CUDA", "four_phase_chunked")]
                / times[(qname, "CUDA", "four_phase_pipelined")])
        assert 1.0 <= gain < 1.5, (qname, gain)

    # OpenCL trails CUDA on the hardware-conscious model.
    for qname in ("Q3", "Q4", "Q6"):
        assert times[(qname, "CUDA", "four_phase_pipelined")] < \
            times[(qname, "OpenCL", "four_phase_pipelined")]


def test_fig11_heavydb_comparison(benchmark, catalog):
    """ADAMANT (A100) vs simulated HeavyDB at matched logical scale."""
    sim = HeavyDBSimulator(GPU_A100)

    def run():
        executor = make_executor(CudaDevice, GPU_A100)
        out = {}
        for qname, build in (("Q4", q4.build), ("Q6", q6.build)):
            for model in ("chunked", "four_phase_pipelined"):
                result = executor.run(build(), catalog, model=model,
                                      chunk_size=PAPER_CHUNK,
                                      data_scale=DATA_SCALE)
                out[(qname, model)] = result.stats.makespan
        return out

    ours = benchmark.pedantic(run, rounds=1, iterations=1)

    report = Report("fig11_heavydb", "Figure 11: ADAMANT vs HeavyDB (A100)")
    rows = []
    for qname, query in (("Q4", 4), ("Q6", 6)):
        hot = sim.run(query, LOGICAL_SF, cold=False).seconds
        cold = sim.run(query, LOGICAL_SF, cold=True).seconds
        best = ours[(qname, "four_phase_pipelined")]
        rows.append([qname,
                     fmt_seconds(ours[(qname, "chunked")]),
                     fmt_seconds(best),
                     fmt_seconds(hot), fmt_seconds(cold),
                     f"{hot / best:.2f}x", f"{cold / best:.2f}x"])
    report.table(["query", "ADAMANT chunked", "ADAMANT 4-phase",
                  "HeavyDB hot", "HeavyDB cold", "vs hot", "vs cold"], rows)
    report.line()
    report.line("Q3 on HeavyDB at SF>=100: "
                + ("OOM (dense-range hash table exceeds device memory)"
                   if not sim.can_run(3, 100) else "unexpectedly fits!"))
    report.emit()

    for qname, query in (("Q4", 4), ("Q6", 6)):
        best = ours[(qname, "four_phase_pipelined")]
        hot = sim.run(query, LOGICAL_SF, cold=False).seconds
        cold = sim.run(query, LOGICAL_SF, cold=True).seconds
        assert 1.2 < hot / best < 3.5, (qname, hot / best)  # "up to 2x"
        assert 2.5 < cold / best < 8.0, (qname, cold / best)  # "up to 4x"
    assert not sim.can_run(3, 100)
