"""Ablations of the 4-phase design choices (DESIGN.md section 5).

Three studies beyond the paper's figures, isolating the ingredients of
its best configuration:

1. **Chunk size sweep** — the paper fixes 2^25 values "found to be
   optimal for the underlying GPU"; the sweep shows why: small chunks pay
   per-chunk overheads, huge chunks lose overlap granularity (and
   eventually staging memory).
2. **Staging-buffer count** — Figure 8's dual memory spaces: one buffer
   forces copy-compute serialization, two suffice, more add nothing.
3. **Pinned x overlap factorial** — the 2x2 of {pageable, pinned} x
   {serialized, overlapped}: pinned staging is the dominant ingredient,
   overlap contributes a minor extra (the paper's own conclusion).
"""

from __future__ import annotations

from repro.bench import Report, fmt_seconds
from repro.core.models import MODELS, FourPhasePipelinedModel
from repro.devices import CudaDevice
from repro.hardware import GPU_RTX_2080_TI
from repro.tpch.queries import q6
from benchmarks.conftest import DATA_SCALE
from tests.conftest import make_executor

CHUNK_SWEEP = [2**17, 2**19, 2**21, 2**23, 2**25, 2**27]


def run_q6(catalog, *, model="four_phase_pipelined", chunk=2**25,
           scale=DATA_SCALE):
    executor = make_executor(CudaDevice, GPU_RTX_2080_TI)
    result = executor.run(q6.build(), catalog, model=model,
                          chunk_size=chunk, data_scale=scale)
    return result.stats.makespan


def test_ablation_chunk_size(benchmark, catalog):
    def sweep():
        return {chunk: run_q6(catalog, chunk=chunk) for chunk in CHUNK_SWEEP}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = Report("ablation_chunk_size",
                    "Ablation: chunk size (Q6, CUDA, 4-phase pipelined)")
    report.table(
        ["chunk (values)", "time", "vs 2^25"],
        [[f"2^{chunk.bit_length() - 1}", fmt_seconds(t),
          f"{times[2**25] / t:.2f}x"] for chunk, t in times.items()])
    report.emit()

    # The paper's 2^25 sits within 10% of the sweep's best.
    best = min(times.values())
    assert times[2**25] <= best * 1.10
    # Small chunks pay per-chunk overheads.
    assert times[2**17] > times[2**25] * 1.15


def test_ablation_staging_buffers(benchmark, catalog):
    class Buffers(FourPhasePipelinedModel):
        pass

    def run_with(buffers):
        name = f"four_phase_b{buffers}"
        cls = type(name, (FourPhasePipelinedModel,),
                   {"name": name, "staging_buffers": buffers})
        MODELS[name] = cls
        try:
            return run_q6(catalog, model=name)
        finally:
            del MODELS[name]

    def sweep():
        return {buffers: run_with(buffers) for buffers in (1, 2, 4)}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = Report("ablation_staging_buffers",
                    "Ablation: staging buffers per scan column "
                    "(Q6, CUDA, 4-phase pipelined)")
    report.table(["buffers", "time"],
                 [[str(b), fmt_seconds(t)] for b, t in times.items()])
    report.emit()

    # One buffer serializes copy-compute; two restore the overlap; more
    # than two add (almost) nothing — Figure 8's design point.
    assert times[1] > times[2]
    assert times[4] >= times[2] * 0.98


def test_ablation_hash_vs_sort_aggregation(benchmark, catalog):
    """Table I offers two grouped-aggregation strategies: the shared hash
    table (HASH_AGG) and the sort-based path (SORT_POSITIONS +
    GROUP_PREFIX + SORT_AGG).  Compared here on Q1 (6 groups, ~SF 25)
    under operator-at-a-time: with so few groups the hash table sees
    little contention and wins; sorting pays the full n-log-n pass.
    (data_scale 128 ~ SF 6: OAAT must hold Q1's wide intermediates.)
    """
    from repro.tpch.queries import q1, q1_sorted

    def sweep():
        executor = make_executor(CudaDevice, GPU_RTX_2080_TI)
        out = {}
        for label, build in (("hash (q1)", q1.build),
                             ("sort (q1_sorted)", q1_sorted.build)):
            result = executor.run(build(), catalog, model="oaat",
                                  data_scale=128)
            out[label] = result.stats.makespan
        return out

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = Report("ablation_hash_vs_sort",
                    "Ablation: hash vs sort aggregation (Q1, OAAT, CUDA)")
    report.table(["strategy", "time"],
                 [[label, fmt_seconds(t)] for label, t in times.items()])
    report.emit()

    assert times["hash (q1)"] < times["sort (q1_sorted)"]


def test_ablation_zero_copy(benchmark, catalog):
    """Unified memory (Listing 2) vs explicit staging.

    Zero-copy avoids all DMA but re-reads multiply-consumed columns over
    the bus; on Q6 (l_discount read twice) it lands between pageable
    chunked and 4-phase staging.
    """
    def sweep():
        return {model: run_q6(catalog, model=model)
                for model in ("chunked", "zero_copy",
                              "four_phase_pipelined")}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = Report("ablation_zero_copy",
                    "Ablation: unified-memory zero-copy vs staging "
                    "(Q6, CUDA)")
    report.table(["model", "time", "vs chunked"],
                 [[m, fmt_seconds(t), f"{times['chunked'] / t:.2f}x"]
                  for m, t in times.items()])
    report.emit()

    assert times["four_phase_pipelined"] < times["zero_copy"]
    assert times["zero_copy"] < times["chunked"]


def test_ablation_heterogeneous_split(benchmark, catalog):
    """Extension: fan chunks out over CPU+GPU (the operator-placement
    axis the paper's conclusion names).  With Setup 2's strong Xeon next
    to the GPU, the aggregate ingest rate beats any single device."""
    from repro.core.executor import AdamantExecutor
    from repro.devices import OpenMPDevice
    from repro.hardware import CPU_XEON_5220R

    def sweep():
        hetero = AdamantExecutor()
        hetero.plug_device("gpu", CudaDevice, GPU_RTX_2080_TI)
        hetero.plug_device("cpu", OpenMPDevice, CPU_XEON_5220R)
        out = {}
        out["gpu only (4-phase)"] = run_q6(catalog,
                                           model="four_phase_pipelined")
        out["cpu only (4-phase)"] = _run_on(hetero, catalog, "cpu")
        result = hetero.run(q6.build(), catalog, model="split_chunked",
                            chunk_size=2**25, data_scale=DATA_SCALE)
        out["cpu+gpu split"] = result.stats.makespan
        return out

    def _run_on(executor, catalog, device):
        result = executor.run(q6.build(device=device), catalog,
                              model="four_phase_pipelined",
                              chunk_size=2**25, data_scale=DATA_SCALE,
                              default_device=device)
        return result.stats.makespan

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = Report("ablation_split",
                    "Ablation: heterogeneous chunk splitting (Q6)")
    report.table(["configuration", "time"],
                 [[k, fmt_seconds(t)] for k, t in times.items()])
    report.emit()

    assert times["cpu+gpu split"] < times["gpu only (4-phase)"]
    assert times["cpu+gpu split"] < times["cpu only (4-phase)"]


def test_ablation_pinned_overlap_factorial(benchmark, catalog):
    cells = {
        ("pageable", "serialized"): "chunked",
        ("pageable", "overlapped"): "pipelined",
        ("pinned", "serialized"): "four_phase_chunked",
        ("pinned", "overlapped"): "four_phase_pipelined",
    }

    def sweep():
        return {cell: run_q6(catalog, model=model)
                for cell, model in cells.items()}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = Report("ablation_pinned_overlap",
                    "Ablation: pinned staging x copy-compute overlap "
                    "(Q6, CUDA)")
    report.table(
        ["staging", "copy/compute", "model", "time"],
        [[cell[0], cell[1], cells[cell], fmt_seconds(t)]
         for cell, t in times.items()])
    pinned_gain = (times[("pageable", "serialized")]
                   / times[("pinned", "serialized")])
    overlap_gain = (times[("pinned", "serialized")]
                    / times[("pinned", "overlapped")])
    report.line()
    report.line(f"pinned ingredient alone: {pinned_gain:.2f}x; "
                f"overlap on top: {overlap_gain:.2f}x")
    report.emit()

    # Pinned staging is the dominant ingredient; overlap is minor.
    assert pinned_gain > 1.5
    assert 1.0 <= overlap_gain < 1.3
    assert pinned_gain > overlap_gain
