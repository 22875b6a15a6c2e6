"""What-if analysis: execution models under future interconnects.

The paper's conclusion expects its trade-offs to shift with newer
hardware ("subject to change with newer GPUs").  The simulated substrate
makes that testable today: sweep the host-device interconnect from PCIe
3.0 to a CXL-class 128 GB/s while keeping the RTX 2080 Ti's compute
profile.  While the query stays transfer-bound the 4-phase gain sits at
the pinned/pageable bandwidth ratio (~2.2x) regardless of generation;
only once the interconnect is fast enough for compute to floor the
makespan (CXL-class here) does the advantage collapse toward parity —
i.e. the paper's chunk-staging design keeps paying off for several
hardware generations.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench import Report, fmt_seconds
from repro.devices import CudaDevice
from repro.hardware import GPU_RTX_2080_TI
from repro.tpch.queries import q6
from benchmarks.conftest import DATA_SCALE, PAPER_CHUNK
from tests.conftest import make_executor

INTERCONNECTS = [
    ("PCIe 3.0 x16", 12e9),
    ("PCIe 4.0 x16", 24e9),
    ("PCIe 5.0 x16", 48e9),
    ("CXL-class", 128e9),
]


def sweep(catalog):
    out = {}
    for label, bandwidth in INTERCONNECTS:
        spec = replace(GPU_RTX_2080_TI,
                       name=f"2080 Ti @ {label}",
                       interconnect_bandwidth=bandwidth)
        executor = make_executor(CudaDevice, spec)
        for model in ("chunked", "four_phase_pipelined"):
            result = executor.run(q6.build(), catalog, model=model,
                                  chunk_size=PAPER_CHUNK,
                                  data_scale=DATA_SCALE)
            out[(label, model)] = result.stats.makespan
    return out


def test_whatif_interconnect(benchmark, catalog):
    times = benchmark.pedantic(sweep, args=(catalog,), rounds=1,
                               iterations=1)
    report = Report("whatif_interconnect",
                    "What-if: Q6 models vs interconnect generation "
                    "(2080 Ti compute profile)")
    rows = []
    for label, _ in INTERCONNECTS:
        chunked = times[(label, "chunked")]
        staged = times[(label, "four_phase_pipelined")]
        rows.append([label, fmt_seconds(chunked), fmt_seconds(staged),
                     f"{chunked / staged:.2f}x"])
    report.table(["interconnect", "chunked", "4-phase pipelined",
                  "4-phase gain"], rows)
    report.emit()

    gains = [times[(label, "chunked")]
             / times[(label, "four_phase_pipelined")]
             for label, _ in INTERCONNECTS]
    # Transfer-bound regime: the gain tracks the pinned/pageable ratio.
    for gain in gains[:-1]:
        assert 1.8 < gain < 2.6, gains
    # Compute-floored regime: the advantage collapses toward parity.
    assert gains[-1] < 1.6
    assert gains[-1] < min(gains[:-1])
    # Absolute times keep improving as transfers accelerate.
    chunked_times = [times[(label, "chunked")]
                     for label, _ in INTERCONNECTS]
    assert chunked_times == sorted(chunked_times, reverse=True)
