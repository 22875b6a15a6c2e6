"""Tests for the heterogeneous split (multi-device) execution model."""

import math

import pytest

from repro.core.executor import AdamantExecutor
from repro.core.models import SplitChunkedModel
from repro.core.pipelines import split_pipelines
from repro.devices import (
    CudaDevice,
    OpenCLDevice,
    OpenMPDevice,
    RTCoreDevice,
    register_rtcore_kernels,
)
from repro.hardware import (
    CPU_I7_8700,
    CPU_XEON_5220R,
    GPU_A100,
    GPU_RTX_2080_TI,
    GPU_RTX_3090,
)
from repro.planner.cost import PricingTable
from repro.tpch import reference
from repro.tpch.queries import q1, q1_sorted, q3, q4, q6, q12, q14
from repro.errors import ExecutionError
from tests.conftest import make_executor


def hetero_executor(cpu_spec=CPU_XEON_5220R):
    return make_executor(CudaDevice, GPU_RTX_2080_TI, name="gpu",
                         extra_devices=[("cpu", OpenMPDevice, cpu_spec)])


class TestCorrectness:
    @pytest.mark.parametrize("qname", ["q1", "q3", "q4", "q6", "q12", "q14"])
    def test_matches_oracle(self, small_catalog, qname):
        module = {"q1": q1, "q3": q3, "q4": q4, "q6": q6,
                  "q12": q12, "q14": q14}[qname]
        graph = (module.build(small_catalog)
                 if qname in ("q3", "q12", "q14") else module.build())
        executor = hetero_executor()
        result = executor.run(graph, small_catalog, model="split_chunked",
                              chunk_size=2048)
        got = module.finalize(result, small_catalog)
        oracle = getattr(reference, qname)(small_catalog)
        if isinstance(got, float):
            assert got == pytest.approx(oracle)
        else:
            assert got == oracle

    def test_single_device_degenerates_to_chunked(self, small_catalog):
        executor = make_executor(CudaDevice, GPU_RTX_2080_TI, name="gpu")
        result = executor.run(q6.build(), small_catalog,
                              model="split_chunked", chunk_size=2048)
        assert q6.finalize(result, small_catalog) == \
            reference.q6(small_catalog)

    def test_three_devices(self, small_catalog):
        executor = hetero_executor()
        executor.plug_device("gpu2", OpenCLDevice, GPU_A100)
        result = executor.run(q6.build(), small_catalog,
                              model="split_chunked", chunk_size=1024)
        assert q6.finalize(result, small_catalog) == \
            reference.q6(small_catalog)

    def test_chunk_size_invariance(self, small_catalog):
        executor = hetero_executor()
        for chunk in (512, 4096, 1 << 20):
            result = executor.run(q3.build(small_catalog), small_catalog,
                                  model="split_chunked", chunk_size=chunk)
            assert q3.finalize(result, small_catalog) == \
                reference.q3(small_catalog), chunk

    def test_sort_plan_runs_on_single_device(self, small_catalog):
        # requires_full_input pipelines fall back to one device; with a
        # multi-chunk configuration that still fails (as documented).
        executor = hetero_executor()
        with pytest.raises(ExecutionError):
            executor.run(q1_sorted.build(), small_catalog,
                         model="split_chunked", chunk_size=1024)
        result = executor.run(q1_sorted.build(), small_catalog,
                              model="split_chunked", chunk_size=1 << 21)
        assert q1_sorted.finalize(result, small_catalog) == \
            reference.q1(small_catalog)


class TestScheduling:
    def test_both_devices_receive_work(self, small_catalog):
        executor = hetero_executor()
        executor.run(q6.build(), small_catalog, model="split_chunked",
                     chunk_size=1024)
        streams = {e.stream for e in executor.clock.events
                   if e.category == "compute" and e.duration > 0}
        assert "gpu.compute" in streams
        assert "cpu.compute" in streams

    def test_faster_device_gets_more_chunks(self, small_catalog):
        executor = hetero_executor(cpu_spec=CPU_I7_8700)
        executor.run(q6.build(), small_catalog, model="split_chunked",
                     chunk_size=1024)
        def kernel_count(device):
            return sum(1 for e in executor.clock.events
                       if e.stream == f"{device}.compute"
                       and e.category == "compute")
        assert kernel_count("gpu") > kernel_count("cpu")

    def test_speedup_over_single_device(self, small_catalog):
        """With a strong CPU alongside the GPU, splitting beats the
        GPU-only 4-phase model at transfer-bound scale."""
        executor = hetero_executor()
        split = executor.run(q6.build(), small_catalog,
                             model="split_chunked", chunk_size=2**20,
                             data_scale=1024)
        solo = make_executor(CudaDevice, GPU_RTX_2080_TI, name="gpu")
        four_phase = solo.run(q6.build(), small_catalog,
                              model="four_phase_chunked", chunk_size=2**20,
                              data_scale=1024)
        assert split.stats.makespan < four_phase.stats.makespan

    def test_results_homed_for_downstream_pipelines(self, small_catalog):
        """Q3's hash tables built in split mode feed later pipelines."""
        executor = hetero_executor()
        result = executor.run(q3.build(small_catalog), small_catalog,
                              model="split_chunked", chunk_size=1024)
        assert q3.finalize(result, small_catalog) == \
            reference.q3(small_catalog)


class TestPricerAgreesWithTheRun:
    """Who gets the odd chunk is the model's call; the plan pricer asks
    the model instead of guessing."""

    PLUGS = {"rt": (RTCoreDevice, GPU_RTX_3090),
             "a100": (CudaDevice, GPU_A100)}

    @pytest.mark.parametrize("order", [("rt", "a100"), ("a100", "rt")])
    def test_tied_devices_split_as_priced(self, small_catalog, order):
        executor = AdamantExecutor()
        for name in order:
            executor.plug_device(name, *self.PLUGS[name])
        register_rtcore_kernels(executor.registry)
        rt, a100 = executor.devices["rt"], executor.devices["a100"]
        assert SplitChunkedModel.rate_proxy(rt) == \
            SplitChunkedModel.rate_proxy(a100)

        graph = q6.build()
        [pipeline] = split_pipelines(graph)
        rows = small_catalog.column(pipeline.scan_refs[0]).values.shape[0]
        chunk = math.ceil(rows / 3 / 32) * 32  # three chunks: one is odd
        result = executor.run(graph, small_catalog, model="split_chunked",
                              chunk_size=chunk)
        assert result.stats.chunks_processed == 3
        kernels_run = {
            name: sum(1 for e in executor.clock.events
                      if e.stream == f"{name}.compute"
                      and e.category == "compute")
            for name in order}

        table = PricingTable(small_catalog, executor.devices,
                             default_device=order[0])
        priced = table.split_counts("split_chunked", 3)
        assert priced == {order[0]: 2, order[1]: 1}
        assert kernels_run == {
            name: count * len(pipeline.node_ids)
            for name, count in priced.items()}
        cost = table.price(q6.build(), model="split_chunked",
                           chunk_size=chunk)
        assert [p.chunks for p in cost.pipelines] == [3]
