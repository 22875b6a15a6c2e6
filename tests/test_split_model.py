"""Tests for the heterogeneous split (multi-device) execution model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import SplitChunkedModel
from repro.devices import (
    CudaDevice,
    OpenCLDevice,
    OpenMPDevice,
    RTCoreDevice,
)
from repro.hardware import (
    CPU_I7_8700,
    CPU_XEON_5220R,
    GPU_A100,
    GPU_RTX_2080_TI,
    GPU_RTX_3090,
)
from repro.hardware.clock import VirtualClock
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


# Vectorised weighted round-robin == the chunk-by-chunk greedy loop


def looping_round_robin(shares, chunks: int) -> list[int]:
    """The split model's chunk assignment by definition: each chunk to
    the device whose next chunk would lag least behind its share."""
    counters = [0] * len(shares)
    picks = []
    for _ in range(chunks):
        best = min(range(len(shares)),
                   key=lambda i: (counters[i] + 1) / shares[i])
        counters[best] += 1
        picks.append(best)
    return picks


#: Rates as ``SplitChunkedModel.shares`` turns them into shares: a few
#: round values (exact ties, exact ratios), anything else, and a rate so
#: small that the share hits its 1e-6 floor.
rates = st.one_of(st.sampled_from([1.0, 2.0, 3.0, 12e9, 24e9]),
                  st.floats(1e-3, 1e12), st.just(1e-9))


class TestWeightedRoundRobin:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(rates, min_size=1, max_size=6), st.integers(1, 5000))
    def test_merge_equals_loop(self, device_rates, chunks):
        total = sum(device_rates)
        shares = [max(rate / total, 1e-6) for rate in device_rates]
        assert SplitChunkedModel.assign_chunks(shares, chunks).tolist() \
            == looping_round_robin(shares, chunks)

    def test_tied_devices_take_turns_in_plug_order(self):
        picks = SplitChunkedModel.assign_chunks([0.25] * 4, 10)
        assert picks.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]
        clock = VirtualClock()
        rt = RTCoreDevice("rt", GPU_RTX_3090, clock)
        a100 = CudaDevice("a100", GPU_A100, clock)
        assert SplitChunkedModel.rate_proxy(rt) == \
            SplitChunkedModel.rate_proxy(a100)
        assert SplitChunkedModel.participants([rt, a100]) == [rt, a100]
        assert SplitChunkedModel.participants([a100, rt]) == [a100, rt]
