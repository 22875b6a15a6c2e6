"""Tests for the FPGA driver (Section III-A2 integration case study)."""

import pytest

from repro.devices import CudaDevice, FpgaDevice, OpenMPDevice
from repro.errors import DeviceNotInitializedError
from repro.hardware import (
    CPU_I7_8700,
    FPGA_ALVEO_U250,
    GPU_RTX_2080_TI,
    Sdk,
)
from repro.hardware.costmodel import CostModel
from repro.task import KernelContainer
from repro.tpch import reference
from repro.tpch.queries import q3, q6
from tests.conftest import make_executor

MODELS = ["oaat", "chunked", "pipelined", "four_phase_chunked",
          "four_phase_pipelined", "zero_copy"]


class TestFpgaDriver:
    def test_kind_restriction(self, clock):
        with pytest.raises(DeviceNotInitializedError):
            FpgaDevice("bad", GPU_RTX_2080_TI, clock)
        FpgaDevice("ok", FPGA_ALVEO_U250, clock)

    def test_variant_key_and_format(self, clock):
        device = FpgaDevice("f", FPGA_ALVEO_U250, clock)
        assert device.variant_key == "fpga"
        assert device.data_format == "fpga.buffer"
        assert device.sdk is Sdk.OPENCL  # OpenCL-for-FPGA toolchain

    def test_reconfiguration_cost(self, clock):
        device = FpgaDevice("f", FPGA_ALVEO_U250, clock)
        device.initialize()
        container = KernelContainer("map", "fpga", lambda *a, **k: None,
                                    source="kernel region A")
        event = device.prepare_kernel(container)
        assert event.duration == pytest.approx(80e-3)
        again = device.prepare_kernel(container)
        assert again.duration == 0.0  # region already configured

    def test_contention_free_hashing(self):
        model = CostModel(FPGA_ALVEO_U250, Sdk.OPENCL)
        flat = model.throughput("hash_agg", 2**24, groups=2)
        contended = model.throughput("hash_agg", 2**24, groups=2**20)
        assert contended == pytest.approx(flat)
        small = model.throughput("hash_build", 2**24)
        large = model.throughput("hash_build", 2**28)
        assert large == pytest.approx(small)

    def test_streaming_between_cpu_and_gpu(self):
        fpga = CostModel(FPGA_ALVEO_U250, Sdk.OPENCL)
        gpu = CostModel(GPU_RTX_2080_TI, Sdk.CUDA)
        cpu = CostModel(CPU_I7_8700, Sdk.OPENMP)
        n = 2**26
        assert cpu.throughput("map", n) < fpga.throughput("map", n) \
            < gpu.throughput("map", n)


@pytest.mark.parametrize("model", MODELS)
class TestFpgaQueries:
    def test_q6(self, small_catalog, model):
        executor = make_executor(FpgaDevice, FPGA_ALVEO_U250)
        result = executor.run(q6.build(), small_catalog, model=model,
                              chunk_size=2048)
        assert q6.finalize(result, small_catalog) == \
            reference.q6(small_catalog)


class TestFpgaIntegration:
    def test_q3_on_fpga(self, small_catalog):
        executor = make_executor(FpgaDevice, FPGA_ALVEO_U250)
        result = executor.run(q3.build(small_catalog), small_catalog,
                              model="four_phase_pipelined", chunk_size=2048)
        assert q3.finalize(result, small_catalog) == \
            reference.q3(small_catalog)

    def test_fpga_specific_kernel_variant(self, small_catalog):
        calls = []
        from repro.primitives.kernels import filter_bitmap

        def overlay_filter(*args, **kwargs):
            calls.append(1)
            return filter_bitmap(*args, **kwargs)

        executor = make_executor(FpgaDevice, FPGA_ALVEO_U250)
        executor.registry.register(KernelContainer(
            "filter_bitmap", "fpga", overlay_filter, num_args=2))
        executor.run(q6.build(), small_catalog, model="oaat")
        assert calls

    def test_heterogeneous_cpu_gpu_fpga_split(self, small_catalog):
        executor = make_executor(
            CudaDevice, GPU_RTX_2080_TI, name="gpu",
            extra_devices=[("cpu", OpenMPDevice, CPU_I7_8700),
                           ("fpga", FpgaDevice, FPGA_ALVEO_U250)])
        result = executor.run(q6.build(), small_catalog,
                              model="split_chunked", chunk_size=1024)
        assert q6.finalize(result, small_catalog) == \
            reference.q6(small_catalog)
        streams = {e.stream for e in executor.clock.events
                   if e.category == "compute" and e.duration > 0}
        assert {"gpu.compute", "cpu.compute", "fpga.compute"} <= streams

    def test_placement_can_choose_fpga(self, small_catalog):
        """For a pure streaming query on CPU+FPGA, the annotator picks
        the FPGA (line-rate primitives beat the CPU)."""
        from repro.planner import annotate_devices
        executor = make_executor(
            OpenMPDevice, CPU_I7_8700, name="cpu",
            extra_devices=[("fpga", FpgaDevice, FPGA_ALVEO_U250)])
        graph, reports = annotate_devices(q6.build(), small_catalog,
                                          executor.devices, data_scale=1024)
        assert reports[0].chosen == "fpga"
        result = executor.run(graph, small_catalog, model="chunked",
                              chunk_size=2048)
        assert q6.finalize(result, small_catalog) == \
            reference.q6(small_catalog)
