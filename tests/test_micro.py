"""Tests for the primitive microbenchmark library."""

import pytest

from repro.bench import DRIVER_MATRIX, MicroBench
from repro.errors import WorkloadError


class TestMicroBench:
    def test_profile_throughput_positive(self):
        bench = MicroBench(logical_n=2**22, physical_n=2**12)
        result = bench.profile("cuda-gpu", "map")
        assert result.throughput > 0
        assert result.logical_elements == 2**22
        assert result.driver == "cuda-gpu"

    def test_scale_invariance_of_throughput(self):
        # Bigger logical n => proportionally longer compute, same rate.
        a = MicroBench(logical_n=2**22, physical_n=2**12).profile(
            "cuda-gpu", "map")
        b = MicroBench(logical_n=2**26, physical_n=2**12).profile(
            "cuda-gpu", "map")
        assert a.throughput == pytest.approx(b.throughput, rel=0.01)

    def test_gpu_beats_cpu_on_map(self):
        bench = MicroBench(logical_n=2**22, physical_n=2**12)
        gpu = bench.profile("cuda-gpu", "map").throughput
        cpu = bench.profile("openmp-cpu", "map").throughput
        assert gpu > 5 * cpu

    def test_groups_cost_param_applies(self):
        bench = MicroBench(logical_n=2**24, physical_n=2**12)
        flat = bench.profile("opencl-gpu", "hash_agg",
                             cost_params=dict(groups=2))
        contended = bench.profile("opencl-gpu", "hash_agg",
                                  cost_params=dict(groups=2**20))
        assert contended.throughput < flat.throughput

    def test_setup2_faster(self):
        one = MicroBench(logical_n=2**22, physical_n=2**12, setup="setup1")
        two = MicroBench(logical_n=2**22, physical_n=2**12, setup="setup2")
        assert two.profile("cuda-gpu", "map").throughput > \
            one.profile("cuda-gpu", "map").throughput

    def test_invalid_configuration(self):
        with pytest.raises(WorkloadError):
            MicroBench(logical_n=100, physical_n=64)  # not divisible
        with pytest.raises(WorkloadError):
            MicroBench(setup="setup9")
        bench = MicroBench(logical_n=2**20, physical_n=2**10)
        with pytest.raises(WorkloadError):
            bench.make_device("vulkan-gpu")
        with pytest.raises(WorkloadError):
            bench.profile("cuda-gpu", "hash_probe")  # needs a chain

    def test_driver_matrix_covers_paper(self):
        keys = [k for k, _, _ in DRIVER_MATRIX]
        assert keys == ["openmp-cpu", "opencl-cpu", "opencl-gpu",
                        "cuda-gpu"]
