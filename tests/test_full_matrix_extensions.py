"""Every query plan under the extension execution models.

The core matrix (tests/test_integration_queries.py) covers the paper's
queries x paper's models x drivers; this module sweeps the *whole*
workload — including the extension queries — through the extension
models (zero_copy, split_chunked) and a three-device split, so no
query/model pairing anywhere in the repo goes unvalidated.
"""

import pytest

from repro.devices import (CoupledDevice, CudaDevice, FpgaDevice,
                           OpenMPDevice, RTCoreDevice)
from repro.engine import Engine
from repro.hardware import (
    APU_RYZEN_7_8700G,
    CPU_XEON_5220R,
    FPGA_ALVEO_U250,
    GPU_RTX_2080_TI,
    GPU_RTX_3090,
)
from repro.task.registry import register_variant_kernels
from repro.tpch import reference
from repro.tpch.queries import QUERIES as ALL_QUERIES
from repro.tpch.queries import q3, q18
from tests.conftest import make_context, make_executor

QUERIES = {name: ALL_QUERIES[name]
           for name in ("q1", "q3", "q4", "q5", "q6", "q12", "q14", "q19")}


def build_graph(qname, catalog):
    module = QUERIES[qname]
    return module, module.build(catalog)


def oracle(qname, catalog):
    return getattr(reference, qname)(catalog)


def check(module, result, catalog, expected):
    answer = module.finalize(result, catalog)
    if isinstance(answer, float):
        assert answer == pytest.approx(expected)
    else:
        assert answer == expected


@pytest.mark.parametrize("qname", sorted(QUERIES))
class TestExtensionModels:
    def test_zero_copy(self, small_catalog, qname):
        module, graph = build_graph(qname, small_catalog)
        executor = make_executor()
        result = executor.run(graph, small_catalog, model="zero_copy",
                              chunk_size=2048)
        check(module, result, small_catalog, oracle(qname, small_catalog))

    def test_three_device_split(self, small_catalog, qname):
        module, graph = build_graph(qname, small_catalog)
        executor = make_executor(
            CudaDevice, GPU_RTX_2080_TI, name="gpu",
            extra_devices=[("cpu", OpenMPDevice, CPU_XEON_5220R),
                           ("fpga", FpgaDevice, FPGA_ALVEO_U250)])
        result = executor.run(graph, small_catalog, model="split_chunked",
                              chunk_size=2048)
        check(module, result, small_catalog, oracle(qname, small_catalog))


class TestQ18Extensions:
    # q18 separately (its spec threshold yields empty results; use one
    # that produces rows so the split/zero-copy paths do real work).
    @pytest.mark.parametrize("model", ["zero_copy", "split_chunked"])
    def test_q18(self, small_catalog, model):
        executor = make_executor(
            CudaDevice, GPU_RTX_2080_TI, name="gpu",
            extra_devices=[("cpu", OpenMPDevice, CPU_XEON_5220R)])
        result = executor.run(q18.build(quantity=220), small_catalog,
                              model=model, chunk_size=2048)
        assert q18.finalize(result, small_catalog) == \
            reference.q18(small_catalog, quantity=220)


ALL_MODELS = ["chunked", "four_phase_chunked", "four_phase_pipelined",
              "oaat", "pipelined", "split_chunked", "zero_copy"]

#: Queries exercising each data-path fusion primitive: q6 collapses
#: into a fused_filter_agg sink, q3's probe side becomes a
#: fused_probe_path, q19 keeps a plain fused_map_filter chain.
FUSION_QUERIES = ["q3", "q6", "q19"]


class TestFusedByteIdentity:
    """Join/aggregate fusion is byte-transparent under every model.

    The acceptance bar for `fused_probe_path` / `fused_filter_agg`:
    a fused plan's outputs equal the unfused plan's bit for bit, for
    every query x execution model pairing — fusion may only change the
    timeline, never the answer.
    """

    def _hetero(self):
        return make_executor(
            CudaDevice, GPU_RTX_2080_TI, name="gpu",
            extra_devices=[("cpu", OpenMPDevice, CPU_XEON_5220R)])

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("qname", FUSION_QUERIES)
    def test_fused_outputs_byte_identical(self, small_catalog, qname,
                                          model):
        from tests.test_integration_queries import _blob

        module, graph = build_graph(qname, small_catalog)
        plain = self._hetero().run(graph, small_catalog, model=model,
                                   chunk_size=2048)
        _, graph2 = build_graph(qname, small_catalog)
        fused = self._hetero().run(graph2, small_catalog, model=model,
                                   chunk_size=2048, fuse=True)
        assert _blob(fused.outputs) == _blob(plain.outputs)
        check(module, fused, small_catalog, oracle(qname, small_catalog))

    def test_expected_fused_primitives(self, small_catalog):
        from repro.planner.fusion import (
            FUSED_AGG_PRIMITIVE,
            FUSED_PRIMITIVE,
            FUSED_PROBE_PRIMITIVE,
            fuse_graph,
        )

        expected = {"q3": FUSED_PROBE_PRIMITIVE,
                    "q6": FUSED_AGG_PRIMITIVE,
                    "q19": FUSED_PRIMITIVE}
        for qname, primitive in expected.items():
            _, graph = build_graph(qname, small_catalog)
            fused = fuse_graph(graph)
            present = {node.primitive for node in fused.nodes.values()}
            assert primitive in present, (qname, sorted(present))


class TestMultiHopRouting:
    def test_value_survives_gpu_cpu_fpga_chain(self, tiny_catalog):
        """A hash table daisy-chained across three devices stays intact
        (the split model's broadcast path, exercised directly)."""
        import numpy as np
        from repro.core.hub import DataTransferHub
        from repro.hardware import VirtualClock

        clock = VirtualClock()
        gpu = CudaDevice("gpu", GPU_RTX_2080_TI, clock)
        cpu = OpenMPDevice("cpu", CPU_XEON_5220R, clock)
        fpga = FpgaDevice("fpga", FPGA_ALVEO_U250, clock)
        for device in (gpu, cpu, fpga):
            device.initialize()
        ctx = make_context(
            tiny_catalog, devices={"gpu": gpu, "cpu": cpu, "fpga": fpga})
        hub = DataTransferHub(ctx)
        payload = np.arange(16, dtype=np.int64)
        gpu.place_data("x", payload)
        edge = ctx.plan.graph.edges[0]
        edge.device_id = "gpu"
        current = "x"
        for device in (cpu, fpga, gpu):
            current, _ = hub.router(edge, current, device)
        value = gpu.memory.get(current).value
        assert np.array_equal(value, payload)


class TestNewDevicePlugins:
    """The RT-core and coupled-APU plug-ins ride the same byte-identity
    matrix: fused vs plain, adaptive vs plain, warm subplan-cache reuse
    — on a heterogeneous executor that mixes each plug-in with a seed
    GPU, every answer stays byte-identical and oracle-correct."""

    NEW_DEVICES = {
        "rtcore": (RTCoreDevice, GPU_RTX_3090),
        "coupled": (CoupledDevice, APU_RYZEN_7_8700G),
    }
    #: The representative model slice: the paper baseline, the staged
    #: pipeline, the all-device split and the unified-memory path.
    MODELS_SLICE = ["chunked", "four_phase_pipelined", "split_chunked",
                    "zero_copy"]

    def _hetero(self, device_key):
        driver, spec = self.NEW_DEVICES[device_key]
        executor = make_executor(
            driver, spec, name="new0",
            extra_devices=[("gpu", CudaDevice, GPU_RTX_2080_TI)])
        register_variant_kernels(executor.registry,
                                 executor.devices["new0"].variant_key)
        return executor

    @pytest.mark.parametrize("model", MODELS_SLICE)
    @pytest.mark.parametrize("qname", FUSION_QUERIES)
    @pytest.mark.parametrize("device_key", sorted(NEW_DEVICES))
    def test_fused_outputs_byte_identical(self, small_catalog,
                                          device_key, qname, model):
        from tests.test_integration_queries import _blob

        module, graph = build_graph(qname, small_catalog)
        plain = self._hetero(device_key).run(
            graph, small_catalog, model=model, chunk_size=2048)
        _, graph2 = build_graph(qname, small_catalog)
        fused = self._hetero(device_key).run(
            graph2, small_catalog, model=model, chunk_size=2048,
            fuse=True)
        assert _blob(fused.outputs) == _blob(plain.outputs)
        check(module, fused, small_catalog, oracle(qname, small_catalog))

    @pytest.mark.parametrize("qname", FUSION_QUERIES)
    @pytest.mark.parametrize("device_key", sorted(NEW_DEVICES))
    def test_adaptive_answers_match_oracle(self, small_catalog,
                                           device_key, qname):
        # Adaptive runs resize chunks on the fly, which reorders group
        # tables; like tests/test_adaptive.py, the contract is on the
        # finalized answer, not the raw carrier layout.
        module, graph = build_graph(qname, small_catalog)
        adaptive = self._hetero(device_key).run(
            graph, small_catalog, model="chunked", chunk_size=2048,
            adaptive=True)
        check(module, adaptive, small_catalog,
              oracle(qname, small_catalog))

    @pytest.mark.parametrize("device_key", sorted(NEW_DEVICES))
    def test_subplan_cache_warm_reuse(self, tiny_catalog, device_key):
        from tests.test_integration_queries import _blob

        driver, spec = self.NEW_DEVICES[device_key]
        engine = Engine()
        engine.plug_device("new0", driver, spec, default=True)
        register_variant_kernels(engine.registry,
                                 engine.devices["new0"].variant_key)
        cold = engine.execute(q3.build(tiny_catalog), tiny_catalog,
                              chunk_size=2048)
        warm = engine.execute(q3.build(tiny_catalog), tiny_catalog,
                              chunk_size=2048)
        assert warm.stats.subplan_cache_hits > 0
        assert warm.stats.kernels_launched == 0
        assert _blob(warm.outputs) == _blob(cold.outputs)
