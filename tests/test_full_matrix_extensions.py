"""Extension paths beside the cell table of ``tools/timeline_digest.py``
(which checks every query under every model, device class and fusion
setting): the fused primitive each data-path fusion produces, a hash
table routed through three device kinds, and a plug-in device's warm
subplan-cache reuse."""

import numpy as np
import pytest

from repro.core.hub import DataTransferHub
from repro.devices import (CoupledDevice, CudaDevice, FpgaDevice,
                           OpenMPDevice, RTCoreDevice)
from repro.engine import Engine
from repro.hardware import (
    APU_RYZEN_7_8700G,
    CPU_XEON_5220R,
    FPGA_ALVEO_U250,
    GPU_RTX_2080_TI,
    GPU_RTX_3090,
    VirtualClock,
)
from repro.planner.fusion import (FUSED_AGG_PRIMITIVE, FUSED_PRIMITIVE,
                                  FUSED_PROBE_PRIMITIVE, fuse_graph)
from repro.task.registry import register_variant_kernels
from repro.tpch.queries import q3, q6, q19
from tests.conftest import make_context
from tests.test_plugin_conformance import blob


def test_each_data_path_fusion_appears(small_catalog):
    """Q3's probe side becomes a fused probe path, Q6 a fused
    filter-aggregate sink, Q19 keeps a plain fused chain."""
    expected = {q3: FUSED_PROBE_PRIMITIVE, q6: FUSED_AGG_PRIMITIVE,
                q19: FUSED_PRIMITIVE}
    for query, primitive in expected.items():
        fused = fuse_graph(query.build(small_catalog))
        present = {node.primitive for node in fused.nodes.values()}
        assert primitive in present, (query.__name__, sorted(present))


def test_value_survives_gpu_cpu_fpga_chain(tiny_catalog):
    """A hash table daisy-chained across three devices stays intact
    (the split model's broadcast path, exercised directly)."""
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
    hub.device_ids[edge.data_id] = "gpu"
    current = "x"
    for device in (cpu, fpga, gpu):
        current, _ = hub.router(edge, current, device)
    assert np.array_equal(gpu.memory.get(current).value, payload)


@pytest.mark.parametrize("driver,spec", [
    (RTCoreDevice, GPU_RTX_3090), (CoupledDevice, APU_RYZEN_7_8700G)],
    ids=["rtcore", "coupled"])
def test_a_warm_subplan_cache_serves_a_plug_in(tiny_catalog, driver, spec):
    engine = Engine()
    device = engine.plug_device("new0", driver, spec, default=True)
    register_variant_kernels(engine.registry, device.variant_key)
    cold, warm = (engine.execute(q3.build(tiny_catalog), tiny_catalog,
                                 chunk_size=2048) for _ in range(2))
    assert warm.stats.subplan_cache_hits > 0
    assert warm.stats.kernels_launched == 0
    assert blob(warm.outputs) == blob(cold.outputs)
