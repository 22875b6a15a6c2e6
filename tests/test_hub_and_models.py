"""Tests for the data transfer hub, execution models, and executor facade."""

import ast
import pathlib

import numpy as np
import pytest

import repro.core.models
from repro.core.context import cardinality
from repro.core.executor import AdamantExecutor
from repro.core.hub import DataTransferHub
from repro.core.models import MODELS, shallow_hash_pipeline
from repro.core.pipelines import split_pipelines
from repro.devices import CudaDevice, OpenMPDevice
from repro.errors import DeviceMemoryError, ExecutionError
from repro.hardware import CPU_I7_8700, GPU_RTX_2080_TI, VirtualClock
from repro.primitives.values import Bitmap, JoinPairs, PositionList, PrefixSum
from repro.tpch import reference
from repro.tpch.queries import q3, q4, q6
from tests.conftest import make_context, make_executor

MODELS_DIR = pathlib.Path(repro.core.models.__file__).parent


class TestCardinality:
    def test_shapes(self):
        assert cardinality(np.zeros(7)) == 7
        assert cardinality(Bitmap.from_mask(np.ones(9, bool))) == 9
        assert cardinality(PositionList(np.arange(3))) == 3
        assert cardinality(JoinPairs(np.arange(2), np.arange(2))) == 2
        assert cardinality(PrefixSum(np.arange(4))) == 4
        assert cardinality(None) == 0


class TestHub:
    def test_load_data_full_column(self, tiny_catalog):
        ctx = make_context(tiny_catalog)
        hub = DataTransferHub(ctx)
        edge = next(e for e in ctx.plan.graph.edges if e.is_scan)
        device = ctx.devices["dev"]
        event = hub.load_data(edge, device, "buf")
        assert event.category == "transfer"
        assert hub.device_ids == {edge.data_id: "dev"}
        n = len(tiny_catalog.table("lineitem"))
        assert device.memory.get("buf").value.shape == (n,)

    def test_load_data_chunk_range(self, tiny_catalog):
        ctx = make_context(tiny_catalog)
        hub = DataTransferHub(ctx)
        edge = next(e for e in ctx.plan.graph.edges if e.is_scan)
        device = ctx.devices["dev"]
        hub.load_data(edge, device, "buf", start=10, stop=20)
        assert device.memory.get("buf").value.shape == (10,)

    def test_load_data_rejects_non_scan(self, tiny_catalog):
        ctx = make_context(tiny_catalog)
        hub = DataTransferHub(ctx)
        edge = next(e for e in ctx.plan.graph.edges if not e.is_scan)
        with pytest.raises(ExecutionError):
            hub.load_data(edge, ctx.devices["dev"], "buf")

    def test_transfer_factor_extends_duration(self, tiny_catalog):
        ctx = make_context(tiny_catalog)
        hub = DataTransferHub(ctx)
        edges = [e for e in ctx.plan.graph.edges if e.is_scan]
        device = ctx.devices["dev"]
        plain = hub.load_data(edges[0], device, "b0")
        slow = hub.load_data(edges[1], device, "b1", transfer_factor=3.0)
        # The penalized load appends a map event of 2x the base duration.
        assert slow.duration == pytest.approx(2 * plain.duration, rel=0.2)

    def test_router_same_device_same_format_noop(self, tiny_catalog):
        ctx = make_context(tiny_catalog)
        hub = DataTransferHub(ctx)
        device = ctx.devices["dev"]
        device.place_data("x", np.arange(4))
        edge = ctx.plan.graph.edges[0]
        hub.device_ids[edge.data_id] = "dev"
        alias, events = hub.router(edge, "x", device)
        assert alias == "x" and events == []

    def test_router_cross_device_moves_value(self, tiny_catalog):
        clock = VirtualClock()
        gpu = CudaDevice("gpu", GPU_RTX_2080_TI, clock)
        cpu = OpenMPDevice("cpu", CPU_I7_8700, clock)
        gpu.initialize(), cpu.initialize()
        ctx = make_context(tiny_catalog, devices={"gpu": gpu, "cpu": cpu})
        hub = DataTransferHub(ctx)
        gpu.place_data("x", np.arange(8, dtype=np.int64))
        edge = ctx.plan.graph.edges[0]
        hub.device_ids[edge.data_id] = "gpu"
        alias, events = hub.router(edge, "x", cpu)
        assert alias == "x@cpu"
        assert events
        assert np.array_equal(cpu.memory.get(alias).value, np.arange(8))
        assert hub.device_ids[edge.data_id] == "cpu"

    def test_prepare_output_buffer_uses_estimate(self, tiny_catalog):
        ctx = make_context(tiny_catalog)
        hub = DataTransferHub(ctx)
        node = ctx.plan.graph.nodes["m_price"]
        device = ctx.devices["dev"]
        hub.prepare_output_buffer(node, device, "out", 1000)
        # estimate = n * selectivity_estimate(0.05) * 8 bytes
        assert device.memory.get("out").nbytes == int(1000 * 0.05) * 8

    def test_prepare_output_buffer_noop_when_exists(self, tiny_catalog):
        ctx = make_context(tiny_catalog)
        hub = DataTransferHub(ctx)
        device = ctx.devices["dev"]
        device.prepare_memory("out", 64)
        node = ctx.plan.graph.nodes["m_price"]
        assert hub.prepare_output_buffer(node, device, "out", 1000) is None
        assert device.memory.get("out").nbytes == 64


class TestShallowHashDetection:
    def test_q4_build_pipeline_is_shallow(self):
        graph = q4.build()
        pipelines = split_pipelines(graph)
        build = next(p for p in pipelines if "build_late" in p.breaker_ids)
        probe = next(p for p in pipelines if "agg_prio" in p.breaker_ids)
        assert shallow_hash_pipeline(graph, build)
        assert not shallow_hash_pipeline(graph, probe)

    def test_q3_orders_pipeline_not_shallow(self, tiny_catalog):
        graph = q3.build(tiny_catalog)
        pipelines = split_pipelines(graph)
        orders = next(p for p in pipelines if "build_orders" in p.breaker_ids)
        lineitem = next(p for p in pipelines if "agg_rev" in p.breaker_ids)
        customer = next(p for p in pipelines if "build_cust" in p.breaker_ids)
        assert not shallow_hash_pipeline(graph, orders)
        assert not shallow_hash_pipeline(graph, lineitem)
        assert shallow_hash_pipeline(graph, customer)  # tiny table; harmless

    def test_q6_not_shallow(self):
        graph = q6.build()
        pipeline = split_pipelines(graph)[0]
        assert not shallow_hash_pipeline(graph, pipeline)  # AGG_BLOCK breaker


class TestExecutorFacade:
    def test_duplicate_device_name(self):
        executor = AdamantExecutor()
        executor.plug_device("d", CudaDevice, GPU_RTX_2080_TI)
        with pytest.raises(ExecutionError):
            executor.plug_device("d", CudaDevice, GPU_RTX_2080_TI)

    def test_unplug(self):
        executor = AdamantExecutor()
        executor.plug_device("a", CudaDevice, GPU_RTX_2080_TI)
        executor.plug_device("b", OpenMPDevice, CPU_I7_8700)
        executor.unplug_device("a")
        assert executor.default_device == "b"
        with pytest.raises(ExecutionError):
            executor.unplug_device("a")

    def test_no_devices(self, tiny_catalog):
        executor = AdamantExecutor()
        with pytest.raises(ExecutionError):
            executor.run(q6.build(), tiny_catalog)

    def test_unknown_model(self, tiny_catalog):
        executor = make_executor()
        with pytest.raises(ExecutionError):
            executor.run(q6.build(), tiny_catalog, model="vectorized")

    def test_first_device_is_default(self):
        executor = AdamantExecutor()
        executor.plug_device("x", CudaDevice, GPU_RTX_2080_TI)
        assert executor.default_device == "x"

    def test_default_flag_overrides(self):
        executor = AdamantExecutor()
        executor.plug_device("x", CudaDevice, GPU_RTX_2080_TI)
        executor.plug_device("y", OpenMPDevice, CPU_I7_8700, default=True)
        assert executor.default_device == "y"

    def test_invalid_chunk_size(self, tiny_catalog):
        executor = make_executor()
        with pytest.raises(ExecutionError):
            executor.run(q6.build(), tiny_catalog, chunk_size=100)  # not %32

    def test_invalid_data_scale(self, tiny_catalog):
        executor = make_executor()
        with pytest.raises(ExecutionError):
            executor.run(q6.build(), tiny_catalog, data_scale=0)

    def test_unknown_device_annotation(self, tiny_catalog):
        executor = make_executor()
        graph = q6.build(device="tpu9")
        with pytest.raises(ExecutionError):
            executor.run(graph, tiny_catalog)

    def test_runs_are_independent(self, tiny_catalog):
        executor = make_executor()
        first = executor.run(q6.build(), tiny_catalog, model="chunked",
                             chunk_size=1024)
        second = executor.run(q6.build(), tiny_catalog, model="chunked",
                              chunk_size=1024)
        assert first.stats.makespan == pytest.approx(second.stats.makespan)

    def test_missing_output_raises(self, tiny_catalog):
        executor = make_executor()
        result = executor.run(q6.build(), tiny_catalog, model="oaat")
        with pytest.raises(ExecutionError):
            result.output("nope")


class TestModelBehaviour:
    def test_oaat_ooms_on_small_device(self, tiny_catalog):
        executor = make_executor(memory_limit=32 * 1024)
        with pytest.raises(DeviceMemoryError):
            executor.run(q6.build(), tiny_catalog, model="oaat")

    def test_chunked_survives_small_device(self, tiny_catalog):
        # Chunked execution fits where OAAT OOMs (the paper's Figure 7
        # motivation): chunk buffers + intermediates only.
        executor = make_executor(memory_limit=10**6)
        result = executor.run(q6.build(), tiny_catalog, model="chunked",
                              chunk_size=1024)
        assert int(result.output("sum_rev")[0]) == reference.q6(tiny_catalog)

    def test_chunk_count(self, tiny_catalog):
        executor = make_executor()
        n = len(tiny_catalog.table("lineitem"))
        chunk = 512
        result = executor.run(q6.build(), tiny_catalog, model="chunked",
                              chunk_size=chunk)
        assert result.stats.chunks_processed == -(-n // chunk)

    def test_oaat_processes_no_chunks(self, tiny_catalog):
        executor = make_executor()
        result = executor.run(q6.build(), tiny_catalog, model="oaat")
        assert result.stats.chunks_processed == 0

    def test_pipelined_not_slower_than_chunked(self, tiny_catalog):
        # At transfer-dominated scale overlap can only help (Figure 6b).
        executor = make_executor()
        chunked = executor.run(q6.build(), tiny_catalog, model="chunked",
                               chunk_size=64 * 1024, data_scale=64)
        pipelined = executor.run(q6.build(), tiny_catalog, model="pipelined",
                                 chunk_size=64 * 1024, data_scale=64)
        assert pipelined.stats.makespan <= chunked.stats.makespan * 1.001

    def test_stats_structure(self, tiny_catalog):
        executor = make_executor()
        stats = executor.run(q6.build(), tiny_catalog, model="chunked",
                             chunk_size=1024).stats
        assert stats.makespan > 0
        assert stats.transfer_bytes > 0
        assert stats.kernel_invocations > 0
        assert stats.compute_time >= 0
        assert stats.abstraction_overhead >= 0
        assert "dev0" in stats.peak_device_bytes

    def test_all_models_registered(self):
        assert set(MODELS) == {
            "oaat", "chunked", "pipelined", "four_phase_chunked",
            "four_phase_pipelined", "zero_copy", "split_chunked",
        }

    def test_there_is_one_chunk_loop(self):
        """Every chunked model — the multi-device split included — runs
        ``ExecutionModel.run_chunked_pipeline``; a model contributes
        class attributes and at most the two lane decisions.  What the
        loop does once per chunk or per pipeline is spelled once."""
        sources = {path.name: path.read_text()
                   for path in MODELS_DIR.glob("*.py")}
        everything = "".join(sources.values())
        for once in ("ChunkPartial(", "gate.checkpoint(", "observe_chunk(",
                     "combine_chunk_results(", "chunks_processed += 1"):
            assert everything.count(once) == 1, once
        for loop_work in ("execute_node", "load_data", "barrier",
                          "delete_memory"):
            assert loop_work not in sources["split.py"], loop_work
        assert sorted(name for name, text in sources.items()
                      if "def run_pipeline" in text) == ["base.py", "oaat.py"]

    def test_nothing_below_the_engine_names_a_metrics_registry(self):
        """The device interfaces, the hub, the models, the adaptive
        controller, the fault injectors and the scheduler charge the
        clock and nothing else: the engine reads every counter back out
        of the event log (``hardware.trace.fold``).  Checked on the
        syntax tree, so prose may say "metrics"."""
        package = MODELS_DIR.parents[1]
        paths = [*(package / "devices").glob("*.py"),
                 *MODELS_DIR.glob("*.py"),
                 *(package / "faults").glob("*.py"),
                 package / "core" / "hub.py",
                 package / "core" / "context.py",
                 package / "planner" / "adaptive.py",
                 package / "engine" / "scheduler.py"]
        assert len(paths) > 25
        for path in paths:
            named = [node.lineno for node in ast.walk(
                ast.parse(path.read_text()))
                if "metrics" in (getattr(node, "id", None),
                                 getattr(node, "attr", None),
                                 getattr(node, "arg", None))]
            assert not named, f"{path}: lines {named}"

    def test_peak_memory_lower_for_chunked(self, tiny_catalog):
        executor = make_executor()
        oaat = executor.run(q6.build(), tiny_catalog, model="oaat")
        oaat_peak = oaat.stats.peak_device_bytes["dev0"]
        chunked = executor.run(q6.build(), tiny_catalog, model="chunked",
                               chunk_size=512)
        chunked_peak = chunked.stats.peak_device_bytes["dev0"]
        assert chunked_peak < oaat_peak

    def test_multi_device_pipeline_split(self, tiny_catalog):
        """Q4's two pipelines annotated onto different devices: the hash
        table is routed from the CPU to the GPU at the boundary."""
        executor = make_executor(
            CudaDevice, GPU_RTX_2080_TI, name="gpu",
            extra_devices=[("cpu", OpenMPDevice, CPU_I7_8700)])
        graph = q4.build()
        for nid in ("lateness", "f_late", "m_lkey", "build_late"):
            graph.nodes[nid].device = "cpu"
        for nid in ("f_lo", "f_hi", "f_range", "m_okey", "m_oprio",
                    "exists", "sel_prio", "agg_prio"):
            graph.nodes[nid].device = "gpu"
        result = executor.run(graph, tiny_catalog, model="chunked",
                              chunk_size=1024, default_device="gpu")
        got = q4.finalize(result, tiny_catalog)
        assert got == reference.q4(tiny_catalog)

    def test_mixed_devices_within_pipeline_rejected(self, tiny_catalog):
        executor = make_executor(
            CudaDevice, GPU_RTX_2080_TI, name="gpu",
            extra_devices=[("cpu", OpenMPDevice, CPU_I7_8700)])
        graph = q6.build()
        graph.nodes["f_ship"].device = "cpu"  # rest default to gpu
        with pytest.raises(ExecutionError):
            executor.run(graph, tiny_catalog, model="chunked",
                         chunk_size=1024, default_device="gpu")
