"""Robustness and failure-injection tests for the executor."""

import numpy as np
import pytest

from repro.core.graph import PrimitiveGraph
from repro.core.models import MODELS
from repro.errors import (
    DeviceMemoryError,
    GraphValidationError,
    SignatureError,
)
from repro.storage import Catalog, Column, Table
from repro.task import KernelContainer
from repro.tpch import reference
from repro.tpch.queries import q6
from tests.conftest import make_context, make_executor


class TestRecoveryAfterFailure:
    def test_executor_reusable_after_oom(self, small_catalog):
        executor = make_executor(memory_limit=600 * 1024)
        with pytest.raises(DeviceMemoryError):
            executor.run(q6.build(), small_catalog, model="oaat")
        # The next run starts from a clean device state.
        result = executor.run(q6.build(), small_catalog, model="chunked",
                              chunk_size=1024)
        assert q6.finalize(result, small_catalog) == \
            reference.q6(small_catalog)

    def test_memory_clean_after_oom(self, small_catalog):
        executor = make_executor(memory_limit=600 * 1024)
        with pytest.raises(DeviceMemoryError):
            executor.run(q6.build(), small_catalog, model="oaat")
        executor.devices["dev0"].reset()
        assert executor.devices["dev0"].memory.device_used == 0

    def test_executor_reusable_after_kernel_failure(self, small_catalog):
        executor = make_executor()

        calls = {"n": 0}

        def exploding(*args, **kwargs):
            calls["n"] += 1
            raise RuntimeError("kernel panic")

        executor.registry.register(
            KernelContainer("agg_block", "cuda", exploding))
        with pytest.raises(RuntimeError):
            executor.run(q6.build(), small_catalog, model="chunked",
                         chunk_size=4096)
        assert calls["n"] == 1

        # Repair the registry; the executor recovers.
        from repro.primitives.kernels import agg_block
        executor.registry.register(
            KernelContainer("agg_block", "cuda", agg_block), replace=True)
        result = executor.run(q6.build(), small_catalog, model="chunked",
                              chunk_size=4096)
        assert q6.finalize(result, small_catalog) == \
            reference.q6(small_catalog)

    def test_chunk_buffer_larger_than_memory(self, small_catalog):
        # Even chunked execution needs its staging buffers to fit.
        executor = make_executor(memory_limit=1024)
        with pytest.raises(DeviceMemoryError):
            executor.run(q6.build(), small_catalog, model="chunked",
                         chunk_size=1 << 20)

    def test_invalid_graph_rejected_at_run(self, small_catalog):
        executor = make_executor()
        graph = PrimitiveGraph("broken")
        graph.add_node("f", "filter_bitmap")  # missing input and params
        with pytest.raises(GraphValidationError):
            executor.run(graph, small_catalog)

    def test_bad_kernel_params_propagate(self, small_catalog):
        executor = make_executor()
        graph = PrimitiveGraph("bad-op")
        graph.add_node("m", "map", params=dict(op="frobnicate"))
        graph.connect("lineitem.l_quantity", "m", 0)
        graph.mark_output("m")
        with pytest.raises(SignatureError):
            executor.run(graph, small_catalog, model="oaat")


class TestDegenerateInputs:
    @pytest.fixture()
    def empty_catalog(self):
        catalog = Catalog()
        catalog.add(Table("lineitem", [
            Column("l_shipdate", np.empty(0, dtype=np.int32)),
            Column("l_discount", np.empty(0, dtype=np.int32)),
            Column("l_quantity", np.empty(0, dtype=np.int32)),
            Column("l_extendedprice", np.empty(0, dtype=np.int64)),
        ]))
        return catalog

    @pytest.mark.parametrize("model", ["oaat", "chunked", "pipelined",
                                       "four_phase_pipelined", "zero_copy"])
    def test_empty_table(self, empty_catalog, model):
        executor = make_executor()
        result = executor.run(q6.build(), empty_catalog, model=model,
                              chunk_size=1024)
        assert q6.finalize(result, empty_catalog) == 0

    def test_single_row_table(self):
        catalog = Catalog()
        catalog.add(Table("lineitem", [
            Column("l_shipdate", np.array([8790], dtype=np.int32)),
            Column("l_discount", np.array([6], dtype=np.int32)),
            Column("l_quantity", np.array([5], dtype=np.int32)),
            Column("l_extendedprice", np.array([1000], dtype=np.int64)),
        ]))
        executor = make_executor()
        result = executor.run(q6.build(), catalog, model="chunked",
                              chunk_size=32)
        assert q6.finalize(result, catalog) == reference.q6(catalog)

    def test_chunk_larger_than_input(self, small_catalog):
        executor = make_executor()
        result = executor.run(q6.build(), small_catalog, model="chunked",
                              chunk_size=1 << 24)
        assert result.stats.chunks_processed == 1
        assert q6.finalize(result, small_catalog) == \
            reference.q6(small_catalog)

    def test_fully_selective_filter(self):
        """A filter that keeps everything and one that keeps nothing."""
        catalog = Catalog()
        n = 200
        catalog.add(Table("t", [
            Column("a", np.arange(n, dtype=np.int64)),
        ]))
        for threshold, expected in ((10**9, n), (-1, 0)):
            graph = PrimitiveGraph("sel")
            graph.add_node("f", "filter_bitmap",
                           params=dict(cmp="lt", value=threshold))
            graph.add_node("m", "materialize")
            graph.add_node("c", "agg_block", params=dict(fn="count"))
            graph.connect("t.a", "f", 0)
            graph.connect("t.a", "m", 0)
            graph.connect("f", "m", 1)
            graph.connect("m", "c", 0)
            graph.mark_output("c")
            executor = make_executor()
            result = executor.run(graph, catalog, model="chunked",
                                  chunk_size=64)
            assert int(result.output("c")[0]) == expected


class TestStateIsolation:
    def test_footprint_trace_reset_between_runs(self, tiny_catalog):
        executor = make_executor()
        executor.run(q6.build(), tiny_catalog, model="oaat")
        first_trace = executor.devices["dev0"].memory.footprint_trace
        executor.run(q6.build(), tiny_catalog, model="oaat")
        second_trace = executor.devices["dev0"].memory.footprint_trace
        assert len(second_trace) == len(first_trace)

    def test_graph_reusable_across_models(self, tiny_catalog):
        executor = make_executor()
        graph = q6.build()
        a = executor.run(graph, tiny_catalog, model="chunked",
                         chunk_size=1024)
        b = executor.run(graph, tiny_catalog, model="four_phase_pipelined",
                         chunk_size=1024)
        assert q6.finalize(a, tiny_catalog) == q6.finalize(b, tiny_catalog)

    def test_each_run_starts_from_an_empty_table(self, tiny_catalog):
        # Where data lives is the run's: each model (one run) starts
        # with an empty table and ends with every scan on its device.
        graph = make_context(tiny_catalog).plan.graph
        scans = [e.data_id for e in graph.edges if e.is_scan]
        for _ in range(2):
            model = MODELS["chunked"](make_context(tiny_catalog, graph=graph))
            assert model.hub.device_ids == {}
            model.run()
            assert all(model.hub.device_ids[i] == "dev" for i in scans)

    def test_same_graph_different_catalogs(self, tiny_catalog,
                                           small_catalog):
        executor = make_executor()
        graph = q6.build()
        a = executor.run(graph, tiny_catalog, model="chunked",
                         chunk_size=1024)
        b = executor.run(graph, small_catalog, model="chunked",
                         chunk_size=1024)
        assert q6.finalize(a, tiny_catalog) == reference.q6(tiny_catalog)
        assert q6.finalize(b, small_catalog) == reference.q6(small_catalog)
