"""Plans are values: no run writes into the caller's graph.

A :class:`~repro.core.graph.PrimitiveGraph` is a plan, not a run's
scratchpad.  Where data lives during a run is the run's own table, and
placement — manual, cost-based, adaptive or after a failover — lands on
a copy.  So one graph instance can be run again, under another model,
on another engine or twice in one concurrent wave, and come back
exactly as it was built.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterExecutor
from repro.core.executor import AdamantExecutor
from repro.core.models import MODELS
from repro.devices import CudaDevice, OpenMPDevice
from repro.engine import Engine, QueryRequest
from repro.faults import FaultPlan
from repro.hardware import CPU_I7_8700, GPU_RTX_2080_TI
from repro.serving import QueryService, ServeRequest
from repro.tpch import reference
from repro.tpch.queries import q3, q6
from tests.test_engine import blob

CHUNK = 1024


def snapshot(graph):
    """Every fact a run could write into *graph*: each node's
    annotations and parameters, and each edge's whole state."""
    nodes = {nid: (node.primitive, repr(node.params), node.device,
                   node.variant, repr(node.hints), repr(node.cost_params))
             for nid, node in graph.nodes.items()}
    return nodes, [dict(vars(edge)) for edge in graph.edges]


def hybrid(engine, *, gpu_memory_limit=None):
    engine.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI,
                       memory_limit=gpu_memory_limit, default=True)
    engine.plug_device("cpu0", OpenMPDevice, CPU_I7_8700)
    return engine


class TestTheCallersGraphIsNeverWritten:
    @pytest.mark.parametrize("fuse", [False, True],
                             ids=["unfused", "fused"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_every_model(self, tiny_catalog, model, fuse):
        graph = q3.build(tiny_catalog)
        before = snapshot(graph)
        executor = hybrid(AdamantExecutor())
        for _ in range(2):
            result = executor.run(graph, tiny_catalog, model=model,
                                  chunk_size=CHUNK, fuse=fuse)
            assert q3.finalize(result, tiny_catalog) == \
                reference.q3(tiny_catalog)
            assert snapshot(graph) == before

    def test_auto(self, tiny_catalog):
        graph = q3.build(tiny_catalog)
        before = snapshot(graph)
        result = hybrid(AdamantExecutor()).run(
            graph, tiny_catalog, model="auto", chunk_size=CHUNK)
        assert q3.finalize(result, tiny_catalog) == reference.q3(tiny_catalog)
        assert snapshot(graph) == before

    def test_served_request(self, tiny_catalog):
        graph = q6.build()
        before = snapshot(graph)
        report = QueryService(hybrid(Engine())).serve([ServeRequest(
            query=QueryRequest(graph=graph, catalog=tiny_catalog,
                               chunk_size=CHUNK, label="q6"))])
        [outcome] = report.outcomes
        assert q6.finalize(outcome.result, tiny_catalog) == \
            pytest.approx(reference.q6(tiny_catalog))
        assert snapshot(graph) == before

    def test_sharded_run(self, tiny_catalog):
        graph = q3.build(tiny_catalog)
        before = snapshot(graph)
        cluster = ClusterExecutor(nodes=2)
        cluster.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI)
        result = cluster.run(lambda: graph, tiny_catalog, chunk_size=CHUNK)
        assert q3.finalize(result, tiny_catalog) == reference.q3(tiny_catalog)
        assert snapshot(graph) == before

    def test_oom_ladder_spills_a_copy(self, tiny_catalog):
        # gpu0 cannot hold one 32-row chunk of Q6's scan columns: the
        # ladder ends in a host spill, which re-places the query.
        graph = q6.build()
        before = snapshot(graph)
        result = hybrid(Engine(), gpu_memory_limit=300).execute(
            graph, tiny_catalog, chunk_size=256)
        assert result.stats.oom_recoveries >= 1
        assert q6.finalize(result, tiny_catalog) == \
            pytest.approx(reference.q6(tiny_catalog))
        assert snapshot(graph) == before

    def test_adaptive_replacement_moves_a_copy(self, tiny_catalog):
        graph = q3.build(tiny_catalog, device="gpu0")
        before = snapshot(graph)
        engine = hybrid(Engine(
            faults=FaultPlan.parse("gpu0:latency:0.05x50,seed=3")))
        result = engine.execute(graph, tiny_catalog, chunk_size=CHUNK,
                                adaptive=True)
        assert result.stats.adaptive_replacements >= 1
        assert q3.finalize(result, tiny_catalog) == reference.q3(tiny_catalog)
        assert snapshot(graph) == before

    def test_failover_replaces_a_copy(self, tiny_catalog):
        graph = q3.build(tiny_catalog, device="gpu0")
        before = snapshot(graph)
        engine = hybrid(Engine(
            faults=FaultPlan.parse("gpu0:device_loss:5,seed=3")))
        result = engine.execute(graph, tiny_catalog, chunk_size=CHUNK)
        assert result.stats.failovers >= 1
        assert q3.finalize(result, tiny_catalog) == reference.q3(tiny_catalog)
        assert snapshot(graph) == before


class TestOneInstanceTwiceInAWave:
    def test_matches_two_instances(self, tiny_catalog):
        def wave(graphs):
            engine = Engine()
            engine.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI)
            return engine.run_concurrent([
                QueryRequest(graph=graph, catalog=tiny_catalog,
                             chunk_size=CHUNK) for graph in graphs])

        graph = q3.build(tiny_catalog)
        before = snapshot(graph)
        shared = wave([graph, graph])
        separate = wave([q3.build(tiny_catalog), q3.build(tiny_catalog)])
        for got, want in zip(shared, separate):
            assert blob(got.outputs) == blob(want.outputs)
            assert vars(got.stats) == vars(want.stats)
            assert q3.finalize(got, tiny_catalog) == \
                reference.q3(tiny_catalog)
        assert snapshot(graph) == before
