"""Kernel-fusion pass: graph rewriting, the fused kernel, cost effects.

Covers the planner pass (:mod:`repro.planner.fusion`), the fused kernel,
the derived-structure caches on the graph, and the map-op astype
regression.  Fused and unfused runs giving byte-identical outputs for
every query and model is the cell table of ``tools/timeline_digest.py``.
"""

import numpy as np
import pytest

from repro.core.graph import PrimitiveGraph
from repro.core.pipelines import split_pipelines
from repro.errors import SignatureError
from repro.hardware import trace
from repro.planner.fusion import (
    FUSED_AGG_PRIMITIVE,
    FUSED_PRIMITIVE,
    FUSED_PRIMITIVES,
    FUSED_PROBE_PRIMITIVE,
    MAX_FUSED_INPUTS,
    fuse_graph,
)
from repro.primitives.kernels import fused_map_filter, map_ops
from repro.primitives.values import Bitmap, PositionList
from repro.tpch.queries import q1, q6
from tests.conftest import make_executor


class TestFuseGraphStructure:
    def test_q6_collapses_to_single_agg_sink(self):
        graph = q6.build()
        fused = fuse_graph(graph)
        assert len(graph.nodes) == 9  # input graph untouched
        # The whole query — filter tree, materialization, revenue map,
        # and the block sum — becomes one fused aggregation kernel.
        assert set(fused.nodes) == {"sum_rev"}
        node = fused.nodes["sum_rev"]
        assert node.primitive == FUSED_AGG_PRIMITIVE
        steps = [s["primitive"] for s in node.params["steps"]]
        assert len(steps) == 9
        assert steps[-1] == "agg_block"
        assert sorted(steps) == sorted([
            "filter_bitmap", "filter_bitmap", "filter_bitmap",
            "bitmap_and", "bitmap_and", "materialize", "materialize",
            "map", "agg_block"])
        # The sink's fn is mirrored so chunk partials combine unfused.
        assert node.params["fn"] == "sum"
        # l_discount feeds two steps but is wired once (deduplicated).
        assert len(fused.in_edges("sum_rev")) == 4
        # One launch charged with the summed per-step argument count.
        assert node.cost_params["fused_num_args"] == 23
        fused.validate()

    def test_exit_keeps_node_id_and_downstream_edges(self):
        # `both` feeds two non-fusible consumers, so it stays the exit
        # of its fused group and keeps its id and out-edges.
        graph = self._two_filter_and()
        graph.add_node("m1", "materialize")
        graph.add_node("m2", "materialize")
        graph.connect("lineitem.l_quantity", "m1", 0)
        graph.connect("both", "m1", 1)
        graph.connect("lineitem.l_discount", "m2", 0)
        graph.connect("both", "m2", 1)
        graph.mark_output("m1")
        graph.mark_output("m2")
        fused = fuse_graph(graph)
        assert "both" in fused.nodes
        assert fused.nodes["both"].primitive == FUSED_PRIMITIVE
        consumers = {e.target for e in fused.out_edges("both")}
        assert consumers == {e.target for e in graph.out_edges("both")}

    def test_agg_breaker_fuses_as_sink(self):
        graph = PrimitiveGraph("chain")
        graph.add_node("m1", "map", params=dict(op="add_const", const=1))
        graph.add_node("m2", "map", params=dict(op="mul_const", const=2))
        graph.add_node("agg", "agg_block", params=dict(fn="sum"))
        graph.connect("lineitem.l_extendedprice", "m1", 0)
        graph.connect("m1", "m2", 0)
        graph.connect("m2", "agg", 0)
        graph.mark_output("agg")
        fused = fuse_graph(graph)
        assert set(fused.nodes) == {"agg"}
        node = fused.nodes["agg"]
        assert node.primitive == FUSED_AGG_PRIMITIVE
        assert node.is_breaker  # the sink keeps its breaker role
        assert [s["primitive"] for s in node.params["steps"]] == [
            "map", "map", "agg_block"]

    def test_non_agg_breaker_is_never_fused(self):
        graph = PrimitiveGraph("build_chain")
        graph.add_node("m1", "map", params=dict(op="add_const", const=1))
        graph.add_node("m2", "map", params=dict(op="mul_const", const=2))
        graph.add_node("build", "hash_build", params=dict(payload=False))
        graph.connect("orders.o_orderkey", "m1", 0)
        graph.connect("m1", "m2", 0)
        graph.connect("m2", "build", 0)
        graph.mark_output("build")
        fused = fuse_graph(graph)
        # hash_build is not an aggregation sink: the map chain fuses up
        # to (not into) it.
        assert set(fused.nodes) == {"m2", "build"}
        assert fused.nodes["m2"].primitive == FUSED_PRIMITIVE
        assert fused.nodes["build"].primitive == "hash_build"

    def test_multi_consumer_intermediate_stays(self):
        graph = PrimitiveGraph("diamond")
        graph.add_node("m", "map", params=dict(op="add_const", const=0))
        graph.add_node("f1", "filter_bitmap",
                       params=dict(cmp="lt", value=25))
        graph.add_node("f2", "filter_bitmap",
                       params=dict(cmp="ge", value=10))
        graph.add_node("both", "bitmap_and")
        graph.connect("lineitem.l_quantity", "m", 0)
        graph.connect("m", "f1", 0)
        graph.connect("m", "f2", 0)
        graph.connect("f1", "both", 0)
        graph.connect("f2", "both", 1)
        graph.mark_output("both")
        fused = fuse_graph(graph)
        # m's two consumers land in the same group, so the whole
        # diamond fuses: m is evaluated once and its value shared by
        # both filter steps inside the kernel.
        assert set(fused.nodes) == {"both"}
        node = fused.nodes["both"]
        assert node.primitive == FUSED_PRIMITIVE
        steps = node.params["steps"]
        assert sum(1 for s in steps if s["id"] == "m") == 1
        refs = [arg for s in steps for arg in s["args"]]
        assert refs.count(("step", "m")) == 2
        # One deduplicated scan input feeds the fused kernel.
        assert len(fused.in_edges("both")) == 1

    def test_marked_output_is_not_fused_away(self):
        graph = self._two_filter_and()
        graph.mark_output("f")  # f's bitmap must stay retrievable
        graph.mark_output("both")
        fused = fuse_graph(graph)
        assert "f" in fused.nodes
        assert fused.nodes["f"].primitive == "filter_bitmap"
        # g had no such constraint and still fuses into the AND.
        assert "g" not in fused.nodes
        assert fused.nodes["both"].primitive == FUSED_PRIMITIVE

    @staticmethod
    def _two_filter_and() -> PrimitiveGraph:
        graph = PrimitiveGraph("pair")
        graph.add_node("f", "filter_bitmap", params=dict(cmp="lt", value=25))
        graph.add_node("g", "filter_bitmap", params=dict(cmp="ge", value=5))
        graph.add_node("both", "bitmap_and")
        graph.connect("lineitem.l_quantity", "f", 0)
        graph.connect("lineitem.l_discount", "g", 0)
        graph.connect("f", "both", 0)
        graph.connect("g", "both", 1)
        return graph

    def test_device_mismatch_blocks_merge(self):
        graph = self._two_filter_and()
        graph.nodes["f"].device = "gpu0"
        graph.nodes["g"].device = "gpu0"
        graph.nodes["both"].device = "cpu0"
        graph.mark_output("both")
        # Producers live on a different device than the AND: no merge.
        assert fuse_graph(graph) is graph

    def test_nothing_fusible_returns_same_graph(self):
        graph = PrimitiveGraph("solo")
        graph.add_node("agg", "agg_block", params=dict(fn="sum"))
        graph.connect("lineitem.l_quantity", "agg", 0)
        graph.mark_output("agg")
        assert fuse_graph(graph) is graph

    def test_q1_multi_consumer_nodes_stay_unfused(self):
        graph = q1.build()
        fused = fuse_graph(graph)
        # Q1's shared intermediates with consumers in *different*
        # groups (the filter feeding six materializations, the price
        # column feeding two expressions) survive as standalone nodes.
        for nid in ("f_ship", "m_price"):
            assert nid in fused.nodes
            assert fused.nodes[nid].primitive == graph.nodes[nid].primitive
        # The group key feeds five sinks in five different groups, so
        # it cannot merge downstream — but its own producers merge INTO
        # it: keys survives as the exit of a fused group, still feeding
        # all five aggregations.
        assert fused.nodes["keys"].primitive == FUSED_PROBE_PRIMITIVE
        assert len(fused.out_edges("keys")) == len(graph.out_edges("keys"))
        # Single-consumer chains into the hash_agg sinks do fuse.
        agg_fused = [n for n in fused.nodes.values()
                     if n.primitive == FUSED_AGG_PRIMITIVE]
        assert agg_fused  # e.g. m_qty -> agg_qty
        assert all(n.params["steps"][-1]["primitive"] == "hash_agg"
                   for n in agg_fused)
        fused.validate()

    def test_input_slot_overflow_splits_into_two_groups(self):
        # 17 distinct scan columns exceed the 16-slot fused signature:
        # the chain must split into two fused groups, not fall back to
        # a fully unfused plan.
        graph = PrimitiveGraph("wide")
        cols = [f"t.c{i}" for i in range(17)]
        for i, col in enumerate(cols):
            graph.add_node(f"f{i}", "filter_bitmap",
                           params=dict(cmp="ge", value=0))
            graph.connect(col, f"f{i}", 0)
        prev = "f0"
        for i in range(1, len(cols)):
            nid = f"and{i}"
            graph.add_node(nid, "bitmap_and")
            graph.connect(prev, nid, 0)
            graph.connect(f"f{i}", nid, 1)
            prev = nid
        graph.mark_output(prev)
        fused = fuse_graph(graph)
        assert fused is not graph
        fused_nodes = [n for n in fused.nodes.values()
                       if n.primitive in FUSED_PRIMITIVES]
        assert len(fused_nodes) == 2
        for node in fused_nodes:
            assert len(fused.in_edges(node.node_id)) <= MAX_FUSED_INPUTS
        # Every original step ends up inside exactly one fused group or
        # as a surviving plain node; nothing is silently dropped.
        absorbed = sum(len(n.params["steps"]) for n in fused_nodes)
        plain = sum(1 for n in fused.nodes.values()
                    if n.primitive not in FUSED_PRIMITIVES)
        assert absorbed + plain == len(graph.nodes)
        fused.validate()


class TestFusedKernel:
    def test_empty_steps_rejected(self):
        with pytest.raises(SignatureError):
            fused_map_filter(np.arange(4), steps=[])

    def test_unfusible_step_rejected(self):
        steps = [{"id": "x", "primitive": "hash_build", "params": {},
                  "args": [("input", 0)]}]
        with pytest.raises(SignatureError):
            fused_map_filter(np.arange(4), steps=steps)

    def test_input_slot_out_of_range(self):
        steps = [{"id": "x", "primitive": "map",
                  "params": {"op": "add_const", "const": 1},
                  "args": [("input", 3)]}]
        with pytest.raises(SignatureError):
            fused_map_filter(np.arange(4), steps=steps)

    def test_bitmap_exit_matches_unfused_composition(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 50, size=97).astype(np.int64)
        d = rng.integers(0, 10, size=97).astype(np.int64)
        steps = [
            {"id": "fa", "primitive": "filter_bitmap",
             "params": {"cmp": "lt", "value": 25}, "args": [("input", 0)]},
            {"id": "fd", "primitive": "filter_bitmap",
             "params": {"cmp": "ge", "value": 5}, "args": [("input", 1)]},
            {"id": "and", "primitive": "bitmap_and", "params": {},
             "args": [("step", "fa"), ("step", "fd")]},
        ]
        result = fused_map_filter(a, d, steps=steps)
        assert isinstance(result, Bitmap)
        expected = Bitmap.from_mask((a < 25) & (d >= 5))
        assert np.array_equal(result.words, expected.words)

    def test_position_exit(self):
        a = np.array([5, 30, 7, 60, 2], dtype=np.int64)
        steps = [{"id": "f", "primitive": "filter_position",
                  "params": {"cmp": "lt", "value": 10},
                  "args": [("input", 0)]}]
        result = fused_map_filter(a, steps=steps)
        assert isinstance(result, PositionList)
        assert np.array_equal(result.positions, np.array([0, 2, 4]))


class TestFusionCounters:
    def test_q6_launch_and_node_counters(self, tiny_catalog):
        executor = make_executor()
        plain = executor.run(q6.build(), tiny_catalog, model="chunked",
                             chunk_size=2048, fuse=False)
        fused = executor.run(q6.build(), tiny_catalog, model="chunked",
                             chunk_size=2048, fuse=True)
        assert plain.stats.fused_nodes == 0
        assert fused.stats.fused_nodes == 1
        assert fused.stats.kernels_launched < plain.stats.kernels_launched
        # Q6 fuses 5 of 9 per-chunk nodes into one: >= 40% fewer launches.
        assert fused.stats.kernels_launched <= \
            0.6 * plain.stats.kernels_launched
        counts = trace.counters(executor.clock)
        assert counts["kernels_launched"] == fused.stats.kernels_launched
        assert counts["fused_kernels_launched"] > 0

    def test_chrome_trace_carries_counters(self, tiny_catalog):
        import json

        executor = make_executor()
        executor.run(q6.build(), tiny_catalog, model="chunked",
                     chunk_size=2048, fuse=True)
        payload = json.loads(trace.to_chrome_trace(executor.clock))
        meta = [e for e in payload["traceEvents"]
                if e.get("name") == "counters"]
        assert meta and meta[0]["args"]["fused_kernels_launched"] > 0

    def test_fused_makespan_not_worse(self, tiny_catalog):
        executor = make_executor()
        plain = executor.run(q6.build(), tiny_catalog, model="chunked",
                             chunk_size=2048, fuse=False)
        fused = executor.run(q6.build(), tiny_catalog, model="chunked",
                             chunk_size=2048, fuse=True)
        assert fused.stats.makespan <= plain.stats.makespan


class TestGraphStructureCaches:
    def test_topological_order_is_cached(self):
        graph = q6.build()
        first = graph.topological_order()
        assert graph._topo_cache is not None
        second = graph.topological_order()
        assert first == second
        assert first is not second  # callers get their own list

    def test_mutation_invalidates_caches(self):
        graph = q6.build()
        graph.topological_order()
        split_pipelines(graph)
        assert graph._topo_cache is not None
        assert graph._pipeline_cache is not None
        graph.add_node("extra", "map", params={"op": "add_const",
                                               "const": 1})
        assert graph._topo_cache is None
        assert graph._pipeline_cache is None
        assert "extra" in graph.topological_order()

    def test_split_pipelines_served_from_cache(self):
        graph = q6.build()
        first = split_pipelines(graph)
        second = split_pipelines(graph)
        assert [p.node_ids for p in first] == [p.node_ids for p in second]
        assert first[0] is second[0]  # shared, read-only objects


class TestMapOpsAstype:
    def test_int64_inputs_are_not_copied(self):
        a = np.arange(8, dtype=np.int64)
        assert np.shares_memory(map_ops._as_int64(a), a)

    def test_narrow_inputs_are_widened(self):
        a = np.arange(8, dtype=np.int32)
        widened = map_ops._as_int64(a)
        assert widened.dtype == np.int64
        assert not np.shares_memory(widened, a)

    def test_combine_keys_result(self):
        a = np.array([1, 2], dtype=np.int64)
        b = np.array([3, 4], dtype=np.int64)
        out = map_ops.MAP_OPS["combine_keys"](a, b, 10)
        assert np.array_equal(out, np.array([13, 24]))


class TestCliFusion:
    def test_query_module_unknown_name_exits_cleanly(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["run", "--query", "q99"])
        assert exc.value.code == 2
        assert "invalid choice: 'q99'" in capsys.readouterr().err

    def test_run_reports_fusion(self, capsys):
        from repro.cli import main
        code = main(["run", "--query", "q6", "--sf", "0.002",
                     "--chunk-size", "1024", "--model", "chunked"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fuse=True" in out
        assert "1 fused nodes" in out

    def test_no_fuse_flag(self, capsys):
        from repro.cli import main
        code = main(["run", "--query", "q6", "--sf", "0.002",
                     "--chunk-size", "1024", "--model", "chunked",
                     "--no-fuse"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fuse=False" in out
        assert "0 fused nodes" in out
