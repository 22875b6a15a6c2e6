"""Tests for the primitive graph (construction, validation, traversal)."""

import pytest

from repro.core.fingerprint import subplan_fingerprint
from repro.core.graph import PrimitiveGraph, ScanSource
from repro.core.pipelines import split_pipelines
from repro.devices import CudaDevice
from repro.engine import Engine, QueryRequest
from repro.errors import GraphValidationError, UnknownPrimitiveError
from repro.hardware import GPU_RTX_2080_TI
from repro.tpch import reference
from repro.tpch.queries import q3


def filter_materialize_graph():
    g = PrimitiveGraph("t")
    g.add_node("f", "filter_bitmap", params=dict(cmp="lt", value=5))
    g.add_node("m", "materialize")
    g.connect("t.col", "f", 0)
    g.connect("t.col", "m", 0)
    g.connect("f", "m", 1)
    g.mark_output("m")
    return g


class TestConstruction:
    def test_scan_source_parsing(self):
        source = ScanSource("lineitem.l_discount")
        assert source.table == "lineitem"
        assert source.column == "l_discount"

    def test_string_with_dot_becomes_scan(self):
        g = filter_materialize_graph()
        scan_edges = [e for e in g.edges if e.is_scan]
        assert len(scan_edges) == 2
        assert all(e.source.ref == "t.col" for e in scan_edges)

    def test_duplicate_node_rejected(self):
        g = PrimitiveGraph()
        g.add_node("a", "map")
        with pytest.raises(GraphValidationError):
            g.add_node("a", "map")

    def test_unknown_primitive_rejected(self):
        with pytest.raises(UnknownPrimitiveError):
            PrimitiveGraph().add_node("a", "warp_shuffle")

    def test_unknown_source_node(self):
        g = PrimitiveGraph()
        g.add_node("a", "map")
        with pytest.raises(GraphValidationError):
            g.connect("ghost", "a", 0)

    def test_unknown_target(self):
        g = PrimitiveGraph()
        with pytest.raises(GraphValidationError):
            g.connect("t.col", "ghost", 0)

    def test_unknown_output(self):
        with pytest.raises(GraphValidationError):
            PrimitiveGraph().mark_output("ghost")

    def test_mark_output_idempotent(self):
        g = filter_materialize_graph()
        g.mark_output("m")
        assert g.outputs == ["m"]

    def test_edge_ids_unique(self):
        g = filter_materialize_graph()
        ids = [e.data_id for e in g.edges]
        assert len(set(ids)) == len(ids)

    def test_scan_refs_deduplicated(self):
        assert filter_materialize_graph().scan_refs() == ["t.col"]


class TestTraversal:
    def test_in_edges_ordered_by_slot(self):
        g = PrimitiveGraph()
        g.add_node("m", "materialize")
        g.connect("t.b", "m", 1)
        g.connect("t.a", "m", 0)
        slots = [e.input_index for e in g.in_edges("m")]
        assert slots == [0, 1]

    def test_topological_order(self):
        g = filter_materialize_graph()
        order = g.topological_order()
        assert order.index("f") < order.index("m")

    def test_cycle_detected(self):
        g = PrimitiveGraph()
        g.add_node("a", "map")
        g.add_node("b", "map")
        g.connect("a", "b", 0)
        g.connect("b", "a", 0)
        with pytest.raises(GraphValidationError):
            g.topological_order()


class TestValidation:
    def test_valid_graph_passes(self):
        filter_materialize_graph().validate()

    def test_missing_required_input(self):
        g = PrimitiveGraph()
        g.add_node("f", "filter_bitmap")
        with pytest.raises(GraphValidationError):
            g.validate()

    def test_too_many_inputs(self):
        g = PrimitiveGraph()
        g.add_node("f", "filter_bitmap", params=dict(cmp="lt", value=1))
        g.connect("t.a", "f", 0)
        g.connect("t.b", "f", 1)
        with pytest.raises(GraphValidationError):
            g.validate()

    def test_duplicate_slot(self):
        g = PrimitiveGraph()
        g.add_node("m", "map", params=dict(op="add"))
        g.connect("t.a", "m", 0)
        g.connect("t.b", "m", 0)
        with pytest.raises(GraphValidationError):
            g.validate()

    def test_semantic_mismatch(self):
        # materialize slot 1 expects BITMAP; a map output is NUMERIC.
        g = PrimitiveGraph()
        g.add_node("mp", "map", params=dict(op="identity"))
        g.add_node("m", "materialize")
        g.connect("t.a", "mp", 0)
        g.connect("t.a", "m", 0)
        g.connect("mp", "m", 1)
        with pytest.raises(GraphValidationError):
            g.validate()

    def test_optional_inputs_allowed(self):
        g = PrimitiveGraph()
        g.add_node("agg", "hash_agg", params=dict(fn="count"))
        g.connect("t.keys", "agg", 0)
        g.validate()  # one input suffices for COUNT

    def test_generic_input_accepts_anything(self):
        g = PrimitiveGraph()
        g.add_node("f", "filter_position", params=dict(cmp="lt", value=1))
        g.add_node("js", "join_side")  # GENERIC input
        g.connect("t.a", "f", 0)
        g.connect("f", "js", 0)
        g.validate()


class TestRuntimeState:
    def test_reset_runtime_state(self):
        # Run state is a fresh table per run; the edges hold none.
        g = filter_materialize_graph()
        first = g.reset_runtime_state()
        first[g.edges[0].data_id] = "gpu0"
        assert g.reset_runtime_state() == {}
        assert g.reset_runtime_state() is not first
        assert [list(vars(edge)) for edge in g.edges] == [
            ["data_id", "source", "target", "input_index"]] * len(g.edges)

    def test_node_breaker_flag(self):
        g = PrimitiveGraph()
        agg = g.add_node("a", "agg_block", params=dict(fn="sum"))
        mat = g.add_node("m", "materialize")
        assert agg.is_breaker
        assert not mat.is_breaker


class TestBind:
    """``bind`` re-parameterises a plan: siblings share the read-only
    derived structure and nothing else."""

    def test_bound_graph_owns_nodes_and_edges(self):
        template = filter_materialize_graph()
        bound = template.bind({"f": dict(cmp="lt", value=9)})
        assert bound.nodes["f"].params == dict(cmp="lt", value=9)
        assert template.nodes["f"].params == dict(cmp="lt", value=5)
        assert bound.outputs == ["m"] and bound.outputs is not template.outputs
        for mine, theirs in zip(bound.edges, template.edges):
            assert mine is not theirs
            assert (mine.data_id, mine.source, mine.target,
                    mine.input_index) == (theirs.data_id, theirs.source,
                                          theirs.target, theirs.input_index)
        for nid, node in bound.nodes.items():
            assert node is not template.nodes[nid]
            assert node.params is not template.nodes[nid].params
        assert bound._topo_cache is template._topo_cache
        assert bound._pipeline_cache is template._pipeline_cache
        assert [e.data_id for e in bound.in_edges("m")] == [1, 2]

    def test_unknown_node_and_invalid_template_rejected(self):
        with pytest.raises(GraphValidationError, match="ghost"):
            filter_materialize_graph().bind({"ghost": {}})
        cyclic = PrimitiveGraph()
        cyclic.add_node("a", "map")
        cyclic.add_node("b", "map")
        cyclic.connect("a", "b", 0)
        cyclic.connect("b", "a", 0)
        with pytest.raises(GraphValidationError):
            cyclic.bind({})

    def test_mutating_one_sibling_detaches_only_it(self):
        template = filter_materialize_graph()
        left = template.bind({"f": dict(cmp="lt", value=1)})
        right = template.bind({"f": dict(cmp="lt", value=1)})
        split = [(p.node_ids, p.persisted_ids) for p in split_pipelines(right)]
        digest = subplan_fingerprint(right, "m")
        assert subplan_fingerprint(left, "m") == digest

        left.add_node("extra", "map", params=dict(op="add_const", const=1))
        edge = left.connect("m", "extra", 0)
        left.mark_output("extra")
        assert edge.data_id == len(right.edges)  # ids stay unique
        assert [p.node_ids for p in split_pipelines(left)] == [
            ["f", "m", "extra"]]
        assert left._topo_cache is not template._topo_cache
        assert "extra" not in right.nodes and len(right.edges) == 3
        assert right._topo_cache is template._topo_cache
        assert [(p.node_ids, p.persisted_ids)
                for p in split_pipelines(right)] == split == [
            (["f", "m"], ["m"])]
        assert subplan_fingerprint(right, "m") == digest
        assert subplan_fingerprint(left, "m") == digest  # same subtree
        assert subplan_fingerprint(left, "extra") != digest

    def test_siblings_run_concurrently(self, tiny_catalog):
        dates = ("1995-03-15", "1995-03-01")
        first, second = (q3.build(tiny_catalog, date=date) for date in dates)
        assert first._pipeline_cache is second._pipeline_cache
        engine = Engine()
        engine.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI)

        # A run keeps its state to itself: no sibling's edges change.
        edges = [vars(e).copy() for e in first.edges]
        engine.execute(first, tiny_catalog, chunk_size=2048)
        assert [vars(e) for e in first.edges] == edges
        assert [vars(e) for e in second.edges] == edges

        results = engine.run_concurrent([
            QueryRequest(graph=graph, catalog=tiny_catalog, chunk_size=2048)
            for graph in (first, second)])
        for result, date in zip(results, dates):
            assert q3.finalize(result, tiny_catalog) == reference.q3(
                tiny_catalog, date=date)
