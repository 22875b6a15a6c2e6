"""Tests for the primitive graph (construction, validation, traversal)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import subplan_fingerprint
from repro.core.graph import DataEdge, PrimitiveGraph, ScanSource
from repro.core.pipelines import persisted_node_ids, split_pipelines
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


# The adjacency index == the scan definition


def scan_in_edges(graph, node_id):
    return sorted((e for e in graph.edges if e.target == node_id),
                  key=lambda e: e.input_index)


def scan_out_edges(graph, node_id):
    return [e for e in graph.edges
            if not e.is_scan and e.source == node_id]


def scan_persisted(graph, pipeline):
    member = set(pipeline.node_ids)
    out = set(pipeline.breaker_ids) | (member & set(graph.outputs))
    for edge in graph.edges:
        if not edge.is_scan and edge.source in member \
                and edge.target not in member:
            out.add(edge.source)
    return out


def scan_topological_order(graph):
    incoming = {nid: sum(1 for e in scan_in_edges(graph, nid)
                         if not e.is_scan) for nid in graph.nodes}
    ready = sorted(nid for nid, degree in incoming.items() if degree == 0)
    order = []
    while ready:
        nid = ready.pop(0)
        order.append(nid)
        for edge in scan_out_edges(graph, nid):
            incoming[edge.target] -= 1
            if incoming[edge.target] == 0:
                ready.append(edge.target)
        ready.sort()
    return order


def assert_index_matches_scan(graph):
    for nid in [*graph.nodes, "no-such-node"]:
        assert graph.in_edges(nid) == scan_in_edges(graph, nid)
        assert graph.out_edges(nid) == scan_out_edges(graph, nid)
    assert graph.scan_refs() == sorted(
        {e.source.ref for e in graph.edges if e.is_scan})
    assert graph.topological_order() == scan_topological_order(graph)


#: One step of a random build: the integers pick nodes / slots modulo
#: what exists, so every drawn step is applicable.
graph_steps = st.lists(st.tuples(
    st.sampled_from(("add_map", "add_breaker", "connect_node",
                     "connect_scan", "mark_output", "in_edges",
                     "out_edges", "split")),
    st.integers(0, 50), st.integers(0, 50), st.integers(0, 3)),
    max_size=40)


class TestAdjacencyIndex:
    @settings(max_examples=150, deadline=None)
    @given(graph_steps)
    def test_index_equals_scan_under_any_interleaving(self, steps):
        graph = PrimitiveGraph()
        graph.add_node("n0", "map")
        for op, a, b, slot in steps:
            ids = list(graph.nodes)
            if op == "add_map":
                graph.add_node(f"n{len(ids)}", "map")
            elif op == "add_breaker":
                graph.add_node(f"n{len(ids)}", "hash_agg")
            elif op == "connect_node" and len(ids) > 1:
                # Edges point from older to newer nodes: always a DAG.
                low, high = sorted((a % len(ids), b % len(ids)))
                if low != high:
                    graph.connect(ids[low], ids[high], slot)
            elif op == "connect_scan":
                graph.connect(f"t.c{b % 3}", ids[a % len(ids)], slot)
            elif op == "mark_output":
                graph.mark_output(ids[a % len(ids)])
            elif op == "in_edges":
                # A caller scribbling on its list must not reach the index.
                graph.in_edges(ids[a % len(ids)]).clear()
                graph.scan_refs().append("bogus.column")
            elif op == "out_edges":
                graph.out_edges(ids[a % len(ids)]).append(None)
            elif op == "split":
                split_pipelines(graph).clear()
            assert_index_matches_scan(graph)
            cached = split_pipelines(graph)
            for pipeline in cached:
                assert persisted_node_ids(graph, pipeline) \
                    == scan_persisted(graph, pipeline)
            graph._invalidate_caches()
            assert split_pipelines(graph) == cached

    def test_out_of_band_edge_append_is_noticed(self):
        graph = PrimitiveGraph()
        graph.add_node("a", "map")
        graph.add_node("b", "hash_agg")
        graph.add_node("c", "map")
        graph.connect("t.x", "a", 0)
        graph.connect("a", "b", 0)
        assert graph.topological_order() == ["a", "b", "c"]
        assert len(split_pipelines(graph)) == 2
        # Breaking the mutation contract: no connect(), no invalidation.
        graph.edges.append(DataEdge(data_id=99, source="c", target="a",
                                    input_index=1))
        assert_index_matches_scan(graph)
        assert graph.topological_order() == ["c", "a", "b"]
        assert [p.node_ids for p in split_pipelines(graph)] \
            == [["c", "a", "b"]]
