"""Differential tests for the host-side hot path.

The per-invocation path looks chunk-invariant things up once: the graph
answers adjacency from an index, the clock answers ``events_of`` from
per-owner lists, and breakers merge all chunk partials in one k-way
pass.  Each of those replaced a scanning / pairwise implementation; the
old bodies live on here, as oracles, and the new code must agree with
them exactly — byte for byte where values are arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.exchange import merge_group_tables, merge_outputs
from repro.core.combine import ChunkPartial, combine_chunk_results
from repro.core.graph import DataEdge, PrimitiveGraph
from repro.core.pipelines import persisted_node_ids, split_pipelines
from repro.hardware.clock import VirtualClock
from repro.primitives.kernels import hash_agg, hash_build, merge_hash_tables
from repro.primitives.values import GroupTable, HashTable

# ---------------------------------------------------------------------------
# (a) k-way breaker merge == left fold of the pairwise merge


def pairwise_group_merge(left: GroupTable, right: GroupTable, *,
                         how: dict[str, str]) -> GroupTable:
    """``GroupTable.merge`` as it was when chunks were folded pairwise."""
    all_keys = np.concatenate([left.keys, right.keys])
    keys, inverse = np.unique(all_keys, return_inverse=True)
    merged = {}
    for name, mine in left.aggregates.items():
        stacked = np.concatenate([mine, right.aggregates[name]])
        kind = how.get(name, "sum")
        if kind == "sum":
            out = np.zeros(len(keys), dtype=stacked.dtype)
            np.add.at(out, inverse, stacked)
        elif kind == "min":
            out = np.full(len(keys), np.iinfo(stacked.dtype).max,
                          dtype=stacked.dtype)
            np.minimum.at(out, inverse, stacked)
        else:
            out = np.full(len(keys), np.iinfo(stacked.dtype).min,
                          dtype=stacked.dtype)
            np.maximum.at(out, inverse, stacked)
        merged[name] = out
    return GroupTable(keys=keys, aggregates=merged)


def pairwise_hash_merge(left: HashTable, right: HashTable) -> HashTable:
    """``merge_hash_tables`` as it was: rebuild the union of two tables."""
    keys = np.concatenate([
        np.repeat(left.keys, np.diff(left.offsets)),
        np.repeat(right.keys, np.diff(right.offsets)),
    ])
    positions = np.concatenate([left.positions, right.positions])
    names = sorted(set(left.payload) | set(right.payload))
    columns = tuple(
        np.concatenate([left.payload.get(n, np.empty(0, dtype=np.int64)),
                        right.payload.get(n, np.empty(0, dtype=np.int64))])
        for n in names)
    rebuilt = hash_build(keys, *columns, payload_names=tuple(names))
    rebuilt.positions = positions[np.argsort(keys, kind="stable")]
    return rebuilt


def fold(values, merge):
    merged = values[0]
    for value in values[1:]:
        merged = merge(merged, value)
    return merged


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def assert_same_group_table(a: GroupTable, b: GroupTable) -> None:
    assert same_array(a.keys, b.keys)
    assert list(a.aggregates) == list(b.aggregates)
    for name in a.aggregates:
        assert same_array(a.aggregates[name], b.aggregates[name]), name


def assert_same_hash_table(a: HashTable, b: HashTable) -> None:
    assert same_array(a.keys, b.keys)
    assert same_array(a.offsets, b.offsets)
    assert same_array(a.positions, b.positions)
    assert list(a.payload) == list(b.payload)
    for name in a.payload:
        assert same_array(a.payload[name], b.payload[name]), name


@st.composite
def chunked_keys(draw):
    """1..12 chunks of int64 keys: overlapping or disjoint key sets, and
    (often) an empty chunk somewhere."""
    n_chunks = draw(st.integers(1, 12))
    disjoint = draw(st.booleans())
    chunks = []
    for index in range(n_chunks):
        low = index * 100 if disjoint else 0
        chunks.append(np.array(draw(st.lists(
            st.integers(low, low + draw(st.sampled_from((3, 40)))),
            max_size=draw(st.sampled_from((0, 6, 25))))), dtype=np.int64))
    return chunks


#: Large enough that sums of a dozen chunks wrap around int64.
big_ints = st.integers(-2**62, 2**62)


class TestGroupTableMerge:
    @settings(max_examples=120, deadline=None)
    @given(chunked_keys(), st.sampled_from(("sum", "count", "min", "max")),
           st.data())
    def test_kway_equals_pairwise_fold(self, chunks, fn, data):
        tables = []
        for keys in chunks:
            values = np.array(data.draw(st.lists(
                big_ints, min_size=len(keys), max_size=len(keys))),
                dtype=np.int64)
            tables.append(hash_agg(keys, values, fn=fn))
        how = {fn: "sum" if fn in ("sum", "count") else fn}
        with np.errstate(over="ignore"):
            expected = fold(tables, lambda a, b: pairwise_group_merge(
                a, b, how=how))
            merged = GroupTable.merge_all(tables, how=how)
            combined = combine_chunk_results(
                [ChunkPartial(t, 0) for t in tables], agg_fn=fn)
            exchanged = merge_group_tables(tables)
        assert_same_group_table(merged, expected)
        assert_same_group_table(exchanged, expected)
        if len(tables) > 1:
            assert_same_group_table(combined, expected)
        else:
            assert combined is tables[0]

    def test_two_table_merge_is_the_kway_merge(self):
        a = hash_agg(np.array([1, 2, 2]), np.array([5, 6, 7]), fn="max")
        b = hash_agg(np.array([2, 9]), np.array([1, 3]), fn="max")
        assert_same_group_table(
            a.merge(b, how={"max": "max"}),
            pairwise_group_merge(a, b, how={"max": "max"}))

    def test_several_aggregates_merge_by_their_own_kind(self):
        tables = [
            GroupTable(np.array([1, 2]), {"min": np.array([4, 9]),
                                          "max": np.array([4, 9]),
                                          "count": np.array([1, 2])}),
            GroupTable(np.array([2, 3]), {"min": np.array([1, 5]),
                                          "max": np.array([11, 5]),
                                          "count": np.array([3, 1])}),
            GroupTable(np.array([1]), {"min": np.array([7]),
                                       "max": np.array([7]),
                                       "count": np.array([1])}),
        ]
        how = {"min": "min", "max": "max", "count": "sum"}
        assert_same_group_table(
            merge_group_tables(tables),
            fold(tables, lambda a, b: pairwise_group_merge(a, b, how=how)))

    def test_unknown_kind_still_rejected(self):
        table = GroupTable(np.array([1]), {"avg": np.array([1])})
        with pytest.raises(ValueError):
            GroupTable.merge_all([table, table, table], how={"avg": "mean"})


class TestHashTableMerge:
    @settings(max_examples=120, deadline=None)
    @given(chunked_keys(), st.integers(0, 2), st.data())
    def test_kway_equals_pairwise_fold(self, chunks, n_payload, data):
        # Both merges emit payload columns in sorted-name order.
        names = ("a", "v")[:n_payload]
        tables, base = [], 0
        for keys in chunks:
            columns = [np.array(data.draw(st.lists(
                st.integers(-1000, 1000), min_size=len(keys),
                max_size=len(keys))), dtype=np.int64) for _ in names]
            tables.append(hash_build(keys, *columns, payload_names=names,
                                     base_position=base))
            base += len(keys)
        expected = fold(tables, pairwise_hash_merge)
        assert_same_hash_table(merge_hash_tables(*tables), expected)
        combined = combine_chunk_results(
            [ChunkPartial(t, 0) for t in tables])
        if len(tables) > 1:
            assert_same_hash_table(combined, expected)
        else:
            assert combined is tables[0]

    def test_cluster_exchange_uses_the_same_merge(self):
        graph = PrimitiveGraph()
        graph.add_node("b", "hash_build")
        graph.mark_output("b")
        tables = [hash_build(np.array(keys), base_position=base)
                  for base, keys in ((0, [3, 1, 3]), (3, [1, 7]), (5, [3]))]
        merged = merge_outputs(graph, [{"b": t} for t in tables])["b"]
        assert_same_hash_table(merged, fold(tables, pairwise_hash_merge))


# ---------------------------------------------------------------------------
# (b) adjacency index == the scan definition


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


# ---------------------------------------------------------------------------
# (c) per-owner event lists == the filter over the whole timeline

OWNERS = (None, "", "qa", "qb", "qc")

clock_steps = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(OWNERS),
              st.integers(0, 2)),
    st.tuples(st.just("begin_epoch"), st.none(), st.none()),
    st.tuples(st.just("drop_stream"), st.none(), st.integers(0, 2)),
    st.tuples(st.just("reset"), st.none(), st.none()),
), max_size=60)


class TestEventsOfIndex:
    @settings(max_examples=150, deadline=None)
    @given(clock_steps)
    def test_events_of_equals_filter(self, steps):
        clock = VirtualClock()
        for op, owner, stream in steps:
            if op == "schedule":
                clock.current_owner = owner
                clock.schedule(f"s{stream}", 0.5)
            elif op == "begin_epoch":
                clock.begin_epoch()
            elif op == "drop_stream":
                clock.drop_stream(f"s{stream}")
            else:
                clock.reset()
            for query in ("", "qa", "qb", "qc", "never-ran"):
                assert clock.events_of(query) == [
                    e for e in clock.events if e.owner in (query, "")]

    def test_returned_list_is_the_callers(self):
        clock = VirtualClock()
        clock.current_owner = "qa"
        clock.schedule("s", 1.0)
        clock.events_of("qa").clear()
        clock.events_of("").append(None)
        assert len(clock.events_of("qa")) == 1
        assert clock.events_of("") == []
