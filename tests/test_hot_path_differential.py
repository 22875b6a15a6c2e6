"""Differential tests for the host-side hot path.

The per-invocation path looks chunk-invariant things up once: the graph
answers adjacency from an index, the clock answers ``events_of`` from
per-owner lists, a finished query's statistics come from one pass over
them, and breakers merge all chunk partials in one k-way pass.  The data path does no per-row Python: a probe resolves keys
through a direct-address directory and expands matches with flat array
operations, a cluster shards sorted tables into slice views, and
aggregation, merge and build group dense integer keys by direct address
instead of sorting them.  Each of those replaced a scanning / pairwise /
per-row / sorting implementation; the old bodies live on here, as
oracles, and the new code must agree with them exactly — byte for byte
where values are arrays.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.exchange import merge_group_tables, merge_outputs
from repro.cluster.partition import make_scheme, partition_table
from repro.core.combine import ChunkPartial, combine_chunk_results
from repro.core.fingerprint import subplan_fingerprint
from repro.core.graph import DataEdge, PrimitiveGraph
from repro.core.models import MODELS, SplitChunkedModel, shallow_hash_pipeline
from repro.core.pipelines import persisted_node_ids, split_pipelines
from repro.devices import (
    CoupledDevice,
    CudaDevice,
    OpenCLDevice,
    OpenMPDevice,
    RTCoreDevice,
)
from repro.engine import Engine
from repro.errors import SignatureError
from repro.hardware import (
    APU_RYZEN_7_8700G,
    CPU_I7_8700,
    CPU_XEON_5220R,
    GPU_A100,
    GPU_RTX_2080_TI,
    GPU_RTX_3090,
)
from repro.hardware import calibration as cal
from repro.hardware.clock import VirtualClock
from repro.hardware.costmodel import TransferDirection
from repro.hardware.specs import Sdk
from repro.planner import cost as cost_module
from repro.planner.cost import PipelineCost, PlanCost, PricingTable
from repro.planner.ir import PhysicalPlan
from repro.planner.optimizer import PlanOptimizer
from repro.primitives.kernels import (
    gather_payload,
    hash_agg,
    hash_build,
    hash_ops,
    hash_probe,
    merge_hash_tables,
)
from repro.primitives.values import (
    GroupTable,
    HashTable,
    JoinPairs,
    PositionList,
    group_index,
)
from repro.storage import Catalog, Column, DictionaryColumn, Table
from repro.tpch.queries import QUERIES, q3
from tests.conftest import make_context, make_executor

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
            elif op == "drop_stream":
                clock.drop_stream(f"s{stream}")
            else:
                clock.reset()
            for query in ("", "qa", "qb", "qc", "never-ran"):
                assert clock.events_of(query) == [
                    e for e in clock.events if e.owner == query]

    def test_returned_list_is_the_callers(self):
        clock = VirtualClock()
        clock.current_owner = "qa"
        clock.schedule("s", 1.0)
        clock.events_of("qa").clear()
        clock.events_of("").append(None)
        assert len(clock.events_of("qa")) == 1
        assert clock.events_of("") == []


# ---------------------------------------------------------------------------
# (c') collect_stats in one pass over the events == one pass per figure
# ---------------------------------------------------------------------------

def rescanning_stats_facts(ctx) -> dict:
    """What ``collect_stats`` derives from the event list, as it was:
    one generator pass per figure."""
    query = ctx.query
    events = ctx.clock.events_of(query.query_id)
    categories: dict[str, float] = {}
    for e in events:
        categories[e.category] = categories.get(e.category, 0.0) \
            + e.duration
    end = max((e.end for e in events), default=query.epoch_start)
    restart_eid = max((e.eid for e in events
                       if e.category == "recovery"), default=-1)
    return dict(
        makespan=max(0.0, end - query.epoch_start),
        time_by_category=categories,
        transfer_bytes=sum(e.nbytes for e in events
                           if e.category == "transfer"),
        kernel_invocations=sum(1 for e in events
                               if e.category == "compute"),
        residency_hits=sum(1 for e in events if e.category == "cache"),
        residency_hit_bytes=sum(e.nbytes for e in events
                                if e.category == "cache"),
        kernels_launched=sum(1 for e in events
                             if e.category == "launch"
                             and e.eid > restart_eid),
    )


class TestCollectStats:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["", "q0", "other"]), st.integers(0, 2),
        st.sampled_from(["compute", "launch", "transfer", "cache",
                         "recovery", "subplan", "alloc"]),
        st.integers(0, 1 << 40),
        st.floats(0.0, 2.0, allow_nan=False)), max_size=40),
        st.floats(0.0, 30.0, allow_nan=False))
    def test_one_pass_equals_one_pass_per_figure(self, steps, epoch_start):
        ctx = make_context(None)
        ctx.query.epoch_start = epoch_start
        for owner, stream, category, nbytes, duration in steps:
            ctx.clock.current_owner = owner
            ctx.clock.schedule(f"s{stream}", duration, category=category,
                               nbytes=nbytes)
        stats = ctx.collect_stats(chunks=3)
        expected = rescanning_stats_facts(ctx)
        assert {key: getattr(stats, key) for key in expected} == expected
        assert list(stats.time_by_category) == list(
            expected["time_by_category"])


# ---------------------------------------------------------------------------
# (d) run-expanding, direct-address HASH_PROBE == one slice per matching row


def slicing_hash_probe(keys, table, *, mode="inner"):
    """``hash_probe`` as it was: a binary search per probe key, then one
    slice of ``positions`` per matching probe row."""
    idx = np.searchsorted(table.keys, keys)
    idx_clipped = np.minimum(idx, max(table.num_keys - 1, 0))
    if table.num_keys:
        hit = table.keys[idx_clipped] == keys
    else:
        hit = np.zeros(keys.shape, dtype=bool)
    if mode == "semi":
        return PositionList(np.nonzero(hit)[0])
    if mode == "anti":
        return PositionList(np.nonzero(~hit)[0])
    probe_rows = np.nonzero(hit)[0]
    slot = idx_clipped[probe_rows]
    counts = (table.offsets[slot + 1] - table.offsets[slot]).astype(np.int64)
    left = np.repeat(probe_rows, counts)
    right = np.concatenate([
        table.positions[table.offsets[s]:table.offsets[s + 1]]
        for s in slot
    ]) if len(slot) else np.empty(0, dtype=np.int64)
    return JoinPairs(left=left, right=right)


def scattering_gather_payload(pairs, table, *, name):
    """``gather_payload`` as it was: the row -> slot inverse rebuilt on
    every call."""
    column = table.payload[name]
    if len(pairs) == 0:
        return np.empty(0, dtype=column.dtype)
    size = int(table.positions.max()) + 1 if len(table.positions) else 0
    slot_of_row = np.full(size, -1, dtype=np.int64)
    slot_of_row[table.positions] = np.arange(len(table.positions))
    return column[slot_of_row[pairs.right]]


def has_directory(table: HashTable) -> bool:
    """Whether the probes made so far went through the slot directory."""
    return table._directory is not None and len(table._directory) > 0


def qualifies_for_directory(keys: np.ndarray) -> bool:
    """The documented rule: integer keys, span <= 8 * num_keys + 1024."""
    distinct = np.unique(keys)
    if keys.dtype.kind not in "iu" or keys.dtype == np.uint64 \
            or not len(distinct):
        return False
    span = int(distinct[-1]) - int(distinct[0]) + 1
    return span <= 8 * len(distinct) + 1024


def build_table(chunks: list[np.ndarray], base: int) -> HashTable:
    """One table per chunk at consecutive row offsets (each carrying its
    row numbers as payload ``v``), merged when there are several."""
    tables = []
    for keys in chunks:
        rows = np.arange(base, base + len(keys), dtype=np.int64)
        tables.append(hash_build(keys, rows * 7, payload_names=("v",),
                                 base_position=base))
        base += len(keys)
    return tables[0] if len(tables) == 1 else merge_hash_tables(*tables)


def assert_probe_matches_oracle(probe: np.ndarray, table: HashTable) -> None:
    for mode in ("semi", "anti"):
        new = hash_probe(probe, table, mode=mode)
        old = slicing_hash_probe(probe, table, mode=mode)
        assert same_array(new.positions, old.positions), mode
    new = hash_probe(probe, table)
    old = slicing_hash_probe(probe, table)
    assert same_array(new.left, old.left)
    assert same_array(new.right, old.right)
    if "v" in table.payload:
        assert same_array(gather_payload(new, table, name="v"),
                          scattering_gather_payload(old, table, name="v"))


def cast_keys(values: list[int], dtype) -> np.ndarray:
    """*values* as *dtype*, clipped into its range first."""
    if np.dtype(dtype).kind == "f":
        # Halves make keys no integer equals.
        return np.array(values, dtype=dtype) / 2
    info = np.iinfo(dtype)
    return np.array([min(max(v, info.min), info.max) for v in values],
                    dtype=dtype)


KEY_DTYPES = (np.int64, np.int32, np.int8, np.uint8, np.uint32, np.uint64,
              np.float64)


@st.composite
def probe_cases(draw):
    """(build chunks, base position, probe keys): dense or sparse build
    keys of any key dtype, duplicates, 1-3 chunks, and probe keys that
    hit, miss inside the span and fall below and above it."""
    low = draw(st.sampled_from((0, -20, 10**6, -10**12)))
    width = draw(st.sampled_from((6, 60, 10**5, 10**10)))
    key = st.integers(low, low + width)
    build_dtype = draw(st.sampled_from(KEY_DTYPES))
    chunks = [cast_keys(draw(st.lists(key, max_size=25)), build_dtype)
              for _ in range(draw(st.integers(1, 3)))]
    built = [int(k) for chunk in chunks for k in chunk
             if build_dtype != np.float64]
    probe = st.one_of(
        key, st.integers(low - 30, low + width + 30),
        *([st.sampled_from(built)] if built else []))
    probe_dtype = draw(st.sampled_from((build_dtype, *KEY_DTYPES)))
    return (chunks, draw(st.sampled_from((0, 1000))),
            cast_keys(draw(st.lists(probe, max_size=40)), probe_dtype))


class TestHashProbe:
    @settings(max_examples=300, deadline=None)
    @given(probe_cases())
    def test_new_probe_equals_slicing_probe(self, case):
        chunks, base, probe = case
        table = build_table(chunks, base)
        assert_probe_matches_oracle(probe, table)
        assert has_directory(table) \
            == qualifies_for_directory(np.concatenate(chunks))

    def test_dense_keys_get_a_directory_sparse_and_float_keys_do_not(self):
        probe = np.array([5, 1, 99, 10**9, -3], dtype=np.int64)
        dense = hash_build(np.array([5, 7, 5, 1, 99], dtype=np.int64))
        sparse = hash_build(np.array([5, 7, 10**9], dtype=np.int64))
        floats = hash_build(np.array([5.0, 7.0, 1.5]))
        for table in (dense, sparse, floats):
            assert table._directory is None     # nothing built eagerly
            assert_probe_matches_oracle(probe, table)
        assert has_directory(dense)
        assert not has_directory(sparse) and not has_directory(floats)
        # Derived state is not part of the modelled table.
        assert dense.nbytes == hash_build(
            np.array([5, 7, 5, 1, 99], dtype=np.int64)).nbytes

    def test_float_probe_of_a_dense_table_is_searched(self):
        table = hash_build(np.arange(10, dtype=np.int64))
        probe = np.array([3.0, 3.5, -1.0, 9.0, 10.0])
        assert_probe_matches_oracle(probe, table)
        assert list(hash_probe(probe, table, mode="semi").positions) == [0, 3]

    @pytest.mark.parametrize("build", [
        [0, 1, 2], [-2**62 + 1, -2**62 + 2], [2**62 - 2, 2**62 - 1],
        [-2**62, -2**62 + 1], [2**63 - 2, 2**63 - 1], [-2**63, -2**63 + 1],
    ])
    def test_probe_keys_at_the_ends_of_int64(self, build):
        """No int64 wrap-around of ``key - keys[0]`` lands in the span."""
        table = hash_build(np.array(build, dtype=np.int64))
        probe = np.array([-2**63, -2**63 + 1, -2**62, -1, 0, 1, 2, 2**62,
                          2**63 - 2, 2**63 - 1, *build], dtype=np.int64)
        assert_probe_matches_oracle(probe, table)
        assert has_directory(table)

    def test_empty_table_and_empty_probe(self):
        empty = hash_build(np.empty(0, dtype=np.int64))
        table = hash_build(np.array([4, 4, 2], dtype=np.int64))
        nothing = np.empty(0, dtype=np.int64)
        assert_probe_matches_oracle(np.array([1, 2], dtype=np.int64), empty)
        assert_probe_matches_oracle(nothing, empty)
        assert_probe_matches_oracle(nothing, table)
        pairs = hash_probe(np.array([9, 8], dtype=np.int64), table)
        assert len(pairs) == 0 and pairs.right.dtype == np.int64

    def test_gather_rejects_rows_the_table_does_not_hold(self):
        table = hash_build(np.array([4, 2]), np.array([40, 20]),
                           payload_names=("v",), base_position=3)
        stray = JoinPairs(left=np.array([0]), right=np.array([1]))
        with pytest.raises(SignatureError):
            gather_payload(stray, table, name="v")

    @pytest.mark.parametrize("stray", [-1, -3, -2**63, 3, 2**40, 2**63 - 1])
    def test_gather_rejects_negative_and_out_of_range_rows(self, stray):
        """A row before the first or past the last build row is "not in
        the table": no wrap-around to the last row's payload, no bare
        ``IndexError``."""
        table = hash_build(np.array([5, 3, 9]), np.array([50, 30, 90]),
                           payload_names=("p",))
        rows = np.array([2, stray, 0], dtype=np.int64)
        assert table.slots_of_rows(rows).tolist() == [2, -1, 1]
        with pytest.raises(SignatureError,
                           match="join pairs reference rows not in the table"):
            gather_payload(JoinPairs(left=np.zeros(3), right=rows), table,
                           name="p")
        held = JoinPairs(left=np.zeros(3), right=np.array([2, 1, 0]))
        assert gather_payload(held, table, name="p").tolist() == [90, 30, 50]


# ---------------------------------------------------------------------------
# (e) slice-view partitioning == one mask and one copy per column per node


def mask_partition_table(table, key, ranges):
    """``partition_table`` as it was (dictionaries copied per shard)."""
    values = table.column(key).values
    parts = []
    for r in ranges:
        mask = (values >= r.lo) & (values < r.hi)
        columns = []
        for column in table.columns:
            if isinstance(column, DictionaryColumn):
                columns.append(DictionaryColumn(
                    column.name, column.values[mask],
                    dictionary=list(column.dictionary)))
            else:
                columns.append(Column(column.name, column.values[mask]))
        parts.append(Table(table.name, columns))
    return parts


def orders_table(keys: list[int]) -> Table:
    rows = np.arange(len(keys), dtype=np.int64)
    return Table("orders", [
        Column("o_orderkey", np.array(keys, dtype=np.int64)),
        Column("o_row", rows),
        DictionaryColumn.from_strings(
            "o_status", [("F", "O", "P")[k % 3] for k in keys]),
    ])


def assert_same_tables(new: list[Table], old: list[Table]) -> None:
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.name == b.name and a.column_names == b.column_names
        for mine, theirs in zip(a.columns, b.columns):
            assert type(mine) is type(theirs)
            assert same_array(mine.values, theirs.values)
            assert not mine.values.flags.writeable
            if isinstance(mine, DictionaryColumn):
                assert mine.dictionary == theirs.dictionary


def shares_every_column(part: Table, table: Table) -> bool:
    return all(np.shares_memory(c.values, table.column(c.name).values)
               for c in part.columns)


class TestPartitionTable:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 60), max_size=40), st.integers(1, 8),
           st.randoms(use_true_random=False))
    def test_slice_path_equals_mask_path(self, keys, num_nodes, shuffler):
        table = orders_table(sorted(keys))
        catalog = Catalog()
        catalog.add(table)
        ranges = make_scheme(catalog, num_nodes).ranges["orders"]
        parts = partition_table(table, "o_orderkey", ranges)
        assert_same_tables(
            parts, mask_partition_table(table, "o_orderkey", ranges))
        # Sorted keys: every non-empty shard is a view (empty ranges --
        # more nodes than distinct keys -- hold no bytes to share).
        assert all(shares_every_column(part, table)
                   for part in parts if part.num_rows)

        shuffler.shuffle(keys)
        shuffled = orders_table(keys)
        parts = partition_table(shuffled, "o_orderkey", ranges)
        assert_same_tables(
            parts, mask_partition_table(shuffled, "o_orderkey", ranges))
        if keys != sorted(keys):
            assert not any(shares_every_column(part, shuffled)
                           for part in parts)
        # Still a disjoint exact cover: every row in exactly one shard,
        # and in the shard whose range holds its key.
        rows = np.concatenate([p.column("o_row").values for p in parts])
        assert sorted(rows.tolist()) == list(range(len(keys)))
        for part, key_range in zip(parts, ranges):
            assert all(k in key_range
                       for k in part.column("o_orderkey").values.tolist())


# ---------------------------------------------------------------------------
# (f) vectorised weighted round-robin == the chunk-by-chunk greedy loop


def looping_round_robin(shares, chunks: int) -> list[int]:
    """The split model's chunk assignment as it was written, twice (in
    the model and again in the plan pricer): one ``min`` per chunk."""
    counters = [0] * len(shares)
    picks = []
    for _ in range(chunks):
        best = min(range(len(shares)),
                   key=lambda i: (counters[i] + 1) / shares[i])
        counters[best] += 1
        picks.append(best)
    return picks


def extended_fleet_devices() -> dict:
    """The benchmark's five-device fleet (``perf/workloads.py``); its
    first two devices are the seed fleet."""
    executor = make_executor(
        CudaDevice, GPU_RTX_2080_TI, name="gpu0", extra_devices=[
            ("gpu1", OpenCLDevice, GPU_A100),
            ("cpu", OpenMPDevice, CPU_XEON_5220R),
            ("rt", RTCoreDevice, GPU_RTX_3090),
            ("apu", CoupledDevice, APU_RYZEN_7_8700G)])
    return executor.devices


def seed_fleet_devices() -> dict:
    devices = extended_fleet_devices()
    return {name: devices[name] for name in ("gpu0", "gpu1")}


def assert_assignment_matches_loop(shares, chunks: int) -> None:
    picks = SplitChunkedModel.assign_chunks(shares, chunks)
    assert picks.tolist() == looping_round_robin(shares, chunks)


#: Rates as ``SplitChunkedModel.shares`` turns them into shares: a few
#: round values (exact ties, exact ratios), anything else, and a rate so
#: small that the share hits its 1e-6 floor.
rates = st.one_of(st.sampled_from([1.0, 2.0, 3.0, 12e9, 24e9]),
                  st.floats(1e-3, 1e12), st.just(1e-9))


class TestWeightedRoundRobin:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(rates, min_size=1, max_size=6), st.integers(1, 5000))
    def test_merge_equals_loop(self, device_rates, chunks):
        total = sum(device_rates)
        shares = [max(rate / total, 1e-6) for rate in device_rates]
        assert_assignment_matches_loop(shares, chunks)

    def test_benchmark_fleet_at_the_smallest_ladder_rung(self):
        devices = SplitChunkedModel.participants(
            extended_fleet_devices().values())
        shares = SplitChunkedModel.shares(devices)
        assert len(set(shares)) == 5
        assert_assignment_matches_loop(shares, 9375)

    def test_all_tied_devices_take_turns_in_order(self):
        picks = SplitChunkedModel.assign_chunks([0.25] * 4, 10)
        assert picks.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_tied_devices_keep_plug_order(self):
        clock = VirtualClock()
        rt = RTCoreDevice("rt", GPU_RTX_3090, clock)
        a100 = CudaDevice("a100", GPU_A100, clock)
        assert SplitChunkedModel.rate_proxy(rt) == \
            SplitChunkedModel.rate_proxy(a100)
        assert SplitChunkedModel.participants([rt, a100]) == [rt, a100]
        assert SplitChunkedModel.participants([a100, rt]) == [a100, rt]


# ---------------------------------------------------------------------------
# (h) direct-address grouping == np.unique; run starts == a second sort


def sorting_hash_agg(group_keys, values=None, *, fn="sum"):
    """``hash_agg`` as it was: every call sorted its keys."""
    keys, inverse = np.unique(group_keys, return_inverse=True)
    if fn == "count":
        out = np.bincount(inverse, minlength=len(keys)).astype(np.int64)
    else:
        vals = values.astype(np.int64, copy=False)
        if fn == "sum":
            out = np.zeros(len(keys), dtype=np.int64)
            np.add.at(out, inverse, vals)
        elif fn == "min":
            out = np.full(len(keys), np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(out, inverse, vals)
        else:
            out = np.full(len(keys), np.iinfo(np.int64).min, dtype=np.int64)
            np.maximum.at(out, inverse, vals)
    return GroupTable(keys=keys, aggregates={fn: out})


def resorting_layout(keys, order, positions, payload):
    """``hash_ops._sorted_layout`` as it was: ``np.unique`` sorted the
    already sorted keys a second time to find their runs."""
    sorted_keys = keys[order]
    uniques, starts = np.unique(sorted_keys, return_index=True)
    offsets = np.append(starts, len(sorted_keys)).astype(np.int64)
    carried = {name: column[order] for name, column in payload.items()}
    return HashTable(keys=uniques, offsets=offsets, positions=positions,
                     payload=carried)


def takes_direct_side(keys: np.ndarray) -> bool:
    """The documented rule: 1-D integer keys that fit int64 and span at
    most ``8 * len(keys) + 1024`` values."""
    if keys.dtype.kind not in "iu" or keys.dtype == np.uint64 \
            or keys.ndim != 1 or not len(keys):
        return False
    return int(keys.max()) - int(keys.min()) + 1 <= 8 * len(keys) + 1024


def sorted_while(call):
    """``(call(), whether it sorted with np.unique)``."""
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        result = call()
    return result, unique.called


def assert_groups_as_unique(keys: np.ndarray) -> None:
    (uniques, inverse), sorted_ = sorted_while(lambda: group_index(keys))
    expected_uniques, expected_inverse = np.unique(keys, return_inverse=True)
    assert same_array(uniques, expected_uniques)
    assert same_array(inverse, expected_inverse)
    assert sorted_ == (not takes_direct_side(keys))


GROUP_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
                np.uint32, np.uint64, np.float64)


@st.composite
def grouping_chunks(draw, max_chunks=1):
    """1..*max_chunks* arrays of one key dtype: dense or sparse, negative,
    at either end of int64, one distinct key (width 0), (often) empty;
    float keys hold halves and, sometimes, NaNs."""
    dtype = draw(st.sampled_from(GROUP_DTYPES))
    low = draw(st.sampled_from((0, -20, 10**6, -10**12, -2**63, 2**63 - 61)))
    width = draw(st.sampled_from((0, 6, 60, 10**5, 10**10)))
    key = st.integers(low, low + width)
    if dtype == np.float64:
        key = st.one_of(key, st.just(math.nan))
    return [cast_keys(draw(st.lists(key, max_size=draw(
                st.sampled_from((0, 6, 40))))), dtype)
            for _ in range(draw(st.integers(1, max_chunks)))]


class TestGrouping:
    @settings(max_examples=300, deadline=None)
    @given(grouping_chunks())
    def test_group_index_equals_unique(self, chunks):
        assert_groups_as_unique(chunks[0])

    @pytest.mark.parametrize("dtype, low", [
        (np.int64, 0), (np.int64, -300), (np.int16, -300), (np.uint32, 7)])
    @pytest.mark.parametrize("rows", [2, 7, 1000])
    def test_exactly_at_the_bound_and_one_past_it(self, dtype, low, rows):
        at_bound = 8 * rows + 1024
        for span, direct in ((at_bound, True), (at_bound + 1, False)):
            keys = np.full(rows, low + span // 2, dtype=dtype)
            keys[0], keys[-1] = low + span - 1, low
            assert takes_direct_side(keys) == direct
            assert_groups_as_unique(keys)

    @pytest.mark.parametrize("keys", [
        [-2**63, 2**63 - 1], [2**63 - 1, -2**63, 0],
        [-2**63, -2**63 + 5, -2**63], [2**63 - 1, 2**63 - 3],
        [2**64 - 1, 0], [2**63, 2**63 + 1],
    ])
    def test_keys_at_the_ends_of_the_integers(self, keys):
        """Span and lowest key are Python integers: nothing wraps."""
        dtype = np.uint64 if max(keys) >= 2**63 else np.int64
        assert_groups_as_unique(np.array(keys, dtype=dtype))

    @pytest.mark.parametrize("keys", [
        np.empty(0, dtype=np.int64), np.array([True, False]),
        np.array([[3, 1], [1, 2]]), np.array([2.0, math.nan]),
    ], ids=["empty", "bool", "2-D", "float"])
    def test_what_is_not_a_key_vector_is_left_to_unique(self, keys):
        assert not takes_direct_side(keys)
        assert_groups_as_unique(keys)

    @settings(max_examples=200, deadline=None)
    @given(grouping_chunks(), st.sampled_from(("sum", "count", "min", "max")),
           st.data())
    def test_hash_agg_equals_sorting_hash_agg(self, chunks, fn, data):
        keys = chunks[0]
        values = np.array(data.draw(st.lists(
            big_ints, min_size=len(keys), max_size=len(keys))),
            dtype=np.int64)
        with np.errstate(over="ignore"):
            table, sorted_ = sorted_while(
                lambda: hash_agg(keys, values, fn=fn))
            assert_same_group_table(table,
                                    sorting_hash_agg(keys, values, fn=fn))
        assert sorted_ == (not takes_direct_side(keys))

    @settings(max_examples=120, deadline=None)
    @given(grouping_chunks(max_chunks=12),
           st.sampled_from(("sum", "count", "min", "max")), st.data())
    def test_merge_all_equals_the_sorting_merge(self, chunks, fn, data):
        how = {fn: "sum" if fn in ("sum", "count") else fn}
        with np.errstate(over="ignore"):
            tables = [sorting_hash_agg(keys, np.array(data.draw(st.lists(
                big_ints, min_size=len(keys), max_size=len(keys))),
                dtype=np.int64), fn=fn) for keys in chunks]
            merged, sorted_ = sorted_while(
                lambda: GroupTable.merge_all(tables, how=how))
            # (A lone table comes back from either merge as it went in.)
            expected = fold(tables, lambda a, b: pairwise_group_merge(
                a, b, how=how))
        assert_same_group_table(merged, expected)
        assert sorted_ == (not takes_direct_side(
            np.concatenate([table.keys for table in tables])))

    @settings(max_examples=200, deadline=None)
    @given(grouping_chunks(max_chunks=4), st.sampled_from((0, 1000)))
    def test_run_starts_equal_the_second_sort(self, chunks, base):
        def build_and_merge():
            tables, row = [], base
            for keys in chunks:
                tables.append(hash_build(
                    keys, np.arange(len(keys), dtype=np.int64) * 7,
                    payload_names=("v",), base_position=row))
                row += len(keys)
            return [*tables, merge_hash_tables(*tables)]

        built, sorted_ = sorted_while(build_and_merge)
        assert not sorted_
        with mock.patch.object(hash_ops, "_sorted_layout", resorting_layout):
            expected = build_and_merge()
        for table, old in zip(built, expected):
            assert_same_hash_table(table, old)

    def test_nan_empty_and_single_key_tables_keep_uniques_answer(self):
        nan = hash_build(np.array([1.0, math.nan, math.nan, 2.0]))
        assert nan.keys.tolist()[:2] == [1.0, 2.0] and math.isnan(nan.keys[2])
        assert nan.offsets.tolist() == [0, 1, 2, 4]
        assert nan.positions.tolist() == [0, 3, 1, 2]
        empty = hash_build(np.empty(0, dtype=np.int64))
        assert empty.num_keys == 0 and empty.offsets.tolist() == [0]
        assert empty.offsets.dtype == np.int64
        one = hash_build(np.array([7, 7, 7]))
        assert one.keys.tolist() == [7] and one.offsets.tolist() == [0, 3]
        merged = merge_hash_tables(nan, hash_build(
            np.array([math.nan, 1.0]), base_position=4))
        assert merged.offsets.tolist() == [0, 2, 3, 6]
        assert merged.positions.tolist() == [0, 5, 3, 1, 2, 4]


# ---------------------------------------------------------------------------
# (g) table-priced candidates == every candidate priced cold, the old way


def cold_agg_groups(graph, node, catalog, *, data_scale, chunks=1):
    if node.defn.cost_key != "hash_agg" or "groups" in node.cost_params:
        return None
    if node.cost_params.get("fused_steps"):
        slot = cost_module._fused_group_key_slot(node)
        if slot is None:
            return None
        for edge in graph.in_edges(node.node_id):
            if edge.input_index == slot and edge.is_scan:
                ndv = cost_module._column_ndv(catalog, edge.source.ref)
                return max(1, round(ndv / max(1, chunks))) * data_scale
        return None
    for edge in graph.in_edges(node.node_id):
        if edge.is_scan:
            ndv = cost_module._column_ndv(catalog, edge.source.ref)
            return max(1, round(ndv / max(1, chunks))) * data_scale
    return None


def cold_pipeline_components(graph, pipeline, catalog, device, *,
                             data_scale, chunks, pinned, zero_copy,
                             pinned_penalty=True):
    cost = device.cost
    scan_bytes = sum(
        catalog.column(ref).nbytes for ref in pipeline.scan_refs
    ) * data_scale

    transfer = 0.0
    if scan_bytes and not zero_copy:
        setup = cost.transfer_seconds(0, direction=TransferDirection.H2D,
                                      pinned=pinned)
        per_column = chunks * setup
        transfer = (len(pipeline.scan_refs) * per_column
                    + scan_bytes / cost.bandwidth(TransferDirection.H2D,
                                                  pinned=pinned))
        if pinned and pinned_penalty:
            if device.sdk is Sdk.OPENCL and \
                    shallow_hash_pipeline(graph, pipeline):
                transfer *= cal.OPENCL_SHALLOW_PINNED_FACTOR

    if pipeline.scan_refs:
        rows = catalog.column(pipeline.scan_refs[0]).values.shape[0]
    else:
        rows = 1024
    depth_rows = float(rows * data_scale)

    kernel = launch = uma = 0.0
    for nid in pipeline.node_ids:
        node = graph.nodes[nid]
        n = max(1, int(depth_rows))
        cost_params = dict(node.cost_params)
        fused_steps = cost_params.pop("fused_steps", None)
        fused_num_args = cost_params.pop("fused_num_args", None)
        groups = cold_agg_groups(graph, node, catalog,
                                 data_scale=data_scale, chunks=chunks)
        if groups is not None and "groups" not in cost_params:
            cost_params["groups"] = groups
        if fused_steps is not None:
            launch += chunks * cost.launch_seconds(int(fused_num_args or 2))
            kernel += cost.fused_kernel_seconds(
                fused_steps, n, groups=cost_params.get("groups"))
        else:
            launch += chunks * cost.launch_seconds(2)
            kernel += cost.kernel_seconds(node.defn.cost_key, n,
                                          **cost_params)
        if zero_copy:
            uma_bytes = sum(
                catalog.column(e.source.ref).nbytes
                for e in graph.in_edges(nid) if e.is_scan
            ) * data_scale
            uma += uma_bytes / (cost.bandwidth(TransferDirection.H2D,
                                               pinned=True)
                                * cal.UMA_READ_EFFICIENCY)
        depth_rows *= cost_module._node_decay(node)
    return transfer, kernel + uma, launch


def cold_estimate_plan_seconds(plan, catalog, devices, *, default_device,
                               overlay=None, placement=None):
    """``estimate_plan_seconds`` as it was before the pricing table:
    everything re-derived per call, the split model's round-robin
    replayed by hand (devices tied on the proxy ordered by name, which
    is what the model does only when they were plugged in that order)."""
    model_cls = MODELS[plan.model]
    pinned = model_cls.uses_pinned_staging
    overlapped = model_cls.overlapped
    zero_copy = model_cls.zero_copy
    splits = model_cls.splits_chunks
    chunked = "chunk" in model_cls.tunable
    physical_chunk = plan.physical_chunk_rows
    overlay = overlay or {}
    graph = plan.graph

    split_mode = splits and len(devices) > 1
    fastest = None
    proxies = {}
    proxy_total = 0.0
    if split_mode:
        rate_fn = getattr(model_cls, "rate_proxy", None)
        proxies = {
            name: (rate_fn(devices[name]) if rate_fn is not None
                   else 1.0)
            for name in sorted(devices)
        }
        proxy_total = sum(proxies.values())
        fastest = sorted(proxies, key=lambda n: (-proxies[n], n))[0]

    placed = {}
    pipeline_costs = []
    for pipeline in split_pipelines(graph):
        if placement is not None and pipeline.index in placement:
            dev_name = placement[pipeline.index]
        else:
            names = sorted({
                graph.nodes[nid].device or default_device
                for nid in pipeline.node_ids
            })
            dev_name = names[0]
        physical_rows = (
            catalog.column(pipeline.scan_refs[0]).values.shape[0]
            if pipeline.scan_refs else 0
        )
        full_input = any(graph.nodes[nid].defn.requires_full_input
                         for nid in pipeline.node_ids)
        chunkable = (chunked and pipeline.is_chunkable and not full_input)
        chunks = (max(1, math.ceil(physical_rows / physical_chunk))
                  if chunkable else 1)

        if split_mode and chunkable:
            order = sorted(proxies, key=lambda n: (-proxies[n], n))
            weights = [max(proxies[n] / proxy_total, 1e-6)
                       if proxy_total > 0 else 1.0 / len(order)
                       for n in order]
            counts = [0] * len(order)
            for _ in range(chunks):
                best = min(range(len(order)),
                           key=lambda i: (counts[i] + 1) / weights[i])
                counts[best] += 1
            fraction = {name: counts[i] / chunks
                        for i, name in enumerate(order)}
            total = 0.0
            transfer = kernel = launch = 0.0
            for name in sorted(devices):
                t, k, ln = cold_pipeline_components(
                    graph, pipeline, catalog, devices[name],
                    data_scale=plan.data_scale, chunks=chunks,
                    pinned=pinned, zero_copy=zero_copy,
                    pinned_penalty=False)
                seconds = (t + k + ln) * overlay.get(name, 1.0)
                share = fraction[name]
                total = max(total, seconds * share)
                transfer += t * share
                kernel += k * share
                launch += ln * share
            for ext in pipeline.external_inputs:
                nbytes = 1024 * plan.data_scale * 16
                for name in sorted(devices):
                    if placed.get(ext) == name:
                        continue
                    hop = devices[name].cost.transfer_seconds(
                        nbytes, direction=TransferDirection.H2D,
                        pinned=False) * overlay.get(name, 1.0)
                    total += hop
                    transfer += hop
            dev_label = "+".join(sorted(devices))
            for nid in pipeline.node_ids:
                placed[nid] = dev_name
            pipeline_costs.append(PipelineCost(
                index=pipeline.index, device=dev_label, chunks=chunks,
                transfer_seconds=transfer, kernel_seconds=kernel,
                launch_seconds=launch, total=total))
            continue

        if split_mode:
            dev_name = fastest
        device = devices[dev_name]
        transfer, kernel, launch = cold_pipeline_components(
            graph, pipeline, catalog, device,
            data_scale=plan.data_scale, chunks=chunks,
            pinned=pinned, zero_copy=zero_copy)
        for ext in pipeline.external_inputs:
            if placed.get(ext) not in (None, dev_name):
                nbytes = 1024 * plan.data_scale * 16
                transfer += device.cost.transfer_seconds(
                    nbytes, direction=TransferDirection.H2D, pinned=False)
        if overlapped and chunks > 1:
            total = max(transfer, kernel + launch)
        else:
            total = transfer + kernel + launch
        total *= overlay.get(dev_name, 1.0)
        for nid in pipeline.node_ids:
            placed[nid] = dev_name
        pipeline_costs.append(PipelineCost(
            index=pipeline.index, device=dev_name, chunks=chunks,
            transfer_seconds=transfer, kernel_seconds=kernel,
            launch_seconds=launch, total=total))
    return PlanCost(total=sum(p.total for p in pipeline_costs),
                    pipelines=tuple(pipeline_costs))


def cold_discount_cached(table, graph, cost):
    """``PlanOptimizer._discount_cached`` as it was: every persisted
    node fingerprinted and peeked again for every candidate."""
    cache = table.subplan_cache
    if cache is None or not len(cache):
        return cost
    healthy = set(table.devices)
    by_index = {p.index: p for p in split_pipelines(graph)}
    priced = []
    changed = False
    for pc in cost.pipelines:
        pipeline = by_index.get(pc.index)
        persisted = (sorted(persisted_node_ids(graph, pipeline))
                     if pipeline is not None else [])
        entries = []
        for nid in persisted:
            entry = cache.peek(
                subplan_fingerprint(graph, nid),
                table.catalog, table.data_scale, healthy)
            if entry is None:
                entries = None
                break
            entries.append(entry)
        if not entries:
            priced.append(pc)
            continue
        device = table.devices.get(pc.device,
                                   table.devices[table.default_device])
        transfer = 0.0
        for entry in entries:
            logical = max(1, entry.nbytes) * table.data_scale
            direction = (TransferDirection.D2D
                         if entry.device == pc.device
                         else TransferDirection.H2D)
            transfer += device.cost.transfer_seconds(
                logical, direction=direction)
        transfer *= table.overlay.get(pc.device, 1.0)
        priced.append(dataclasses.replace(
            pc, chunks=1, transfer_seconds=transfer,
            kernel_seconds=0.0, launch_seconds=0.0, total=transfer))
        changed = True
    if not changed:
        return cost
    return PlanCost(total=sum(p.total for p in priced),
                    pipelines=tuple(priced))


def cold_price(table, graph, *, model, chunk_size, placement=None):
    """One candidate priced with nothing remembered from any other."""
    stub = PhysicalPlan(graph=graph, model=model, chunk_size=chunk_size,
                        data_scale=table.data_scale)
    cost = cold_estimate_plan_seconds(
        stub, table.catalog, table.devices,
        default_device=table.default_device,
        overlay=table.overlay or None, placement=placement)
    return cold_discount_cached(table, graph, cost)


def search_checked_against_cold_pricing(optimizer, graph, monkeypatch,
                                        **kwargs):
    """Run ``optimizer.search`` twice -- pricing through the table with
    every candidate compared to its cold price, then pricing cold -- and
    return the (equal) report and the number of candidates compared."""
    table_price = PricingTable.price
    compared = 0

    def checked_price(table, graph, **candidate):
        nonlocal compared
        compared += 1
        cost = table_price(table, graph, **candidate)
        # Dataclass equality: every float of every pipeline, exactly.
        assert cost == cold_price(table, graph, **candidate), candidate
        return cost

    with monkeypatch.context() as patch:
        patch.setattr(PricingTable, "price", checked_price)
        report = optimizer.search(graph, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(PricingTable, "price", cold_price)
        cold_report = optimizer.search(graph, **kwargs)
    assert compared == report.enumerated
    assert (report.enumerated, report.pruned, report.ranked) == \
        (cold_report.enumerated, cold_report.pruned, cold_report.ranked)
    return report


FLEETS = {"seed": seed_fleet_devices, "extended": extended_fleet_devices}


class TestPlanPricing:
    @pytest.mark.parametrize("fleet", sorted(FLEETS))
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_benchmark_searches_price_as_cold(self, query, fleet,
                                              tiny_catalog, monkeypatch):
        devices = FLEETS[fleet]()
        for overlay in (None, {"gpu0": 1.7, "gpu1": 0.6}):
            optimizer = PlanOptimizer(tiny_catalog, devices,
                                      default_device="gpu0", data_scale=64,
                                      overlay=overlay)
            report = search_checked_against_cold_pricing(
                optimizer, QUERIES[query].build(tiny_catalog),
                monkeypatch, chunk_size=2**15)
            assert report.enumerated > len(devices)

    @pytest.mark.parametrize("query, devices, kwargs", [
        ("q6", ("gpu0",), dict(chunk_size=1024)),
        ("q6", ("gpu0", "cpu0"), dict(chunk_size=1024)),
        ("q3", ("gpu0", "cpu0"), dict(chunk_size=1024, top_k=5)),
    ])
    def test_golden_plans_configurations_price_as_cold(
            self, query, devices, kwargs, tiny_catalog, monkeypatch):
        executor = make_executor(name="gpu0", extra_devices=[
            ("cpu0", OpenMPDevice, CPU_I7_8700)])
        optimizer = PlanOptimizer(
            tiny_catalog, {name: executor.devices[name] for name in devices})
        search_checked_against_cold_pricing(
            optimizer, QUERIES[query].build(tiny_catalog), monkeypatch,
            **kwargs)

    def test_warm_subplan_cache_prices_as_cold_and_is_seen_by_the_next_search(
            self, tiny_catalog, monkeypatch):
        engine = Engine()
        engine.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI, default=True)
        engine.plug_device("gpu1", OpenCLDevice, GPU_A100)
        optimizer = PlanOptimizer(tiny_catalog, engine.devices,
                                  default_device="gpu0",
                                  subplan_cache=engine.subplan_cache)
        empty = search_checked_against_cold_pricing(
            optimizer, q3.build(tiny_catalog), monkeypatch, chunk_size=1024)

        engine.execute(q3.build(tiny_catalog), tiny_catalog, chunk_size=1024)
        assert len(engine.subplan_cache) == 3
        # The same optimizer: nothing priced for the first search may
        # answer the second.
        warm = search_checked_against_cold_pricing(
            optimizer, q3.build(tiny_catalog), monkeypatch, chunk_size=1024)
        served = [p for p in warm.chosen.cost.pipelines
                  if p.kernel_seconds == 0.0 and p.launch_seconds == 0.0]
        assert len(served) == 3
        assert not [p for p in empty.chosen.cost.pipelines
                    if p.kernel_seconds == 0.0]
        assert warm.chosen.cost.total < empty.chosen.cost.total
        # Pricing probes are read-only.
        assert engine.subplan_stats()["hits"] == 0
