"""Differential tests for the host-side hot path.

The per-invocation path looks chunk-invariant things up once: the graph
answers adjacency from an index, the clock answers ``events_of`` from
per-owner lists, and breakers merge all chunk partials in one k-way
pass.  The data path does no per-row Python: a probe resolves keys
through a direct-address directory and expands matches with flat array
operations, and a cluster shards sorted tables into slice views.  Each
of those replaced a scanning / pairwise / per-row implementation; the
old bodies live on here, as oracles, and the new code must agree with
them exactly — byte for byte where values are arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.exchange import merge_group_tables, merge_outputs
from repro.cluster.partition import make_scheme, partition_table
from repro.core.combine import ChunkPartial, combine_chunk_results
from repro.core.graph import DataEdge, PrimitiveGraph
from repro.core.pipelines import persisted_node_ids, split_pipelines
from repro.hardware.clock import VirtualClock
from repro.errors import SignatureError
from repro.primitives.kernels import (
    gather_payload,
    hash_agg,
    hash_build,
    hash_probe,
    merge_hash_tables,
)
from repro.primitives.values import (
    GroupTable,
    HashTable,
    JoinPairs,
    PositionList,
)
from repro.storage import Catalog, Column, DictionaryColumn, Table

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
