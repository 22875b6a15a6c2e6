"""Differential tests for the host-side data path and the plan pricer,
each against the definition of what the fast code computes.

The data path does no per-row Python: a probe resolves keys through a
direct-address directory, grouping marks dense integer keys by direct
address instead of sorting them, and aggregation, build and merge
group through that.  The planner prices each candidate from one table
per search.  Each section checks one of those against its definition —
the nested-loop join, ``np.unique(..., return_inverse=True)``, each
model's pricing rule — byte for byte where values are arrays.
(The graph's adjacency index, the clock's per-owner lists, one-pass
statistics, slice-view partitioning and the split model's round-robin
are checked against theirs beside the rest of their tests.)
"""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.exchange import merge_group_tables
from repro.core.combine import ChunkPartial, combine_chunk_results
from repro.core.models import MODELS
from repro.devices import CudaDevice, OpenCLDevice, OpenMPDevice
from repro.engine import Engine
from repro.errors import SignatureError
from repro.hardware import CPU_I7_8700, GPU_A100, GPU_RTX_2080_TI
from repro.planner.cost import PricingTable, routed_input_seconds
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
    group_index,
)
from repro.tpch.queries import QUERIES, q3
from tests.conftest import make_executor


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


# ---------------------------------------------------------------------------
# (a) HASH_PROBE through the slot directory == the nested-loop join


def cast_keys(values: list[int], dtype) -> np.ndarray:
    """*values* as *dtype*, clipped into its range first."""
    if np.dtype(dtype).kind == "f":
        # Halves make keys no integer equals.
        return np.array(values, dtype=dtype) / 2
    info = np.iinfo(dtype)
    return np.array([min(max(v, info.min), info.max) for v in values],
                    dtype=dtype)


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


def assert_probe_is_the_nested_loop(probe: np.ndarray, build: np.ndarray,
                                    table: HashTable, base: int = 0) -> None:
    """Inner pairs are every (probe row, build row) of equal keys, probe
    rows in order and each one's build rows in order; semi and anti
    split the probe rows by whether any build key equals theirs; a
    gather returns the payload the build gave each matched row (``v`` =
    seven times the row, where the table carries it)."""
    match = probe[:, None] == build[None, :]
    left, right = np.nonzero(match)
    pairs = hash_probe(probe, table)
    assert same_array(pairs.left, left.astype(np.int64))
    assert same_array(pairs.right, right.astype(np.int64) + base)
    hit = match.any(axis=1)
    for mode, rows in (("semi", hit), ("anti", ~hit)):
        assert same_array(hash_probe(probe, table, mode=mode).positions,
                          np.flatnonzero(rows)), mode
    if "v" in table.payload:
        assert same_array(gather_payload(pairs, table, name="v"),
                          (right.astype(np.int64) + base) * 7)


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
    def test_probe_is_the_nested_loop_join(self, case):
        chunks, base, probe = case
        tables, row = [], base
        for keys in chunks:
            tables.append(hash_build(keys, np.arange(row, row + len(keys)) * 7,
                                     payload_names=("v",), base_position=row))
            row += len(keys)
        table = tables[0] if len(tables) == 1 else merge_hash_tables(*tables)
        build = np.concatenate(chunks)
        assert_probe_is_the_nested_loop(probe, build, table, base)
        assert has_directory(table) == qualifies_for_directory(build)

    @pytest.mark.parametrize("build", [
        [0, 1, 2], [-2**62 + 1, -2**62 + 2], [2**62 - 2, 2**62 - 1],
        [-2**62, -2**62 + 1], [2**63 - 2, 2**63 - 1], [-2**63, -2**63 + 1],
    ])
    def test_probe_keys_at_the_ends_of_int64(self, build):
        """No int64 wrap-around of ``key - keys[0]`` lands in the span."""
        build = np.array(build, dtype=np.int64)
        table = hash_build(build)
        probe = np.array([-2**63, -2**63 + 1, -2**62, -1, 0, 1, 2, 2**62,
                          2**63 - 2, 2**63 - 1, *build], dtype=np.int64)
        assert_probe_is_the_nested_loop(probe, build, table)
        assert has_directory(table)

    @pytest.mark.parametrize("stray", [-1, -3, -2**63, 3, 2**40, 2**63 - 1])
    def test_gather_rejects_rows_the_table_does_not_hold(self, stray):
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
        shifted = hash_build(np.array([4, 2]), np.array([40, 20]),
                             payload_names=("v",), base_position=3)
        with pytest.raises(SignatureError):
            gather_payload(JoinPairs(left=np.array([0]), right=np.array([1])),
                           shifted, name="v")


# ---------------------------------------------------------------------------
# (b) direct-address grouping, aggregation, build and merge == np.unique


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


_AGG = {"sum": (np.add, 0), "min": (np.minimum, np.iinfo(np.int64).max),
        "max": (np.maximum, np.iinfo(np.int64).min)}


def grouped(keys: np.ndarray, values: np.ndarray, fn: str) -> GroupTable:
    """GROUP BY *keys* with one aggregate, by definition: ``np.unique``'s
    groups, then a count or one ``ufunc.at`` over them."""
    uniques, inverse = np.unique(keys, return_inverse=True)
    if fn == "count":
        out = np.bincount(inverse, minlength=len(uniques)).astype(np.int64)
    else:
        ufunc, start = _AGG[fn]
        out = np.full(len(uniques), start, dtype=np.int64)
        ufunc.at(out, inverse, values.astype(np.int64, copy=False))
    return GroupTable(keys=uniques, aggregates={fn: out})


def built(keys: np.ndarray, base: int, payload: dict) -> HashTable:
    """HASH_BUILD by definition: ``np.unique``'s keys, each one's rows
    (``base`` + index) in row order, the payload in that order."""
    uniques, inverse = np.unique(keys, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    counts = np.bincount(inverse, minlength=len(uniques))
    return HashTable(
        keys=uniques, offsets=np.append(0, np.cumsum(counts)).astype(np.int64),
        positions=order.astype(np.int64) + base,
        payload={name: column[order] for name, column in payload.items()})


GROUP_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
                np.uint32, np.uint64, np.float64)

#: Large enough that sums of a dozen chunks wrap around int64.
big_ints = st.integers(-2**62, 2**62)


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


def values_for(data, chunks) -> list[np.ndarray]:
    return [np.array(data.draw(st.lists(big_ints, min_size=len(keys),
                                        max_size=len(keys))), dtype=np.int64)
            for keys in chunks]


FNS = st.sampled_from(("sum", "count", "min", "max"))


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
        np.array([-2**63, 2**63 - 1]), np.array([2**63 - 1, -2**63, 0]),
        np.array([-2**63, -2**63 + 5, -2**63]),
        np.array([2**63 - 1, 2**63 - 3]),
        np.array([2**64 - 1, 0], dtype=np.uint64),
        np.array([2**63, 2**63 + 1], dtype=np.uint64),
        np.empty(0, dtype=np.int64), np.array([True, False]),
        np.array([[3, 1], [1, 2]]), np.array([2.0, math.nan]),
    ])
    def test_ends_of_the_integers_and_what_is_not_a_key_vector(self, keys):
        """Span and lowest key are Python integers: nothing wraps; what
        is not a 1-D integer vector is left to ``np.unique``."""
        assert_groups_as_unique(keys)

    @settings(max_examples=200, deadline=None)
    @given(grouping_chunks(), FNS, st.data())
    def test_hash_agg_is_the_definition(self, chunks, fn, data):
        keys, values = chunks[0], values_for(data, chunks)[0]
        with np.errstate(over="ignore"):
            table, sorted_ = sorted_while(
                lambda: hash_agg(keys, values, fn=fn))
            assert_same_group_table(table, grouped(keys, values, fn))
        assert sorted_ == (not takes_direct_side(keys))

    def test_several_aggregates_merge_by_their_own_kind(self):
        tables = [GroupTable(np.array(keys), {
            "min": np.array(low), "max": np.array(high),
            "count": np.array(count)}) for keys, low, high, count in (
                ([1, 2], [4, 9], [4, 9], [1, 2]),
                ([2, 3], [1, 5], [11, 5], [3, 1]),
                ([1], [7], [7], [1]))]
        merged = merge_group_tables(tables)
        assert merged.keys.tolist() == [1, 2, 3]
        assert {name: column.tolist()
                for name, column in merged.aggregates.items()} == {
            "min": [4, 1, 5], "max": [7, 11, 5], "count": [2, 5, 1]}
        unknown = GroupTable(np.array([1]), {"avg": np.array([1])})
        with pytest.raises(ValueError):
            GroupTable.merge_all([unknown] * 3, how={"avg": "mean"})

    @settings(max_examples=200, deadline=None)
    @given(grouping_chunks(max_chunks=4), st.sampled_from((0, 1000)),
           st.integers(0, 2), st.data())
    def test_build_and_merge_are_the_definition(self, chunks, base,
                                                n_payload, data):
        names = ("a", "v")[:n_payload]
        columns = [values_for(data, chunks) for _ in names]

        def build_and_merge():
            tables, row = [], base
            for i, keys in enumerate(chunks):
                tables.append(hash_build(
                    keys, *(column[i] for column in columns),
                    payload_names=names, base_position=row))
                row += len(keys)
            return tables, merge_hash_tables(*tables)

        (tables, merged), sorted_ = sorted_while(build_and_merge)
        assert not sorted_
        row = base
        for i, (keys, table) in enumerate(zip(chunks, tables)):
            assert_same_hash_table(table, built(keys, row, {
                name: column[i] for name, column in zip(names, columns)}))
            row += len(keys)
        assert_same_hash_table(merged, built(np.concatenate(chunks), base, {
            name: np.concatenate(column)
            for name, column in zip(names, columns)}))
        combined = combine_chunk_results(
            [ChunkPartial(t, 0) for t in tables])
        if len(tables) > 1:
            assert_same_hash_table(combined, merged)
        else:
            assert combined is tables[0]


# ---------------------------------------------------------------------------
# (c) a priced plan == its model's rule over each pipeline's components;
#     a pipeline the subplan cache serves == its entries' transfers


class TestPlanPricing:
    @pytest.mark.parametrize("default_device", ["gpu0", "gpu1"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_each_pipeline_is_priced_by_its_models_rule(
            self, query, model, default_device, tiny_catalog):
        """A pipeline's price from its per-device ``(transfer, kernel,
        launch)``: one lane pays transfer times the model's transfer
        factor, plus a routed input per producer on another device,
        beside (dual buffers, several chunks) or after kernel and launch.
        The split model's participants run their shares of a streaming
        pipeline at once, so the slowest share is its time, and each
        participant but a producer's home pays that input's hop; any
        other pipeline runs on the fastest participant."""
        devices = make_executor(name="gpu0", extra_devices=[
            ("gpu1", OpenCLDevice, GPU_A100),
            ("cpu0", OpenMPDevice, CPU_I7_8700)]).devices
        names = sorted(devices)
        overlay = {"gpu0": 1.7, "gpu1": 0.6}
        scale = {name: overlay.get(name, 1.0) for name in names}
        routed = {name: routed_input_seconds(devices[name], 64)
                  for name in names}
        cls = MODELS[model]
        table = PricingTable(tiny_catalog, devices, data_scale=64,
                             default_device=default_device, overlay=overlay)
        traits = table._model(model)
        graph = QUERIES[query].build(tiny_catalog)
        cost = table.price(graph, model=model, chunk_size=2**15)
        home: dict[int, str] = {}
        for shape, pc in zip(table._shapes(graph), cost.pipelines):
            parts = {name: table._priced(shape, name, pc.chunks, traits)
                     for name in names}
            home[pc.index] = shape.annotated
            if cls.splits_chunks and shape.pipeline.streams:
                share = {name: n / pc.chunks for name, n in
                         table.split_counts(model, pc.chunks).items()}
                hops = sum(routed[name] * scale[name]
                           for producer in shape.producers
                           for name in names
                           if name != home.get(producer))
                t, k, ln = ([parts[n][i] * share[n] for n in names]
                            for i in range(3))
                expected = ("+".join(names), sum(t) + hops, sum(k),
                            sum(ln), hops + max(
                                sum(parts[n]) * scale[n] * share[n]
                                for n in names))
            else:
                if cls.splits_chunks:
                    home[pc.index] = cls.participants(
                        devices.values())[0].name
                device = home[pc.index]
                transfer, kernel, launch = parts[device]
                transfer *= cls.transfer_factor(devices[device], graph,
                                                shape.pipeline)
                transfer += sum(routed[device]
                                for producer in shape.producers
                                if home.get(producer, device) != device)
                total = (max(transfer, kernel + launch)
                         if cls.overlapped and pc.chunks > 1
                         else transfer + kernel + launch)
                expected = (device, transfer, kernel, launch,
                            total * scale[device])
            assert (pc.device, pc.transfer_seconds, pc.kernel_seconds,
                    pc.launch_seconds, pc.total) == \
                (expected[0], *map(pytest.approx, expected[1:])), \
                (query, pc.index)
        assert cost.total == pytest.approx(
            sum(p.total for p in cost.pipelines))

    def test_only_the_pipelines_the_cache_holds_are_discounted(
            self, tiny_catalog):
        engine = Engine()
        engine.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI, default=True)
        engine.execute(q3.build(tiny_catalog), tiny_catalog, chunk_size=1024)

        def price(graph, cache, overlay=None):
            return PricingTable(
                tiny_catalog, engine.devices, default_device="gpu0",
                data_scale=1, overlay=overlay, subplan_cache=cache).price(
                    graph, model="chunked", chunk_size=1024)
        # Q6 shares nothing with the cached Q3; a later date changes
        # Q3's orders and lineitem pipelines but not its customers.
        for graph, served in ((QUERIES["q6"].build(tiny_catalog), []),
                              (q3.build(tiny_catalog, date="1995-03-20"),
                               [0])):
            warm, cold = price(graph, engine.subplan_cache), price(graph, None)
            assert len(warm.pipelines) == len(cold.pipelines)
            assert [index for index, (w, c) in enumerate(
                zip(warm.pipelines, cold.pipelines)) if w != c] == served
            assert warm.total == sum(p.total for p in warm.pipelines)
            doubled = price(graph, engine.subplan_cache, {"gpu0": 2.0})
            for i in served:
                assert warm.pipelines[i].kernel_seconds == 0.0
                assert doubled.pipelines[i].total == \
                    2 * warm.pipelines[i].total

    def test_serving_an_entry_costs_its_bytes_from_where_it_lives(
            self, tiny_catalog):
        devices = make_executor(name="gpu0").devices

        class Holding:
            """A subplan cache holding one entry of *nbytes* on *device*
            for any fingerprint."""

            def __init__(self, nbytes, device):
                self.entry = SimpleNamespace(nbytes=nbytes, device=device)

            def __len__(self):
                return 1

            def peek(self, *key):
                return self.entry

        def served(nbytes, device="gpu0"):
            [pipeline] = PricingTable(
                tiny_catalog, devices, default_device="gpu0", data_scale=1,
                subplan_cache=Holding(nbytes, device)).price(
                    QUERIES["q6"].build(tiny_catalog), model="chunked",
                    chunk_size=1024).pipelines
            return pipeline
        assert served(0) == served(1) != served(2)
        cost = devices["gpu0"].cost
        for device, direction in (("gpu0", "d2d"), ("cpu0", "h2d")):
            pipeline = served(4096, device)
            assert (pipeline.chunks, pipeline.kernel_seconds,
                    pipeline.launch_seconds) == (1, 0.0, 0.0)
            assert pipeline.total == pipeline.transfer_seconds == \
                cost.transfer_seconds(4096, direction=direction)
