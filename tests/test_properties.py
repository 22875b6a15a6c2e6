"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.combine import ChunkPartial, combine_chunk_results
from repro.hardware.clock import VirtualClock
from repro.primitives import kernels
from repro.primitives.values import Bitmap

int_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(0, 300),
    elements=st.integers(-1000, 1000),
)

small_keys = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(0, 200),
    elements=st.integers(0, 20),
)

masks = hnp.arrays(dtype=bool, shape=st.integers(0, 500))


class TestBitmapProperties:
    @given(masks)
    def test_roundtrip(self, mask):
        assert np.array_equal(Bitmap.from_mask(mask).to_mask(), mask)

    @given(masks)
    def test_count_equals_popcount(self, mask):
        assert Bitmap.from_mask(mask).count() == int(mask.sum())

    @given(masks, masks)
    def test_and_is_intersection(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        out = kernels.bitmap_and(Bitmap.from_mask(a), Bitmap.from_mask(b))
        assert np.array_equal(out.to_mask(), a & b)


class TestFilterMaterializeProperties:
    @given(int_arrays, st.integers(-1000, 1000))
    def test_filter_materialize_equals_boolean_indexing(self, a, threshold):
        bitmap = kernels.filter_bitmap(a, cmp="lt", value=threshold)
        assert np.array_equal(kernels.materialize(a, bitmap),
                              a[a < threshold])

    @given(int_arrays, st.integers(-1000, 1000))
    def test_bitmap_and_position_variants_agree(self, a, threshold):
        bitmap = kernels.filter_bitmap(a, cmp="ge", value=threshold)
        positions = kernels.filter_position(a, cmp="ge", value=threshold)
        assert np.array_equal(
            kernels.materialize(a, bitmap),
            kernels.materialize_position(a, positions))

    @given(int_arrays)
    def test_filter_count_plus_complement(self, a):
        lt = kernels.filter_bitmap(a, cmp="lt", value=0).count()
        ge = kernels.filter_bitmap(a, cmp="ge", value=0).count()
        assert lt + ge == len(a)


class TestPrefixSumProperties:
    @given(int_arrays)
    def test_matches_cumsum(self, a):
        assert np.array_equal(kernels.prefix_sum(a).sums, np.cumsum(a))

    @given(int_arrays, st.integers(1, 64))
    def test_chunked_prefix_sum_with_carry(self, a, chunk):
        partials = [
            ChunkPartial(kernels.prefix_sum(a[i:i + chunk]), i)
            for i in range(0, max(len(a), 1), chunk)
        ]
        combined = combine_chunk_results(partials)
        assert np.array_equal(combined.sums, np.cumsum(a))


class TestSortAggProperties:
    @given(small_keys, st.data())
    def test_sort_agg_equals_hash_agg(self, keys, data):
        values = data.draw(hnp.arrays(np.int64, len(keys),
                                      elements=st.integers(-100, 100)))
        order = np.argsort(keys, kind="stable")
        sorted_keys, sorted_values = keys[order], values[order]
        pxsum = kernels.boundary_prefix_sum(sorted_keys)
        by_sort = kernels.sort_agg(sorted_values, pxsum, keys=sorted_keys,
                                   fn="sum")
        by_hash = kernels.hash_agg(keys, values, fn="sum")
        assert np.array_equal(by_sort.keys, by_hash.keys)
        assert np.array_equal(by_sort.aggregates["sum"],
                              by_hash.aggregates["sum"])


class TestClockProperties:
    @given(st.lists(st.tuples(st.integers(0, 2), st.floats(0, 10)),
                    max_size=40))
    def test_makespan_bounds(self, work):
        clock = VirtualClock()
        for stream, duration in work:
            clock.schedule(f"s{stream}", duration)
        total = sum(d for _, d in work)
        per_stream: dict[int, float] = {}
        for stream, duration in work:
            per_stream[stream] = per_stream.get(stream, 0.0) + duration
        longest = max(per_stream.values(), default=0.0)
        assert clock.makespan() <= total + 1e-9
        assert clock.makespan() >= longest - 1e-9

    @given(st.lists(st.floats(0.1, 5), min_size=1, max_size=20))
    def test_chain_of_dependencies_serializes(self, durations):
        clock = VirtualClock()
        prev = None
        for i, duration in enumerate(durations):
            prev = clock.schedule(f"s{i}", duration,
                                  deps=[prev] if prev else None)
        assert clock.makespan() == sum(durations)


@settings(max_examples=20, deadline=None)
@given(
    threshold=st.integers(0, 50),
    chunk=st.sampled_from([32, 64, 256, 1024]),
    model=st.sampled_from(["chunked", "pipelined", "four_phase_chunked",
                           "four_phase_pipelined"]),
)
def test_chunked_models_equal_oaat_on_random_pipeline(threshold, chunk, model):
    """Any filter+materialize+map+sum pipeline yields identical results
    under every execution model, for arbitrary chunkings."""
    from repro.core.graph import PrimitiveGraph
    from repro.storage import Catalog, Column, Table
    from tests.conftest import make_executor

    rng = np.random.default_rng(threshold * 7 + chunk)
    n = 777
    a = rng.integers(0, 100, n).astype(np.int64)
    b = rng.integers(1, 10, n).astype(np.int64)
    catalog = Catalog()
    catalog.add(Table("t", [Column("a", a), Column("b", b)]))

    g = PrimitiveGraph("prop")
    g.add_node("f", "filter_bitmap", params=dict(cmp="lt", value=threshold))
    g.add_node("ma", "materialize")
    g.add_node("mb", "materialize")
    g.add_node("prod", "map", params=dict(op="mul"))
    g.add_node("total", "agg_block", params=dict(fn="sum"))
    g.connect("t.a", "f", 0)
    g.connect("t.a", "ma", 0)
    g.connect("f", "ma", 1)
    g.connect("t.b", "mb", 0)
    g.connect("f", "mb", 1)
    g.connect("ma", "prod", 0)
    g.connect("mb", "prod", 1)
    g.connect("prod", "total", 0)
    g.mark_output("total")

    expected = int((a[a < threshold] * b[a < threshold]).sum())
    executor = make_executor()
    oaat = executor.run(g, catalog, model="oaat")
    assert int(oaat.output("total")[0]) == expected
    chunked = executor.run(g, catalog, model=model, chunk_size=chunk)
    assert int(chunked.output("total")[0]) == expected
