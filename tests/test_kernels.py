"""Kernel correctness tests against plain-numpy oracles."""

import numpy as np
import pytest

from repro.errors import SignatureError
from repro.primitives import kernels
from repro.primitives.values import Bitmap, PositionList, PrefixSum

RNG = np.random.default_rng(99)


class TestMap:
    def test_binary_ops(self):
        a = RNG.integers(0, 100, 64)
        b = RNG.integers(1, 100, 64)
        assert np.array_equal(kernels.map_kernel(a, b, op="add"), a + b)
        assert np.array_equal(kernels.map_kernel(a, b, op="sub"), a - b)
        assert np.array_equal(kernels.map_kernel(a, b, op="mul"), a * b)

    def test_revenue_expressions(self):
        price = RNG.integers(100, 10000, 64).astype(np.int64)
        disc = RNG.integers(0, 11, 64).astype(np.int64)
        tax = RNG.integers(0, 9, 64).astype(np.int64)
        assert np.array_equal(
            kernels.map_kernel(price, disc, op="disc_price"),
            price * (100 - disc))
        assert np.array_equal(
            kernels.map_kernel(price, tax, op="tax_price"),
            price * (100 + tax))

    def test_combine_keys(self):
        a = np.array([0, 1, 2])
        b = np.array([0, 1, 0])
        assert list(kernels.map_kernel(a, b, op="combine_keys", const=2)) == \
            [0, 3, 4]

    def test_const_ops(self):
        a = np.arange(5)
        assert list(kernels.map_kernel(a, op="add_const", const=10)) == \
            [10, 11, 12, 13, 14]
        assert list(kernels.map_kernel(a, op="mul_const", const=3)) == \
            [0, 3, 6, 9, 12]

    def test_identity_copies(self):
        a = np.arange(5)
        out = kernels.map_kernel(a, op="identity")
        assert np.array_equal(out, a)
        assert out is not a

    def test_unknown_op(self):
        with pytest.raises(SignatureError):
            kernels.map_kernel(np.arange(3), op="xor")

    def test_binary_op_needs_two_inputs(self):
        with pytest.raises(SignatureError):
            kernels.map_kernel(np.arange(3), op="add")

    def test_length_mismatch(self):
        with pytest.raises(SignatureError):
            kernels.map_kernel(np.arange(3), np.arange(4), op="add")

    def test_register_custom_op(self):
        kernels.register_map_op("triple", lambda a, b, c: a * 3)
        try:
            assert list(kernels.map_kernel(np.arange(3), op="triple")) == \
                [0, 3, 6]
        finally:
            del kernels.MAP_OPS["triple"]

    def test_no_int32_overflow(self):
        big = np.full(4, 2**30, dtype=np.int32)
        out = kernels.map_kernel(big, big, op="mul")
        assert (out == 2**60).all()


class TestFilter:
    def test_all_comparators(self):
        a = np.array([1, 5, 5, 9])
        cases = {
            "lt": a < 5, "le": a <= 5, "gt": a > 5,
            "ge": a >= 5, "eq": a == 5, "ne": a != 5,
        }
        for cmp, expected in cases.items():
            bitmap = kernels.filter_bitmap(a, cmp=cmp, value=5)
            assert np.array_equal(bitmap.to_mask(), expected), cmp

    def test_range_inclusive(self):
        a = np.arange(10)
        bitmap = kernels.filter_bitmap(a, lo=3, hi=6)
        assert np.array_equal(bitmap.to_mask(), (a >= 3) & (a <= 6))

    def test_open_ranges(self):
        a = np.arange(10)
        assert kernels.filter_bitmap(a, lo=7).count() == 3
        assert kernels.filter_bitmap(a, hi=2).count() == 3

    def test_position_variant_matches_bitmap(self):
        a = RNG.integers(0, 50, 256)
        bitmap = kernels.filter_bitmap(a, cmp="lt", value=25)
        positions = kernels.filter_position(a, cmp="lt", value=25)
        assert np.array_equal(np.nonzero(bitmap.to_mask())[0],
                              positions.positions)

    def test_missing_parameters(self):
        with pytest.raises(SignatureError):
            kernels.filter_bitmap(np.arange(3))
        with pytest.raises(SignatureError):
            kernels.filter_bitmap(np.arange(3), cmp="lt")

    def test_unknown_comparator(self):
        with pytest.raises(SignatureError):
            kernels.filter_bitmap(np.arange(3), cmp="like", value=1)

    def test_bitmap_and(self):
        a = kernels.filter_bitmap(np.arange(64), cmp="lt", value=40)
        b = kernels.filter_bitmap(np.arange(64), cmp="ge", value=20)
        both = kernels.bitmap_and(a, b)
        assert both.count() == 20

    def test_bitmap_and_length_mismatch(self):
        a = Bitmap.from_mask(np.ones(32, bool))
        b = Bitmap.from_mask(np.ones(64, bool))
        with pytest.raises(SignatureError):
            kernels.bitmap_and(a, b)


class TestMaterialize:
    def test_bitmap_gather(self):
        a = RNG.integers(0, 100, 128)
        bitmap = kernels.filter_bitmap(a, cmp="ge", value=50)
        assert np.array_equal(kernels.materialize(a, bitmap), a[a >= 50])

    def test_bitmap_length_mismatch(self):
        with pytest.raises(SignatureError):
            kernels.materialize(np.arange(10),
                                Bitmap.from_mask(np.ones(20, bool)))

    def test_position_gather(self):
        a = np.array([10, 20, 30, 40])
        out = kernels.materialize_position(a, PositionList(np.array([3, 1])))
        assert list(out) == [40, 20]

    def test_position_out_of_range(self):
        with pytest.raises(SignatureError):
            kernels.materialize_position(np.arange(3),
                                         PositionList(np.array([5])))

    def test_empty_positions(self):
        out = kernels.materialize_position(
            np.arange(3), PositionList(np.array([], dtype=np.int64)))
        assert out.shape == (0,)


class TestAggBlock:
    def test_sum_min_max_count(self):
        a = np.array([4, -2, 9, 9])
        assert kernels.agg_block(a, fn="sum")[0] == 20
        assert kernels.agg_block(a, fn="min")[0] == -2
        assert kernels.agg_block(a, fn="max")[0] == 9
        assert kernels.agg_block(a, fn="count")[0] == 4

    def test_empty_identities(self):
        empty = np.array([], dtype=np.int64)
        assert kernels.agg_block(empty, fn="sum")[0] == 0
        assert kernels.agg_block(empty, fn="count")[0] == 0
        assert kernels.agg_block(empty, fn="min")[0] == np.iinfo(np.int64).max
        assert kernels.agg_block(empty, fn="max")[0] == np.iinfo(np.int64).min

    def test_unknown_fn(self):
        with pytest.raises(SignatureError):
            kernels.agg_block(np.arange(3), fn="median")

    def test_merge_partials(self):
        parts = [kernels.agg_block(np.array([1, 2]), fn="sum"),
                 kernels.agg_block(np.array([3]), fn="sum")]
        assert kernels.merge_partials(parts, fn="sum")[0] == 6

    def test_merge_count_partials_sums(self):
        parts = [kernels.agg_block(np.arange(5), fn="count"),
                 kernels.agg_block(np.arange(3), fn="count")]
        assert kernels.merge_partials(parts, fn="count")[0] == 8

    def test_sum_no_overflow_int32(self):
        a = np.full(1000, 2**31 - 1, dtype=np.int32)
        assert kernels.agg_block(a, fn="sum")[0] == 1000 * (2**31 - 1)


class TestHashBuildProbe:
    def test_unknown_mode(self):
        table = kernels.hash_build(np.array([1]))
        with pytest.raises(SignatureError):
            kernels.hash_probe(np.array([1]), table, mode="outer")

    def test_join_side(self):
        pairs = kernels.hash_probe(
            np.array([5]), kernels.hash_build(np.array([5, 5])), mode="inner")
        left = kernels.join_side(pairs, side="left")
        right = kernels.join_side(pairs, side="right")
        assert list(left.positions) == [0, 0]
        assert sorted(right.positions.tolist()) == [0, 1]
        with pytest.raises(SignatureError):
            kernels.join_side(pairs, side="middle")

    def test_payload_name_count_mismatch(self):
        with pytest.raises(SignatureError):
            kernels.hash_build(np.array([1]), np.array([1]))  # no names

    def test_payload_length_mismatch(self):
        with pytest.raises(SignatureError):
            kernels.hash_build(np.array([1, 2]), np.array([1]),
                               payload_names=("v",))


class TestHashAgg:
    def test_sum_needs_values(self):
        with pytest.raises(SignatureError):
            kernels.hash_agg(np.array([1]), fn="sum")

    def test_length_mismatch(self):
        with pytest.raises(SignatureError):
            kernels.hash_agg(np.array([1, 2]), np.array([1]), fn="sum")

    def test_unknown_fn(self):
        with pytest.raises(SignatureError):
            kernels.hash_agg(np.array([1]), np.array([1]), fn="avg")

class TestPrefixSumAndSortAgg:
    def test_prefix_sum_matches_cumsum(self):
        a = RNG.integers(0, 5, 100)
        assert np.array_equal(kernels.prefix_sum(a).sums, np.cumsum(a))

    def test_prefix_sum_of_bitmap(self):
        bitmap = Bitmap.from_mask(np.array([True, False, True, True]))
        assert list(kernels.prefix_sum(bitmap).sums) == [1, 1, 2, 3]

    def test_boundary_prefix_sum(self):
        keys = np.array([3, 3, 7, 7, 7, 9])
        pxsum = kernels.boundary_prefix_sum(keys)
        assert list(pxsum.sums) == [1, 1, 2, 2, 2, 3]
        assert pxsum.total == 3

    def test_sort_agg_matches_hash_agg(self):
        keys = np.sort(RNG.integers(0, 8, 100))
        values = RNG.integers(0, 50, 100)
        pxsum = kernels.boundary_prefix_sum(keys)
        by_sort = kernels.sort_agg(values, pxsum, keys=keys, fn="sum")
        by_hash = kernels.hash_agg(keys, values, fn="sum")
        assert np.array_equal(by_sort.keys, by_hash.keys)
        assert np.array_equal(by_sort.aggregates["sum"],
                              by_hash.aggregates["sum"])

    def test_sort_agg_count_min_max(self):
        keys = np.array([1, 1, 4])
        values = np.array([10, 2, 5])
        pxsum = kernels.boundary_prefix_sum(keys)
        assert list(kernels.sort_agg(values, pxsum, fn="count")
                    .aggregates["count"]) == [2, 1]
        assert list(kernels.sort_agg(values, pxsum, fn="min")
                    .aggregates["min"]) == [2, 5]
        assert list(kernels.sort_agg(values, pxsum, fn="max")
                    .aggregates["max"]) == [10, 5]

    def test_sort_agg_dense_keys_without_key_column(self):
        values = np.array([1, 2, 3])
        pxsum = PrefixSum(np.array([1, 1, 2]))
        table = kernels.sort_agg(values, pxsum, fn="sum")
        assert list(table.keys) == [0, 1]
        assert list(table.aggregates["sum"]) == [3, 3]

    def test_sort_agg_length_mismatch(self):
        with pytest.raises(SignatureError):
            kernels.sort_agg(np.arange(3), PrefixSum(np.array([1])), fn="sum")

    def test_sort_agg_empty(self):
        table = kernels.sort_agg(np.array([], dtype=np.int64),
                                 PrefixSum(np.array([], dtype=np.int64)),
                                 fn="sum")
        assert table.num_groups == 0

    def test_sort_agg_unknown_fn(self):
        with pytest.raises(SignatureError):
            kernels.sort_agg(np.array([1]), PrefixSum(np.array([1])),
                             fn="avg")
