"""Tests for edge value types (bitmaps, position lists, tables...)."""

import numpy as np
import pytest

from repro.primitives.values import (
    Bitmap,
    GroupTable,
    HashTable,
    IOSemantic,
    JoinPairs,
    PositionList,
    PrefixSum,
    semantic_of,
    value_nbytes,
)


class TestBitmap:
    def test_roundtrip(self):
        mask = np.array([True, False, True, True, False] * 13)
        assert np.array_equal(Bitmap.from_mask(mask).to_mask(), mask)

    def test_roundtrip_exact_word_boundary(self):
        mask = np.ones(64, dtype=bool)
        bitmap = Bitmap.from_mask(mask)
        assert bitmap.words.shape == (2,)
        assert np.array_equal(bitmap.to_mask(), mask)

    def test_empty(self):
        bitmap = Bitmap.from_mask(np.zeros(0, dtype=bool))
        assert bitmap.length == 0
        assert bitmap.count() == 0
        assert bitmap.to_mask().shape == (0,)

    def test_count_is_popcount(self):
        mask = np.random.default_rng(1).random(1000) < 0.3
        assert Bitmap.from_mask(mask).count() == int(mask.sum())

    def test_padding_bits_not_counted(self):
        bitmap = Bitmap.from_mask(np.ones(33, dtype=bool))
        assert bitmap.count() == 33
        assert bitmap.length == 33

    def test_nbytes_packed(self):
        bitmap = Bitmap.from_mask(np.ones(1024, dtype=bool))
        assert bitmap.nbytes == 1024 // 8

    def test_equality(self):
        mask = np.array([True, False, True])
        assert Bitmap.from_mask(mask) == Bitmap.from_mask(mask)
        assert Bitmap.from_mask(mask) != Bitmap.from_mask(~mask)


class TestPositionList:
    def test_len_and_dtype(self):
        positions = PositionList(np.array([3, 1, 4]))
        assert len(positions) == 3
        assert positions.positions.dtype == np.int64

    def test_nbytes(self):
        assert PositionList(np.arange(10)).nbytes == 80


class TestPrefixSum:
    def test_total(self):
        assert PrefixSum(np.array([1, 3, 6])).total == 6

    def test_empty_total(self):
        assert PrefixSum(np.array([], dtype=np.int64)).total == 0


class TestHashTable:
    def make(self):
        # keys 5 (rows 0, 2) and 9 (row 1), payload values 10x row.
        return HashTable(
            keys=np.array([5, 9], dtype=np.int64),
            offsets=np.array([0, 2, 3], dtype=np.int64),
            positions=np.array([0, 2, 1], dtype=np.int64),
            payload={"v": np.array([0, 20, 10], dtype=np.int64)},
        )

    def test_num_keys(self):
        assert self.make().num_keys == 2

    def test_lookup_payload(self):
        table = self.make()
        assert table.lookup_payload(5, "v") == 0
        assert table.lookup_payload(9, "v") == 10

    def test_lookup_missing_key(self):
        with pytest.raises(KeyError):
            self.make().lookup_payload(7, "v")

    def test_lookup_missing_payload(self):
        with pytest.raises(KeyError):
            self.make().lookup_payload(5, "nope")

    def test_nbytes_includes_payload(self):
        table = self.make()
        bare = HashTable(table.keys, table.offsets, table.positions)
        assert table.nbytes > bare.nbytes

    def test_arrays_are_read_only(self):
        # The slot directory and row index are derived from the arrays
        # once; writing through the table would leave them stale.
        table = self.make()
        for array in (table.keys, table.offsets, table.positions,
                      table.payload["v"]):
            with pytest.raises(ValueError):
                array[0] = 1


class TestGroupTable:
    def test_merge_sum(self):
        a = GroupTable(np.array([1, 2]), {"sum": np.array([10, 20])})
        b = GroupTable(np.array([2, 3]), {"sum": np.array([5, 7])})
        merged = a.merge(b, how={"sum": "sum"})
        assert list(merged.keys) == [1, 2, 3]
        assert list(merged.aggregates["sum"]) == [10, 25, 7]

    def test_merge_min_max(self):
        a = GroupTable(np.array([1]), {"min": np.array([10]),
                                       "max": np.array([10])})
        b = GroupTable(np.array([1]), {"min": np.array([3]),
                                       "max": np.array([30])})
        merged = a.merge(b, how={"min": "min", "max": "max"})
        assert merged.aggregates["min"][0] == 3
        assert merged.aggregates["max"][0] == 30

    def test_merge_disjoint_keys(self):
        a = GroupTable(np.array([1]), {"sum": np.array([1])})
        b = GroupTable(np.array([9]), {"sum": np.array([9])})
        merged = a.merge(b, how={"sum": "sum"})
        assert merged.num_groups == 2

    def test_merge_unknown_kind(self):
        a = GroupTable(np.array([1]), {"avg": np.array([1])})
        b = GroupTable(np.array([1]), {"avg": np.array([2])})
        with pytest.raises(ValueError):
            a.merge(b, how={"avg": "mean"})

    def test_num_groups(self):
        assert GroupTable(np.arange(7), {"sum": np.zeros(7)}).num_groups == 7


class TestJoinPairs:
    def test_pairing_enforced(self):
        with pytest.raises(ValueError):
            JoinPairs(left=np.arange(3), right=np.arange(4))

    def test_len(self):
        assert len(JoinPairs(np.arange(5), np.arange(5))) == 5


class TestSizingAndSemantics:
    def test_value_nbytes_array(self):
        assert value_nbytes(np.zeros(10, dtype=np.int64)) == 80

    def test_value_nbytes_none(self):
        assert value_nbytes(None) == 0

    def test_value_nbytes_scalar(self):
        assert value_nbytes(7) == 8

    def test_value_nbytes_unsizable(self):
        with pytest.raises(TypeError):
            value_nbytes(object())

    def test_semantics(self):
        assert semantic_of(np.zeros(3)) is IOSemantic.NUMERIC
        assert semantic_of(Bitmap.from_mask(np.ones(3, bool))) is \
            IOSemantic.BITMAP
        assert semantic_of(PositionList(np.arange(2))) is IOSemantic.POSITION
        assert semantic_of(PrefixSum(np.arange(2))) is IOSemantic.PREFIX_SUM
        assert semantic_of(GroupTable(np.arange(1), {})) is \
            IOSemantic.HASH_TABLE
        assert semantic_of("anything") is IOSemantic.GENERIC
