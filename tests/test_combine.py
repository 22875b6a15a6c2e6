"""Tests for per-chunk partial-result combination."""

import numpy as np
import pytest

from repro.core.combine import ChunkPartial, combine_chunk_results
from repro.errors import ExecutionError
from repro.primitives.values import (
    Bitmap,
    JoinPairs,
    PositionList,
    PrefixSum,
)


def parts(*values_and_bases):
    return [ChunkPartial(v, b) for v, b in values_and_bases]


class TestNumericAndScalar:
    def test_columns_concatenate(self):
        out = combine_chunk_results(parts(
            (np.array([1, 2]), 0), (np.array([3]), 2)))
        assert list(out) == [1, 2, 3]

    def test_scalar_sum_merges(self):
        out = combine_chunk_results(parts(
            (np.array([10]), 0), (np.array([5]), 2)), agg_fn="sum")
        assert out[0] == 15

    def test_empty_rejected(self):
        with pytest.raises(ExecutionError):
            combine_chunk_results([])


class TestBitmaps:
    def test_unaligned_interior_chunk_rejected(self):
        a = Bitmap.from_mask(np.array([True] * 30))  # not 32-aligned
        b = Bitmap.from_mask(np.array([True] * 32))
        with pytest.raises(ExecutionError):
            combine_chunk_results(parts((a, 0), (b, 30)))

    def test_last_chunk_may_be_short(self):
        a = Bitmap.from_mask(np.ones(64, dtype=bool))
        b = Bitmap.from_mask(np.ones(7, dtype=bool))
        out = combine_chunk_results(parts((a, 0), (b, 64)))
        assert out.length == 71
        assert out.count() == 71


class TestPositionsAndPairs:
    def test_positions_offset_by_base(self):
        a = PositionList(np.array([0, 5]))
        b = PositionList(np.array([1]))
        out = combine_chunk_results(parts((a, 0), (b, 100)))
        assert list(out.positions) == [0, 5, 101]

    def test_join_pairs_offset_probe_side_only(self):
        a = JoinPairs(np.array([0]), np.array([42]))
        b = JoinPairs(np.array([2]), np.array([43]))
        out = combine_chunk_results(parts((a, 0), (b, 50)))
        assert list(out.left) == [0, 52]
        assert list(out.right) == [42, 43]  # build positions already global


class TestPrefixSums:
    def test_carry_across_chunks(self):
        a = PrefixSum(np.array([1, 2, 3]))
        b = PrefixSum(np.array([1, 1]))
        out = combine_chunk_results(parts((a, 0), (b, 3)))
        assert list(out.sums) == [1, 2, 3, 4, 4]
        assert out.total == 4


class TestUnsupported:
    def test_unknown_type_rejected(self):
        with pytest.raises(ExecutionError):
            combine_chunk_results(parts(("weird", 0), ("weird", 1)))
