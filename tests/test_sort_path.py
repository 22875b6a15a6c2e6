"""Tests for the sort-based aggregation path (SORT_POSITIONS /
GROUP_PREFIX / SORT_AGG as graph primitives, and the Q1 variant)."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.observe import explain
from repro.primitives.kernels import group_prefix, sort_positions
from repro.tpch import reference
from repro.tpch.queries import q1_sorted
from tests.conftest import make_executor


class TestSortKernels:
    def test_sort_positions_stable_ascending(self):
        keys = np.array([3, 1, 3, 0, 1])
        order = sort_positions(keys)
        assert list(order.positions) == [3, 1, 4, 0, 2]

    def test_sort_positions_empty(self):
        assert len(sort_positions(np.empty(0, dtype=np.int64))) == 0

    def test_group_prefix_counts_groups(self):
        prefix = group_prefix(np.array([2, 2, 5, 9, 9, 9]))
        assert list(prefix.sums) == [1, 1, 2, 3, 3, 3]
        assert prefix.total == 3


class TestQ1SortedPlan:
    def test_matches_oracle_under_oaat(self, small_catalog):
        executor = make_executor()
        result = executor.run(q1_sorted.build(), small_catalog, model="oaat")
        assert q1_sorted.finalize(result, small_catalog) == \
            reference.q1(small_catalog)

    def test_matches_hash_based_plan(self, small_catalog):
        from repro.tpch.queries import q1
        executor = make_executor()
        by_sort = q1_sorted.finalize(
            executor.run(q1_sorted.build(), small_catalog, model="oaat"),
            small_catalog)
        by_hash = q1.finalize(
            executor.run(q1.build(), small_catalog, model="oaat"),
            small_catalog)
        assert by_sort == by_hash

    def test_multi_chunk_execution_rejected(self, small_catalog):
        executor = make_executor()
        with pytest.raises(ExecutionError, match="full input"):
            executor.run(q1_sorted.build(), small_catalog, model="chunked",
                         chunk_size=1024)

    def test_explain_renders_the_refusal_the_run_raises(self, small_catalog):
        """EXPLAIN used to promise ``chunks=59`` for a plan the chunk
        loop refuses; it renders the refusal, in the run's own words."""
        executor = make_executor()
        flags = dict(model="chunked", chunk_size=1024)
        with pytest.raises(ExecutionError) as refused:
            executor.run(q1_sorted.build(), small_catalog, **flags)
        text = explain(q1_sorted.build(), small_catalog,
                       devices=executor.devices, **flags)
        assert f"    refused: {refused.value}" in text.splitlines()
        assert "['order', 'boundaries']" in text
        assert "chunks=refused" in text
        rows = small_catalog.column("lineitem.l_shipdate").values.shape[0]
        assert f"covering all {rows} rows" in text
        assert f"chunks={-(-rows // 1024)}" not in text

    def test_explain_at_a_covering_chunk_is_one_chunk(self, small_catalog):
        executor = make_executor()
        text = explain(q1_sorted.build(), small_catalog,
                       devices=executor.devices, model="chunked",
                       chunk_size=1 << 21)
        assert "chunks=1 " in text and "refused" not in text
        # Operator-at-a-time has no chunk loop, so nothing to refuse.
        assert "refused" not in explain(
            q1_sorted.build(), small_catalog, devices=executor.devices,
            model="oaat", chunk_size=1024)

    def test_single_covering_chunk_allowed(self, small_catalog):
        executor = make_executor()
        result = executor.run(q1_sorted.build(), small_catalog,
                              model="chunked", chunk_size=1 << 21)
        assert q1_sorted.finalize(result, small_catalog) == \
            reference.q1(small_catalog)

    def test_alternate_delta(self, small_catalog):
        executor = make_executor()
        result = executor.run(q1_sorted.build(delta_days=30), small_catalog,
                              model="oaat")
        assert q1_sorted.finalize(result, small_catalog) == \
            reference.q1(small_catalog, delta_days=30)

    def test_sort_slower_than_hash_for_few_groups(self, small_catalog):
        from repro.tpch.queries import q1
        executor = make_executor()
        hash_time = executor.run(q1.build(), small_catalog, model="oaat",
                                 data_scale=64).stats.makespan
        sort_time = executor.run(q1_sorted.build(), small_catalog,
                                 model="oaat",
                                 data_scale=64).stats.makespan
        assert hash_time < sort_time
