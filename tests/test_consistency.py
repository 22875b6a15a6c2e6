"""Cross-module consistency checks and remaining edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import PrimitiveGraph
from repro.core.hub import DataTransferHub
from repro.devices import CudaDevice
from repro.hardware import GPU_RTX_2080_TI, Sdk, VirtualClock
from repro.hardware.costmodel import CostModel
from repro.storage import Catalog, Column, Table
from repro.tpch import generate
from repro.tpch.schema import TPCH_TABLES
from tests.conftest import make_context


class TestSchemaDbgenConsistency:
    """The analytic size accounting (Figure 7) and the generator must
    describe the same schema, column for column."""

    @pytest.fixture(scope="class")
    def catalog(self):
        return generate(0.001, seed=1)

    def test_same_tables(self, catalog):
        assert sorted(catalog.tables) == sorted(TPCH_TABLES)

    def test_same_columns_in_same_order(self, catalog):
        for name, spec in TPCH_TABLES.items():
            generated = catalog.table(name).column_names
            declared = [c.name for c in spec.columns]
            assert generated == declared, name

    def test_dict_encoding_matches_schema(self, catalog):
        from repro.storage import DictionaryColumn
        for name, spec in TPCH_TABLES.items():
            table = catalog.table(name)
            for column_spec in spec.columns:
                column = table.column(column_spec.name)
                is_dict = isinstance(column, DictionaryColumn)
                assert is_dict == (column_spec.encoding == "dict"), \
                    f"{name}.{column_spec.name}"

    def test_row_counts_close_to_schema(self, catalog):
        # Exact for key tables; lineitem is stochastic (1-7 per order).
        for name in ("orders", "customer", "supplier", "part",
                     "nation", "region"):
            assert len(catalog.table(name)) == \
                TPCH_TABLES[name].rows(0.001), name
        lineitem = len(catalog.table("lineitem"))
        expected = TPCH_TABLES["lineitem"].rows(0.001)
        assert 0.7 * expected < lineitem < 1.3 * expected


class TestCostModelMonotonicity:
    MODEL = CostModel(GPU_RTX_2080_TI, Sdk.CUDA)

    @given(a=st.integers(0, 2**30), b=st.integers(0, 2**30))
    @settings(max_examples=50, deadline=None)
    def test_transfer_monotone_in_size(self, a, b):
        lo, hi = sorted((a, b))
        assert self.MODEL.transfer_seconds(lo) <= \
            self.MODEL.transfer_seconds(hi)

    @given(a=st.integers(1, 2**28), b=st.integers(1, 2**28))
    @settings(max_examples=50, deadline=None)
    def test_kernels_monotone_in_cardinality(self, a, b):
        lo, hi = sorted((a, b))
        for primitive in ("map", "hash_build", "hash_agg"):
            assert self.MODEL.kernel_seconds(primitive, lo) <= \
                self.MODEL.kernel_seconds(primitive, hi), primitive

    @given(groups=st.integers(1, 2**24))
    @settings(max_examples=50, deadline=None)
    def test_group_contention_monotone(self, groups):
        opencl = CostModel(GPU_RTX_2080_TI, Sdk.OPENCL)
        assert opencl.kernel_seconds("hash_agg", 2**20, groups=groups) <= \
            opencl.kernel_seconds("hash_agg", 2**20, groups=groups * 2)


class TestHubPublishOnly:
    def test_publish_sets_value_without_dma(self):
        catalog = Catalog()
        catalog.add(Table("t", [Column("a", np.arange(64, dtype=np.int64))]))
        graph = PrimitiveGraph("p")
        graph.add_node("s", "agg_block", params=dict(fn="sum"))
        graph.connect("t.a", "s", 0)
        clock = VirtualClock()
        device = CudaDevice("dev", GPU_RTX_2080_TI, clock)
        device.initialize()
        ctx = make_context(catalog, graph=graph, devices={"dev": device},
                           chunk_size=64)
        hub = DataTransferHub(ctx)
        edge = graph.edges[0]
        device.add_pinned_memory("buf", 64 * 8)
        event = hub.load_data(edge, device, "buf", start=0, stop=32,
                              publish_only=True)
        assert event.duration == pytest.approx(1e-6)
        assert "uma-publish" in event.label
        assert np.array_equal(device.memory.get("buf").value,
                              np.arange(32))
        assert hub.device_ids == {edge.data_id: "dev"}


class TestMixedPrecisionColumns:
    """Columns of different dtypes flow through one pipeline."""

    def test_int32_and_int64_inputs(self):
        catalog = Catalog()
        catalog.add(Table("t", [
            Column("a", np.arange(100, dtype=np.int32)),
            Column("b", np.arange(100, dtype=np.int64)),
        ]))
        g = PrimitiveGraph("mixed")
        g.add_node("m", "map", params=dict(op="mul"))
        g.add_node("s", "agg_block", params=dict(fn="sum"))
        g.connect("t.a", "m", 0)
        g.connect("t.b", "m", 1)
        g.connect("m", "s", 0)
        g.mark_output("s")
        from tests.conftest import make_executor
        executor = make_executor()
        result = executor.run(g, catalog, model="chunked", chunk_size=32)
        expected = int((np.arange(100, dtype=np.int64) ** 2).sum())
        assert int(result.output("s")[0]) == expected
