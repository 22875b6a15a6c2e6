"""Tests for the task layer: definitions, containers, registry."""

import pytest

from repro.errors import (
    NoImplementationError,
    SignatureError,
    TransformError,
    UnknownPrimitiveError,
)
from repro.primitives.definitions import (
    PRIMITIVES,
    PrimitiveDefinition,
    definition,
    register_primitive,
)
from repro.primitives.values import IOSemantic as S
from repro.task import (
    DataContainer,
    ImplementationKind,
    KernelContainer,
    TaskRegistry,
    default_registry,
)

TABLE_I = [
    "map", "agg_block", "hash_agg", "hash_build", "hash_probe", "sort_agg",
    "filter_bitmap", "filter_position", "prefix_sum", "materialize",
    "materialize_position",
]

BREAKERS = {"agg_block", "hash_agg", "hash_build", "sort_agg", "prefix_sum"}


class TestDefinitions:
    def test_table_i_primitives_registered(self):
        for name in TABLE_I:
            assert name in PRIMITIVES, name

    def test_breaker_flags_match_table_i_daggers(self):
        for name in TABLE_I:
            assert definition(name).pipeline_breaker == (name in BREAKERS), name

    def test_unknown_primitive(self):
        with pytest.raises(UnknownPrimitiveError):
            definition("quantum_sort")

    def test_output_semantics(self):
        assert definition("filter_bitmap").output is S.BITMAP
        assert definition("filter_position").output is S.POSITION
        assert definition("prefix_sum").output is S.PREFIX_SUM
        assert definition("hash_build").output is S.HASH_TABLE
        assert definition("map").output is S.NUMERIC

    def test_optional_inputs(self):
        hash_agg = definition("hash_agg")
        assert hash_agg.min_inputs == 1  # COUNT needs no value column
        assert len(hash_agg.inputs) == 2
        build = definition("hash_build")
        assert build.min_inputs == 1
        assert len(build.inputs) == 4  # up to three payload columns

    def test_estimators_positive(self):
        for name, defn in PRIMITIVES.items():
            assert defn.estimate_output_bytes(1000, {}) >= 0, name

    def test_bitmap_estimate_packed(self):
        assert definition("filter_bitmap").estimate_output_bytes(320, {}) == \
            320 // 32 * 4

    def test_selectivity_estimate_hint(self):
        full = definition("materialize").estimate_output_bytes(1000, {})
        half = definition("materialize").estimate_output_bytes(
            1000, {"selectivity_estimate": 0.5})
        assert half == full // 2

    def test_register_custom_primitive(self):
        defn = PrimitiveDefinition(
            name="tree_filter", inputs=(S.NUMERIC,), output=S.GENERIC,
            pipeline_breaker=False, cost_key="map",
            estimate_output_bytes=lambda n, p: n,
        )
        register_primitive(defn)
        try:
            assert definition("tree_filter") is defn
        finally:
            del PRIMITIVES["tree_filter"]


class TestKernelContainer:
    def test_call_forwards(self):
        container = KernelContainer("map", "test", lambda a, k=1: a * k)
        assert container(3, k=4) == 12

    def test_needs_compilation(self):
        plain = KernelContainer("map", "t", lambda a: a)
        assert not plain.needs_compilation
        sourced = KernelContainer("map", "t", lambda a: a,
                                  source="__kernel void f() {}")
        assert sourced.needs_compilation
        sourced.compiled = True
        assert not sourced.needs_compilation

    def test_kind_constants(self):
        assert ImplementationKind.HANDWRITTEN == "handwritten"
        assert ImplementationKind.LIBRARY == "library"
        assert ImplementationKind.GENERATED == "generated"


class TestDataContainer:
    def test_identity_transform(self):
        container = DataContainer(native_format="cuda.devptr")
        assert container.transform(42, "x", "x") == 42

    def test_registered_transform(self):
        container = DataContainer(native_format="a")
        container.register_transform("a", "b", lambda v: v + 1)
        assert container.transform(1, "a", "b") == 2
        assert container.can_transform("a", "b")
        assert not container.can_transform("b", "a")

    def test_missing_transform(self):
        container = DataContainer(native_format="a")
        with pytest.raises(TransformError):
            container.transform(1, "a", "z")


class TestTaskRegistry:
    def test_default_registry_covers_all_primitives(self):
        registry = default_registry()
        for name in PRIMITIVES:
            container = registry.resolve(name, "cuda")
            assert container.primitive == name

    def test_variant_resolution_prefers_exact(self):
        registry = default_registry()
        custom = KernelContainer("map", "cuda", lambda *a, **k: "custom")
        registry.register(custom)
        assert registry.resolve("map", "cuda") is custom
        assert registry.resolve("map", "opencl").variant == "reference"

    def test_unknown_primitive_rejected(self):
        registry = TaskRegistry()
        with pytest.raises(UnknownPrimitiveError):
            registry.register(KernelContainer("nope", "v", lambda: None))

    def test_uncallable_rejected(self):
        registry = TaskRegistry()
        with pytest.raises(SignatureError):
            registry.register(KernelContainer("map", "v", fn=42))

    def test_duplicate_needs_replace(self):
        registry = default_registry()
        duplicate = KernelContainer("map", "reference", lambda *a, **k: None)
        with pytest.raises(SignatureError):
            registry.register(duplicate)
        registry.register(duplicate, replace=True)
        assert registry.resolve("map", "anything") is duplicate

    def test_no_implementation_anywhere(self):
        registry = TaskRegistry()
        with pytest.raises(NoImplementationError):
            registry.resolve("map", "cuda")

    def test_variants_listing(self):
        registry = default_registry()
        registry.register(KernelContainer("map", "cuda", lambda *a, **k: 0))
        assert registry.variants("map") == ["cuda", "reference"]

    def test_contains(self):
        registry = default_registry()
        assert ("map", "reference") in registry
        assert ("map", "cuda") not in registry

    def test_plugged_variant_executes(self, tiny_catalog):
        """End to end: a custom per-SDK kernel variant is actually used."""
        from repro.tpch.queries import q6
        from tests.conftest import make_executor

        calls = []

        def spy_map(in1, in2=None, *, op, const=None):
            calls.append(op)
            from repro.primitives.kernels import map_kernel
            return map_kernel(in1, in2, op=op, const=const)

        executor = make_executor()
        executor.registry.register(
            KernelContainer("map", "cuda", spy_map, num_args=3))
        executor.run(q6.build(), tiny_catalog, model="oaat")
        assert calls  # the cuda variant ran instead of the reference one
