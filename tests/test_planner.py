"""Tests for the logical planner and its translation to primitives."""

import pytest

from repro.errors import PlanError
from repro.planner import (
    AggregateSpec,
    AnyOf,
    Derived,
    GroupAggregate,
    HashBuild,
    HashJoin,
    Predicate,
    ScalarAggregate,
    Scan,
    Select,
    SemiJoin,
    Sort,
    translate,
)


class TestLogicalValidation:
    def test_predicate_needs_parameters(self):
        with pytest.raises(PlanError):
            Predicate("x")
        with pytest.raises(PlanError):
            Predicate("x", cmp="lt")

    def test_predicate_kernel_params(self):
        assert Predicate("x", cmp="lt", value=5).kernel_params() == \
            {"cmp": "lt", "value": 5}
        assert Predicate("x", lo=1, hi=2).kernel_params() == \
            {"lo": 1, "hi": 2}

    def test_select_needs_predicates(self):
        with pytest.raises(PlanError):
            Select(Scan("t"), [])

    def test_aggregate_spec_needs_column(self):
        with pytest.raises(PlanError):
            AggregateSpec("s", "sum")
        AggregateSpec("c", "count")  # fine without a column

    def test_group_aggregate_key_limits(self):
        child = Scan("t")
        aggs = [AggregateSpec("c", "count")]
        with pytest.raises(PlanError):
            GroupAggregate(child, keys=[], aggregates=aggs)
        with pytest.raises(PlanError):
            GroupAggregate(child, keys=["a", "b", "c"], aggregates=aggs)
        with pytest.raises(PlanError):
            GroupAggregate(child, keys=["a", "b"], aggregates=aggs)  # no domain
        with pytest.raises(PlanError):
            GroupAggregate(child, keys=["a"], aggregates=[])

    def test_duplicate_aggregate_names(self):
        with pytest.raises(PlanError):
            GroupAggregate(Scan("t"), keys=["a"], aggregates=[
                AggregateSpec("x", "count"), AggregateSpec("x", "count"),
            ])

    def test_join_payload_limit(self):
        with pytest.raises(PlanError):
            HashJoin(Scan("a"), Scan("b"), "k", "k",
                     payload=["p1", "p2", "p3", "p4"])

    def test_children(self):
        join = SemiJoin(Scan("a"), Scan("b"), "k", "k")
        assert len(join.children()) == 2
        assert Scan("a").children() == []
        assert Sort(Scan("a"), "k").children() == [Scan("a")]

    def test_extension_limits(self):
        """Literals may be left to ``bind`` only under a node id; a
        disjunction needs two terms; a scalar or sort aggregate reads a
        column; a sort aggregate needs its input sorted by its key."""
        assert Predicate("x", id="f").kernel_params() == {}
        assert Derived("d", None, "x", id="m").kernel_params() == {}
        assert Derived("d", "between", "x", const=(1, 2)).kernel_params() \
            == {"op": "between", "const": (1, 2)}
        with pytest.raises(PlanError):
            Derived("d", None, "x")
        with pytest.raises(PlanError):
            AnyOf([Predicate("x", cmp="lt", value=1)])
        with pytest.raises(PlanError):
            ScalarAggregate(Scan("t"), [AggregateSpec("n", "count")])
        with pytest.raises(PlanError):
            ScalarAggregate(Scan("t"), [])
        with pytest.raises(PlanError):
            GroupAggregate(Scan("t"), keys=["k"], sort=True,
                           aggregates=[AggregateSpec("s", "sum", "v")])
        with pytest.raises(PlanError):
            GroupAggregate(Sort(Scan("t"), "k"), keys=["k"], sort=True,
                           aggregates=[AggregateSpec("n", "count")])
        with pytest.raises(PlanError):
            HashBuild(Scan("t"), "k", payload=["a", "b", "c", "d"])


class TestTranslationStructure:
    def test_having_reads_one_key_hash_aggregates_only(self):
        def having(group):
            return ScalarAggregate(
                Select(group, [Predicate("n", cmp="gt", value=1)]),
                [AggregateSpec("s", "sum", "n")])
        counted = [AggregateSpec("n", "count")]
        with pytest.raises(PlanError):
            translate(having(GroupAggregate(
                Scan("t"), keys=["a", "b"], second_key_domain=2,
                aggregates=counted)))
        with pytest.raises(PlanError):  # no such column
            translate(ScalarAggregate(
                GroupAggregate(Scan("t"), keys=["a"], aggregates=counted),
                [AggregateSpec("s", "sum", "missing")]))
        graph = translate(having(GroupAggregate(
            Scan("t"), keys=["a"], aggregates=counted, output=True)))
        assert graph.outputs == ["s", "n"]

    def test_root_must_be_aggregate(self):
        with pytest.raises(PlanError):
            translate(Scan("lineitem"))
        with pytest.raises(PlanError):
            translate(Select(Scan("t"), [Predicate("c", cmp="lt", value=1)]))

    def test_unsupported_operator_position(self):
        # An aggregate nested under a select is not a supported shape.
        inner = ScalarAggregate(Scan("t"),
                                [AggregateSpec("result", "sum", "c")])
        with pytest.raises(PlanError):
            translate(ScalarAggregate(
                Select(inner, [Predicate("c", cmp="lt", value=1)]),
                [AggregateSpec("result", "sum", "c")]))

    def test_translated_graph_validates(self):
        plan = ScalarAggregate(
            Select(Scan("lineitem"),
                   [Predicate("l_quantity", cmp="lt", value=24)]),
            [AggregateSpec("result", "count", "l_quantity")])
        graph = translate(plan)
        assert graph.outputs == ["result"]
        assert graph.nodes["result"].primitive == "agg_block"

    def test_group_output_names_match_specs(self):
        plan = GroupAggregate(
            Select(Scan("orders"),
                   [Predicate("o_orderdate", cmp="lt", value=9000)]),
            keys=["o_custkey"],
            aggregates=[AggregateSpec("revenue", "sum", "o_totalprice"),
                        AggregateSpec("n", "count")])
        graph = translate(plan)
        assert set(graph.outputs) == {"revenue", "n"}

    def test_device_annotation_applied(self):
        plan = ScalarAggregate(Scan("lineitem"),
                               [AggregateSpec("result", "sum", "l_quantity")])
        graph = translate(plan, device="gpu7")
        assert all(node.device == "gpu7" for node in graph.nodes.values())

    def test_conjunction_builds_and_chain(self):
        plan = ScalarAggregate(
            Select(Scan("lineitem"), [
                Predicate("l_quantity", cmp="lt", value=24),
                Predicate("l_discount", lo=5, hi=7),
                Predicate("l_tax", cmp="ge", value=1),
            ]),
            [AggregateSpec("result", "count", "l_quantity")])
        graph = translate(plan)
        kinds = [n.primitive for n in graph.nodes.values()]
        assert kinds.count("filter_bitmap") == 3
        assert kinds.count("bitmap_and") == 2
