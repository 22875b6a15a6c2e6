"""The plan IR: a PhysicalPlan is the graph plus the decisions that run
it, compile_plan is where flags become one, and the context holds the
plan without copying any of its facts."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.core.context import ExecutionContext
from repro.core.models import MODELS
from repro.errors import ExecutionError
from repro.observe import explain
from repro.planner.adaptive import AdaptiveController
from repro.planner.compile import compile_plan
from repro.planner.fusion import FUSED_PRIMITIVES, fuse_graph, fusion_groups
from repro.planner.ir import DEFAULT_CHUNK_SIZE, PhysicalPlan
from repro.tpch.queries import q6, q19
from tests.conftest import make_executor

#: The decisions a plan carries, and nothing else.
PLAN_FIELDS = {"graph", "model", "chunk_size", "data_scale", "fuse",
               "adaptive", "analyze"}


class TestPhysicalPlan:
    def test_defaults(self):
        plan = PhysicalPlan(graph=q6.build())
        assert {f.name for f in dataclasses.fields(plan)} == PLAN_FIELDS
        assert plan.model == "chunked"
        assert plan.chunk_size == DEFAULT_CHUNK_SIZE
        assert plan.data_scale == 1
        assert not plan.fuse and not plan.adaptive and not plan.analyze

    def test_physical_chunk_rows_descales(self):
        plan = PhysicalPlan(graph=q6.build(), chunk_size=2048,
                            data_scale=1024)
        assert plan.physical_chunk_rows == 2
        tiny = PhysicalPlan(graph=q6.build(), chunk_size=32,
                            data_scale=1024)
        assert tiny.physical_chunk_rows == 1  # floor at one row


def machinery(catalog):
    executor = make_executor(name="dev0")
    return dict(catalog=catalog, devices=executor.devices,
                registry=executor.registry, clock=executor.clock,
                default_device="dev0")


def compiled(graph, **flags):
    return compile_plan(graph, **{
        **dict(model="pipelined", chunk_size=1024, data_scale=1,
               fuse=False, analyze=False, adaptive=False), **flags})


class TestPasses:
    """The planner's rewrites are plain calls: fusion is
    :func:`fuse_graph`, adaptive arming is the plan's flag."""

    def test_fusion_pass_sets_groups(self):
        graph = q6.build()
        groups = fusion_groups(graph)
        assert groups, "q6 should have a fusible MAP/FILTER chain"
        plan = compiled(graph, fuse=True)
        assert plan.fuse and plan.graph is not graph
        # The graph is the one record of what fused: every group's exit
        # is a fused node and its interior is gone.
        for group in groups:
            assert plan.graph.nodes[group.exit_id].primitive \
                in FUSED_PRIMITIVES
            assert not set(group.members[:-1]) & set(plan.graph.nodes)
        assert not any(node.primitive in FUSED_PRIMITIVES
                       for node in graph.nodes.values())

    def test_fusion_pass_only_subset(self, tiny_catalog):
        graph = q19.build(tiny_catalog)
        groups = fusion_groups(graph)
        assert len(groups) >= 2, "q19 should expose several groups"
        keep = groups[0].exit_id
        fused = fuse_graph(graph, only=[keep])
        assert [nid for nid, node in fused.nodes.items()
                if node.primitive in FUSED_PRIMITIVES] == [keep]

    def test_adaptive_pass_arms(self, tiny_catalog):
        for adaptive in (False, True):
            plan = compiled(q6.build(), adaptive=adaptive)
            ctx = ExecutionContext(plan=plan, **machinery(tiny_catalog))
            model = MODELS[plan.model](ctx)
            assert isinstance(model.adaptive, AdaptiveController) \
                is adaptive


class TestCompilePlan:
    """The one site where loose flags become a plan."""

    FLAGS = dict(model="pipelined", chunk_size=1024, data_scale=1,
                 fuse=False, adaptive=False)

    @pytest.mark.parametrize("fuse,adaptive", [
        (False, False), (True, False), (False, True), (True, True)])
    def test_flags_become_the_plan(self, tiny_catalog, fuse, adaptive):
        flags = {**self.FLAGS, "fuse": fuse, "adaptive": adaptive}
        plan = compile_plan(q6.build(), **flags, analyze=True)
        assert plan.model == "pipelined" and plan.chunk_size == 1024
        assert plan.analyze
        assert plan.fuse == fuse and plan.adaptive == adaptive
        fused = [node for node in plan.graph.nodes.values()
                 if node.primitive in FUSED_PRIMITIVES]
        assert bool(fused) == fuse
        # EXPLAIN renders that same plan: its header and fused-step
        # lines are the plan's fields, not a second reading of the flags.
        text = explain(q6.build(), tiny_catalog,
                       devices=make_executor().devices, **flags)
        on = {True: "on", False: "off"}
        assert text.splitlines()[1] == (
            f"  model={plan.model}  chunk_size={plan.chunk_size}  "
            f"data_scale={plan.data_scale}  fuse={on[plan.fuse]}  "
            f"adaptive={on[plan.adaptive]}")
        for node in fused:
            steps = "+".join(s["primitive"] for s in node.params["steps"])
            assert f"    {node.node_id}: {node.primitive}[{steps}]" in text

    @pytest.mark.parametrize("bad,match", [
        (dict(chunk_size=33), "positive multiple"),
        (dict(chunk_size=1024, data_scale=64), "positive multiple"),
        (dict(data_scale=0), "data_scale must be >= 1"),
        (dict(model="auto"), "unknown execution model"),
    ])
    def test_flags_validated(self, bad, match):
        with pytest.raises(ExecutionError, match=match):
            compile_plan(q6.build(), **{**self.FLAGS, **bad},
                         analyze=False)


class TestContextPlanBinding:
    def test_context_takes_a_plan_only(self):
        params = inspect.signature(ExecutionContext.__init__).parameters
        assert "plan" in params
        assert not PLAN_FIELDS & set(params)

    def test_context_has_no_plan_fact_attributes(self, tiny_catalog):
        plan = compiled(q6.build())
        ctx = ExecutionContext(plan=plan, **machinery(tiny_catalog))
        assert ctx.plan is plan
        for name in ("graph", "chunk_size", "data_scale", "analyze",
                     "adaptive", "physical_chunk_rows"):
            assert not hasattr(ctx, name), name


class TestLayering:
    """The estimators live in planner.cost and nowhere else; the pass
    framework is gone."""

    def test_engine_chunk_size_reexport(self):
        from repro.engine import engine as engine_mod
        from repro.planner import ir

        assert engine_mod.DEFAULT_CHUNK_SIZE is ir.DEFAULT_CHUNK_SIZE

    def test_planner_package_exports_ir_surface(self):
        import repro.planner as planner

        for name in ("PhysicalPlan", "PlanOptimizer", "CostOverlayStore",
                     "estimate_plan_seconds", "compile_plan",
                     "fuse_graph", "annotate_devices"):
            assert hasattr(planner, name), name
        for name in ("Pass", "PlacementPass", "FusionPass",
                     "AdaptivePass"):
            assert not hasattr(planner, name), name
        # The deprecated estimator re-exports are gone: callers import
        # from repro.planner.cost.
        import repro.observe as observe
        from repro.planner import placement

        assert not {"estimate_graph_seconds", "estimate_node_seconds"} \
            & set(observe.__all__)
        assert not hasattr(observe, "estimate_node_seconds")
        assert "estimate_pipeline_seconds" not in placement.__all__
