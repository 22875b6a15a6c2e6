"""The shared plan IR: PhysicalPlan, passes, and the layering fix."""

from __future__ import annotations

import pytest

from repro.core.context import ExecutionContext
from repro.devices import OpenMPDevice
from repro.errors import ExecutionError
from repro.hardware import CPU_I7_8700
from repro.observe import explain
from repro.planner.adaptive import AdaptivePass
from repro.planner.compile import compile_plan
from repro.planner.fusion import (
    FUSED_PRIMITIVES,
    FusionPass,
    fusion_groups,
)
from repro.planner.ir import DEFAULT_CHUNK_SIZE, Pass, PhysicalPlan
from repro.planner.placement import PlacementPass
from repro.tpch.queries import q6, q19
from tests.conftest import make_executor


class TestPhysicalPlan:
    def test_defaults(self):
        plan = PhysicalPlan(graph=q6.build())
        assert plan.model == "chunked"
        assert plan.chunk_size == DEFAULT_CHUNK_SIZE
        assert plan.data_scale == 1
        assert not plan.fuse and not plan.adaptive and not plan.analyze
        assert plan.fused_groups == () and plan.provenance == ()

    def test_physical_chunk_rows_descales(self):
        plan = PhysicalPlan(graph=q6.build(), chunk_size=2048,
                            data_scale=1024)
        assert plan.physical_chunk_rows == 2
        tiny = PhysicalPlan(graph=q6.build(), chunk_size=32,
                            data_scale=1024)
        assert tiny.physical_chunk_rows == 1  # floor at one row

    def test_replace_keeps_graph_identity(self):
        plan = PhysicalPlan(graph=q6.build())
        other = plan.replace(model="oaat", chunk_size=4096)
        assert other.graph is plan.graph
        assert other.model == "oaat" and plan.model == "chunked"

    def test_describe_is_deterministic(self):
        graph = q6.build()
        plan = PhysicalPlan(graph=graph, model="pipelined",
                            chunk_size=1024)
        text = plan.describe("dev0")
        assert text.startswith("model=pipelined chunk=1024 fuse=off ")
        assert text == plan.describe("dev0")

    def test_device_map_falls_back_to_default(self):
        plan = PhysicalPlan(graph=q6.build())
        mapping = plan.device_map("dev0")
        assert set(mapping.values()) == {"dev0"}


class TestPasses:
    def test_pass_records_provenance(self):
        class NopPass(Pass):
            name = "nop"

            def run(self, plan):
                return plan

        plan = NopPass()(PhysicalPlan(graph=q6.build()))
        assert plan.provenance == ("nop",)

    def test_fusion_pass_sets_groups(self):
        graph = q6.build()
        groups = fusion_groups(graph)
        assert groups, "q6 should have a fusible MAP/FILTER chain"
        plan = FusionPass()(PhysicalPlan(graph=graph))
        assert plan.fuse
        assert plan.fused_groups == tuple(g.exit_id for g in groups)
        assert plan.provenance == ("fusion",)
        for exit_id in plan.fused_groups:
            assert plan.graph.nodes[exit_id].primitive in FUSED_PRIMITIVES

    def test_fusion_pass_only_subset(self, tiny_catalog):
        graph = q19.build(tiny_catalog)
        groups = fusion_groups(graph)
        assert len(groups) >= 2, "q19 should expose several groups"
        keep = groups[0].exit_id
        plan = FusionPass(only=[keep])(PhysicalPlan(graph=graph))
        assert plan.fused_groups == (keep,)

    def test_placement_pass_annotates_and_reports(self, tiny_catalog):
        executor = make_executor(name="gpu0", extra_devices=[
            ("cpu0", OpenMPDevice, CPU_I7_8700)])
        graph = q6.build()
        plan = PlacementPass(tiny_catalog, executor.devices)(
            PhysicalPlan(graph=graph))
        assert plan.placement, "placement reports recorded on the plan"
        assert plan.provenance == ("placement",)
        for node in graph.nodes.values():
            assert node.device in executor.devices

    def test_adaptive_pass_arms(self):
        plan = AdaptivePass()(PhysicalPlan(graph=q6.build()))
        assert plan.adaptive
        assert plan.provenance == ("adaptive",)


class TestCompilePlan:
    """The one site where loose flags become a plan."""

    FLAGS = dict(model="pipelined", chunk_size=1024, data_scale=1,
                 fuse=False, adaptive=False)

    @pytest.mark.parametrize("fuse,adaptive,provenance", [
        (False, False, ()),
        (True, False, ("fusion",)),
        (False, True, ("adaptive",)),
        (True, True, ("fusion", "adaptive")),
    ])
    def test_flags_become_passes(self, tiny_catalog, fuse, adaptive,
                                 provenance):
        flags = {**self.FLAGS, "fuse": fuse, "adaptive": adaptive}
        plan = compile_plan(q6.build(), **flags, analyze=True)
        assert plan.provenance == provenance
        assert plan.model == "pipelined" and plan.chunk_size == 1024
        assert plan.analyze
        assert plan.fuse == fuse and plan.adaptive == adaptive
        assert bool(plan.fused_groups) == fuse
        # EXPLAIN renders that same plan: its header and fused-step
        # lines are the plan's fields, not a second reading of the flags.
        text = explain(q6.build(), tiny_catalog,
                       devices=make_executor().devices, **flags)
        on = {True: "on", False: "off"}
        assert text.splitlines()[1] == (
            f"  model={plan.model}  chunk_size={plan.chunk_size}  "
            f"data_scale={plan.data_scale}  fuse={on[plan.fuse]}  "
            f"adaptive={on[plan.adaptive]}")
        for exit_id in plan.fused_groups:
            node = plan.graph.nodes[exit_id]
            steps = "+".join(s["primitive"] for s in node.params["steps"])
            assert f"    {exit_id}: {node.primitive}[{steps}]" in text

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
    def _machinery(self, catalog):
        executor = make_executor(name="dev0")
        return dict(catalog=catalog, devices=executor.devices,
                    registry=executor.registry,
                    clock=executor.clock, default_device="dev0")

    def test_context_takes_a_plan_only(self):
        import inspect

        params = inspect.signature(ExecutionContext.__init__).parameters
        assert "plan" in params
        assert not {"graph", "chunk_size", "data_scale", "fuse",
                    "analyze", "adaptive"} & set(params)

    def test_context_properties_delegate(self, tiny_catalog):
        plan = PhysicalPlan(graph=q6.build(), chunk_size=2048,
                            analyze=True, adaptive=True)
        ctx = ExecutionContext(plan=plan,
                               **self._machinery(tiny_catalog))
        assert ctx.plan is plan
        assert ctx.graph is plan.graph
        assert ctx.chunk_size == 2048
        assert ctx.analyze and ctx.adaptive


class TestLayering:
    """The estimators live in planner.cost and nowhere else."""

    def test_engine_chunk_size_reexport(self):
        from repro.engine import engine as engine_mod
        from repro.planner import ir

        assert engine_mod.DEFAULT_CHUNK_SIZE is ir.DEFAULT_CHUNK_SIZE

    def test_planner_package_exports_ir_surface(self):
        import repro.planner as planner

        for name in ("PhysicalPlan", "Pass", "PlacementPass",
                     "FusionPass", "AdaptivePass", "PlanOptimizer",
                     "CostOverlayStore", "estimate_plan_seconds",
                     "compile_plan"):
            assert hasattr(planner, name), name
        # The deprecated estimator re-exports are gone: callers import
        # from repro.planner.cost.
        import repro.observe as observe
        from repro.planner import placement

        assert not {"estimate_graph_seconds", "estimate_node_seconds"} \
            & set(observe.__all__)
        assert not hasattr(observe, "estimate_node_seconds")
        assert "estimate_pipeline_seconds" not in placement.__all__
