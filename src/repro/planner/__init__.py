"""Logical plans, the shared plan IR, and the cost-based optimizer."""

from repro.planner.compile import compile_plan
from repro.planner.cost import (
    CostOverlayStore,
    PipelineCost,
    PlanCost,
    estimate_graph_seconds,
    estimate_node_seconds,
    estimate_pipeline_seconds,
    estimate_plan_seconds,
)
from repro.planner.fusion import (
    AGG_SINKS,
    FUSED_AGG_PRIMITIVE,
    FUSED_PRIMITIVE,
    FUSED_PRIMITIVES,
    FUSED_PROBE_PRIMITIVE,
    FUSIBLE,
    MAX_FUSED_INPUTS,
    PROBE_FUSIBLE,
    FusionGroup,
    fuse_graph,
    fusion_groups,
)
from repro.planner.ir import DEFAULT_CHUNK_SIZE, PhysicalPlan
from repro.planner.logical import (
    AggregateSpec,
    Derive,
    Derived,
    GroupAggregate,
    HashJoin,
    LogicalPlan,
    Predicate,
    ScalarAggregate,
    Scan,
    Select,
    SemiJoin,
)
from repro.planner.optimizer import (
    OptimizerReport,
    PlanCandidate,
    PlanOptimizer,
)
from repro.planner.placement import PlacementReport, annotate_devices
from repro.planner.stats import conjunction_selectivity, estimate_selectivity
from repro.planner.translate import translate

__all__ = [
    "translate",
    "fuse_graph",
    "fusion_groups",
    "FUSED_PRIMITIVE",
    "FUSED_PROBE_PRIMITIVE",
    "FUSED_AGG_PRIMITIVE",
    "FUSED_PRIMITIVES",
    "FUSIBLE",
    "PROBE_FUSIBLE",
    "AGG_SINKS",
    "MAX_FUSED_INPUTS",
    "FusionGroup",
    "annotate_devices",
    "estimate_pipeline_seconds",
    "PlacementReport",
    "estimate_selectivity",
    "conjunction_selectivity",
    "DEFAULT_CHUNK_SIZE",
    "PhysicalPlan",
    "compile_plan",
    "CostOverlayStore",
    "PipelineCost",
    "PlanCost",
    "estimate_graph_seconds",
    "estimate_node_seconds",
    "estimate_plan_seconds",
    "OptimizerReport",
    "PlanCandidate",
    "PlanOptimizer",
    "LogicalPlan",
    "Scan",
    "Select",
    "Derive",
    "Derived",
    "Predicate",
    "ScalarAggregate",
    "GroupAggregate",
    "AggregateSpec",
    "HashJoin",
    "SemiJoin",
]
