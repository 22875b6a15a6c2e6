"""Cost-based device placement for primitive graphs.

The paper's runtime consumes plans whose nodes are *annotated* with target
devices (Figure 2) but leaves producing those annotations to "any existing
optimizer".  This module provides that optimizer for the common case: one
device per pipeline (the runtime's granularity), chosen by a cost estimate
that mirrors the simulation's own model — transfer of the pipeline's scan
volume plus calibrated kernel time per primitive, plus cross-device
routing for hash tables consumed from other pipelines.

The estimator itself lives in :mod:`repro.planner.cost`
(:func:`~repro.planner.cost.estimate_pipeline_seconds`), so placement
decisions are consistent with what the executor will charge and with
what the plan optimizer prices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.graph import PrimitiveGraph
from repro.core.pipelines import split_pipelines
from repro.devices.base import SimulatedDevice
from repro.errors import PlanError
from repro.planner.cost import (
    estimate_pipeline_seconds,
    routed_input_seconds,
)
from repro.storage import Catalog

__all__ = ["PlacementReport", "annotate_devices"]


@dataclass(frozen=True)
class PlacementReport:
    """One pipeline's placement decision with per-device estimates."""

    pipeline_index: int
    chosen: str
    estimates: dict[str, float]


def annotate_devices(graph: PrimitiveGraph, catalog: Catalog,
                     devices: dict[str, SimulatedDevice], *,
                     data_scale: int = 1,
                     overlay: dict[str, float] | None = None,
                     from_index: int = 0,
                     ) -> list[PlacementReport]:
    """Annotate every node of *graph* with the cheapest device per
    pipeline (in place) and return the per-pipeline decisions.

    Cross-pipeline inputs add a routing charge when the producing
    pipeline landed on a different device, so small build sides tend to
    stay where their consumers are.

    Args:
        overlay: Optional per-device slowdown factors (observed /
            calibrated) from the online calibrator; each device's
            estimate is scaled by its factor before comparison.
        from_index: First pipeline index to (re)place.  Earlier
            pipelines keep their existing annotations — they have
            already run — but still seed the routing-charge table.
    """
    if not devices:
        raise PlanError("no devices to place onto")
    graph.validate()
    pipelines = split_pipelines(graph)
    placed: dict[str, str] = {}  # node id -> device name
    reports: list[PlacementReport] = []

    for pipeline in pipelines:
        if pipeline.index < from_index:
            for nid in pipeline.node_ids:
                placed[nid] = graph.nodes[nid].device or ""
            continue
        estimates: dict[str, float] = {}
        for name, device in devices.items():
            seconds = estimate_pipeline_seconds(
                graph, pipeline, catalog, device, data_scale=data_scale,
            )
            if overlay:
                seconds *= overlay.get(name, 1.0)
            # Routing charge for external hash tables built elsewhere.
            for ext in pipeline.external_inputs:
                if placed.get(ext) not in (None, name):
                    seconds += routed_input_seconds(device, data_scale)
            estimates[name] = seconds
        chosen = min(sorted(estimates), key=estimates.__getitem__)
        for nid in pipeline.node_ids:
            graph.nodes[nid].device = chosen
            placed[nid] = chosen
        reports.append(PlacementReport(
            pipeline_index=pipeline.index, chosen=chosen,
            estimates=estimates,
        ))
    return reports

