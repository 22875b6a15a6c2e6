"""The shared plan IR: one object carrying every planning decision.

:class:`PhysicalPlan` carries the
:class:`~repro.core.graph.PrimitiveGraph` plus the full decision vector
— execution model, chunk size, fusion groups, placement reports,
adaptive arming — and the planner's transformations are :class:`Pass`
objects that consume and produce plans:

* :class:`~repro.planner.placement.PlacementPass` — cost-based device
  annotation (wraps ``annotate_devices``);
* :class:`~repro.planner.fusion.FusionPass` — MAP/FILTER chain collapse
  (wraps ``fuse_graph``, per-group selectable);
* :class:`~repro.planner.adaptive.AdaptivePass` — arms online
  calibration / dynamic chunk sizing / work stealing.

Plans are made in two places only:
:func:`~repro.planner.compile.compile_plan` turns the loose flags of
the public entry points into a plan, and the
:mod:`~repro.planner.optimizer` enumerates alternative decision vectors
over this IR and prices them with :mod:`~repro.planner.cost`.  The
engine executes, EXPLAIN renders and fault recovery degrades whatever
plan comes out.  A plan is a *mutable* dataclass: passes update it in
place (graphs are big) and record themselves in
:attr:`PhysicalPlan.provenance`, so a plan always knows how it was made.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.graph import PrimitiveGraph
from repro.core.pipelines import split_pipelines

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.planner.placement import PlacementReport

__all__ = ["DEFAULT_CHUNK_SIZE", "PhysicalPlan", "Pass"]

#: The paper's evaluation chunk size: 2^25 values (Section V-C).  The
#: canonical definition lives here with the plan IR; the engine
#: re-exports it for compatibility.
DEFAULT_CHUNK_SIZE = 2**25


@dataclass
class PhysicalPlan:
    """A primitive graph plus every decision needed to execute it.

    Attributes:
        graph: The (possibly pass-rewritten) primitive graph.  Device
            annotations live on its nodes, as the paper's runtime
            expects (Figure 2).
        model: Execution-model name (a :data:`repro.core.models.MODELS`
            key) — never ``"auto"``; the optimizer resolves that before
            a plan reaches the executor.
        chunk_size: Logical rows per chunk.
        data_scale: Logical rows represented by each physical row.
        fuse: Whether the kernel-fusion pass was requested for this
            plan (``fused_groups`` records what it actually collapsed).
        fused_groups: Exit node ids of the fused groups present in
            ``graph`` (empty when nothing fused).
        adaptive: Whether adaptive execution (online calibration,
            dynamic chunk sizing, work stealing) is armed.
        analyze: Attach an ANALYZE profile to the result.
        placement: Per-pipeline :class:`PlacementReport` list from the
            placement pass (empty when the caller annotated devices
            manually or left them on the default device).
        estimated_seconds: The optimizer's predicted cost for this plan
            (None when the plan was configured manually).
        provenance: Names of the passes applied, in order.
    """

    graph: PrimitiveGraph
    model: str = "chunked"
    chunk_size: int = DEFAULT_CHUNK_SIZE
    data_scale: int = 1
    fuse: bool = False
    fused_groups: tuple[str, ...] = ()
    adaptive: bool = False
    analyze: bool = False
    placement: tuple["PlacementReport", ...] = ()
    estimated_seconds: float | None = None
    provenance: tuple[str, ...] = field(default_factory=tuple)

    def replace(self, **changes) -> "PhysicalPlan":
        """A copy of the plan with *changes* applied (graph shared
        unless replaced)."""
        return dataclasses.replace(self, **changes)

    @property
    def physical_chunk_rows(self) -> int:
        """Rows of the (down-scaled) physical arrays per logical chunk."""
        return max(1, self.chunk_size // self.data_scale)

    def device_map(self, default_device: str) -> dict[int, str]:
        """Pipeline index -> annotated device (Figure 2's markings),
        falling back to *default_device* for unannotated nodes."""
        mapping: dict[int, str] = {}
        for pipeline in split_pipelines(self.graph):
            devices = sorted({
                self.graph.nodes[nid].device or default_device
                for nid in pipeline.node_ids
            })
            mapping[pipeline.index] = "+".join(devices)
        return mapping

    def describe(self, default_device: str) -> str:
        """One-line deterministic summary of the decision vector (used
        by EXPLAIN PLANS and as the optimizer's tie-breaker)."""
        placement = " ".join(
            f"p{index}={device}"
            for index, device in sorted(
                self.device_map(default_device).items())
        )
        fuse = (f"on({','.join(self.fused_groups)})" if self.fused_groups
                else "off")
        return (f"model={self.model} chunk={self.chunk_size} "
                f"fuse={fuse} {placement}")


class Pass(abc.ABC):
    """One planner transformation over the shared plan IR.

    A pass consumes a :class:`PhysicalPlan` and produces one (usually
    the same object, updated in place — graphs are big).  Calling the
    pass records its :attr:`name` in the plan's provenance, so plans
    stay self-describing.
    """

    #: Stable identifier recorded in plan provenance.
    name: str = "pass"

    @abc.abstractmethod
    def run(self, plan: PhysicalPlan) -> PhysicalPlan:
        """Transform *plan* (subclasses implement)."""

    def __call__(self, plan: PhysicalPlan) -> PhysicalPlan:
        out = self.run(plan)
        out.provenance = (*out.provenance, self.name)
        return out
