"""The plan IR: the graph to run plus the decisions that run it.

ADAMANT executes a primitive graph whose nodes carry their device
annotations (Figure 2) and leaves producing those annotations to "any
existing optimizer".  A :class:`PhysicalPlan` is therefore *what runs*:
the :class:`~repro.core.graph.PrimitiveGraph` — which is also the one
record of *where* each node runs (its annotations) and of *what was
fused* (fused nodes stand in for their groups) — plus the execution
model, chunk size, data scale and the fusion / adaptive / ANALYZE
switches.

Plans are made in two places only:
:func:`~repro.planner.compile.compile_plan` turns the loose flags of the
public entry points into a plan, and
:meth:`~repro.planner.optimizer.PlanOptimizer.choose` realises the
winner of the cost-based search (``model="auto"``).  Both refuse bad
flags through :func:`~repro.planner.compile.validate_flags`.  The engine
executes, EXPLAIN renders and fault recovery recompiles whatever plan
comes out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.graph import PrimitiveGraph
from repro.core.pipelines import descale_chunk

__all__ = ["DEFAULT_CHUNK_SIZE", "PhysicalPlan"]

#: The paper's evaluation chunk size: 2^25 values (Section V-C).  The
#: canonical definition lives here with the plan IR; the engine
#: re-exports it for compatibility.
DEFAULT_CHUNK_SIZE = 2**25


@dataclass(frozen=True)
class PhysicalPlan:
    """A primitive graph plus every decision needed to execute it.

    Attributes:
        graph: The primitive graph, fused when the plan fuses.  Device
            annotations live on its nodes, as the paper's runtime
            expects (Figure 2).
        model: Execution-model name (a :data:`repro.core.models.MODELS`
            key) — never ``"auto"``; the optimizer resolves that before
            a plan reaches the executor.
        chunk_size: Logical rows per chunk.
        data_scale: Logical rows represented by each physical row.
        fuse: Whether the plan runs fused (EXPLAIN's header).
        adaptive: Whether adaptive execution (online calibration,
            dynamic chunk sizing, work stealing) is armed.
        analyze: Attach an ANALYZE profile to the result.
    """

    graph: PrimitiveGraph
    model: str = "chunked"
    chunk_size: int = DEFAULT_CHUNK_SIZE
    data_scale: int = 1
    fuse: bool = False
    adaptive: bool = False
    analyze: bool = False

    @property
    def physical_chunk_rows(self) -> int:
        """Rows of the (down-scaled) physical arrays per logical chunk."""
        return descale_chunk(self.chunk_size, self.data_scale)
