"""Where loose execution flags become a :class:`PhysicalPlan`.

Every public entry point (``AdamantExecutor.run``, ``Engine.execute``,
``QueryRequest``, ``ClusterExecutor.run``, the CLI) takes the same
keyword flags.  :func:`validate_flags` is their one check:
:func:`compile_plan` runs it before building the plan the flags
describe, and :meth:`~repro.planner.optimizer.PlanOptimizer.search`
before searching, so ``model="auto"`` refuses exactly what every manual
model refuses, with the same :class:`~repro.errors.ExecutionError`.
EXPLAIN renders, the engine executes and fault recovery recompiles the
*same* plan object.
"""

from __future__ import annotations

from repro.core.graph import PrimitiveGraph
from repro.core.models import MODELS
from repro.core.pipelines import chunk_quantum
from repro.errors import ExecutionError
from repro.planner.fusion import fuse_graph
from repro.planner.ir import PhysicalPlan

__all__ = ["compile_plan", "validate_flags"]


def validate_flags(*, chunk_size: int, data_scale: int) -> None:
    """Refuse a *data_scale* below one, and a *chunk_size* that is not a
    positive multiple of :func:`~repro.core.pipelines.chunk_quantum`
    (bitmap words stay aligned after descaling)."""
    if data_scale < 1:
        raise ExecutionError(
            f"data_scale must be >= 1, got {data_scale}")
    if chunk_size <= 0 or chunk_size % chunk_quantum(data_scale) != 0:
        raise ExecutionError(
            f"chunk_size must be a positive multiple of 32*data_scale "
            f"rows (bitmap word alignment after descaling), got "
            f"{chunk_size} with data_scale={data_scale}")


def compile_plan(graph: PrimitiveGraph, *, model: str, chunk_size: int,
                 data_scale: int, fuse: bool, analyze: bool,
                 adaptive: bool) -> PhysicalPlan:
    """Validate the flags and build the plan they describe.

    The flags mean what they mean on :class:`~repro.engine.QueryRequest`.
    *model* must be a :data:`repro.core.models.MODELS` key (``"auto"``
    is resolved by the optimizer, never here).  *graph* is not mutated:
    *fuse* collapses every fusible group of a copy
    (:func:`~repro.planner.fusion.fuse_graph`).
    """
    if model not in MODELS:
        raise ExecutionError(
            f"unknown execution model {model!r}; "
            f"available: {sorted(MODELS)} (or 'auto')")
    validate_flags(chunk_size=chunk_size, data_scale=data_scale)
    return PhysicalPlan(graph=fuse_graph(graph) if fuse else graph,
                        model=model, chunk_size=chunk_size,
                        data_scale=data_scale, fuse=fuse,
                        adaptive=adaptive, analyze=analyze)
