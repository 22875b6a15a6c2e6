"""The one compile site: loose execution flags -> :class:`PhysicalPlan`.

Every public entry point (``AdamantExecutor.run``, ``Engine.execute``,
``QueryRequest``, ``ClusterExecutor.run``, the CLI) takes the same
keyword flags; :func:`compile_plan` is where they become a plan.  It
validates them and runs the planner passes they ask for, so EXPLAIN
renders, the engine executes and fault recovery degrades the *same*
object.  The only other producer of plans is the cost-based optimizer
(``model="auto"``, :meth:`~repro.planner.optimizer.PlanOptimizer.choose`).
"""

from __future__ import annotations

from repro.core.graph import PrimitiveGraph
from repro.core.models import MODELS
from repro.errors import ExecutionError
from repro.planner.adaptive import AdaptivePass
from repro.planner.fusion import FusionPass
from repro.planner.ir import PhysicalPlan

__all__ = ["compile_plan"]


def compile_plan(graph: PrimitiveGraph, *, model: str, chunk_size: int,
                 data_scale: int, fuse: bool, analyze: bool,
                 adaptive: bool) -> PhysicalPlan:
    """Validate the flags and build the plan they describe.

    The flags mean what they mean on :class:`~repro.engine.QueryRequest`.
    *model* must be a :data:`repro.core.models.MODELS` key (``"auto"``
    is resolved by the optimizer, never here) and *chunk_size* a
    positive multiple of ``32 * data_scale``, so bitmap words stay
    aligned after descaling.  *graph* is not mutated: fusion rewrites
    a copy.
    """
    if model not in MODELS:
        raise ExecutionError(
            f"unknown execution model {model!r}; "
            f"available: {sorted(MODELS)} (or 'auto')")
    if data_scale < 1:
        raise ExecutionError(
            f"data_scale must be >= 1, got {data_scale}")
    if chunk_size <= 0 or chunk_size % (32 * data_scale) != 0:
        raise ExecutionError(
            f"chunk_size must be a positive multiple of 32*data_scale "
            f"rows (bitmap word alignment after descaling), got "
            f"{chunk_size} with data_scale={data_scale}")
    plan = PhysicalPlan(graph=graph, model=model, chunk_size=chunk_size,
                        data_scale=data_scale, analyze=analyze)
    if fuse:
        plan = FusionPass()(plan)
    if adaptive:
        plan = AdaptivePass()(plan)
    return plan
