"""Query sessions: admission tickets into the multi-query engine, and
what the admitted query holds there.

An in-flight query holds pins on subplan-cache entries, pins on each
device's residency cache, owner-tagged device buffers and a per-device
memory budget.  Finishing, failing, restarting, cancelling and closing
all let go of them through :func:`release_query`;
:func:`query_holdings` is the read side.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.core.context import QueryContext, QueryResult, RecoveryLog
from repro.devices.base import SimulatedDevice
from repro.devices.residency import RESIDENCY_OWNER
from repro.errors import AdamantError, QueryCancelledError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import Engine
    from repro.engine.subplan_cache import SubplanCache

__all__ = ["QuerySession", "query_holdings", "release_query"]


def release_query(query_id: str, devices: Iterable[SimulatedDevice],
                  subplan_cache: "SubplanCache | None", *,
                  at_time: float) -> None:
    """Let go of everything *query_id* holds on *devices* and in
    *subplan_cache*.  Safe to repeat, and safe across restarts — a
    rebuilt model re-pins on its next cache lookup."""
    if subplan_cache is not None:
        subplan_cache.release_query(query_id)
    for device in devices:
        if device.residency is not None:
            device.residency.release_query(query_id)
        # Frees the owner's buffers (views others took over them first)
        # and lifts its budget.
        device.memory.free_owner(query_id, at_time=at_time)


def query_holdings(devices: Iterable[SimulatedDevice],
                   subplan_cache: "SubplanCache | None"
                   ) -> dict[str, dict[str, int]]:
    """Per query id, what it still holds: ``pins`` (cache entries, both
    caches), ``buffers`` / ``bytes`` (owner-tagged, residency's own
    excluded) and ``budgets`` (devices that still cap it).  Empty once
    the engine is quiescent."""
    held: dict[str, dict[str, int]] = {}

    def of(query_id: str) -> dict[str, int]:
        return held.setdefault(
            query_id, {"pins": 0, "buffers": 0, "bytes": 0, "budgets": 0})

    devices = list(devices)
    for cache in [subplan_cache, *(d.residency for d in devices)]:
        if cache is not None:
            for query_id, pins in cache.pinned().items():
                of(query_id)["pins"] += pins
    for device in devices:
        memory = device.memory
        for owner in memory.owners() - {"", RESIDENCY_OWNER}:
            of(owner)["buffers"] += len(memory.owned_aliases(owner))
            of(owner)["bytes"] += memory.owner_used(owner)
            of(owner)["budgets"] += memory.budget(owner) is not None
    return held


class QuerySession:
    """One admitted query's identity and lifecycle inside an engine.

    A session is created by :meth:`Engine.open_session` (which enforces
    the engine's concurrency limit), carries the query's unique id and
    per-device memory budget, and records the outcome — the result and
    per-query makespan on success, the error on failure.  Closing the
    session releases its residency-cache pins, memory budget, and any
    buffers still charged to it on the engine's devices.

    Use as a context manager for deterministic cleanup::

        with engine.open_session(memory_budget=2**30) as session:
            result = engine.execute(graph, catalog, session=session)
    """

    def __init__(self, engine: "Engine", query_id: str, *,
                 memory_budget: int | None = None, label: str = "") -> None:
        self.engine = engine
        self.query_id = query_id
        self.memory_budget = memory_budget
        self.label = label or query_id
        self.state = "open"
        self.result: QueryResult | None = None
        self.error: AdamantError | None = None
        #: Recovery actions taken for this query; lives on the session
        #: (not the model) so failover/OOM rebuilds keep one tally.
        self.recovery = RecoveryLog()
        #: Absolute virtual-clock deadline (serving layer); threaded
        #: into the query context so chunk loops can enforce it.
        self.deadline: float | None = None
        #: Chunk-boundary hook (serving layer preemption/deadlines).
        self.gate: object | None = None

    # -- accounting ----------------------------------------------------------

    @property
    def makespan(self) -> float | None:
        """The query's own simulated runtime (None until finished)."""
        return self.result.stats.makespan if self.result else None

    def query_context(self, *, epoch_start: float = 0.0) -> QueryContext:
        """The :class:`QueryContext` threaded through this session's run."""
        return QueryContext(
            query_id=self.query_id,
            alias_prefix=f"{self.query_id}:",
            memory_budget=self.memory_budget,
            epoch_start=epoch_start,
            recovery=self.recovery,
            deadline=self.deadline,
            gate=self.gate,
        )

    def _record(self, result: QueryResult) -> None:
        self.state = "finished"
        self.result = result

    def _fail(self, error: AdamantError) -> None:
        self.state = "failed"
        self.error = error

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.state == "closed"

    @property
    def cancelled(self) -> bool:
        return isinstance(self.error, QueryCancelledError)

    def cancel(self) -> None:
        """Cancel the in-flight query and tear down all its state.

        Cancellation gets the *full* teardown a completed or failed
        query gets: owner-tagged buffers freed, residency pins dropped,
        subplan-cache refcount pins released, memory budget cleared —
        a cancelled query must never leak a pin that blocks eviction
        for the queries that outlive it.
        """
        if self.state in ("closed", "finished"):
            return
        self._fail(QueryCancelledError(f"query {self.query_id} cancelled"))
        self.close()

    def close(self) -> None:
        """Release the session's device-side state and free its slot."""
        if self.state == "closed":
            return
        self.engine._close_session(self)
        self.state = "closed"

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<QuerySession {self.query_id} [{self.state}]"
                f" budget={self.memory_budget}>")
