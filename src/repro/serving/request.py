"""Serving-layer request and outcome types.

A :class:`ServeRequest` wraps one engine
:class:`~repro.engine.QueryRequest` with the contract the serving layer
enforces around it: which *tenant* submitted it, which priority *lane*
it rides, when it *arrives* on the virtual clock, how long after arrival
it must finish (*deadline*), and how many bytes of engine memory the
admission controller should charge against the tenant's budget while it
is in flight.

A :class:`QueryOutcome` is the service's answer for one request — the
result and latency on success, or the typed error (rejection, deadline
miss, execution failure) plus enough accounting to audit the decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.context import QueryResult
from repro.engine.engine import QueryRequest

__all__ = ["INTERACTIVE", "BATCH", "LANES", "OUTCOME_STATUSES",
           "QueryOutcome", "ServeRequest"]

#: The two priority lanes.  Interactive requests are served strictly
#: before batch work and may preempt a running batch pipeline at its
#: next chunk boundary; batch requests absorb degradation (smaller
#: chunks) under pressure.
INTERACTIVE = "interactive"
BATCH = "batch"
LANES = (INTERACTIVE, BATCH)

#: Terminal states a request can end in.
OUTCOME_STATUSES = ("ok", "rejected", "deadline", "failed")


@dataclass
class ServeRequest:
    """One query submitted to the :class:`~repro.serving.QueryService`.

    Attributes:
        query: The engine request to run (its graph is only read, as
            for :meth:`~repro.engine.Engine.run_concurrent`).
        tenant: Admission-accounting identity; quotas and memory
            budgets are enforced per tenant.
        lane: ``"interactive"`` or ``"batch"``.
        arrival_s: Virtual-clock time the request arrives; the service
            never starts it earlier, and latency is measured from it.
        deadline_s: Seconds after arrival by which the query must
            finish (None = no deadline).  A running query that crosses
            it is cancelled at the next chunk boundary and its device
            state reclaimed.
        est_bytes: Estimated engine bytes the query holds while in
            flight; charged against the tenant's admission memory
            budget from admission to completion.
        request_id: Stable identity in outcomes and EXPLAIN output
            (assigned by the service when empty).
    """

    query: QueryRequest
    tenant: str = "default"
    lane: str = INTERACTIVE
    arrival_s: float = 0.0
    deadline_s: float | None = None
    est_bytes: int = 0
    request_id: str = ""

    def __post_init__(self) -> None:
        if self.lane not in LANES:
            raise ValueError(
                f"unknown lane {self.lane!r}; expected one of {LANES}")
        if self.arrival_s < 0:
            raise ValueError(f"arrival_s must be >= 0, got {self.arrival_s}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be > 0, got {self.deadline_s}")
        if self.est_bytes < 0:
            raise ValueError(f"est_bytes must be >= 0, got {self.est_bytes}")


@dataclass
class QueryOutcome:
    """What happened to one :class:`ServeRequest`.

    ``status`` is one of :data:`OUTCOME_STATUSES`: ``ok`` (result
    attached), ``rejected`` (shed at admission; ``error`` is the typed
    :class:`~repro.errors.AdmissionRejected`), ``deadline`` (cancelled
    for missing its deadline) or ``failed`` (execution error after all
    recovery).  Latency is completion minus *arrival*, so it includes
    queueing delay.
    """

    request_id: str
    tenant: str
    lane: str
    status: str = "ok"
    arrival_s: float = 0.0
    #: When the request left the queue and started executing (None for
    #: shed requests).
    started_s: float | None = None
    finished_s: float | None = None
    result: QueryResult | None = None
    error: Exception | None = None
    #: The batch request ran with a degraded (halved) chunk size under
    #: queue pressure.
    degraded: bool = False
    #: Admitted past a full queue because its persisted subplans were
    #: fully covered by the engine's subplan cache (near-free to serve).
    cache_served: bool = False
    #: Back-off hint attached to rejections (seconds).
    retry_after_s: float = 0.0
    #: Times this request preempted a running batch pipeline.
    preemptions: int = 0
    label: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def latency_s(self) -> float | None:
        """Completion latency from arrival (None until finished)."""
        if self.finished_s is None:
            return None
        return self.finished_s - self.arrival_s

    @property
    def queue_delay_s(self) -> float | None:
        """Time spent queued before execution started."""
        if self.started_s is None:
            return None
        return self.started_s - self.arrival_s
