"""Admission control: per-tenant quotas, memory budgets, load shedding.

The controller is the front door's bouncer.  Every arriving
:class:`~repro.serving.ServeRequest` passes through
:meth:`AdmissionController.admit` before it may queue; the decision is
recorded (for EXPLAIN — see :func:`repro.observe.explain_admission`) and
enforced against three bounds:

* **lane queue depth** — each priority lane holds at most
  ``max_queue_per_lane`` waiting requests; beyond that the request is
  shed with reason ``lane-queue-full`` *unless* its persisted subplans
  are fully covered by the engine's subplan cache (serving it costs a
  cache install, not a full execution, so shedding it would save
  nothing — it is admitted flagged ``cache-bypass`` instead);
* **tenant in-flight quota** — at most ``max_in_flight`` of one
  tenant's requests may be admitted (queued or executing) at once;
* **tenant memory budget** — the sum of admitted requests'
  ``est_bytes`` per tenant never exceeds ``memory_budget`` (the
  invariant the property tests drive).

Shedding is *typed*: the caller receives an
:class:`~repro.errors.AdmissionRejected` carrying the saturated bound
and a retry-after hint, never a silent drop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AdmissionRejected
from repro.serving.request import LANES, ServeRequest

__all__ = ["AdmissionController", "AdmissionDecision", "TenantPolicy"]


@dataclass(frozen=True)
class TenantPolicy:
    """Resource contract for one tenant.

    Attributes:
        max_in_flight: Admitted (queued + executing) requests the
            tenant may hold at once.
        memory_budget: Cap on the sum of admitted requests'
            ``est_bytes`` (None = unmetered).
    """

    max_in_flight: int = 4
    memory_budget: int | None = None

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}")
        if self.memory_budget is not None and self.memory_budget < 0:
            raise ValueError(
                f"memory_budget must be >= 0, got {self.memory_budget}")


@dataclass
class AdmissionDecision:
    """One admission verdict, recorded for EXPLAIN and audits."""

    request_id: str
    tenant: str
    lane: str
    #: ``admit``, ``cache-bypass`` (admitted past a full queue because
    #: the subplan cache covers it) or ``shed``.
    verdict: str
    #: Which bound saturated (``lane-queue-full``, ``tenant-in-flight``,
    #: ``tenant-memory``) or ``ok``.
    reason: str = "ok"
    now_s: float = 0.0
    queue_depth: int = 0
    retry_after_s: float = 0.0


@dataclass
class _TenantState:
    in_flight: int = 0
    admitted_bytes: int = 0
    #: request_id -> charged est_bytes (release must refund exactly
    #: what admission charged, even if the request mutates).
    charges: dict[str, int] = field(default_factory=dict)


class AdmissionController:
    """Quota accounting and shedding decisions for the serving layer."""

    def __init__(self, *, default_policy: TenantPolicy | None = None,
                 max_queue_per_lane: int = 16) -> None:
        if max_queue_per_lane < 1:
            raise ValueError(
                f"max_queue_per_lane must be >= 1, got {max_queue_per_lane}")
        #: The contract every tenant is held to (each with its own
        #: tally).
        self.default_policy = default_policy or TenantPolicy()
        self.max_queue_per_lane = max_queue_per_lane
        self._tenants: dict[str, _TenantState] = {}
        #: Every verdict in decision order (EXPLAIN reads this).
        self.decisions: list[AdmissionDecision] = []

    # -- inspection ----------------------------------------------------------

    def in_flight(self, tenant: str) -> int:
        state = self._tenants.get(tenant)
        return state.in_flight if state else 0

    def admitted_bytes(self, tenant: str) -> int:
        state = self._tenants.get(tenant)
        return state.admitted_bytes if state else 0

    # -- the decision --------------------------------------------------------

    def admit(self, request: ServeRequest, *, now: float,
              queue_depth: int, cache_covered: bool = False,
              retry_after_s: float = 0.0) -> AdmissionDecision:
        """Decide *request*'s fate; raises :class:`AdmissionRejected`
        on shed (after recording the decision), otherwise charges the
        tenant's quota and returns the recorded decision.

        Args:
            now: Virtual-clock time of the decision.
            queue_depth: Current depth of the request's lane.
            cache_covered: The request's persisted subplans are all in
                the engine's subplan cache — it bypasses the
                ``lane-queue-full`` bound (tenant bounds still apply:
                even a free query holds a session and pins entries).
            retry_after_s: Back-off hint stamped onto a rejection.
        """
        assert request.lane in LANES
        policy = self.default_policy
        state = self._tenants.setdefault(request.tenant, _TenantState())
        reason = None
        if state.in_flight >= policy.max_in_flight:
            reason = "tenant-in-flight"
        elif (policy.memory_budget is not None
              and state.admitted_bytes + request.est_bytes
              > policy.memory_budget):
            reason = "tenant-memory"
        elif queue_depth >= self.max_queue_per_lane and not cache_covered:
            reason = "lane-queue-full"
        if reason is not None:
            decision = AdmissionDecision(
                request_id=request.request_id, tenant=request.tenant,
                lane=request.lane, verdict="shed", reason=reason,
                now_s=now, queue_depth=queue_depth,
                retry_after_s=retry_after_s)
            self.decisions.append(decision)
            raise AdmissionRejected(
                f"request {request.request_id or '<anon>'} shed",
                reason=reason, retry_after_s=retry_after_s,
                tenant=request.tenant, lane=request.lane)
        verdict = ("cache-bypass"
                   if cache_covered and queue_depth >= self.max_queue_per_lane
                   else "admit")
        state.in_flight += 1
        state.admitted_bytes += request.est_bytes
        state.charges[request.request_id] = request.est_bytes
        decision = AdmissionDecision(
            request_id=request.request_id, tenant=request.tenant,
            lane=request.lane, verdict=verdict, now_s=now,
            queue_depth=queue_depth)
        self.decisions.append(decision)
        return decision

    def release(self, request: ServeRequest) -> None:
        """Refund *request*'s quota charges (finished, failed or
        cancelled — every admitted request must be released exactly
        once)."""
        state = self._tenants.get(request.tenant)
        if state is None or request.request_id not in state.charges:
            return
        charged = state.charges.pop(request.request_id)
        state.in_flight = max(0, state.in_flight - 1)
        state.admitted_bytes = max(0, state.admitted_bytes - charged)
