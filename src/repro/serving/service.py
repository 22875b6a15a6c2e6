"""The query service: a long-lived front door over one shared Engine.

:class:`QueryService` admits an open-loop stream of
:class:`~repro.serving.ServeRequest`s against explicit resource
contracts and drives them on the engine's virtual timeline:

* **admission** — every arrival passes the
  :class:`~repro.serving.AdmissionController` (per-tenant in-flight
  quotas, memory budgets, bounded lane queues); shed requests get a
  typed :class:`~repro.errors.AdmissionRejected` with a retry-after
  hint, never a silent drop;
* **priority lanes** — the interactive lane drains strictly before
  batch work, and an interactive arrival *preempts* a running batch
  pipeline at its next chunk boundary (the batch query's chunk loop
  yields to the service's gate, the interactive query runs to
  completion on the shared timeline, then the batch pipeline resumes
  its remaining chunks);
* **deadlines** — a request's ``deadline_s`` becomes an absolute
  virtual-clock deadline on its session, enforced by the device
  scheduler at pipeline boundaries and by the gate between chunks; a
  miss cancels the query and reclaims its buffers, residency pins and
  subplan-cache pins through the engine's recovery plumbing;
* **graceful degradation** — under queue pressure, batch requests run
  with halved chunk sizes (smaller preemption latency, smaller memory
  footprint) before anything is shed, and a request whose persisted
  subplans are fully covered by the engine's subplan cache is admitted
  past a full queue (serving it is a cache install, not an execution).

Everything is deterministic: the same request stream over the same
engine yields byte-identical results and the same admission decisions,
which is what the chaos-under-overload equivalence tests assert.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from repro.core.fingerprint import subplan_fingerprint
from repro.core.pipelines import halve_chunk, split_pipelines
from repro.engine.engine import Engine, QueryRequest
from repro.errors import (
    AdamantError,
    AdmissionRejected,
    DeadlineExceededError,
    QueryAdmissionError,
)
from repro.serving.admission import AdmissionController
from repro.serving.lanes import LaneQueue
from repro.serving.request import (
    BATCH,
    INTERACTIVE,
    LANES,
    QueryOutcome,
    ServeRequest,
)

__all__ = ["ChunkGate", "QueryService", "ServeReport"]

#: Clock stream the service stamps zero-duration arrival markers on —
#: how an *open-loop* workload advances virtual time past idle gaps.
ARRIVAL_STREAM = "serving.arrivals"

#: Retry-after hint used before the service has observed any latency.
DEFAULT_RETRY_AFTER_S = 0.001


@dataclass
class ServeReport:
    """Everything that happened during one :meth:`QueryService.serve`.

    ``outcomes`` is in request-arrival order and contains one entry per
    submitted request — admitted or shed.
    """

    outcomes: list[QueryOutcome] = field(default_factory=list)

    def lane(self, lane: str) -> list[QueryOutcome]:
        return [o for o in self.outcomes if o.lane == lane]

    def with_status(self, status: str, lane: str | None = None
                    ) -> list[QueryOutcome]:
        return [o for o in self.outcomes if o.status == status
                and (lane is None or o.lane == lane)]

    def latencies(self, lane: str | None = None) -> list[float]:
        """Completion latencies (seconds from arrival) of ``ok``
        outcomes, sorted ascending."""
        return sorted(o.latency_s for o in self.with_status("ok", lane))

    def p95_latency(self, lane: str | None = None) -> float | None:
        lat = self.latencies(lane)
        if not lat:
            return None
        return lat[min(len(lat) - 1, int(0.95 * (len(lat) - 1) + 0.5))]

    def deadline_miss_rate(self, lane: str | None = None) -> float:
        pool = [o for o in self.outcomes if o.status != "rejected"
                and (lane is None or o.lane == lane)]
        if not pool:
            return 0.0
        misses = sum(1 for o in pool if o.status == "deadline")
        return misses / len(pool)

    def summary(self) -> dict:
        """Per-lane counts and latency figures (plain data, for the
        CLI and benchmark emitters)."""
        out: dict = {}
        for lane in LANES:
            pool = self.lane(lane)
            lat = self.latencies(lane)
            out[lane] = {
                "submitted": len(pool),
                "ok": len(self.with_status("ok", lane)),
                "rejected": len(self.with_status("rejected", lane)),
                "deadline": len(self.with_status("deadline", lane)),
                "failed": len(self.with_status("failed", lane)),
                "degraded": sum(1 for o in pool if o.degraded),
                "cache_served": sum(1 for o in pool if o.cache_served),
                "p50_latency_s": lat[len(lat) // 2] if lat else None,
                "p95_latency_s": self.p95_latency(lane),
                "deadline_miss_rate": self.deadline_miss_rate(lane),
            }
        return out


class ChunkGate:
    """The chunk-boundary hook the service installs on batch sessions.

    The chunk loop calls ``gate.checkpoint(model)`` between chunks
    (:meth:`~repro.core.models.base.ExecutionModel.run_chunked_pipeline`,
    one device or fanned out); the gate enforces the running query's
    deadline and lets the service preempt the pipeline with newly
    arrived interactive work.
    """

    def __init__(self, service: "QueryService") -> None:
        self._service = service

    def checkpoint(self, model) -> None:
        self._service._checkpoint(model)


class QueryService:
    """Admission-controlled serving over one shared :class:`Engine`.

    Args:
        engine: The engine to serve on (devices must be plugged).
        controller: Admission policies (defaults to
            :class:`AdmissionController`'s defaults).
        degrade_queue_depth: Total queued requests at or above which
            batch dispatches run with a halved chunk size (None
            disables degradation).
        preempt: Let interactive arrivals preempt running batch
            pipelines at chunk boundaries (on by default; turning it
            off leaves deadlines enforced but runs strictly serially).
    """

    def __init__(self, engine: Engine, *,
                 controller: AdmissionController | None = None,
                 degrade_queue_depth: int | None = 4,
                 preempt: bool = True) -> None:
        self.engine = engine
        self.controller = controller or AdmissionController()
        self.degrade_queue_depth = degrade_queue_depth
        self.preempt = preempt
        self.lanes = LaneQueue()
        self.outcomes: dict[str, QueryOutcome] = {}
        self._pending: deque[ServeRequest] = deque()
        self._ewma_latency: dict[str, float] = {}
        self._request_counter = 0
        #: Re-entrancy latch: while the service drains interactive work
        #: from inside a batch query's checkpoint, nested checkpoints
        #: only enforce deadlines (no preemption of preemptions).
        self._draining = False

    # -- public API ----------------------------------------------------------

    def serve(self, requests: list[ServeRequest]) -> ServeReport:
        """Drive *requests* (an open-loop arrival schedule) to
        completion; returns one outcome per request, in arrival order.

        Requests are processed in ``arrival_s`` order on the engine's
        virtual clock: the service stamps a zero-duration marker on the
        arrival stream when the engine would otherwise sit idle, admits
        everything that has arrived, and dispatches queued work
        interactive-lane first.
        """
        order: list[str] = []
        for request in sorted(requests,
                              key=lambda r: (r.arrival_s, r.request_id)):
            if not request.request_id:
                self._request_counter += 1
                request.request_id = f"r{self._request_counter}"
            self.outcomes[request.request_id] = QueryOutcome(
                request_id=request.request_id, tenant=request.tenant,
                lane=request.lane, arrival_s=request.arrival_s,
                status="ok", label=request.query.label)
            order.append(request.request_id)
            self._pending.append(request)
        while self._pending or self.lanes.total_depth:
            self._ingest(self.engine.clock.now())
            request = self.lanes.pop()
            if request is None:
                # Idle: advance virtual time to the next arrival.
                self._advance_to(self._pending[0].arrival_s)
                continue
            self._execute(request)
        return ServeReport(
            outcomes=[self.outcomes[rid] for rid in order])

    # -- arrival handling ----------------------------------------------------

    def _advance_to(self, when: float) -> None:
        self.engine.clock.schedule(
            ARRIVAL_STREAM, 0.0, label=f"arrival@{when:.6f}",
            category="serving", not_before=when)

    def _retry_after(self, lane: str, depth: int) -> float:
        """Back-off hint: roughly when the lane's backlog clears."""
        per_request = self._ewma_latency.get(lane, DEFAULT_RETRY_AFTER_S)
        return (depth + 1) * per_request

    def _ingest(self, now: float) -> None:
        """Admit every pending request that has arrived by *now*."""
        if not self._pending or self._pending[0].arrival_s > now:
            return  # the usual call: a chunk boundary, nothing new
        metrics = self.engine.metrics
        healthy = set(self.engine._healthy_devices())
        while self._pending and self._pending[0].arrival_s <= now:
            request = self._pending.popleft()
            outcome = self.outcomes[request.request_id]
            depth = self.lanes.depth(request.lane)
            covered, total = self._cache_coverage(request, healthy)
            fully_covered = total > 0 and covered == total
            try:
                decision = self.controller.admit(
                    request, now=max(now, request.arrival_s),
                    queue_depth=depth, cache_covered=fully_covered,
                    retry_after_s=self._retry_after(request.lane, depth))
            except AdmissionRejected as rejection:
                outcome.status = "rejected"
                outcome.error = rejection
                outcome.finished_s = max(now, request.arrival_s)
                outcome.retry_after_s = rejection.retry_after_s
                metrics.inc("adamant_serving_shed_total",
                            lane=request.lane, reason=rejection.reason)
                continue
            outcome.cache_served = decision.verdict == "cache-bypass"
            if outcome.cache_served:
                metrics.inc("adamant_serving_degraded_total",
                            action="cache-serve")
            self.lanes.push(request, affinity=covered)
            metrics.inc("adamant_serving_admitted_total",
                        lane=request.lane)
            metrics.set("adamant_serving_queue_depth",
                        self.lanes.depth(request.lane), lane=request.lane)

    def _cache_coverage(self, request: ServeRequest,
                        healthy: set[str]) -> tuple[int, int]:
        """(covered, total) persisted subplans of *request* in the
        engine's subplan cache on *healthy* devices — the
        admission-ordering affinity and the shed-bypass signal.  Uses
        :meth:`SubplanCache.peek`, so it touches no counters and pins
        nothing."""
        cache = self.engine.subplan_cache
        if cache is None or not len(cache):
            return (0, 0)
        query = request.query
        covered = total = 0
        try:
            for pipeline in split_pipelines(query.graph):
                for nid in pipeline.persisted_ids:
                    total += 1
                    if cache.peek(subplan_fingerprint(query.graph, nid),
                                  query.catalog, query.data_scale,
                                  healthy) is not None:
                        covered += 1
        except AdamantError:  # a plan that cannot run is not covered
            return (0, 0)
        return (covered, total)

    # -- dispatch ------------------------------------------------------------

    def _degraded_request(self, request: ServeRequest
                          ) -> tuple[QueryRequest, bool]:
        """Batch requests under queue pressure run with a halved chunk
        size: shorter chunks mean earlier preemption points and a
        smaller device footprint, trading batch throughput for
        stability before anything is shed."""
        query = request.query
        if (self.degrade_queue_depth is None
                or request.lane != BATCH
                or query.model not in ("chunked", "auto")
                or self.lanes.total_depth + 1 < self.degrade_queue_depth):
            return query, False
        halved = halve_chunk(query.chunk_size, query.data_scale)
        if halved is None:
            return query, False
        return replace(query, chunk_size=halved), True

    def _execute(self, request: ServeRequest) -> None:
        engine = self.engine
        clock = engine.clock
        metrics = engine.metrics
        outcome = self.outcomes[request.request_id]
        metrics.set("adamant_serving_queue_depth",
                    self.lanes.depth(request.lane), lane=request.lane)
        query, degraded = self._degraded_request(request)
        if degraded:
            outcome.degraded = True
            metrics.inc("adamant_serving_degraded_total",
                        action="chunk-halve")
        deadline = (request.arrival_s + request.deadline_s
                    if request.deadline_s is not None else None)
        started = clock.now()
        outcome.started_s = started
        try:
            session = engine.open_session(
                memory_budget=query.memory_budget,
                label=query.label or request.request_id)
        except QueryAdmissionError as error:
            outcome.status = "failed"
            outcome.error = error
            outcome.finished_s = started
            self._finish(request, outcome)
            return
        session.deadline = deadline
        if self.preempt or deadline is not None:
            session.gate = ChunkGate(self)
        try:
            result = engine.execute(
                query.graph, query.catalog, model=query.model,
                chunk_size=query.chunk_size,
                default_device=query.default_device,
                data_scale=query.data_scale, session=session,
                fuse=query.fuse, analyze=query.analyze,
                adaptive=query.adaptive)
        except DeadlineExceededError as error:
            outcome.status = "deadline"
            outcome.error = error
            outcome.finished_s = clock.now()
            metrics.inc("adamant_serving_deadline_misses_total",
                        lane=request.lane)
        except AdamantError as error:
            outcome.status = "failed"
            outcome.error = error
            outcome.finished_s = clock.now()
        else:
            outcome.status = "ok"
            outcome.result = result
            # The query's own completion time: its epoch opened at
            # dispatch and its makespan is measured from the epoch
            # start over its owner-tagged events, so this is exact even
            # when later streams have already run ahead.
            outcome.finished_s = started + result.stats.makespan
        finally:
            session.close()
            self.controller.release(request)
        latency = max(0.0, (outcome.finished_s or started)
                      - request.arrival_s)
        if outcome.status == "ok":
            previous = self._ewma_latency.get(request.lane)
            self._ewma_latency[request.lane] = (
                latency if previous is None
                else 0.5 * previous + 0.5 * latency)
        metrics.observe("adamant_serving_lane_latency_seconds", latency,
                        lane=request.lane)
        self._finish(request, outcome)

    def _finish(self, request: ServeRequest,
                outcome: QueryOutcome) -> None:
        outcome.extra.setdefault("tenant_in_flight",
                                 self.controller.in_flight(request.tenant))

    # -- the gate ------------------------------------------------------------

    def _checkpoint(self, model) -> None:
        """Called by a running query's chunk loop between chunks.

        Deadline first (cheap, applies to every gated query), then —
        outside nested drains — ingest new arrivals and run any queued
        interactive requests to completion before the next chunk.  On
        the virtual timeline the interactive queries' events land
        before the batch query's remaining chunks: chunk-boundary
        preemption.
        """
        clock = self.engine.clock
        now = clock.now()
        query = model.ctx.query
        if query.deadline is not None and now > query.deadline:
            raise DeadlineExceededError(
                f"query {query.query_id}: deadline "
                f"{query.deadline:.6f}s passed at {now:.6f}s "
                f"(chunk boundary)")
        if not self.preempt or self._draining:
            return
        self._ingest(now)
        if self.lanes.depth(INTERACTIVE) == 0:
            return
        ctx = model.ctx
        self._draining = True
        saved_owner = clock.current_owner
        try:
            while True:
                preempting = self.lanes.pop(INTERACTIVE)
                if preempting is None:
                    break
                self.engine.metrics.inc(
                    "adamant_serving_preemptions_total")
                self.outcomes[preempting.request_id].preemptions += 1
                self._execute(preempting)
        finally:
            self._draining = False
            # The nested runs unbound the devices and cleared the
            # clock owner; restore the preempted query's attribution
            # before its next chunk schedules work.
            clock.current_owner = saved_owner
            for device in ctx.devices.values():
                device.bind_query(  # type: ignore[attr-defined]
                    query.query_id, data_scale=ctx.plan.data_scale,
                    memory_budget=query.memory_budget)
