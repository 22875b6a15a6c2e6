"""Device scheduler: interleaves in-flight queries on shared devices.

The execution models expose their pipeline loop as a generator
(:meth:`~repro.core.models.base.ExecutionModel.iter_pipelines`), so a
query run is a resumable sequence of pipeline steps.  The scheduler
drives several queries' generators round-robin over the *same* device
set and virtual clock: each query advances one pipeline per turn, its
events tagged with its query id, its allocations owner-tagged and
budget-checked.  Fairness is positional — every in-flight query gets a
pipeline slot per round, so a ten-pipeline query cannot starve a
two-pipeline one.

A query that raises is aborted alone: its owner-tagged buffers are
reclaimed (including views other queries took over them) and its
residency pins dropped, while the co-running queries continue
untouched.

The scheduler is also where fault *recovery* lives, through the
``rebuild`` callback the engine hands over with every query:

* **Circuit breaker / failover** — a device that keeps producing
  :class:`~repro.errors.RetryExhaustedError`
  (:data:`QUARANTINE_THRESHOLD` consecutive faults) or raises
  :class:`~repro.errors.DeviceLostError` is quarantined: its residency
  cache is invalidated, its buffers reclaimed, and every affected query
  is re-placed onto the surviving devices and restarted.
* **OOM degradation ladder** — a
  :class:`~repro.errors.DeviceMemoryError` first restarts the query
  after evicting residency-cache bytes, then with halved chunk sizes,
  and finally with placement spilled to host (CPU-kind) devices.
  :class:`~repro.errors.QueryBudgetError` is exempt: the query is over
  its own cap, no amount of degradation helps.

Restarts are safe because a faulted query's device state is fully
reclaimed first and the execution models re-run the (side-effect-free)
graph from the top; recovery actions are tallied on the session's
:class:`~repro.core.context.RecoveryLog` and stamped onto the virtual
clock as zero-duration ``recovery`` events.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.core.models.base import ExecutionModel
from repro.core.pipelines import Pipeline, halve_chunk
from repro.engine.session import QuerySession, release_query
from repro.errors import (
    AdamantError,
    DeadlineExceededError,
    DeviceLostError,
    DeviceMemoryError,
    QueryBudgetError,
    RetryExhaustedError,
)

__all__ = ["DeviceScheduler"]

#: Clock stream recovery markers are stamped on.
RECOVERY_STREAM = "engine.recovery"

#: Recovery restarts per query before it is failed for good (guards
#: against recovery loops).
MAX_RESTARTS = 6

#: Consecutive device faults (retry exhaustions) before the circuit
#: breaker quarantines the device; a successful pipeline step on the
#: device resets its count.
QUARANTINE_THRESHOLD = 3

#: Signature of the engine's model-rebuild callback: a fresh model for
#: the same session/graph with a new chunk size, devices excluded, or
#: placement spilled to the host.
RebuildFn = Callable[..., ExecutionModel]


@dataclass
class _InFlight:
    """One admitted query being interleaved."""

    session: QuerySession
    model: ExecutionModel
    steps: Iterator[Pipeline]
    rebuild: RebuildFn
    #: Current chunk size (halved by the OOM ladder across restarts).
    chunk_size: int = 0
    #: Next rung of the OOM ladder (0 = evict residency first).
    oom_stage: int = 0
    restarts: int = 0
    #: Devices this query must avoid when re-placed.
    excluded: set[str] = field(default_factory=set)
    #: Placement restricted to host (CPU-kind) devices.
    spill: bool = False


class DeviceScheduler:
    """Round-robin arbitration of query pipelines over shared devices."""

    def __init__(self) -> None:
        self.quarantine_threshold = QUARANTINE_THRESHOLD
        #: Consecutive-fault counter per device (circuit breaker state).
        self._fault_counts: dict[str, int] = {}
        #: Devices taken out of rotation by the circuit breaker.
        self.quarantined: set[str] = set()

    def run(self, work: Sequence[tuple]) -> None:
        """Drive ``(session, model, rebuild)`` items to completion.

        Results and failures are recorded on the sessions; this method
        never raises for a per-query :class:`AdamantError` — one query's
        OOM or execution failure must not take down its co-runners.
        """
        queue = deque(_InFlight(session, model, model.iter_pipelines(),
                                rebuild, chunk_size=model.plan.chunk_size)
                      for session, model, rebuild in work)
        while queue:
            entry = queue.popleft()
            self._bind(entry)
            try:
                try:
                    self._check_deadline(entry)
                    next(entry.steps)
                except StopIteration:
                    entry.session._record(entry.model.finalize())
                    self._release(entry)
                else:
                    # The slice succeeded: the devices it ran on are
                    # healthy, so their consecutive-fault counts reset.
                    for name in set(entry.model.node_device.values()):
                        self._fault_counts.pop(name, None)
                    queue.append(entry)
            except AdamantError as error:
                remaining = self._recover(entry, error, queue)
                if remaining is not None:
                    entry.session._fail(remaining)
                    self._release(entry)
            finally:
                self._unbind(entry)

    @staticmethod
    def _check_deadline(entry: _InFlight) -> None:
        """Deadline enforcement at pipeline boundaries.

        Chunk loops additionally check between chunks through the
        query's gate (serving mode); this boundary check covers
        unchunked pipelines and queries without a gate.  A miss is
        terminal — the cancellation teardown reclaims the query's
        buffers and cache pins.
        """
        deadline = entry.session.deadline
        if deadline is None:
            return
        now = entry.model.ctx.clock.now()
        if now > deadline:
            raise DeadlineExceededError(
                f"query {entry.session.query_id}: deadline {deadline:.6f}s "
                f"passed at {now:.6f}s (pipeline boundary)")

    # -- recovery -------------------------------------------------------------

    def _recover(self, entry: _InFlight, error: AdamantError,
                 queue: deque) -> AdamantError | None:
        """Attempt to recover *entry* from *error*.

        Returns None when the query was restarted (re-queued), or the
        error the session should fail with.
        """
        if isinstance(error, QueryBudgetError):
            # The query exceeded its own admission budget; degradation
            # would only mask the violation.  (Checked before the OOM
            # rung: QueryBudgetError subclasses DeviceMemoryError.)
            return error
        if isinstance(error, (DeviceLostError, RetryExhaustedError)):
            return self._recover_device_fault(entry, error, queue)
        if isinstance(error, DeviceMemoryError):
            return self._recover_oom(entry, error, queue)
        return error

    def _recover_device_fault(self, entry: _InFlight,
                              error: DeviceLostError | RetryExhaustedError,
                              queue: deque) -> AdamantError | None:
        device_name = error.device
        if not device_name:
            return error
        lost = isinstance(error, DeviceLostError)
        count = self._fault_counts.get(device_name, 0) + 1
        self._fault_counts[device_name] = count
        if lost or count >= self.quarantine_threshold:
            self._quarantine(entry, device_name)
            entry.excluded |= self.quarantined
            recovery = entry.session.recovery
            recovery.failovers += 1
            if device_name not in recovery.quarantined_devices:
                recovery.quarantined_devices.append(device_name)
            return self._restart(entry, error, queue,
                                 reason=f"failover:{device_name}")
        # Below the breaker threshold: the fault may be a passing storm,
        # restart on the same placement.
        return self._restart(entry, error, queue,
                             reason=f"device-fault:{device_name}")

    def _quarantine(self, entry: _InFlight, device_name: str) -> None:
        """Take *device_name* out of rotation and reclaim its state."""
        if device_name in self.quarantined:
            return
        self.quarantined.add(device_name)
        device = entry.model.ctx.devices.get(device_name)
        if device is None:
            return
        device.quarantined = True  # type: ignore[attr-defined]
        residency = getattr(device, "residency", None)
        if residency is not None:
            # Cached columns on a dead device are unreachable; drop the
            # entries (pinned or not) so later queries re-absorb them on
            # survivors instead of "hitting" a corpse.
            residency.invalidate()
            residency.clear()
        now = entry.model.ctx.clock.now()
        device.memory.free_all(at_time=now)  # type: ignore[attr-defined]

    def _recover_oom(self, entry: _InFlight, error: DeviceMemoryError,
                     queue: deque) -> AdamantError | None:
        """The OOM degradation ladder: evict, halve chunks, spill."""
        ctx = entry.model.ctx
        if entry.oom_stage == 0:
            # Rung 1: make room — drop unpinned residency-cache entries
            # on every device and retry at the same configuration.
            entry.oom_stage = 1
            evicted = 0
            for device in ctx.devices.values():
                residency = getattr(device, "residency", None)
                if residency is not None:
                    evicted += residency.evict_bytes(
                        device.memory.capacity_bytes)
            if evicted > 0:
                return self._restart(entry, error, queue,
                                     reason="oom:evict-residency")
            # Nothing to evict; fall through to chunk halving.
        halved = halve_chunk(entry.chunk_size, ctx.plan.data_scale)
        if halved is not None:
            entry.chunk_size = halved
            return self._restart(entry, error, queue,
                                 reason=f"oom:chunk={halved}")
        if not entry.spill:
            # Rung 3: give up on co-processor memory entirely and place
            # the query on host (CPU-kind) devices.
            entry.spill = True
            return self._restart(entry, error, queue, reason="oom:spill")
        return error

    def _restart(self, entry: _InFlight, error: AdamantError,
                 queue: deque, *, reason: str) -> AdamantError | None:
        """Rebuild the entry's model and re-queue it from the top."""
        if entry.restarts >= MAX_RESTARTS:
            return error
        entry.restarts += 1
        ctx = entry.model.ctx
        # Reclaim the failed attempt's device-side state before the
        # rebuilt model re-runs the graph (restarts are idempotent:
        # kernels are pure and buffers are recreated from scratch).
        self._release(entry)
        try:
            model = entry.rebuild(chunk_size=entry.chunk_size,
                                  exclude=set(entry.excluded),
                                  spill=entry.spill)
        except AdamantError as rebuild_error:
            return rebuild_error
        if isinstance(error, DeviceMemoryError) and not \
                isinstance(error, QueryBudgetError):
            entry.session.recovery.oom_recoveries += 1
        ctx.clock.schedule(
            RECOVERY_STREAM, 0.0,
            label=f"recovery:{reason}:{entry.session.query_id}",
            category="recovery",
            not_before=ctx.clock.now(),
        )
        entry.model = model
        entry.steps = model.iter_pipelines()
        queue.append(entry)
        return None

    # -- query <-> device binding -------------------------------------------

    @staticmethod
    def _bind(entry: _InFlight) -> None:
        """Attribute the upcoming slice of work to the entry's query."""
        ctx = entry.model.ctx
        ctx.clock.current_owner = entry.session.query_id
        for device in ctx.devices.values():
            device.bind_query(  # type: ignore[attr-defined]
                entry.session.query_id,
                data_scale=ctx.plan.data_scale,
                memory_budget=entry.session.memory_budget,
            )

    @staticmethod
    def _unbind(entry: _InFlight) -> None:
        ctx = entry.model.ctx
        ctx.clock.current_owner = None
        for device in ctx.devices.values():
            device.unbind_query()  # type: ignore[attr-defined]

    def _release(self, entry: _InFlight) -> None:
        """Release the finished (or aborted) query's device-side state.

        Here, not only at session close: a mid-chunk abort that kept
        its cache pins would block eviction for every query that
        outlives it.
        """
        ctx = entry.model.ctx
        release_query(entry.session.query_id, ctx.devices.values(),
                      ctx.subplan_cache, at_time=ctx.clock.now())

