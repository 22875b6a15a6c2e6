"""The multi-query engine: long-lived devices, sessions, shared scheduling.

Where :class:`~repro.core.executor.AdamantExecutor` resets the world for
every ``run()``, an :class:`Engine` keeps its devices and virtual clock
alive across queries:

* queries are admitted through :class:`~repro.engine.QuerySession`
  tickets (bounded concurrency, per-query memory budgets, unique ids);
* :meth:`Engine.run_concurrent` interleaves several queries' pipelines
  on the shared devices through the
  :class:`~repro.engine.DeviceScheduler`, with per-query makespan
  accounting on the common timeline;
* each device carries a cross-query
  :class:`~repro.devices.residency.ResidencyCache`, so base-table
  columns one query paid to transfer are served to later queries from
  device memory instead of the interconnect.

The single-shot executor remains as a thin facade over a one-query
engine (``fresh`` mode), byte-compatible with its original behavior.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from weakref import WeakKeyDictionary

from repro.core.context import ExecutionContext, QueryResult, RecoveryLog
from repro.core.graph import PrimitiveGraph
from repro.core.models import MODELS
from repro.core.models.base import ExecutionModel
from repro.devices.base import SimulatedDevice
from repro.devices.residency import ResidencyCache
from repro.devices.transforms import register_default_transforms
from repro.engine.scheduler import DeviceScheduler
from repro.engine.session import QuerySession, query_holdings, release_query
from repro.engine.subplan_cache import SubplanCache
from repro.errors import (
    DeviceLostError,
    ExecutionError,
    QueryAdmissionError,
    RetryBudgetExhaustedError,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.hardware.clock import VirtualClock
from repro.hardware.specs import DeviceKind, DeviceSpec
from repro.hardware.trace import fold
from repro.observe.metrics import MetricsRegistry
from repro.planner.compile import compile_plan
from repro.planner.cost import CostOverlayStore
from repro.planner.ir import DEFAULT_CHUNK_SIZE, PhysicalPlan
from repro.planner.optimizer import OptimizerReport, PlanOptimizer
from repro.planner.placement import annotate_devices
from repro.storage import Catalog
from repro.task.registry import TaskRegistry, default_registry

__all__ = ["DEFAULT_CHUNK_SIZE", "Engine", "QueryRequest"]


@dataclass
class QueryRequest:
    """One query of a concurrent batch (:meth:`Engine.run_concurrent`).

    The graph is only read: requests may share one instance, in one
    wave or across waves.
    """

    graph: PrimitiveGraph
    catalog: Catalog
    #: Execution-model name, or ``"auto"`` to let the cost-based
    #: optimizer pick model, placement, fusion and chunk size.
    model: str = "chunked"
    chunk_size: int = DEFAULT_CHUNK_SIZE
    default_device: str | None = None
    data_scale: int = 1
    memory_budget: int | None = None
    label: str = ""
    #: Run the planner's kernel-fusion pass over the graph before
    #: execution (collapses MAP/FILTER chains into single kernels).
    fuse: bool = False
    #: Attach a per-node :class:`~repro.observe.QueryProfile` to the
    #: result (EXPLAIN ANALYZE mode).
    analyze: bool = False
    #: Enable adaptive execution (online calibration, dynamic chunk
    #: sizing, split-model work stealing); results stay byte-identical.
    adaptive: bool = False


class Engine:
    """A long-lived multi-query executor with shared-device scheduling.

    Args:
        enable_residency: Attach a cross-query residency cache to every
            plugged device (the compatibility facade turns this off).
        enable_subplan_cache: Keep an engine-scope
            :class:`~repro.engine.subplan_cache.SubplanCache` of
            fingerprinted pipeline results, so warm or concurrent
            queries sharing a subplan (same subtree, catalog version
            and ``data_scale``) skip its execution entirely.
        max_concurrent: Session admission limit; exceeding it raises
            :class:`~repro.errors.QueryAdmissionError`.
        faults: Optional :class:`~repro.faults.FaultPlan` armed on every
            plugged device (see :meth:`install_faults`).
        retry_policy: Backoff schedule for transient-fault retries
            (defaults to :class:`~repro.faults.RetryPolicy`'s defaults).
        overlay_path: Optional JSON file the engine's
            :class:`~repro.planner.cost.CostOverlayStore` loads from and
            saves to, persisting calibrated cost corrections across
            processes (None keeps the store in-memory only).
    """

    def __init__(self, *, enable_residency: bool = True,
                 enable_subplan_cache: bool = True,
                 max_concurrent: int = 8,
                 faults: FaultPlan | None = None,
                 retry_policy: RetryPolicy | None = None,
                 overlay_path: str | Path | None = None) -> None:
        if max_concurrent < 1:
            raise ExecutionError(
                f"max_concurrent must be >= 1, got {max_concurrent}")
        self.clock = VirtualClock()
        #: Task registry (the built-in kernels; plug-ins register more,
        #: or assign a registry of their own).
        self.registry: TaskRegistry = default_registry()
        self.devices: dict[str, SimulatedDevice] = {}
        self.enable_residency = enable_residency
        #: Cross-query subplan result cache shared by every session
        #: (None when disabled); see ``docs/architecture.md``.
        self.subplan_cache = (SubplanCache() if enable_subplan_cache
                              else None)
        self.max_concurrent = max_concurrent
        self._default_device: str | None = None
        self._sessions: dict[str, QuerySession] = {}
        self._query_counter = 0
        self._scheduler = DeviceScheduler()
        self._retry_policy = retry_policy
        self._fault_plan: FaultPlan | None = None
        #: Engine-lifetime :class:`~repro.observe.MetricsRegistry`.  Only
        #: the engine (and the serving layer above it) writes to it: at
        #: the end of every wave and fresh run :meth:`_publish` folds the
        #: clock's new events into it (see ``docs/observability.md``).
        self.metrics = MetricsRegistry()
        #: How many of the clock's events :meth:`_publish` has folded.
        self._published = 0
        #: Owner of a cumulative tally (an injector, a recovery log) ->
        #: how much of the tally is published already.
        self._booked: WeakKeyDictionary = WeakKeyDictionary()
        #: Calibrated per-device-spec cost corrections; the optimizer
        #: prices with it and every ``model="auto"`` execution folds its
        #: observed/predicted ratio back in.
        self.overlay = CostOverlayStore(overlay_path)
        if faults is not None:
            self.install_faults(faults)

    # -- plugging ------------------------------------------------------------

    def plug_device(self, name: str, driver: type[SimulatedDevice],
                    spec: DeviceSpec, *, memory_limit: int | None = None,
                    default: bool = False) -> SimulatedDevice:
        """Plug a co-processor driver into the engine.

        Identical to the executor's headline operation; in engine mode
        the device additionally receives a residency cache for
        cross-query column reuse.
        """
        if name in self.devices:
            raise ExecutionError(f"device name {name!r} already plugged")
        if ":" in name:
            # Event labels are ``device:kind:subject`` and every counter
            # is read back out of them (``hardware.trace.fold``).
            raise ExecutionError(f"device name {name!r} contains ':'")
        device = driver(name, spec, self.clock, memory_limit=memory_limit)
        register_default_transforms(device)
        if self.enable_residency:
            device.residency = ResidencyCache(device)
        if self._fault_plan is not None:
            device.faults = self._fault_plan.injector_for(name)
        self.devices[name] = device
        if default or self._default_device is None:
            self._default_device = name
        return device

    def unplug_device(self, name: str) -> None:
        """Remove a device and tear down all its engine-side state.

        The device's buffers, residency entries, registered format
        transforms, compiled-kernel cache and clock streams are all
        released, so plugging a new device under the same name starts
        from a clean slate.
        """
        try:
            device = self.devices.pop(name)
        except KeyError:
            raise ExecutionError(f"no plugged device {name!r}") from None
        device.release()
        if self.subplan_cache is not None:
            # Results computed on the unplugged device are unreachable /
            # untrusted; later queries must re-derive them.
            self.subplan_cache.invalidate_device(name)
        if self._default_device == name:
            self._default_device = next(iter(self.devices), None)

    @property
    def default_device(self) -> str:
        if self._default_device is None:
            raise ExecutionError("no devices plugged")
        chosen = self.devices[self._default_device]
        if chosen.lost or chosen.quarantined:
            for name, device in self.devices.items():
                if not (device.lost or device.quarantined):
                    return name
        return self._default_device

    # -- fault injection & recovery -------------------------------------------

    def install_faults(self, plan: FaultPlan) -> None:
        """Arm *plan* on every plugged (and future) device.

        Each device receives its own seeded
        :class:`~repro.faults.FaultInjector` carved from the plan, so
        injected failures are deterministic per ``(plan seed, device)``.
        """
        self._fault_plan = plan
        for name, device in self.devices.items():
            device.faults = plan.injector_for(name)

    def clear_faults(self) -> None:
        """Disarm fault injection on every device."""
        self._fault_plan = None
        for device in self.devices.values():
            device.faults = None

    @property
    def quarantined_devices(self) -> list[str]:
        """Devices currently out of rotation (lost or circuit-broken)."""
        return sorted(name for name, device in self.devices.items()
                      if device.lost or device.quarantined)

    def reinstate_device(self, name: str) -> None:
        """Return a quarantined/lost device to rotation (operator action
        after, say, a driver reset); its circuit-breaker count clears."""
        try:
            device = self.devices[name]
        except KeyError:
            raise ExecutionError(f"no plugged device {name!r}") from None
        device.lost = False
        device.quarantined = False
        self._scheduler.quarantined.discard(name)
        self._scheduler._fault_counts.pop(name, None)

    def _healthy_devices(self, *, exclude: set[str] | frozenset[str] =
                         frozenset()) -> dict[str, SimulatedDevice]:
        return {
            name: device for name, device in self.devices.items()
            if not (device.lost or device.quarantined) and name not in exclude
        }

    # -- sessions ------------------------------------------------------------

    @property
    def active_sessions(self) -> int:
        return len(self._sessions)

    def open_session(self, *, memory_budget: int | None = None,
                     label: str = "") -> QuerySession:
        """Admit one query; raises when the concurrency limit is reached.

        The session carries a unique query id and (optionally) a
        per-device memory budget.  Close it (or use it as a context
        manager) to free the admission slot and the query's device-side
        state.
        """
        if len(self._sessions) >= self.max_concurrent:
            raise QueryAdmissionError(
                f"engine at its concurrency limit "
                f"({self.max_concurrent} active sessions); close one first"
            )
        self._query_counter += 1
        query_id = f"q{self._query_counter}"
        session = QuerySession(self, query_id,
                               memory_budget=memory_budget, label=label)
        self._sessions[query_id] = session
        self.metrics.set("adamant_sessions_active", len(self._sessions))
        return session

    def _close_session(self, session: QuerySession) -> None:
        self._sessions.pop(session.query_id, None)
        self.metrics.set("adamant_sessions_active", len(self._sessions))
        release_query(session.query_id, self.devices.values(),
                      self.subplan_cache, at_time=self.clock.now())

    def holdings(self) -> dict[str, dict[str, int]]:
        """What each query still holds on the engine's devices and
        caches (:func:`~repro.engine.session.query_holdings`); empty
        when nothing is leaked and nothing is in flight."""
        return query_holdings(self.devices.values(), self.subplan_cache)

    # -- execution -----------------------------------------------------------

    def execute(self, graph: PrimitiveGraph, catalog: Catalog, *,
                model: str = "chunked",
                chunk_size: int = DEFAULT_CHUNK_SIZE,
                default_device: str | None = None, data_scale: int = 1,
                session: QuerySession | None = None,
                memory_budget: int | None = None,
                fresh: bool = False, fuse: bool = False,
                analyze: bool = False,
                adaptive: bool = False) -> QueryResult:
        """Execute one query on the engine's devices.

        In engine mode (default) the query runs in a new clock *epoch* on
        the live timeline: devices keep their residency caches, the
        query's events are owner-tagged, and its makespan is measured
        from the epoch start.  With ``fresh=True`` the clock and devices
        are reset first — the single-shot semantics of the original
        executor, used by the compatibility facade.

        Args:
            session: Run under an already-open session (kept open);
                otherwise a session is opened and closed internally.
            memory_budget: Per-device byte budget for the internal
                session (ignored when *session* is given).
            fresh: Reset the world first and skip sessions/residency
                bookkeeping entirely.
            fuse: Apply the planner's kernel-fusion pass to the graph
                before execution.
            analyze: Attach a per-node
                :class:`~repro.observe.QueryProfile` to the result
                (EXPLAIN ANALYZE mode).
            adaptive: Enable adaptive execution — online cost-model
                calibration, dynamic chunk sizing and split-model work
                stealing (:mod:`repro.planner.adaptive`).

        With ``model="auto"`` the cost-based optimizer
        (:class:`~repro.planner.optimizer.PlanOptimizer`) picks the
        execution model, placement, fusion subset and chunk size first;
        the chosen plan then runs through the normal path, so the
        result is byte-identical to the same manual configuration.
        """
        request = QueryRequest(
            graph=graph, catalog=catalog, model=model,
            chunk_size=chunk_size, default_device=default_device,
            data_scale=data_scale, memory_budget=memory_budget,
            fuse=fuse, analyze=analyze, adaptive=adaptive)
        plan, report = self._resolve(request)
        if fresh:
            result = self._execute_fresh(plan, catalog, default_device)
            self._finish_optimized(report, result)
            return result
        [result] = self._run_wave([(request, plan, report)],
                                  session=session)
        return result

    def run_concurrent(self, requests: list[QueryRequest], *,
                       return_exceptions: bool = False
                       ) -> list[QueryResult | Exception]:
        """Run a batch of queries interleaved on the shared devices.

        Queries are admitted in waves of at most ``max_concurrent``; each
        wave shares one clock epoch and is driven round-robin by the
        device scheduler, so its combined makespan is at most the sum of
        the queries' sequential makespans.  Results come back in request
        order.

        Args:
            return_exceptions: Per-query failures are returned in place
                (like ``asyncio.gather``) instead of raised after the
                wave finishes.
        """
        # Every request gets its plan before any wave is admitted, so a
        # bad flag fails the batch up front.
        resolved = [(request, *self._resolve(request))
                    for request in requests]
        results: list[QueryResult | Exception] = []
        step = self.max_concurrent
        for offset in range(0, len(resolved), step):
            results += self._run_wave(resolved[offset:offset + step],
                                      return_exceptions=return_exceptions)
        return results

    # -- helpers -------------------------------------------------------------

    def _resolve(self, request: QueryRequest
                 ) -> tuple[PhysicalPlan, OptimizerReport | None]:
        """Turn a request's loose flags into the plan that will run:
        ``model="auto"`` asks the cost-based optimizer, anything else
        compiles the flags as given."""
        if request.model != "auto":
            return compile_plan(
                request.graph, model=request.model,
                chunk_size=request.chunk_size,
                data_scale=request.data_scale, fuse=request.fuse,
                analyze=request.analyze, adaptive=request.adaptive), None
        devices = self._healthy_devices()
        optimizer = PlanOptimizer(
            request.catalog, devices,
            default_device=request.default_device or self.default_device,
            data_scale=request.data_scale,
            overlay=self.overlay.factors(devices),
            subplan_cache=self.subplan_cache)
        plan, report = optimizer.choose(request.graph,
                                        chunk_size=request.chunk_size,
                                        analyze=request.analyze,
                                        adaptive=request.adaptive)
        query = report.graph_name or "q0"
        self.metrics.inc("adamant_optimizer_candidates_total",
                         report.enumerated, query=query)
        self.metrics.inc("adamant_optimizer_pruned_total", report.pruned,
                         query=query)
        self.metrics.set("adamant_optimizer_chosen_cost_seconds",
                         report.chosen.cost.total, query=query)
        return plan, report

    def _run_wave(self, wave: list[tuple[QueryRequest, PhysicalPlan,
                                         OptimizerReport | None]], *,
                  session: QuerySession | None = None,
                  return_exceptions: bool = False
                  ) -> list[QueryResult | Exception]:
        """Run resolved requests interleaved in one clock epoch.

        Each request runs under a session opened (and closed) here —
        except :meth:`execute`'s wave of one under the caller's
        *session*, which stays open.  The first failure is raised after
        the whole wave finished unless *return_exceptions* is set.
        """
        epoch_start = self.clock.begin_epoch()
        sessions: list[QuerySession] = []
        work: list[tuple] = []
        #: Every model the wave runs, restarts' rebuilds included.
        models: list[ExecutionModel] = []
        try:
            for request, plan, _ in wave:
                own = session if session is not None else \
                    self.open_session(memory_budget=request.memory_budget,
                                      label=request.label)
                sessions.append(own)
                models.append(self._build_model(
                    plan, request.catalog, request.default_device,
                    session=own, epoch_start=epoch_start))
                work.append((own, models[-1], self._make_rebuild(
                    own, request, plan, epoch_start, models)))
            self._scheduler.run(work)
            self._sweep_subplan_cache()
            results: list[QueryResult | Exception] = []
            for own, (_, plan, _) in zip(sessions, wave):
                self._record_query(plan.model, own.recovery,
                                   result=own.result, error=own.error)
                results.append(own.error if own.error is not None
                               else own.result)
            failure = next((r for r in results
                            if isinstance(r, Exception)), None)
            if failure is not None and not return_exceptions:
                raise failure
            for result, (_, _, report) in zip(results, wave):
                if isinstance(result, QueryResult):
                    self._finish_optimized(report, result)
            return results
        finally:
            self._publish(models)
            if session is None:
                for own in sessions:
                    own.close()

    def _finish_optimized(self, report: OptimizerReport | None,
                          result: QueryResult) -> None:
        """Fold one optimizer-chosen execution's observed makespan back
        into the overlay store and the metrics."""
        if report is None:
            return
        chosen = report.chosen
        healthy = self._healthy_devices()
        if MODELS[chosen.model].splits_chunks:
            used = set(healthy)
        else:
            used = {device for _, device in chosen.placement}
        devices = [healthy[name] for name in sorted(used)
                   if name in healthy]
        observed = result.stats.makespan
        predicted = chosen.cost.total
        if devices and observed > 0 and predicted > 0:
            self.overlay.fold(devices, observed=observed,
                              predicted=predicted)
        self.metrics.set("adamant_optimizer_observed_seconds", observed,
                         query=report.graph_name or "q0")

    def _build_model(self, plan: PhysicalPlan, catalog: Catalog,
                     default_device: str | None, *,
                     session: QuerySession | None = None,
                     epoch_start: float = 0.0,
                     devices: dict[str, SimulatedDevice] | None = None
                     ) -> ExecutionModel:
        """Bind *plan* to the engine's machinery and instantiate its
        execution model.  Without a *session* (fresh mode) the query
        gets the default identity and no cross-query subplan cache."""
        query = subplan_cache = None
        if session is not None:
            query = session.query_context(epoch_start=epoch_start)
            subplan_cache = self.subplan_cache
        devices = self._healthy_devices() if devices is None else devices
        if self.devices and not devices:
            raise DeviceLostError("every device is lost or quarantined")
        ctx = ExecutionContext(
            plan=plan,
            catalog=catalog,
            devices=devices,
            registry=self.registry,
            clock=self.clock,
            default_device=default_device or self.default_device,
            query=query,
            retry_policy=self._retry_policy,
            subplan_cache=subplan_cache,
        )
        return MODELS[plan.model](ctx)

    def _make_rebuild(self, session: QuerySession, request: QueryRequest,
                      plan: PhysicalPlan, epoch_start: float,
                      models: list[ExecutionModel]):
        """The scheduler's recovery callback: a fresh model for the same
        query at a degraded configuration (new chunk size, devices
        excluded after quarantine, or placement spilled to the host),
        appended to the wave's *models*.

        Failover re-runs the cost-based placement pass over the
        request's graph restricted to the surviving devices, then
        recompiles the request's flags at the degraded chunk size — the
        plan the engine would have built had the dead device never been
        plugged.  An optimizer-made plan's graph is already fused, so it
        is re-placed and re-armed as it stands.  Placement lands on a
        copy that later restarts start from: nothing is written into the
        request or the plan, so a restart recompiles from them.
        """
        if request.model == "auto":
            graph, fuse = plan.graph, False
        else:
            graph, fuse = request.graph, request.fuse

        def rebuild(*, chunk_size: int, exclude: set[str],
                    spill: bool) -> ExecutionModel:
            nonlocal graph
            survivors = self._healthy_devices(exclude=exclude)
            if spill:
                hosts = {name: device for name, device in survivors.items()
                         if device.spec.kind is DeviceKind.CPU}
                survivors = hosts or survivors
            if not survivors:
                raise DeviceLostError(
                    "no healthy devices left to fail over to"
                ).annotate(query_id=session.query_id)
            stale = any(node.device and node.device not in survivors
                        for node in graph.nodes.values())
            if stale or spill:
                graph, _ = annotate_devices(graph, request.catalog,
                                            survivors,
                                            data_scale=plan.data_scale)
            default = request.default_device or self._default_device
            if default not in survivors:
                default = next(iter(survivors))
            degraded = compile_plan(
                graph, model=plan.model, chunk_size=chunk_size,
                data_scale=plan.data_scale, fuse=fuse,
                analyze=plan.analyze, adaptive=plan.adaptive)
            models.append(self._build_model(
                degraded, request.catalog, default, session=session,
                epoch_start=epoch_start, devices=survivors))
            return models[-1]
        return rebuild

    def _execute_fresh(self, plan: PhysicalPlan, catalog: Catalog,
                       default_device: str | None) -> QueryResult:
        """Single-shot semantics: reset the timeline and devices, run."""
        self._publish([])  # whatever was scheduled since, before it goes
        self.clock.reset()
        self._published = 0
        for device in self.devices.values():
            device.reset(data_scale=plan.data_scale)
        model_obj = self._build_model(plan, catalog, default_device)
        recovery = model_obj.ctx.query.recovery
        try:
            result = model_obj.run()
        except Exception as error:
            self._record_query(plan.model, recovery, error=error)
            raise
        finally:
            self._publish([model_obj])
        self._record_query(plan.model, recovery, result=result)
        return result

    # -- statistics ----------------------------------------------------------

    def _publish(self, models: list[ExecutionModel]) -> None:
        """Book what happened since the previous publish, each fact once.

        Whatever an event carries comes from the fold of the clock's new
        events — every query's, aborted attempts included, continuing
        the registry's running totals in schedule order.  What no event
        carries comes from state: the subplan-cache hits and misses and
        the calibrator of each of *models* (every model the wave or
        fresh run built, so a restart's aborted attempt counts), and
        the injectors' tallies.
        """
        metrics = self.metrics
        if self.clock.event_count > self._published:
            metrics.advance(fold(self.clock, since=self._published,
                                 running=metrics.running).series)
        self._published = self.clock.event_count
        for model in models:
            if model.subplan_hits:
                metrics.inc("adamant_subplan_cache_hits_total",
                            model.subplan_hits)
            if model.subplan_misses:
                metrics.inc("adamant_subplan_cache_misses_total",
                            model.subplan_misses)
            calibrated = (model.adaptive.calibrator.overlays
                          if model.adaptive is not None else {})
            for name, overlay in calibrated.items():
                metrics.set("adamant_adaptive_overlay_factor",
                            overlay.factor, device=name)
        for name, device in self.devices.items():
            if device.faults is not None:
                injected = self._gained(device.faults, device.faults.injected)
                for kind, count in injected.items():
                    metrics.inc("adamant_faults_injected_total", count,
                                device=name, kind=kind)

    def _gained(self, owner: object, tally: dict) -> Counter:
        """What *owner*'s cumulative *tally* gained since this was last
        asked: an injector outlives a wave, a caller's session (and its
        recovery log) an ``execute``."""
        seen = self._booked.setdefault(owner, Counter())
        gained = Counter(tally) - seen
        seen += gained
        return gained

    def _record_query(self, model: str, recovery: RecoveryLog, *,
                      result: QueryResult | None = None,
                      error: Exception | None = None) -> None:
        """Publish one finished query's stats into the metrics registry
        and refresh the per-device gauges."""
        status = "ok" if error is None else "failed"
        self.metrics.inc("adamant_queries_total", model=model, status=status)
        retried = self._gained(recovery, recovery.retried) \
            if recovery.retried else {}
        for (device, primitive), count in retried.items():
            self.metrics.inc("adamant_retries_total", count,
                             device=device, primitive=primitive)
        if isinstance(error, RetryBudgetExhaustedError):
            self.metrics.inc("adamant_retry_budget_exhausted_total",
                             device=error.device)
        if result is not None:
            stats = result.stats
            self.metrics.observe("adamant_query_seconds", stats.makespan,
                                 model=model)
            self.metrics.set("adamant_query_makespan_seconds",
                             stats.makespan, model=model,
                             query=stats.query_id or "q0")
            if stats.chunks_processed:
                self.metrics.inc("adamant_chunks_total",
                                 stats.chunks_processed, model=model)
        for name, device in self.devices.items():
            self.metrics.set("adamant_device_peak_bytes",
                             device.memory.peak_device_used, device=name)
            if device.residency is not None:
                self.metrics.set(
                    "adamant_residency_resident_bytes",
                    device.residency.stats()["resident_bytes"],
                    device=name)
        if self.subplan_cache is not None:
            self.metrics.set("adamant_subplan_cached_bytes",
                             self.subplan_cache.cached_bytes)

    def _sweep_subplan_cache(self) -> None:
        """Drop subplan-cache entries whose producing device is no
        longer healthy (lost or quarantined during the last run)."""
        if self.subplan_cache is not None:
            self.subplan_cache.sweep(set(self._healthy_devices()))

    def residency_stats(self) -> dict[str, dict[str, int]]:
        """Per-device residency-cache statistics (engine mode only)."""
        return {
            name: device.residency.stats()
            for name, device in self.devices.items()
            if device.residency is not None
        }

    def subplan_stats(self) -> dict[str, int]:
        """Engine-lifetime subplan-cache statistics (empty dict when the
        cache is disabled)."""
        if self.subplan_cache is None:
            return {}
        return self.subplan_cache.stats()
