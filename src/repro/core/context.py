"""Execution context and result types shared by all execution models."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.graph import PrimitiveNode
from repro.devices.base import Device, SimulatedDevice
from repro.errors import ExecutionError
from repro.faults.policy import RetryPolicy
from repro.hardware.clock import VirtualClock
from repro.hardware.trace import fold
from repro.primitives.definitions import FUSED_PRIMITIVES
from repro.primitives.values import Bitmap, JoinPairs, PositionList, PrefixSum
from repro.storage import Catalog
from repro.task.registry import TaskRegistry

if TYPE_CHECKING:  # pragma: no cover - the planner imports this layer
    from repro.planner.ir import PhysicalPlan

__all__ = ["ExecutionContext", "ExecutionStats", "QueryContext",
           "QueryResult", "RecoveryLog", "cardinality"]


def cardinality(value: object) -> int:
    """Input cardinality of an edge value (what a kernel iterates over)."""
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return int(value.shape[0])
    if isinstance(value, Bitmap):
        return value.length
    if isinstance(value, (PositionList, JoinPairs)):
        return len(value)
    if isinstance(value, PrefixSum):
        return int(value.sums.shape[0])
    num_groups = getattr(value, "num_groups", None)
    if num_groups is not None:
        return int(num_groups)
    num_keys = getattr(value, "num_keys", None)
    if num_keys is not None:
        return int(num_keys)
    return 0


@dataclass(eq=False)
class RecoveryLog:
    """Recovery actions taken on behalf of one query.

    Owned by the query's session (or context) rather than the execution
    model instance, because failover and OOM degradation *rebuild* the
    model — counters must survive the restart.  Compared and hashed by
    identity: the engine keeps, per log, how much of it is published.
    """

    #: Chunk-level kernel retries after transient device faults, per
    #: ``(device, primitive)`` that was retried.
    retried: Counter[tuple[str, str]] = field(default_factory=Counter)
    #: Cumulative backoff seconds those retries charged to the query;
    #: checked against the retry policy's per-query ``budget_seconds``.
    retry_backoff_seconds: float = 0.0
    #: The query burned through its wall-clock retry budget and was
    #: failed with :class:`~repro.errors.RetryBudgetExhaustedError`.
    retry_budget_exhausted: bool = False
    #: Times the query was re-placed onto surviving devices after a
    #: device loss / quarantine.
    failovers: int = 0
    #: OOM degradation steps taken (residency eviction, chunk halving,
    #: host spill) that led to a restart.
    oom_recoveries: int = 0
    #: Devices quarantined while this query was in flight (in order).
    quarantined_devices: list[str] = field(default_factory=list)

    @property
    def retries(self) -> int:
        return sum(self.retried.values())


@dataclass
class QueryContext:
    """Per-query identity threaded through one execution.

    Under the single-shot executor there is exactly one (default) query
    context per run and everything behaves as before.  Under the engine,
    each admitted :class:`~repro.engine.QuerySession` contributes its own
    context so that concurrent queries sharing devices stay isolated:

    Attributes:
        query_id: Unique id; tags clock events (per-query makespan
            accounting) and device allocations (per-query OOM cleanup).
        alias_prefix: Prepended to every buffer alias the execution
            models create, so two in-flight queries never collide in a
            shared device memory (empty for the compatibility facade).
        memory_budget: Per-device admission budget in bytes (None =
            uncapped); enforced by the device memory managers.
        epoch_start: Clock time the query's epoch opened at; per-query
            makespans are measured from here, not from zero.
        recovery: Tally of recovery actions (retries, failovers, OOM
            degradations) taken for the query; sessions share one log
            across model rebuilds.
        deadline: Absolute virtual-clock time the query must finish by
            (None = no deadline).  Enforced at chunk boundaries by the
            gate and at pipeline boundaries by the serving scheduler;
            a miss raises :class:`~repro.errors.DeadlineExceededError`
            and the query's device-side state is reclaimed.
        gate: Chunk-boundary hook (serving mode): an object with a
            ``checkpoint(model)`` method the chunk loops call between
            chunks.  The serving layer uses it to enforce deadlines
            mid-pipeline and to preempt batch pipelines when
            higher-priority work arrives; None everywhere else, and the
            chunk loops skip the call entirely.
    """

    query_id: str = "q0"
    alias_prefix: str = ""
    memory_budget: int | None = None
    epoch_start: float = 0.0
    recovery: RecoveryLog = field(default_factory=RecoveryLog)
    deadline: float | None = None
    gate: object | None = None


@dataclass
class ExecutionStats:
    """Aggregated timing/memory statistics of one query run."""

    makespan: float = 0.0
    time_by_category: dict[str, float] = field(default_factory=dict)
    peak_device_bytes: dict[str, int] = field(default_factory=dict)
    transfer_bytes: int = 0
    chunks_processed: int = 0
    kernel_invocations: int = 0
    #: (pipeline index, start, end) on the simulated timeline — which
    #: execution group dominated the query.
    pipeline_spans: list[tuple[int, float, float]] = field(
        default_factory=list)
    #: Id of the query the stats belong to (engine runs).
    query_id: str = ""
    #: Scan chunks served from the cross-query residency cache instead of
    #: the interconnect, and the logical H2D bytes that avoided.
    residency_hits: int = 0
    residency_hit_bytes: int = 0
    #: Host-side kernel launches charged to the query, and the number of
    #: fused nodes in the executed graph (0 without fusion);
    #: ``fused_probe_nodes`` counts the fused nodes whose step list runs
    #: through a HASH_PROBE — the probe-side data paths that fused.
    kernels_launched: int = 0
    fused_nodes: int = 0
    fused_probe_nodes: int = 0
    #: Pipelines served from the engine's cross-query subplan result
    #: cache instead of being executed (and the misses that populated it).
    subplan_cache_hits: int = 0
    subplan_cache_misses: int = 0
    #: Fault-recovery actions taken for the query: chunk retries after
    #: transient faults, device failovers, OOM degradation restarts, and
    #: the devices quarantined while the query was in flight.
    retries: int = 0
    failovers: int = 0
    oom_recoveries: int = 0
    quarantined_devices: list[str] = field(default_factory=list)
    #: Backoff seconds the retries charged, and whether the per-query
    #: retry budget ran out (the query then failed with
    #: :class:`~repro.errors.RetryBudgetExhaustedError`).
    retry_backoff_seconds: float = 0.0
    retry_budget_exhausted: bool = False
    #: Adaptive-execution actions (zero unless the run had
    #: ``adaptive=True``): chunk-size changes applied by the dynamic
    #: sizer, split-model chunks dispatched to a different device than
    #: the static proportional split would have chosen, and later
    #: pipelines re-placed after calibrator divergence.
    adaptive_resizes: int = 0
    adaptive_steals: int = 0
    adaptive_replacements: int = 0

    @property
    def compute_time(self) -> float:
        """Sum of pure kernel execution time (Figure 10's per-primitive
        processing time)."""
        return self.time_by_category.get("compute", 0.0)

    @property
    def abstraction_overhead(self) -> float:
        """Total minus pure kernel time — the paper's Figure 10 metric
        (launch, data mapping, allocation, routing, transfer handling)."""
        return max(0.0, self.makespan - self.compute_time)


@dataclass
class QueryResult:
    """Outputs and statistics of one executed primitive graph."""

    outputs: dict[str, object]
    stats: ExecutionStats
    #: Per-node ANALYZE profile (:class:`repro.observe.QueryProfile`);
    #: attached only when the run was started with ``analyze=True``.
    profile: object | None = None

    def output(self, node_id: str) -> object:
        try:
            return self.outputs[node_id]
        except KeyError:
            raise ExecutionError(
                f"no output {node_id!r}; available: {sorted(self.outputs)}"
            ) from None


class ExecutionContext:
    """Everything an execution model needs to run one query.

    A thin binding of a :class:`~repro.planner.ir.PhysicalPlan` (the
    *decisions*: graph, model, chunk size, data scale, fusion, adaptive
    arming, ANALYZE) to the *machinery* that executes it (catalog,
    devices, registry, clock, default device, query identity, retry
    policy, subplan cache).  A plan fact is read as ``ctx.plan.X``;
    the context keeps no copy of any.  Plans come from
    :func:`~repro.planner.compile.compile_plan` or the optimizer, both
    of which hand over validated plans; the context checks only what it
    adds — the devices.
    """

    def __init__(self, *, plan: "PhysicalPlan", catalog: Catalog,
                 devices: dict[str, Device], registry: TaskRegistry,
                 clock: VirtualClock, default_device: str,
                 query: QueryContext | None = None,
                 retry_policy: "RetryPolicy | None" = None,
                 subplan_cache: object | None = None) -> None:
        if default_device not in devices:
            raise ExecutionError(
                f"default device {default_device!r} not registered; "
                f"plugged: {sorted(devices)}"
            )
        #: The :class:`~repro.planner.ir.PhysicalPlan` this context
        #: executes; a re-placement mid-run swaps in a placed copy.
        self.plan = plan
        self.catalog = catalog
        self.devices = devices
        self.registry = registry
        self.clock = clock
        self.default_device = default_device
        self.query = query if query is not None else QueryContext()
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())
        #: Engine-scope :class:`~repro.engine.subplan_cache.SubplanCache`
        #: (None outside engine mode or when the cache is disabled);
        #: execution models serve and populate whole pipelines from it.
        self.subplan_cache = subplan_cache

    def device_for(self, node: PrimitiveNode) -> SimulatedDevice:
        """Resolve a node's device annotation (Figure 2's markings)."""
        name = node.device or self.default_device
        try:
            return self.devices[name]  # type: ignore[return-value]
        except KeyError:
            raise ExecutionError(
                f"node {node.node_id!r} annotated with unplugged device "
                f"{name!r}; plugged: {sorted(self.devices)}"
            ) from None

    def collect_stats(self, *, chunks: int = 0,
                      pipeline_spans: list[tuple[int, float, float]]
                      | None = None) -> ExecutionStats:
        """Statistics of this query's events.

        Under the single-shot executor every event on the (freshly reset)
        clock belongs to the query and the makespan is the full timeline.
        Under the engine, events are filtered by the query's owner tag and
        the makespan is measured from the query's epoch start, so
        co-running queries account only for their own work.
        """
        query = self.query
        ledger = fold(self.clock, query.query_id)
        fused = [n for n in self.plan.graph.nodes.values()
                 if n.primitive in FUSED_PRIMITIVES]
        return ExecutionStats(
            makespan=max(0.0, ledger.end - query.epoch_start),
            time_by_category=ledger.seconds,
            peak_device_bytes={
                name: device.memory.peak_device_used  # type: ignore[attr-defined]
                for name, device in self.devices.items()
                if hasattr(device, "memory")
            },
            transfer_bytes=ledger.nbytes.get("transfer", 0),
            chunks_processed=chunks,
            kernel_invocations=ledger.count.get("compute", 0),
            pipeline_spans=list(pipeline_spans or ()),
            query_id=query.query_id,
            residency_hits=ledger.count.get("cache", 0),
            residency_hit_bytes=ledger.nbytes.get("cache", 0),
            kernels_launched=sum(n for (category, _, _), n
                                 in ledger.completed.items()
                                 if category == "launch"),
            fused_nodes=len(fused),
            fused_probe_nodes=sum(
                1 for n in fused
                if any(step["primitive"] == "hash_probe"
                       for step in n.params.get("steps", ()))
            ),
            retries=query.recovery.retries,
            failovers=query.recovery.failovers,
            oom_recoveries=query.recovery.oom_recoveries,
            quarantined_devices=list(query.recovery.quarantined_devices),
            retry_backoff_seconds=query.recovery.retry_backoff_seconds,
            retry_budget_exhausted=query.recovery.retry_budget_exhausted,
        )
