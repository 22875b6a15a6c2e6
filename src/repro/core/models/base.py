"""Shared machinery for execution models (Section IV).

All four paper models (operator-at-a-time, chunked, pipelined, 4-phase)
share the per-node execution path: resolve the kernel variant for the
node's device, route inputs, prepare the output buffer, execute, persist.
They differ only in *how scan data reaches the device* — fully resident,
chunk-by-chunk serialized, or chunk-by-chunk overlapped with dual
(optionally pinned) buffers.  Those knobs are the class attributes
``uses_pinned_staging`` and ``overlapped``; subclasses mostly just set
them.

The chunked models share one chunk loop over one or more *lanes*
(:class:`Lane`); a model that spreads a pipeline over several devices
overrides which lanes it gets and which lane takes a chunk, never the
loop.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.combine import ChunkPartial, combine_chunk_results
from repro.core.context import ExecutionContext, QueryResult, cardinality
from repro.core.fingerprint import subplan_fingerprint
from repro.core.graph import DataEdge, PrimitiveGraph, PrimitiveNode
from repro.core.hub import DataTransferHub
from repro.core.pipelines import (
    Pipeline,
    chunk_count,
    full_input_refusal,
    persisted_node_ids,
    split_pipelines,
)
from repro.devices.base import SimulatedDevice, Task
from repro.errors import (
    ExecutionError,
    RetryBudgetExhaustedError,
    RetryExhaustedError,
    TransientDeviceError,
)
from repro.hardware import calibration as cal
from repro.hardware.clock import Event
from repro.hardware.costmodel import TransferDirection
from repro.hardware.specs import Sdk
from repro.primitives.values import value_nbytes
from repro.task.containers import KernelContainer

__all__ = ["ExecutionModel", "Lane", "LaneStep", "shallow_hash_pipeline"]


@dataclass(slots=True)
class LaneStep:
    """One node's launch on one lane: what no chunk changes
    (:meth:`ExecutionModel.bind_step`).

    The kernel's argument count travels inside *container*; its cost key
    is the primitive definition's.
    """

    node: PrimitiveNode
    container: KernelContainer
    in_edges: list[DataEdge]   # ordered by input slot
    out_edges: list[DataEdge]
    chunk_offset_param: str | None
    alias: str                 # of the result buffer
    #: Per staging buffer, the input aliases by slot.
    inputs: list[list[str]]
    #: Bytes per row the scan inputs pull over the interconnect
    #: (zero-copy).
    row_bytes: int
    #: Slots the hub routes on every launch: those whose producer is
    #: outside the pipeline.  A scan the lane staged and a result its
    #: own device produced this chunk are on that device, in that
    #: device's format, by construction.
    foreign: Sequence[int]


@dataclass(slots=True)
class Lane:
    """One device's share of a chunked pipeline.

    What a chunk needs and no chunk changes is resolved when the lane is
    opened (:meth:`ExecutionModel.open_lane`); the chunk loop appends to
    ``computes`` and sets ``staged``, nothing else.
    """

    device: SimulatedDevice
    factor: float    # multiplier on its chunk transfers
    n_buffers: int   # staging buffers per scan column
    #: Scan ref -> the edges it feeds, its bytes per row, its staging
    #: aliases (one per buffer).
    scans: dict[str, tuple[list[DataEdge], int, list[str]]]
    #: The pipeline's nodes, in order, bound to the lane's device.
    steps: list[LaneStep]
    #: In-edges whose external input already has a copy on the device.
    placed_edges: list[DataEdge]
    #: Chunk indices a static split gives this lane (a lone lane takes
    #: every chunk and leaves it empty).
    turns: frozenset[int] = frozenset()
    #: Last compute event of each chunk the lane ran, in its own order.
    computes: list[Event] = field(default_factory=list)
    staged: bool = False


def shallow_hash_pipeline(graph: PrimitiveGraph, pipeline: Pipeline) -> bool:
    """Whether scan data reaches a hash breaker within a few hops.

    This is the structural condition under which the paper observes the
    OpenCL pinned-memory penalty (Q4: "the query starts with building a
    hash table"); see ``calibration.OPENCL_SHALLOW_PINNED_FACTOR``.
    """
    member = set(pipeline.node_ids)
    # Seed: nodes directly consuming scan edges.
    frontier = {
        e.target for e in graph.edges
        if e.is_scan and e.target in member
    }
    depth = 0
    seen: set[str] = set()
    while frontier and depth <= cal.SHALLOW_HOP_THRESHOLD:
        next_frontier: set[str] = set()
        for nid in frontier:
            if nid in seen:
                continue
            seen.add(nid)
            node = graph.nodes[nid]
            if node.is_breaker:
                if node.primitive in cal.SHALLOW_HASH_BREAKERS:
                    return True
                continue  # non-hash breakers end the walk
            for edge in graph.out_edges(nid):
                if edge.target in member:
                    next_frontier.add(edge.target)
        frontier = next_frontier
        depth += 1
    return False


class ExecutionModel(abc.ABC):
    """Base class: runs a primitive graph pipeline-by-pipeline.

    Models execute a :class:`~repro.planner.ir.PhysicalPlan` — the
    context carries one, and every planning decision (graph, chunk
    size, adaptive arming, ANALYZE) is read off it rather than from
    loose flags.
    """

    name: str = "abstract"
    #: Chunk staging buffers are host-pinned (4-phase models).
    uses_pinned_staging: bool = False
    #: Transfers of chunk c+1 overlap compute of chunk c (dual buffers).
    overlapped: bool = False
    #: Override the number of staging buffers per scan column (default:
    #: 2 for overlapped/pinned models, 1 otherwise).  The dual-buffer
    #: ablation benchmark varies this; more buffers permit deeper
    #: prefetch, one buffer forces transfer to wait on the previous
    #: chunk's compute even in "overlapped" mode (Figure 8).
    staging_buffers: int | None = None
    #: Unified-memory mode: chunks are published in host-resident pinned
    #: buffers without a DMA, and every kernel consuming scan data pays
    #: the interconnect read itself (Listing 2's CL_MEM_ALLOC_HOST_PTR).
    zero_copy: bool = False
    #: Chunkable pipelines fan out across *all* plugged devices (the
    #: split model); the plan pricer asks the model class who takes
    #: part and which chunk goes where (``participants`` / ``shares`` /
    #: ``assign_chunks``; slowest share bounds the makespan) and the
    #: optimizer skips per-pipeline placement flips (the model owns
    #: placement at runtime).
    splits_chunks: bool = False
    #: Search-space axes the cost-based optimizer varies for this model.
    #: Subclasses shrink it when an axis cannot change the execution
    #: (operator-at-a-time ignores the chunk size; the split model
    #: overrides placement).
    tunable: frozenset[str] = frozenset({"placement", "chunk", "fusion"})

    @classmethod
    def supports(cls, graph: PrimitiveGraph, catalog, *,
                 physical_chunk_rows: int) -> bool:
        """Whether this model can execute *graph* at the given chunk
        size — the optimizer's feasibility filter.

        The default is the chunk loop's own constraint
        (:func:`~repro.core.pipelines.full_input_refusal`): a full-input
        primitive (sorting) inside a chunkable pipeline must see all its
        rows in one chunk.
        """
        return not any(
            full_input_refusal(
                pipeline,
                max((catalog.column(ref).values.shape[0]
                     for ref in pipeline.scan_refs), default=0),
                physical_chunk_rows)
            for pipeline in split_pipelines(graph))

    def __init__(self, ctx: ExecutionContext) -> None:
        self.ctx = ctx
        #: The :class:`~repro.planner.ir.PhysicalPlan` being executed
        #: (shared with the context; the decision surface of the run).
        self.plan = ctx.plan
        self.hub = DataTransferHub(ctx)
        #: node id -> alias of its (current) result buffer
        self.node_alias: dict[str, str] = {}
        #: node id -> device name holding that result
        self.node_device: dict[str, str] = {}
        self.chunks_processed = 0
        #: Query-unique alias prefix (empty for single-query executions);
        #: keeps concurrent queries' buffers apart in shared devices.
        self.qp = ctx.query.alias_prefix
        self._spans: list[tuple[int, float, float]] = []
        #: Engine-scope cross-query subplan result cache (None outside
        #: engine mode or when disabled); pipelines whose persisted
        #: results are all cached are served instead of executed.
        self.subplan_cache = ctx.subplan_cache
        self.subplan_hits = 0
        self.subplan_misses = 0
        #: Adaptive-execution companion (None for static runs).
        self.adaptive = None
        if self.plan.adaptive:
            # Imported lazily: the planner imports core modules, so a
            # module-level import here would be circular.
            from repro.planner.adaptive import AdaptiveController
            self.adaptive = AdaptiveController(ctx)

    # -- template -----------------------------------------------------------

    def run(self) -> QueryResult:
        """Execute the context's graph and collect outputs + statistics."""
        for _ in self.iter_pipelines():
            pass
        return self.finalize()

    def iter_pipelines(self):
        """Generator stepping through the query one pipeline at a time.

        The engine's device scheduler drives several queries' generators
        round-robin to interleave them on shared devices; ``run()`` just
        drains it for the single-query path.  Yields each completed
        :class:`Pipeline`.
        """
        graph = self.plan.graph
        graph.validate()
        graph.reset_runtime_state()
        for device in self.ctx.devices.values():
            device.initialize()
        for pipeline in split_pipelines(graph):
            started = self.ctx.clock.now()
            if not self._serve_cached_pipeline(pipeline):
                self.run_pipeline(pipeline)
                self._cache_persisted(pipeline)
            self._spans.append((pipeline.index, started,
                                self.ctx.clock.now()))
            if self.adaptive is not None and len(self.ctx.devices) > 1:
                # Re-place pipelines that have not started yet when the
                # calibrator overlay diverged beyond the threshold.
                self.adaptive.maybe_replace(pipeline.index)
            yield pipeline

    def finalize(self) -> QueryResult:
        """Retrieve the outputs and close out the query's statistics."""
        outputs = self._retrieve_outputs()
        self.ctx.clock.barrier()
        result = QueryResult(
            outputs=outputs,
            stats=self.ctx.collect_stats(chunks=self.chunks_processed,
                                         pipeline_spans=self._spans),
        )
        result.stats.subplan_cache_hits = self.subplan_hits
        result.stats.subplan_cache_misses = self.subplan_misses
        if self.adaptive is not None:
            result.stats.adaptive_resizes = self.adaptive.resizes
            result.stats.adaptive_steals = self.adaptive.steals
            result.stats.adaptive_replacements = self.adaptive.replacements
        if self.plan.analyze:
            # Imported lazily: observe sits above the core layer.
            from repro.observe.profile import build_profile
            result.profile = build_profile(self.ctx, result.stats,
                                           model_name=self.name)
        return result

    # -- shared node execution --------------------------------------------------

    def pipeline_device(self, pipeline: Pipeline) -> SimulatedDevice:
        """The device executing *pipeline* (its nodes must agree)."""
        graph = self.plan.graph
        devices = {
            self.ctx.device_for(graph.nodes[nid]).name
            for nid in pipeline.node_ids
        }
        if len(devices) != 1:
            raise ExecutionError(
                f"pipeline {pipeline.index} spans devices {sorted(devices)}; "
                "annotate one device per pipeline (cross-device edges are "
                "routed at pipeline boundaries)"
            )
        return self.ctx.devices[devices.pop()]  # type: ignore[return-value]

    def scan_length(self, pipeline: Pipeline) -> int:
        """Row count streamed by *pipeline* (scan columns must agree)."""
        lengths = {
            self.ctx.catalog.column(ref).values.shape[0]
            for ref in pipeline.scan_refs
        }
        if len(lengths) > 1:
            raise ExecutionError(
                f"pipeline {pipeline.index} scans columns of different "
                f"lengths {sorted(lengths)}; scans in one pipeline must "
                "come from one table"
            )
        return lengths.pop() if lengths else 0

    def bind_step(self, nid: str, device: SimulatedDevice, alias: str,
                  inputs: list[list[str]], *, row_bytes: int = 0,
                  member: frozenset[str] | None = None) -> LaneStep:
        """Resolve what launching node *nid* on *device* needs.

        Args:
            member: The pipeline's nodes, for a lane whose scans and
                results stay on *device*; without it every input is
                routed (a step that runs once).
        """
        graph = self.plan.graph
        node = graph.nodes[nid]
        in_edges = graph.in_edges(nid)
        return LaneStep(
            node,
            self.ctx.registry.resolve(
                node.primitive, node.variant or device.variant_key),
            in_edges, graph.out_edges(nid), node.defn.chunk_offset_param,
            alias, inputs, row_bytes,
            range(len(in_edges)) if member is None else
            [slot for slot, edge in enumerate(in_edges)
             if not edge.is_scan and edge.source not in member])

    def execute_node(self, step: LaneStep, device: SimulatedDevice,
                     buffer: int = 0, *, chunk_base: int = 0,
                     rows: int = 0) -> Event:
        """Route the foreign inputs, prepare the output buffer, run the
        kernel.

        Args:
            buffer: Which staging buffer holds the chunk.
            rows: Rows of the chunk; a zero-copy kernel pulls
                ``step.row_bytes`` of each over the interconnect itself,
                charged on the compute stream ahead of the kernel.
        """
        node = step.node
        nid = node.node_id
        wait: list[Event] = []
        if step.row_bytes:
            uma_read_bytes = step.row_bytes * rows
            rate = (device.cost.bandwidth("h2d", pinned=True)
                    * cal.UMA_READ_EFFICIENCY)
            wait.append(device.clock.schedule(
                device.compute_stream,
                uma_read_bytes * device.data_scale / rate,
                label=f"{device.name}:uma-read:{nid}",
                category="transfer",
                nbytes=uma_read_bytes * device.data_scale,
                node=nid,
            ))
        routed = step.inputs[buffer]
        if step.foreign:
            routed = list(routed)
            for slot in step.foreign:
                routed[slot], events = self.hub.router(
                    step.in_edges[slot], routed[slot], device)
                wait.extend(events)
        first = device.memory.get(routed[0]) if routed else None
        n = cardinality(device._resolve_value(first)) if first else 0
        if step.alias not in device.memory:
            self.hub.prepare_output_buffer(node, device, step.alias, n)
        params = node.params
        if step.chunk_offset_param is not None:
            params = {**params, step.chunk_offset_param: chunk_base}
        task = Task(step.container, routed, step.alias, params, n,
                    node.cost_params, nid)
        event = self._execute_with_retry(node, device, task, wait)
        for edge in step.in_edges:
            if edge.fetched_until > edge.processed_until:
                edge.processed_until = edge.fetched_until
        for edge in step.out_edges:
            edge.device_id = device.name
        self.node_alias[nid] = step.alias
        self.node_device[nid] = device.name
        return event

    def _execute_with_retry(self, node: PrimitiveNode,
                            device: SimulatedDevice, task: Task,
                            wait: list[Event]) -> Event:
        """Run *task*, retrying transient device faults.

        Kernels run functionally before any time is charged, so a faulted
        execution has no side effects and a retry is idempotent.  Each
        retry charges an exponential backoff to the device's compute
        stream on the virtual clock and the next attempt depends on it,
        so recovery time shows up in the query's makespan like on real
        hardware.  Exhausting the policy raises
        :class:`~repro.errors.RetryExhaustedError`, which the engine's
        scheduler treats as a device-health signal (circuit breaker).
        """
        policy = self.ctx.retry_policy
        deps = wait
        for attempt in range(1, policy.max_attempts + 1):
            try:
                return device.execute(task, deps=deps)
            except TransientDeviceError as fault:
                if attempt >= policy.max_attempts:
                    raise RetryExhaustedError(
                        f"kernel {node.primitive!r} still failing after "
                        f"{policy.max_attempts} attempts: {fault.args[0]}"
                    ).annotate(device=device.name,
                               query_id=self.ctx.query.query_id,
                               node_id=node.node_id) from fault
                recovery = self.ctx.query.recovery
                pause = policy.backoff_seconds(attempt)
                if policy.budget_seconds is not None and \
                        recovery.retry_backoff_seconds + pause \
                        > policy.budget_seconds:
                    # The per-query wall-clock retry budget is spent:
                    # stop limping along behind a flapping device.  The
                    # scheduler treats this as terminal (no failover /
                    # degradation), so the stream sheds the query
                    # instead of stalling indefinitely.
                    recovery.retry_budget_exhausted = True
                    raise RetryBudgetExhaustedError(
                        f"retry budget of {policy.budget_seconds:g}s "
                        f"spent ({recovery.retry_backoff_seconds:g}s "
                        f"burned over {recovery.retries} retries); "
                        f"kernel {node.primitive!r} still failing"
                    ).annotate(device=device.name,
                               query_id=self.ctx.query.query_id,
                               node_id=node.node_id) from fault
                recovery.retried[device.name, node.primitive] += 1
                recovery.retry_backoff_seconds += pause
                backoff = self.ctx.clock.schedule(
                    device.compute_stream,
                    pause,
                    label=f"{device.name}:backoff:{node.node_id}",
                    category="backoff",
                    node=node.node_id,
                )
                deps = list(wait) + [backoff]
        raise AssertionError("unreachable")  # pragma: no cover

    # -- pinned penalty ---------------------------------------------------------

    def transfer_factor(self, device: SimulatedDevice,
                        pipeline: Pipeline) -> float:
        """Per-pipeline multiplier on pinned chunk transfers (the OpenCL
        shallow-hash penalty; 1.0 everywhere else)."""
        if not self.uses_pinned_staging:
            return 1.0
        if device.sdk is not Sdk.OPENCL:
            return 1.0
        if shallow_hash_pipeline(self.plan.graph, pipeline):
            return cal.OPENCL_SHALLOW_PINNED_FACTOR
        return 1.0

    # -- lanes ---------------------------------------------------------------------

    def _alias(self, pipeline: Pipeline, kind: str, name: str,
               tail: str = "") -> str:
        """Name of a pipeline-scoped buffer: ``n`` a node's result, ``s``
        a scan column's staging space.  Event labels carry these names,
        so every trace does."""
        return f"{self.qp}p{pipeline.index}:{kind}:{name}{tail}"

    def open_lane(self, pipeline: Pipeline, device: SimulatedDevice, *,
                  tags: Sequence[str], factor: float, suffix: str = "",
                  placed: dict[str, str] | None = None) -> Lane:
        """Resolve what *device* needs to run chunks of *pipeline*.

        Args:
            tags: Alias tail of each staging buffer of a scan column
                (their number is the lane's buffer count).
            factor: Multiplier on the lane's chunk transfers.
            suffix: Tail of the lane's node-result aliases.
            placed: External input -> alias of the copy *device* already
                holds.  Without it the inputs keep their producers'
                aliases and ``execute_node`` routes them.
        """
        graph = self.plan.graph
        scans = {
            ref: ([], int(self.ctx.catalog.column(ref).dtype.itemsize),
                  [self._alias(pipeline, "s", ref, tag) for tag in tags])
            for ref in pipeline.scan_refs
        }
        member = frozenset(pipeline.node_ids)
        placed_edges = []
        steps = []
        for nid in pipeline.node_ids:
            # Per staging buffer, the node's input aliases by slot.
            inputs: list[list[str]] = [[] for _ in tags]
            row_bytes = 0
            for edge in graph.in_edges(nid):
                if edge.is_scan:
                    edges, width, staging = scans[edge.source.ref]
                    edges.append(edge)
                    if self.zero_copy:
                        row_bytes += width
                    for aliases, alias in zip(inputs, staging):
                        aliases.append(alias)
                    continue
                if edge.source in member:
                    alias = self._alias(pipeline, "n", edge.source, suffix)
                elif placed is None:
                    alias = self.node_alias[edge.source]
                else:
                    alias = placed[edge.source]
                    placed_edges.append(edge)
                for aliases in inputs:
                    aliases.append(alias)
            steps.append(self.bind_step(
                nid, device, self._alias(pipeline, "n", nid, suffix),
                inputs, row_bytes=row_bytes, member=member))
        return Lane(device, factor, len(tags), scans, steps, placed_edges)

    def _stage(self, lane: Lane, rows: int) -> None:
        """Stage phase: give every staging buffer of *lane* room for
        *rows* rows — 4-phase uses dual pinned spaces (Figure 8).  On a
        staged lane this regrows them, charged like any other
        allocation."""
        device = lane.device
        allocate = (device.add_pinned_memory if self.uses_pinned_staging
                    else device.prepare_memory)
        for _, width, aliases in lane.scans.values():
            for alias in aliases:
                if lane.staged:
                    device.delete_memory(alias)
                allocate(alias, rows * width)
        lane.staged = True

    # -- the two decisions a model makes about a chunked pipeline ---------------

    def open_lanes(self, pipeline: Pipeline, chunks: int) -> list[Lane]:
        """Which devices share *pipeline* (*chunks* chunks at the planned
        chunk size), one lane each; the first homes the results.

        Here: the pipeline's annotated device alone, staged up front,
        with dual spaces when transfers overlap or go through pinned
        memory.
        """
        device = self.pipeline_device(pipeline)
        n_buffers = self.staging_buffers or (
            2 if (self.overlapped or self.uses_pinned_staging) else 1
        )
        lane = self.open_lane(
            pipeline, device, tags=[f":b{b}" for b in range(n_buffers)],
            factor=self.transfer_factor(device, pipeline))
        self._stage(lane, self.plan.physical_chunk_rows)
        return [lane]

    def lane_for_chunk(self, lanes: list[Lane], pipeline: Pipeline,
                       ci: int, rows: int) -> Lane:
        """Which of *lanes* runs chunk *ci* (of *rows* rows)."""
        return lanes[0]

    # -- chunked pipeline driver ---------------------------------------------------

    def run_pipeline(self, pipeline: Pipeline) -> None:
        """Execute one pipeline.  Models differ in the class attributes
        and the two decisions the chunk loop reads, not in the loop;
        only a model that moves data differently (operator-at-a-time)
        overrides this."""
        self.run_chunked_pipeline(pipeline)

    def run_chunked_pipeline(self, pipeline: Pipeline) -> None:
        """The chunk loop of Algorithms 1-3, over one lane or several.

        Serialized vs. overlapped behaviour and pinned vs. pageable
        staging are controlled by ``overlapped`` / ``uses_pinned_staging``;
        who runs which chunk by :meth:`open_lanes` / :meth:`lane_for_chunk`.
        """
        graph = self.plan.graph
        total = self.scan_length(pipeline)
        chunk = self.plan.physical_chunk_rows
        refusal = full_input_refusal(pipeline, total, chunk)
        if refusal is not None:
            raise ExecutionError(refusal)
        lanes = self.open_lanes(pipeline, chunk_count(pipeline, total, chunk))
        if not pipeline.is_chunkable:
            self._run_unchunked(pipeline, lanes[0].device)
            return

        persisted = persisted_node_ids(graph, pipeline)
        # In node order, not the set's: homing schedules one allocation
        # per entry, and a hash-seeded order would reorder those events.
        partials: dict[str, list[ChunkPartial]] = {
            nid: [] for nid in pipeline.node_ids if nid in persisted}

        # Dynamic chunk sizing (adaptive runs, one lane): start from the
        # planner's chunk, then let the sizer grow/shrink between chunks.
        # Results stay byte-identical — the exactness gate below disables
        # sizing when any persisted partial would not combine exactly
        # under a different chunk grouping.  Several lanes balance by who
        # takes the next chunk instead, which needs the chunks fixed.
        sizer = None
        if self.adaptive is not None and len(lanes) == 1 and total > chunk:
            sizer = self.adaptive.make_sizer(pipeline, total,
                                             lanes[0].n_buffers)
        overhead = streaming = 0.0
        ci = 0
        start = 0
        while True:
            stop = min(start + chunk, total)
            lane = self.lane_for_chunk(lanes, pipeline, ci, stop - start)
            device = lane.device
            cursor = self.ctx.clock.event_count
            if not lane.staged:
                # A lane not staged when it was opened pays for its
                # buffers with its first chunk, or never.
                self._stage(lane, chunk)
            # The lane's k-th chunk lands in its staging buffer k mod n.
            k = len(lane.computes)
            buffer = k % lane.n_buffers
            # Transfer dependencies: serialized models wait for the
            # lane's previous compute (Algorithm 1); overlapped models
            # only wait for the buffer's previous occupant (dual spaces).
            back = lane.n_buffers if self.overlapped else 1
            deps = [lane.computes[k - back]] if k >= back else []

            for edges, _, aliases in lane.scans.values():
                self.hub.load_data(
                    edges[0], device, aliases[buffer],
                    start=start, stop=stop, deps=deps,
                    transfer_factor=lane.factor,
                    publish_only=self.zero_copy,
                )
                for edge in edges:
                    edge.device_id = device.name
                    edge.fetched_until = stop
            for edge in lane.placed_edges:
                edge.device_id = device.name

            last = None
            for step in lane.steps:
                last = self.execute_node(step, device, buffer,
                                         chunk_base=start, rows=stop - start)
                parts = partials.get(step.node.node_id)
                if parts is not None:
                    value = device.memory.get(step.alias).value
                    parts.append(ChunkPartial(value, start))
            lane.computes.append(last)  # type: ignore[arg-type]
            self.chunks_processed += 1

            if self.adaptive is not None:
                overhead, streaming = self.adaptive.observe_chunk(
                    device, pipeline, stop - start,
                    self.ctx.clock.events_since(cursor))
            if stop >= total:
                break
            gate = self.ctx.query.gate
            if gate is not None:
                # Serving mode: between chunks the query yields to the
                # gate, which enforces its deadline and lets
                # higher-priority arrivals preempt the pipeline (their
                # events are scheduled before this query's next chunk).
                gate.checkpoint(self)
            if sizer is not None and ci == 0:
                from repro.planner.adaptive import exact_partial
                if not all(
                    exact_partial(parts[0].value,
                                  str(graph.nodes[nid].params.get(
                                      "fn", "sum")))
                    for nid, parts in partials.items()
                ):
                    sizer = None
            # Sizing decisions start after a one-chunk warmup: chunk 0
            # carries one-time costs (output-buffer allocation, compile)
            # that would overstate the recurring per-chunk overhead.
            if sizer is not None and ci >= 1:
                realloc = sum(
                    lane.n_buffers * device.cost.alloc_seconds(
                        2 * chunk * width, pinned=self.uses_pinned_staging)
                    for _, width, _ in lane.scans.values()
                )
                proposed = sizer.propose(stop, overhead, streaming,
                                         realloc_seconds=realloc)
                if proposed != chunk:
                    if proposed > chunk:
                        self._stage(lane, proposed)
                    self.adaptive.record_resize(device, chunk, proposed)
                    chunk = proposed
            ci += 1
            start = stop

        # Threads re-synchronize at the pipeline breaker (Algorithm 2),
        # idle lanes included.
        self.ctx.clock.barrier([
            stream for lane in lanes
            for stream in (lane.device.transfer_stream,
                           lane.device.compute_stream)
        ])

        # Persist combined results in device memory — the first lane's,
        # under the pipeline's plain names, for downstream pipelines;
        # transient intermediates are released (chunked models keep only
        # breaker results alive, Section IV-B).
        home = lanes[0].device
        for nid, parts in partials.items():
            combined = combine_chunk_results(
                parts, agg_fn=str(graph.nodes[nid].params.get("fn", "sum")),
            )
            alias = self._alias(pipeline, "n", nid)
            if self.node_alias[nid] != alias:
                # The chunks ran under suffixed names: the result gets a
                # buffer of its own (a lone lane's last chunk already
                # sits in it and is overwritten in place).
                if alias in home.memory:
                    home.delete_memory(alias)
                home.prepare_memory(alias, value_nbytes(combined))
            buffer = home.memory.get(alias)
            buffer.value = combined
            actual = value_nbytes(combined) * home.data_scale
            if actual > buffer.nbytes:
                home.resize_memory(alias, actual)
            self.node_alias[nid] = alias
            self.node_device[nid] = home.name
            for edge in graph.out_edges(nid):
                edge.device_id = home.name
        kept = {self.node_alias[nid] for nid in partials}
        for lane in lanes:
            device = lane.device
            for step in lane.steps:
                if step.alias not in kept and step.alias in device.memory:
                    device.delete_memory(step.alias)
            # Delete phase: release the staging buffers.
            if lane.staged:
                for _, _, aliases in lane.scans.values():
                    for alias in aliases:
                        device.delete_memory(alias)

    def _run_unchunked(self, pipeline: Pipeline,
                       device: SimulatedDevice) -> None:
        """Run a pipeline once over fully loaded inputs (used for
        breaker-only pipelines and by operator-at-a-time)."""
        graph = self.plan.graph
        scan_alias_of: dict[str, str] = {}
        for nid in pipeline.node_ids:
            for edge in graph.in_edges(nid):
                if edge.is_scan and edge.source.ref not in scan_alias_of:
                    alias = f"{self.qp}s:{edge.source.ref}"
                    if alias not in device.memory:
                        self.hub.load_data(edge, device, alias)
                    else:
                        edge.device_id = device.name
                    scan_alias_of[edge.source.ref] = alias
        for nid in pipeline.node_ids:
            aliases = [
                scan_alias_of[edge.source.ref] if edge.is_scan
                else self.node_alias[edge.source]
                for edge in graph.in_edges(nid)
            ]
            self.execute_node(
                self.bind_step(nid, device, self._alias(pipeline, "n", nid),
                               [aliases]),
                device)

    # -- cross-query subplan cache ------------------------------------------------

    def _healthy_device_names(self) -> set[str]:
        return {
            name for name, device in self.ctx.devices.items()
            if not (getattr(device, "lost", False)
                    or getattr(device, "quarantined", False))
        }

    def _serve_cached_pipeline(self, pipeline: Pipeline) -> bool:
        """Serve a whole pipeline from the engine's subplan cache.

        When every node result that outlives the pipeline is cached
        (same subtree fingerprint, catalog version and ``data_scale``,
        produced on a still-healthy device), the persisted values are
        installed into device memory for the charge of a
        device-internal copy — or a host push when the producing device
        differs — and none of the pipeline's kernels launch.
        """
        cache = self.subplan_cache
        if cache is None:
            return False
        graph = self.plan.graph
        if not pipeline.persisted_ids:
            return False
        healthy = self._healthy_device_names()
        entries = []
        for nid in pipeline.persisted_ids:
            entry = cache.lookup(
                subplan_fingerprint(graph, nid), self.ctx.catalog,
                self.plan.data_scale, self.ctx.query.query_id, healthy)
            if entry is None:
                return False
            entries.append((nid, entry))
        for nid, entry in entries:
            node = graph.nodes[nid]
            device = self.ctx.device_for(node)
            alias = self._alias(pipeline, "n", nid)
            if alias not in device.memory:
                device.prepare_memory(alias, max(1, entry.nbytes))
            buffer = device.memory.get(alias)
            logical = max(1, entry.nbytes) * device.data_scale
            if logical > buffer.nbytes:
                device.resize_memory(alias, logical)
            direction = (TransferDirection.D2D
                         if entry.device == device.name
                         else TransferDirection.H2D)
            event = device.clock.schedule(
                device.transfer_stream,
                device.cost.transfer_seconds(logical,
                                             direction=direction),
                label=f"{device.name}:subplan:{nid}",
                category="subplan",
                nbytes=logical,
                node=nid,
            )
            buffer.value = entry.value
            buffer.ready = event
            self.node_alias[nid] = alias
            self.node_device[nid] = device.name
            for edge in graph.out_edges(nid):
                edge.device_id = device.name
        self.subplan_hits += 1
        return True

    def _cache_persisted(self, pipeline: Pipeline) -> None:
        """Snapshot the just-executed pipeline's persisted results into
        the subplan cache (the populating side of a miss)."""
        cache = self.subplan_cache
        if cache is None:
            return
        graph = self.plan.graph
        healthy = self._healthy_device_names()
        inserted = False
        for nid in pipeline.persisted_ids:
            alias = self.node_alias.get(nid)
            device_name = self.node_device.get(nid)
            if alias is None or device_name is None:
                continue
            device = self.ctx.devices.get(device_name)
            if device is None or alias not in device.memory:
                continue
            value = device._resolve_value(device.memory.get(alias))
            if value is None:
                continue
            entry = cache.insert(
                subplan_fingerprint(graph, nid), nid, value,
                nbytes=value_nbytes(value), device=device_name,
                catalog=self.ctx.catalog, data_scale=self.plan.data_scale,
                query_id=self.ctx.query.query_id, healthy=healthy)
            inserted = inserted or entry is not None
        if inserted:
            self.subplan_misses += 1

    def _retrieve_outputs(self) -> dict[str, object]:
        outputs: dict[str, object] = {}
        for nid in self.plan.graph.outputs:
            device = self.ctx.devices[self.node_device[nid]]
            value, _ = device.retrieve_data(  # type: ignore[attr-defined]
                self.node_alias[nid],
                via_pinned=self.uses_pinned_staging,
            )
            outputs[nid] = value
        return outputs
