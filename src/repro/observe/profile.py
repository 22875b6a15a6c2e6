"""ANALYZE: per-node wall-clock profile of an executed query.

Where EXPLAIN predicts, ANALYZE measures.  :func:`build_profile` walks
the virtual clock's event record after a run and attributes every
second of the query's makespan to exactly one bucket:

* a **plan node**, for events the runtime tagged with ``Event.node``
  (kernel launches, kernel executions, zero-copy interconnect reads,
  retry backoffs);
* an **overhead category** (``transfer``, ``alloc``, ``setup``, ...)
  for untagged runtime work; or
* **idle** time where nothing attributable ran on the query's streams.

Time is attributed by a sweep line over the event timeline: each time
segment's duration is split evenly across the events active in it, so
two overlapping streams never double-count wall-clock time and the
buckets sum *exactly* to the query's makespan — the invariant the test
suite asserts.  Raw busy time (the un-divided sum of a node's event
durations) is reported alongside, since the difference between the two
is precisely the copy/compute overlap the pipelined models buy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.pipelines import split_pipelines
from repro.hardware.trace import fold
from repro.planner.cost import estimate_graph_seconds

__all__ = ["NodeProfile", "QueryProfile", "build_profile"]


@dataclass
class NodeProfile:
    """Measured cost of one plan node across the whole run.

    Attributes:
        attributed_seconds: The node's share of the query's wall-clock
            makespan (overlap-corrected; sums to the makespan together
            with the overhead and idle buckets).
        busy_seconds: Plain sum of the node's event durations (counts
            overlapped time fully; ``busy > attributed`` means the
            node's work was hidden under other streams).
        launches: Kernel launches of the completed run (aborted
            restart attempts excluded, like ``stats.kernels_launched``).
        chunks: Kernel executions of the completed run — the number of
            chunks the node processed under a chunked model.
        retries: Transient-fault backoffs charged to the node (all
            attempts, aborted ones included).
        estimated_seconds: The EXPLAIN-side cost-model estimate, for an
            actual-vs-estimated comparison per node.
    """

    node_id: str
    primitive: str
    device: str
    pipeline_index: int
    attributed_seconds: float = 0.0
    busy_seconds: float = 0.0
    launches: int = 0
    chunks: int = 0
    retries: int = 0
    estimated_seconds: float = 0.0


@dataclass
class QueryProfile:
    """The ANALYZE result attached to a :class:`QueryResult`.

    ``sum(node.attributed_seconds) + sum(overhead.values()) +
    idle_seconds == makespan`` (up to float rounding).
    """

    query_id: str
    model: str
    makespan: float
    nodes: list[NodeProfile] = field(default_factory=list)
    #: Category -> attributed seconds of untagged runtime work.
    overhead: dict[str, float] = field(default_factory=dict)
    idle_seconds: float = 0.0
    chunks_processed: int = 0
    transfer_bytes: int = 0
    residency_hits: int = 0
    retries: int = 0
    failovers: int = 0
    oom_recoveries: int = 0
    estimated_total: float = 0.0
    pipeline_spans: list[tuple[int, float, float]] = field(
        default_factory=list)

    @property
    def attributed_total(self) -> float:
        """Sum of all buckets; equals the makespan by construction."""
        return (sum(n.attributed_seconds for n in self.nodes)
                + sum(self.overhead.values()) + self.idle_seconds)

    def _pct(self, seconds: float) -> str:
        if self.makespan <= 0:
            return "0.0%"
        return f"{100.0 * seconds / self.makespan:.1f}%"

    def render(self) -> str:
        """Render the profile as a deterministic annotated tree."""
        lines = [
            f"ANALYZE {self.query_id}  model={self.model}  "
            f"makespan={self.makespan:.6g}s",
        ]
        last_pipeline = None
        for node in self.nodes:
            if node.pipeline_index != last_pipeline:
                lines.append(f"  pipeline {node.pipeline_index}")
                last_pipeline = node.pipeline_index
            lines.append(
                f"    {node.node_id}: {node.primitive} @{node.device}  "
                f"time={node.attributed_seconds:.6g}s "
                f"({self._pct(node.attributed_seconds)})  "
                f"busy={node.busy_seconds:.6g}s  "
                f"est={node.estimated_seconds:.6g}s  "
                f"launches={node.launches}  chunks={node.chunks}  "
                f"retries={node.retries}")
        for category in sorted(self.overhead):
            seconds = self.overhead[category]
            lines.append(
                f"  overhead {category}: {seconds:.6g}s "
                f"({self._pct(seconds)})")
        lines.append(f"  idle: {self.idle_seconds:.6g}s "
                     f"({self._pct(self.idle_seconds)})")
        lines.append(
            f"  chunks={self.chunks_processed}  "
            f"transfer_bytes={self.transfer_bytes}  "
            f"residency_hits={self.residency_hits}  "
            f"retries={self.retries}  failovers={self.failovers}  "
            f"oom_recoveries={self.oom_recoveries}")
        lines.append(f"  estimated total: {self.estimated_total:.6g}s")
        return "\n".join(lines)


def _attribute(events, epoch_start: float, makespan: float,
               node_ids) -> tuple[dict[str, float], dict[str, float], float]:
    """Sweep-line attribution of wall-clock time to buckets.

    Returns ``(node_seconds, overhead_by_category, idle_seconds)``.
    Each segment between consecutive event boundaries is divided evenly
    among the events active in it; tagged events credit their node,
    untagged ones their category.  Unknown node tags (never produced by
    a healthy run) fall back to the category bucket.
    """
    spans = []  # (start, end, bucket_key)
    for e in events:
        start = max(e.start, epoch_start)
        if e.end <= start:
            continue  # pre-epoch or zero-duration (recovery markers)
        key = e.node if e.node and e.node in node_ids \
            else f"overhead:{e.category}"
        spans.append((start, e.end, key))

    node_seconds: dict[str, float] = {}
    overhead: dict[str, float] = {}
    covered = 0.0
    points = sorted({p for span in spans for p in span[:2]})
    spans.sort(key=lambda span: span[0])
    active: list[tuple[float, float, str]] = []
    idx = 0
    for i in range(len(points) - 1):
        seg_start, seg_end = points[i], points[i + 1]
        while idx < len(spans) and spans[idx][0] <= seg_start:
            active.append(spans[idx])
            idx += 1
        active = [span for span in active if span[1] > seg_start]
        if not active:
            continue
        covered += seg_end - seg_start
        share = (seg_end - seg_start) / len(active)
        for _, _, key in active:
            if key.startswith("overhead:"):
                category = key[len("overhead:"):]
                overhead[category] = overhead.get(category, 0.0) + share
            else:
                node_seconds[key] = node_seconds.get(key, 0.0) + share
    idle = max(0.0, makespan - covered)
    return node_seconds, overhead, idle


def build_profile(ctx, stats, *, model_name: str) -> QueryProfile:
    """Build the ANALYZE profile for the run recorded in *ctx*.

    *ctx* is the query's execution context (duck-typed: ``clock``,
    ``query``, ``plan``, ``catalog``, ``devices``, ``default_device``);
    *stats* its :class:`ExecutionStats`.
    """
    graph = ctx.plan.graph
    query = ctx.query
    events = ctx.clock.events_of(query.query_id)
    node_ids = set(graph.nodes)
    node_seconds, overhead, idle = _attribute(
        events, query.epoch_start, stats.makespan, node_ids)

    estimates = estimate_graph_seconds(
        graph, ctx.catalog, ctx.devices, ctx.default_device,
        data_scale=ctx.plan.data_scale)

    # Launch and chunk counts describe only the completed run (the
    # attributed *time* keeps all attempts — their cost was real).
    completed: Counter = Counter()
    for (category, node, _), n in fold(ctx.clock,
                                       query.query_id).completed.items():
        completed[category, node] += n
    busy: dict[str, float] = {}
    retries: dict[str, int] = {}
    for e in events:
        if not e.node or e.node not in node_ids:
            continue
        start = max(e.start, query.epoch_start)
        if e.end > start:
            busy[e.node] = busy.get(e.node, 0.0) + (e.end - start)
        if e.category == "backoff":
            retries[e.node] = retries.get(e.node, 0) + 1

    pipeline_of = {
        nid: pipeline.index
        for pipeline in split_pipelines(graph)
        for nid in pipeline.node_ids
    }
    nodes = []
    for pipeline in split_pipelines(graph):
        for nid in pipeline.node_ids:
            node = graph.nodes[nid]
            nodes.append(NodeProfile(
                node_id=nid,
                primitive=node.primitive,
                device=node.device or ctx.default_device,
                pipeline_index=pipeline_of[nid],
                attributed_seconds=node_seconds.get(nid, 0.0),
                busy_seconds=busy.get(nid, 0.0),
                launches=completed["launch", nid],
                chunks=completed["compute", nid],
                retries=retries.get(nid, 0),
                estimated_seconds=estimates.get(nid, 0.0),
            ))
    return QueryProfile(
        query_id=query.query_id,
        model=model_name,
        makespan=stats.makespan,
        nodes=nodes,
        overhead=overhead,
        idle_seconds=idle,
        chunks_processed=stats.chunks_processed,
        transfer_bytes=stats.transfer_bytes,
        residency_hits=stats.residency_hits,
        retries=stats.retries,
        failovers=stats.failovers,
        oom_recoveries=stats.oom_recoveries,
        estimated_total=sum(estimates.values()),
        pipeline_spans=list(stats.pipeline_spans),
    )
