"""Pipeline splitting (Section III-B2).

ADAMANT is aware of pipeline breakers: a breaker's result is materialized
in device memory and ends its pipeline.  A query with several breakers is
split into pipelines, each an *execution group* whose primitives run
together, and the groups execute in dependency order — Q3's two hash builds
must finish before the probe pipeline starts.

Pipelines are the maximal connected subgraphs left after cutting every
edge that leaves a pipeline breaker.

The chunk rule lives here too: the quantum a chunk size is a multiple
of, the logical-to-physical conversion, the halving step, how many
chunks a pipeline takes and when a chunked model refuses one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.graph import PrimitiveGraph
from repro.errors import GraphValidationError

__all__ = ["CHUNK_QUANTUM", "Pipeline", "chunk_count", "chunk_quantum",
           "descale_chunk", "full_input_refusal", "halve_chunk",
           "persisted_node_ids", "split_pipelines"]

#: Chunks are cut at multiples of this many *physical* rows: a boundary
#: inside a 32-bit bitmap word would break the word-wise bitmap
#: concatenation in :mod:`repro.core.combine`.
CHUNK_QUANTUM = 32


@dataclass
class Pipeline:
    """One execution group.

    Attributes:
        index: Position in the dependency order.
        node_ids: Member nodes in topological order.
        scan_refs: Base-table columns streamed into this pipeline.
        external_inputs: Node ids of breaker results from earlier
            pipelines this one consumes (device-resident, not chunked).
        breaker_ids: Member nodes that are pipeline breakers.
        full_input_ids: Member nodes whose primitive is not decomposable
            over chunks (``PrimitiveDefinition.requires_full_input``).
        persisted_ids: Member nodes whose results outlive the pipeline
            (:func:`persisted_node_ids`), sorted.
    """

    index: int
    node_ids: list[str] = field(default_factory=list)
    scan_refs: list[str] = field(default_factory=list)
    external_inputs: list[str] = field(default_factory=list)
    breaker_ids: list[str] = field(default_factory=list)
    full_input_ids: list[str] = field(default_factory=list)
    persisted_ids: list[str] = field(default_factory=list)

    @property
    def is_chunkable(self) -> bool:
        """Whether the pipeline streams base data (chunked models only
        chunk scans; breaker-only pipelines run once)."""
        return bool(self.scan_refs)

    @property
    def streams(self) -> bool:
        """Whether a chunked model may cut the scan into several chunks:
        there is one, and no member needs its full input."""
        return bool(self.scan_refs) and not self.full_input_ids


def chunk_quantum(data_scale: int) -> int:
    """The smallest logical chunk size at *data_scale*: one
    :data:`CHUNK_QUANTUM` of physical rows.  A valid ``chunk_size`` is a
    positive multiple of it."""
    return CHUNK_QUANTUM * data_scale


def descale_chunk(chunk_size: int, data_scale: int) -> int:
    """Physical rows per chunk of *chunk_size* logical rows (at least
    one)."""
    return max(1, chunk_size // data_scale)


def halve_chunk(chunk_size: int, data_scale: int) -> int | None:
    """Half of *chunk_size*, floored to :func:`chunk_quantum`; None when it
    cannot shrink further.  The step of the OOM ladder and of serving's
    queue-pressure degradation."""
    quantum = chunk_quantum(data_scale)
    halved = (chunk_size // 2) // quantum * quantum
    if halved < quantum or halved >= chunk_size:
        return None
    return halved


def chunk_count(pipeline: Pipeline, rows: int, physical_chunk: int) -> int:
    """The chunk rule: how many chunks a chunked model takes to run
    *pipeline* over *rows* physical scan rows at *physical_chunk* rows
    per chunk.

    A pipeline that :attr:`~Pipeline.streams` takes
    ``ceil(rows / physical_chunk)`` chunks (one when the scan is empty);
    a breaker-only pipeline runs once; a pipeline with a full-input
    member runs as one chunk or not at all
    (:func:`full_input_refusal`).  Every reader brings its own row count
    — the chunk loop the agreed scan length, the feasibility filter the
    longest scan column, the estimators the leading one.
    """
    if not pipeline.streams:
        return 1
    return max(1, math.ceil(rows / physical_chunk))


def full_input_refusal(pipeline: Pipeline, rows: int,
                       physical_chunk: int) -> str | None:
    """Why a chunked model refuses *pipeline* at this chunk size (the
    text of the chunk loop's error), or None when it runs: full-input
    members must see all *rows* scan rows in one chunk."""
    if not (pipeline.scan_refs and pipeline.full_input_ids
            and rows > physical_chunk):
        return None
    return (f"primitives {pipeline.full_input_ids} require their full "
            f"input (sorting is not chunk-decomposable); run the plan "
            f"under 'oaat' or with a chunk_size covering all {rows} rows")


def persisted_node_ids(graph: PrimitiveGraph,
                       pipeline: Pipeline) -> set[str]:
    """Nodes whose results outlive *pipeline*: breakers, query outputs,
    and producers feeding later pipelines.  This is both what chunked
    execution keeps alive in device memory (Section IV-B) and the unit
    the engine's subplan result cache stores and serves.  Worked out by
    :func:`split_pipelines`; ``pipeline.persisted_ids`` is the same in
    sorted order."""
    return set(pipeline.persisted_ids)


def split_pipelines(graph: PrimitiveGraph) -> list[Pipeline]:
    """Partition *graph* into pipelines in dependency order.

    The split is cached on the graph until it is mutated, and shared by
    the graphs bound from it (:meth:`PrimitiveGraph.bind`); callers
    treat the returned :class:`Pipeline` objects as read-only.
    """
    graph._index()  # drops the caches after an out-of-band edges.append
    if graph._pipeline_cache is not None:
        return list(graph._pipeline_cache)
    order = graph.topological_order()

    # Union-find over nodes; edges out of breakers are cut.
    parent = {nid: nid for nid in graph.nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for edge in graph.edges:
        if edge.is_scan:
            continue
        if graph.nodes[edge.source].is_breaker:
            continue  # cut: breaker output enters a later pipeline
        union(edge.source, edge.target)

    groups: dict[str, list[str]] = {}
    for nid in order:  # topological order inside each group
        groups.setdefault(find(nid), []).append(nid)

    # Order groups by dependencies (breaker -> consumer edges).
    group_of = {nid: root for root, members in groups.items()
                for nid in members}
    deps: dict[str, set[str]] = {root: set() for root in groups}
    for edge in graph.edges:
        if edge.is_scan:
            continue
        source_group = group_of[edge.source]
        target_group = group_of[edge.target]
        if source_group != target_group:
            deps[target_group].add(source_group)

    ordered_roots: list[str] = []
    remaining = dict(deps)
    while remaining:
        ready = sorted(
            root for root, ds in remaining.items()
            if ds <= set(ordered_roots)
        )
        if not ready:
            raise GraphValidationError(
                f"cyclic pipeline dependencies in graph {graph.name!r}"
            )
        ordered_roots.extend(ready)
        for root in ready:
            del remaining[root]

    pipelines: list[Pipeline] = []
    for index, root in enumerate(ordered_roots):
        members = groups[root]
        member_set = set(members)
        pipeline = Pipeline(index=index, node_ids=members)
        for nid in members:
            node = graph.nodes[nid]
            if (node.is_breaker or nid in graph.outputs
                    or any(edge.target not in member_set
                           for edge in graph.out_edges(nid))):
                pipeline.persisted_ids.append(nid)
            if node.is_breaker:
                pipeline.breaker_ids.append(nid)
            if node.defn.requires_full_input:
                pipeline.full_input_ids.append(nid)
            for edge in graph.in_edges(nid):
                if edge.is_scan:
                    if edge.source.ref not in pipeline.scan_refs:
                        pipeline.scan_refs.append(edge.source.ref)
                elif edge.source not in member_set:
                    if edge.source not in pipeline.external_inputs:
                        pipeline.external_inputs.append(edge.source)
        pipeline.persisted_ids.sort()
        pipelines.append(pipeline)
    graph._pipeline_cache = list(pipelines)
    return pipelines
