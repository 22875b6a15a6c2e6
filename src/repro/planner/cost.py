"""Cost estimation for plans — the planner's pricing layer.

Everything that turns "a plan" into "estimated seconds" lives here:

* :func:`pipeline_shape` — a pipeline described before it runs (scan
  rows, selectivity decay, group-key statistics, scan bytes): the one
  walk every estimate below, the adaptive predictor and the shard
  planner read;
* :func:`estimate_node_seconds` / :func:`estimate_graph_seconds` — the
  per-node estimates EXPLAIN and ANALYZE render;
* :func:`estimate_pipeline_seconds` — the per-pipeline estimate the
  greedy placement pass compares devices with;
* :func:`estimate_plan_seconds` — the *model-aware* pricer the
  cost-based optimizer ranks whole :class:`~repro.planner.ir.PhysicalPlan`
  candidates with: it knows that overlapped models hide transfer behind
  compute, that zero-copy kernels pay interconnect reads per consumer,
  that chunk count multiplies launch and DMA-setup overhead, and that
  the split model apportions chunks by its rate proxy and is bounded
  by its slowest device share;
* :class:`PricingTable` — the code behind it: prices any number of
  candidates over the same graphs and devices and resolves what they
  share once (the optimizer keeps one per search);
* :class:`CostOverlayStore` — per-device-spec
  :class:`~repro.hardware.costmodel.CostOverlay` corrections persisted
  across queries and (as JSON) across processes.

All estimators deliberately reuse the same
:class:`~repro.hardware.costmodel.CostModel` the simulated drivers
charge, and the same walk, so EXPLAIN, the placement pass, the
optimizer, and the simulation never disagree about what is cheap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

import numpy as np

from repro.core.fingerprint import subplan_fingerprint
from repro.core.graph import PrimitiveGraph, PrimitiveNode
from repro.core.models import MODELS, shallow_hash_pipeline
from repro.core.pipelines import (
    Pipeline,
    chunk_count,
    descale_chunk,
    split_pipelines,
)
from repro.devices.base import SimulatedDevice
from repro.hardware import calibration as cal
from repro.hardware.costmodel import CostModel, CostOverlay, TransferDirection
from repro.hardware.specs import Sdk
from repro.storage import Catalog

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.planner.ir import PhysicalPlan

__all__ = [
    "DEFAULT_SELECTIVITY",
    "MERGE_STEP_FACTOR",
    "NOMINAL_ROWS",
    "CostOverlayStore",
    "PipelineCost",
    "PlanCost",
    "PricingTable",
    "broadcast_seconds",
    "estimate_graph_seconds",
    "estimate_node_seconds",
    "estimate_pipeline_seconds",
    "estimate_plan_seconds",
    "gather_seconds",
    "merge_seconds",
    "network_seconds",
    "pipeline_placements",
    "pipeline_shape",
    "routed_input_seconds",
    "shuffle_seconds",
]

#: Row-domain fraction the estimators assume survives a *selective*
#: primitive (``PrimitiveDefinition.selective``) — a deliberate, uniform
#: over-approximation, and the very number the fused sweep decays by.
DEFAULT_SELECTIVITY = cal.FUSED_SELECTIVE_DECAY

#: Nominal cardinality for breaker-only pipelines (no scan to size by).
NOMINAL_ROWS = 1024

#: Nominal byte width of a routed external input (hash table row).
_ROUTED_ROW_BYTES = 16

#: Host-side merge of exchanged partials touches every byte a handful of
#: times (concatenate, sort-unique, scatter-add); priced as this many
#: memory-bandwidth passes over the merged volume.
MERGE_STEP_FACTOR = 4.0


# ---------------------------------------------------------------------------
# Network-hop pricing (scale-out exchanges; see repro.cluster)
# ---------------------------------------------------------------------------


def network_seconds(nbytes: float, tier, *, hops: int = 1) -> float:
    """Seconds for *nbytes* to cross *tier* (an
    :class:`~repro.hardware.specs.InterconnectSpec`) in *hops* messages.

    The atom every EXCHANGE estimate composes from: per-hop setup
    latency plus volume over the tier's sustained bandwidth.  Links are
    full-duplex, so concurrent sends and receives on different node
    pairs do not queue against each other — callers model contention by
    pricing the *busiest* link.
    """
    if nbytes <= 0 and hops <= 0:
        return 0.0
    return max(0, hops) * tier.latency_s + max(0.0, nbytes) / tier.bandwidth


def merge_seconds(nbytes: float, mem_bandwidth: float) -> float:
    """Host-side cost of merging *nbytes* of exchanged partials
    (:data:`MERGE_STEP_FACTOR` memory passes on the merging node)."""
    if nbytes <= 0:
        return 0.0
    return float(nbytes) * MERGE_STEP_FACTOR / mem_bandwidth


def broadcast_seconds(table_bytes: float, tier, num_nodes: int) -> float:
    """BROADCAST exchange: replicate a key-range-partitioned table so
    every node holds it in full.

    Each node owns ``1/N`` of the table and must receive the remaining
    ``(N-1)/N`` from its peers; receives proceed in parallel on
    full-duplex links, so the wall time is one node's receive leg.
    """
    if num_nodes <= 1:
        return 0.0
    recv = float(table_bytes) * (num_nodes - 1) / num_nodes
    return network_seconds(recv, tier, hops=num_nodes - 1)


def gather_seconds(partial_bytes: "Iterable[float]", tier,
                   mem_bandwidth: float) -> float:
    """GATHER exchange: every node ships its partials to the
    coordinator (the first entry of *partial_bytes*), which merges them
    serially.

    The coordinator's NIC is the bottleneck: it receives the sum of
    every other node's partial volume through one link, then pays the
    host-side merge over the full volume.
    """
    sizes = [float(b) for b in partial_bytes]
    if len(sizes) <= 1:
        return 0.0
    recv = sum(sizes[1:])
    return network_seconds(recv, tier, hops=len(sizes) - 1) \
        + merge_seconds(sum(sizes), mem_bandwidth)


def shuffle_seconds(partial_bytes: "Iterable[float]", tier,
                    mem_bandwidth: float, *,
                    merged_bytes: float | None = None) -> float:
    """SHUFFLE exchange: partials are hash/range-repartitioned by group
    key across all nodes, each node merges its key range in parallel,
    and the coordinator gathers the merged ranges.

    Per-node receive volume drops to roughly ``total/N`` and the merge
    parallelizes — the classic win over GATHER once partials are large
    — at the price of a second hop for the final collection.
    """
    sizes = [float(b) for b in partial_bytes]
    n = len(sizes)
    if n <= 1:
        return 0.0
    total = sum(sizes)
    # Repartition leg: node j receives (total - its own) / N through its
    # NIC; the busiest link is the one receiving the most foreign bytes.
    recv = max((total - b) / n for b in sizes)
    repartition = network_seconds(recv, tier, hops=n - 1)
    parallel_merge = merge_seconds(total / n, mem_bandwidth)
    merged = total if merged_bytes is None else float(merged_bytes)
    collect = network_seconds(merged * (n - 1) / n, tier, hops=n - 1)
    return repartition + parallel_merge + collect


def _column_ndv(catalog: Catalog, ref: str) -> int:
    """Distinct-count statistic of a catalog column, cached on the
    column object (columns are immutable for a catalog's lifetime)."""
    column = catalog.column(ref)
    ndv = getattr(column, "_planner_ndv", None)
    if ndv is None:
        ndv = int(np.unique(column.values).size)
        column._planner_ndv = ndv
    return ndv


def _fused_group_key_slot(node: PrimitiveNode) -> int | None:
    """External input slot the fused aggregation sink's group key traces
    back to, or None when the key is synthesized inside the group (e.g.
    gathered from a hash-table payload — no column statistic applies).
    """
    steps = node.params.get("steps") or ()
    if not steps or steps[-1]["primitive"] != "hash_agg":
        return None
    by_id = {step["id"]: step for step in steps}
    ref = steps[-1]["args"][0] if steps[-1]["args"] else None
    for _ in range(len(steps) + 1):
        if ref is None:
            return None
        kind, key = ref
        if kind == "input":
            return int(key)
        step = by_id.get(key)
        if step is None or step["primitive"] == "gather_payload" \
                or not step["args"]:
            return None
        ref = step["args"][0]
    return None


def _group_key_ndv(graph: PrimitiveGraph, node: PrimitiveNode,
                   catalog: Catalog) -> int | None:
    """Distinct count of the scan column a HASH_AGG node groups by.

    Returns None when the node is no aggregation, pins its own group
    count, or does not read a scan column directly (no statistic to
    use).  For a fused aggregation sink the key column is traced through
    the fused step list back to the external scan it gathers from.
    """
    if node.defn.cost_key != "hash_agg" or "groups" in node.cost_params:
        return None
    slot = None  # unfused: the first scan input is the key
    if node.cost_params.get("fused_steps"):
        slot = _fused_group_key_slot(node)
        if slot is None:
            return None
    for edge in graph.in_edges(node.node_id):
        if edge.is_scan and slot in (None, edge.input_index):
            return _column_ndv(catalog, edge.source.ref)
    return None


def _node_decay(node: PrimitiveNode) -> float:
    """Row-domain decay a node applies to everything downstream.

    Standalone selective primitives decay by
    :data:`DEFAULT_SELECTIVITY`; a fused node compounds one decay per
    selective step it absorbed (the fused kernel's own internal sweep
    decay is priced inside ``fused_kernel_seconds`` — this is the decay
    its *successors* see).
    """
    if node.defn.selective:
        return DEFAULT_SELECTIVITY
    fused_steps = node.cost_params.get("fused_steps")
    if fused_steps:
        selective = sum(1 for step in fused_steps
                        if len(step) > 2 and step[2])
        return DEFAULT_SELECTIVITY ** selective
    return 1.0


class _NodeShape(NamedTuple):
    """What pricing one node needs, on any device at any chunk count."""

    node_id: str
    cost_key: str
    #: ``node.cost_params`` as the graph carries them
    #: (:meth:`~repro.hardware.costmodel.CostModel.node_seconds` reads
    #: them).
    cost_params: dict
    #: Row domain at this node (the scan cardinality, decayed), clamped
    #: to the at-least-one row a kernel is charged for.
    rows: int
    # What only the walk knows (:func:`pipeline_shape`); a node priced on
    # its own (:func:`estimate_node_seconds`) carries the defaults.
    #: Row domain the node leaves its successors: its own decay applied,
    #: not clamped.
    rows_after: float = 0.0
    #: Group-key distinct count when the contention term divides by the
    #: chunk count (:func:`_group_key_ndv`); None for every other node.
    group_ndv: int | None = None
    #: Scan bytes the node reads (what a zero-copy kernel pulls over
    #: the interconnect itself).
    scan_bytes: int = 0

    @classmethod
    def of(cls, node: PrimitiveNode, rows: float, **walk) -> "_NodeShape":
        return cls(
            node_id=node.node_id, cost_key=node.defn.cost_key,
            cost_params=node.cost_params, rows=max(1, int(rows)), **walk)

    def groups(self, data_scale: int, chunks: int = 1) -> int | None:
        """Estimated group count a HASH_AGG kernel will see in one of
        *chunks* chunks.

        The simulated driver charges hash_agg's atomic-contention curve
        with the *true* per-chunk group count (it runs the kernel
        functionally first).  The planner cannot, so it stands in the
        group-key column's distinct count (:func:`_group_key_ndv`)
        divided across chunks: TPC-H keys are clustered, so each chunk
        sees roughly its slice of the key domain.  Returns None when
        there is no statistic to use.
        """
        if self.group_ndv is None:
            return None
        return max(1, round(self.group_ndv / max(1, chunks))) * data_scale

    def priced(self, cost: CostModel, groups: int | None
               ) -> tuple[float, float]:
        """Launch seconds and calibrated kernel seconds (cost key's
        rate, or the fused sweep); a group count the node's own
        ``cost_params`` pin beats *groups*.  An unfused launch is
        assumed to map two arguments."""
        kernel, fused_num_args = cost.node_seconds(
            self.cost_key, self.rows, self.cost_params, groups=groups)
        return cost.launch_seconds(int(fused_num_args or 2)), kernel

    def seconds(self, cost: CostModel, groups: int | None) -> float:
        """One launch plus the kernel."""
        launch, kernel = self.priced(cost, groups)
        return launch + kernel


@dataclass(eq=False)
class _PipelineShape:
    """The device- and chunk-independent facts of one pipeline of one
    graph (:func:`pipeline_shape`) and, in a :class:`PricingTable`, the
    graph around it and everything the table has priced from them."""

    pipeline: Pipeline
    data_scale: int
    #: Physical rows of the leading scan (0 for breaker-only pipelines).
    physical_rows: int
    #: Physical rows the walk starts from: the leading scan's, or
    #: :data:`NOMINAL_ROWS` for a breaker-only pipeline.
    start_rows: int
    scan_bytes: int
    nodes: tuple[_NodeShape, ...]
    # -- filled in by PricingTable._shape --
    #: Device the graph's annotations put the pipeline on.
    annotated: str = ""
    shallow_hash: bool = False
    #: Pipeline index producing each external input, in their order.
    producers: tuple[int | None, ...] = ()
    #: ``(device, zero_copy)`` -> :meth:`PricingTable._walk`.
    walks: dict = field(default_factory=dict)
    #: ``(device, chunks, pinned, zero_copy, pinned_penalty)`` ->
    #: :meth:`PricingTable._components`.
    components: dict = field(default_factory=dict)
    #: Live subplan-cache entries of every persisted node, or () when
    #: one is missing (None until resolved).
    cached: tuple | None = None
    #: Device label -> what serving the pipeline from those entries costs.
    served: dict = field(default_factory=dict)

    def pageable_transfer_seconds(self, cost: CostModel) -> float:
        """The whole scan volume to the device at pageable bandwidth."""
        if not self.scan_bytes:
            return 0.0
        return cost.transfer_seconds(
            self.scan_bytes, direction=TransferDirection.H2D, pinned=False)

    def pageable_seconds(self, cost: CostModel) -> float:
        """:func:`estimate_pipeline_seconds` on *cost*'s device: the
        transfer, then launch, then kernel of node after node, added one
        by one.  (:func:`estimate_graph_seconds` adds ``launch +
        kernel`` per node — another association of the same floats;
        published figures pin both.)"""
        seconds = self.pageable_transfer_seconds(cost)
        for node in self.nodes:
            launch, kernel = node.priced(cost, node.groups(self.data_scale))
            seconds += launch
            seconds += kernel
        return seconds


def pipeline_shape(graph: PrimitiveGraph, pipeline: Pipeline,
                   catalog: Catalog, *, data_scale: int = 1
                   ) -> _PipelineShape:
    """Describe *pipeline* before it runs — the one walk every estimate
    reads.

    The row domain starts at the leading scan column's cardinality (a
    nominal :data:`NOMINAL_ROWS` for breaker-only pipelines) times
    *data_scale* and decays after every selective node
    (:func:`_node_decay`); each node records the clamped row count it is
    priced at, the row domain it leaves behind, its group key's distinct
    count and the scan bytes it reads.  Nothing here depends on a
    device, a chunk size or the graph's placement annotations.
    """
    physical_rows = (catalog.column(pipeline.scan_refs[0]).values.shape[0]
                     if pipeline.scan_refs else 0)
    start_rows = physical_rows if pipeline.scan_refs else NOMINAL_ROWS
    depth_rows = float(start_rows * data_scale)
    nodes = []
    for nid in pipeline.node_ids:
        node = graph.nodes[nid]
        rows, depth_rows = depth_rows, depth_rows * _node_decay(node)
        nodes.append(_NodeShape.of(
            node, rows, rows_after=depth_rows,
            group_ndv=_group_key_ndv(graph, node, catalog),
            scan_bytes=sum(
                catalog.column(e.source.ref).nbytes
                for e in graph.in_edges(nid) if e.is_scan
            ) * data_scale))
    return _PipelineShape(
        pipeline=pipeline, data_scale=data_scale,
        physical_rows=physical_rows, start_rows=start_rows,
        scan_bytes=sum(catalog.column(ref).nbytes
                       for ref in pipeline.scan_refs) * data_scale,
        nodes=tuple(nodes))


def pipeline_placements(graph: PrimitiveGraph, pipeline: Pipeline,
                        default_device: str) -> list[str]:
    """Devices *pipeline*'s nodes are annotated with, sorted; pipeline-
    level estimates price it on the first."""
    return sorted({graph.nodes[nid].device or default_device
                   for nid in pipeline.node_ids})


def estimate_node_seconds(node: PrimitiveNode, device: SimulatedDevice,
                          n_elements: int) -> float:
    """Cost-model estimate for one node at cardinality *n_elements*.

    Regular nodes are charged one launch plus the calibrated kernel
    time for their cost key; fused MAP/FILTER nodes are charged one
    launch plus
    :meth:`~repro.hardware.costmodel.CostModel.fused_kernel_seconds`
    over their recorded step list.  An aggregation sees only the group
    count its own ``cost_params`` pin; the group-key statistic is the
    walk's (:func:`estimate_graph_seconds`).
    """
    return _NodeShape.of(node, n_elements).seconds(device.cost, None)


def estimate_graph_seconds(graph: PrimitiveGraph, catalog: Catalog,
                           devices: dict[str, SimulatedDevice],
                           default_device: str, *, data_scale: int = 1,
                           ) -> dict[str, float]:
    """Per-node cost estimates for every node of *graph*.

    Walks each pipeline in order, decaying the row domain after
    selective primitives, and returns ``{node_id: estimated_seconds}``
    (kernel + launch only, each node on its own annotated device;
    transfers are pipeline-level and reported separately by EXPLAIN).
    """
    estimates: dict[str, float] = {}
    for pipeline in split_pipelines(graph):
        shape = pipeline_shape(graph, pipeline, catalog,
                               data_scale=data_scale)
        for node in shape.nodes:
            device = devices[graph.nodes[node.node_id].device
                             or default_device]
            estimates[node.node_id] = node.seconds(
                device.cost, node.groups(data_scale))
    return estimates


def estimate_pipeline_seconds(graph: PrimitiveGraph, pipeline: Pipeline,
                              catalog: Catalog, device: SimulatedDevice,
                              *, data_scale: int = 1) -> float:
    """Estimated time to run *pipeline* on *device*.

    Scan transfer at pageable bandwidth + per-primitive kernel time at
    the (decayed) scan cardinality + launch overheads.  This is the
    device-comparison estimate the greedy placement pass minimizes.
    """
    return pipeline_shape(graph, pipeline, catalog, data_scale=data_scale
                          ).pageable_seconds(device.cost)


# -- whole-plan pricing ------------------------------------------------------


@dataclass(frozen=True)
class PipelineCost:
    """One pipeline's share of a plan estimate."""

    index: int
    device: str
    chunks: int
    transfer_seconds: float
    kernel_seconds: float
    launch_seconds: float
    total: float


@dataclass(frozen=True)
class PlanCost:
    """Model-aware estimate for one :class:`PhysicalPlan` candidate."""

    total: float
    pipelines: tuple[PipelineCost, ...]

    @property
    def transfer_seconds(self) -> float:
        return sum(p.transfer_seconds for p in self.pipelines)

    @property
    def kernel_seconds(self) -> float:
        return sum(p.kernel_seconds for p in self.pipelines)

    @property
    def launch_seconds(self) -> float:
        return sum(p.launch_seconds for p in self.pipelines)


def routed_input_seconds(device: SimulatedDevice, data_scale: int) -> float:
    """Seconds for an external input built on another device (a hash
    table from an earlier pipeline) to reach *device*: a nominal table,
    pageable.  The one routing charge, added by the placement pass and
    the plan pricer alike."""
    nbytes = NOMINAL_ROWS * data_scale * _ROUTED_ROW_BYTES
    return device.cost.transfer_seconds(
        nbytes, direction=TransferDirection.H2D, pinned=False)


class _ModelTraits(NamedTuple):
    """What pricing reads off an execution-model class."""

    pinned: bool
    overlapped: bool
    zero_copy: bool
    chunked: bool
    model_cls: type
    #: A splitting model's participants, fastest first, and their
    #: shares; empty unless it has more than one device to split over.
    participants: tuple[str, ...]
    shares: tuple[float, ...]


class PricingTable:
    """Prices plan candidates for one catalog, device set and overlay,
    and remembers every intermediate it resolved on the way.

    Candidates of one search share almost everything: the same few
    graphs (the caller's and its fused variants), the same pipelines,
    the same devices, a handful of chunk counts.  The table resolves
    each once — per graph the pipeline shapes (:class:`_PipelineShape`),
    per (pipeline, device) the node walk, per (pipeline, device, chunk
    count, staging) the ``(transfer, kernel, launch)`` triple, per
    (model, chunk count) the split model's chunk assignment, per
    pipeline the subplan-cache entries that would serve it — so what is
    left per candidate is a few lookups and the sums.  The memoised
    values are the very floats a cold computation produces, added in
    the same order: a table changes what pricing costs, never a digit
    of its result.

    Nothing is ever invalidated, so a table must not outlive the things
    it read: graphs (annotations included), catalog, devices, overlay
    and subplan cache have to stay as they are while it is in use.
    :meth:`PlanOptimizer.search` builds one per call;
    :func:`estimate_plan_seconds` builds one per plan.
    """

    def __init__(self, catalog: Catalog,
                 devices: dict[str, SimulatedDevice], *,
                 default_device: str, data_scale: int = 1,
                 overlay: Mapping[str, float] | None = None,
                 subplan_cache: object | None = None) -> None:
        self.catalog = catalog
        self.devices = devices
        self.default_device = default_device
        self.data_scale = data_scale
        self.overlay = overlay or {}
        self.subplan_cache = subplan_cache
        self._names = sorted(devices)
        #: graph (by identity) -> its pipelines as the table sees them.
        self._graphs: dict[PrimitiveGraph, list[_PipelineShape]] = {}
        self._traits: dict[str, _ModelTraits] = {}
        #: (model, chunks) -> :meth:`split_counts`.
        self._split_counts: dict[tuple[str, int], dict[str, int]] = {}

    # -- resolved once per model / graph / device --------------------------

    def _model(self, model: str) -> _ModelTraits:
        traits = self._traits.get(model)
        if traits is None:
            cls = MODELS[model]
            participants: list[SimulatedDevice] = []
            if cls.splits_chunks and len(self.devices) > 1:
                participants = cls.participants(self.devices.values())
            traits = self._traits[model] = _ModelTraits(
                pinned=cls.uses_pinned_staging, overlapped=cls.overlapped,
                zero_copy=cls.zero_copy, chunked="chunk" in cls.tunable,
                model_cls=cls,
                participants=tuple(d.name for d in participants),
                shares=tuple(cls.shares(participants)) if participants
                else ())
        return traits

    def _shapes(self, graph: PrimitiveGraph) -> list[_PipelineShape]:
        shapes = self._graphs.get(graph)
        if shapes is None:
            pipelines = split_pipelines(graph)
            producer = {nid: pipeline.index for pipeline in pipelines
                        for nid in pipeline.node_ids}
            shapes = self._graphs[graph] = [
                self._shape(graph, pipeline, producer)
                for pipeline in pipelines]
        return shapes

    def _shape(self, graph: PrimitiveGraph, pipeline: Pipeline,
               producer: dict[str, int]) -> _PipelineShape:
        shape = pipeline_shape(graph, pipeline, self.catalog,
                               data_scale=self.data_scale)
        shape.annotated = pipeline_placements(graph, pipeline,
                                              self.default_device)[0]
        shape.shallow_hash = shallow_hash_pipeline(graph, pipeline)
        shape.producers = tuple(producer.get(ext)
                                for ext in pipeline.external_inputs)
        return shape

    def _walk(self, shape: _PipelineShape, device: SimulatedDevice,
              zero_copy: bool) -> tuple[tuple, tuple, float]:
        """Per-node launch seconds, per-node kernel seconds (None where
        they depend on the chunk count) and the pipeline's zero-copy
        interconnect reads, on *device*."""
        cost = device.cost
        priced = [node.priced(cost, None) for node in shape.nodes]
        launches = tuple(launch for launch, _ in priced)
        kernels = tuple(None if node.group_ndv is not None else kernel
                        for node, (_, kernel) in zip(shape.nodes, priced))
        uma = 0.0
        if zero_copy:
            # Every kernel consuming scan data pays the interconnect
            # read itself, on the compute stream (Listing 2).
            read_rate = (cost.bandwidth(TransferDirection.H2D, pinned=True)
                         * cal.UMA_READ_EFFICIENCY)
            for node in shape.nodes:
                uma += node.scan_bytes / read_rate
        return launches, kernels, uma

    def _components(self, shape: _PipelineShape, device: SimulatedDevice,
                    chunks: int, pinned: bool, zero_copy: bool,
                    pinned_penalty: bool) -> tuple[float, float, float]:
        """(transfer, kernel, launch) seconds of a pipeline on *device*.

        Kernel time is total work (chunking does not change it, the
        aggregation's groups-per-chunk term aside); launch and DMA
        set-up multiply with the chunk count — exactly the trade the
        chunk-size ladder explores.

        Args:
            pinned_penalty: Charge the OpenCL shallow-hash pinned factor
                (``ExecutionModel.transfer_factor``).  The split model's
                fan-out loop stages chunks without that factor, so its
                pricing branch turns this off to stay faithful.
        """
        cost = device.cost
        key = (device.name, zero_copy)
        walk = shape.walks.get(key)
        if walk is None:
            walk = shape.walks[key] = self._walk(shape, device, zero_copy)
        launches, kernels, uma = walk

        transfer = 0.0
        if shape.scan_bytes and not zero_copy:
            setup = cost.transfer_seconds(0, direction=TransferDirection.H2D,
                                          pinned=pinned)
            per_column = chunks * setup
            transfer = (len(shape.pipeline.scan_refs) * per_column
                        + shape.scan_bytes / cost.bandwidth(
                            TransferDirection.H2D, pinned=pinned))
            if pinned and pinned_penalty and device.sdk is Sdk.OPENCL \
                    and shape.shallow_hash:
                # OpenCL shallow-hash pinned penalty (calibration, Q4).
                transfer *= cal.OPENCL_SHALLOW_PINNED_FACTOR

        kernel = launch = 0.0
        for node, per_launch, seconds in zip(shape.nodes, launches, kernels):
            launch += chunks * per_launch
            if seconds is None:
                _, seconds = node.priced(
                    cost, node.groups(self.data_scale, chunks))
            kernel += seconds
        return transfer, kernel + uma, launch

    def _priced(self, shape: _PipelineShape, name: str, chunks: int,
                traits: _ModelTraits, *, pinned_penalty: bool = True
                ) -> tuple[float, float, float]:
        key = (name, chunks, traits.pinned, traits.zero_copy, pinned_penalty)
        priced = shape.components.get(key)
        if priced is None:
            priced = shape.components[key] = self._components(
                shape, self.devices[name], chunks, traits.pinned,
                traits.zero_copy, pinned_penalty)
        return priced

    def split_counts(self, model: str, chunks: int) -> dict[str, int]:
        """How many of a pipeline's *chunks* the splitting *model* hands
        each participant: its own discrete assignment, counted."""
        key = (model, chunks)
        counts = self._split_counts.get(key)
        if counts is None:
            traits = self._model(model)
            per_participant = np.bincount(
                traits.model_cls.assign_chunks(traits.shares, chunks),
                minlength=len(traits.participants)).tolist()
            counts = self._split_counts[key] = dict(
                zip(traits.participants, per_participant))
        return counts

    # -- per candidate -----------------------------------------------------

    def price(self, graph: PrimitiveGraph, *, model: str, chunk_size: int,
              placement: Mapping[int, str] | None = None) -> PlanCost:
        """Price *graph* run by *model* at *chunk_size* logical rows,
        pipelines placed by *placement* (the graph's own annotations
        where it has no entry)."""
        traits = self._model(model)
        physical_chunk = descale_chunk(chunk_size, self.data_scale)
        overlay = self.overlay
        placement = placement or {}
        placed: dict[int, str] = {}  # pipeline -> device (routing charges)
        pipeline_costs: list[PipelineCost] = []
        for shape in self._shapes(graph):
            pipeline = shape.pipeline
            index = pipeline.index
            dev_name = placement.get(index, shape.annotated)
            chunks = (chunk_count(pipeline, shape.physical_rows,
                                  physical_chunk) if traits.chunked else 1)
            placed[index] = dev_name

            if traits.participants and traits.chunked and pipeline.streams:
                # Static proportional split: the model hands each device
                # a share of chunks proportional to its coarse
                # streaming-rate proxy, NOT to its true per-pipeline cost
                # — devices run their shares concurrently and the
                # slowest share is the makespan.  Pricing the ideal
                # harmonic combination here would systematically
                # underprice the model whenever the proxy misjudges a
                # device.  The shares are the model's *discrete*
                # assignment (whole chunks, not fluid shares): with few
                # chunks the split is lumpy and the over-assigned device
                # stretches the makespan — the pricer must see that, or
                # it prefers oversized chunks whose launch savings are
                # dwarfed by the load imbalance they cause.
                counts = self.split_counts(model, chunks)
                total = 0.0
                transfer = kernel = launch = 0.0
                for name in self._names:
                    t, k, ln = self._priced(shape, name, chunks, traits,
                                            pinned_penalty=False)
                    seconds = (t + k + ln) * overlay.get(name, 1.0)
                    share = counts[name] / chunks
                    total = max(total, seconds * share)
                    transfer += t * share
                    kernel += k * share
                    launch += ln * share
                for producer in shape.producers:
                    # One broadcast hop per participant beyond the home.
                    home = placed.get(producer)
                    for name in self._names:
                        if home == name:
                            continue
                        hop = routed_input_seconds(
                            self.devices[name], self.data_scale
                        ) * overlay.get(name, 1.0)
                        total += hop
                        transfer += hop
                pipeline_costs.append(PipelineCost(
                    index=index, device="+".join(self._names),
                    chunks=chunks, transfer_seconds=transfer,
                    kernel_seconds=kernel, launch_seconds=launch,
                    total=total))
                continue

            if traits.participants:
                # Non-splittable pipelines run on the fastest participant
                # (the split model's ``open_lanes`` overrides annotations;
                # split owns placement), as one lane with its penalty.
                placed[index] = dev_name = traits.participants[0]
            transfer, kernel, launch = self._priced(shape, dev_name, chunks,
                                                    traits)
            # Routing charge for external inputs built on another device.
            for producer in shape.producers:
                if placed.get(producer) not in (None, dev_name):
                    transfer += routed_input_seconds(
                        self.devices[dev_name], self.data_scale)
            if traits.overlapped and chunks > 1:
                # Dual buffers: transfer of chunk c+1 hides behind compute
                # of chunk c; the longer stream dominates.
                total = max(transfer, kernel + launch)
            else:
                total = transfer + kernel + launch
            total *= overlay.get(dev_name, 1.0)
            pipeline_costs.append(PipelineCost(
                index=index, device=dev_name, chunks=chunks,
                transfer_seconds=transfer, kernel_seconds=kernel,
                launch_seconds=launch, total=total))
        return self._discount_cached(graph, PlanCost(
            total=sum(p.total for p in pipeline_costs),
            pipelines=tuple(pipeline_costs)))

    def _discount_cached(self, graph: PrimitiveGraph,
                         cost: PlanCost) -> PlanCost:
        """Re-price pipelines the subplan cache would serve outright.

        A pipeline whose persisted nodes all have live cache entries
        never executes — the model installs the cached values and pays
        only their transfer (see ``_serve_cached_pipeline``).  Pricing
        must see the same thing, or the search keeps paying full
        freight for work a prior query already did.  ``peek`` is
        read-only: pricing probes never pin entries or skew hit/miss
        accounting.
        """
        cache = self.subplan_cache
        if cache is None or not len(cache):
            return cost
        priced = []
        changed = False
        for pc, shape in zip(cost.pipelines, self._shapes(graph)):
            if shape.cached is None:
                shape.cached = self._cached_entries(graph, shape)
            if not shape.cached:
                priced.append(pc)
                continue
            served = shape.served.get(pc.device)
            if served is None:
                served = shape.served[pc.device] = self._served(
                    shape, pc.device)
            priced.append(served)
            changed = True
        if not changed:
            return cost
        return PlanCost(total=sum(p.total for p in priced),
                        pipelines=tuple(priced))

    def _cached_entries(self, graph: PrimitiveGraph,
                        shape: _PipelineShape) -> tuple:
        healthy = set(self.devices)
        entries = []
        for nid in shape.pipeline.persisted_ids:
            entry = self.subplan_cache.peek(
                subplan_fingerprint(graph, nid), self.catalog,
                self.data_scale, healthy)
            if entry is None:
                return ()
            entries.append(entry)
        return tuple(entries)

    def _served(self, shape: _PipelineShape, label: str) -> PipelineCost:
        """The cost of installing a pipeline's cached results instead of
        running it, on the device *label* names."""
        # Split-mode labels join participants ("cpu+gpu"); charge
        # the serve transfer on whichever single device we know.
        device = self.devices.get(label, self.devices[self.default_device])
        transfer = 0.0
        for entry in shape.cached:
            logical = max(1, entry.nbytes) * self.data_scale
            direction = (TransferDirection.D2D if entry.device == label
                         else TransferDirection.H2D)
            transfer += device.cost.transfer_seconds(
                logical, direction=direction)
        transfer *= self.overlay.get(label, 1.0)
        return PipelineCost(
            index=shape.pipeline.index, device=label, chunks=1,
            transfer_seconds=transfer, kernel_seconds=0.0,
            launch_seconds=0.0, total=transfer)


def estimate_plan_seconds(plan: "PhysicalPlan", catalog: Catalog,
                          devices: dict[str, SimulatedDevice], *,
                          default_device: str) -> PlanCost:
    """Price one plan candidate, model-awarely, without executing it.

    One plan through a fresh :class:`PricingTable`; whoever prices many
    candidates over the same graphs and devices (the optimizer's search)
    keeps one table for all of them and gets the same numbers.

    The split model's fan-out is not mirrored here: participant order,
    shares and the chunk-by-chunk assignment are asked of the model
    class (``participants`` / ``shares`` / ``assign_chunks``), so the
    estimate and the run apportion chunks identically.

    *plan*'s graph carries its fusion state and device annotations; its
    model, chunk size and data scale shape the estimate.
    """
    table = PricingTable(catalog, devices, default_device=default_device,
                         data_scale=plan.data_scale)
    return table.price(plan.graph, model=plan.model,
                       chunk_size=plan.chunk_size)


# -- persistent overlay store ------------------------------------------------


class CostOverlayStore:
    """Calibrated :class:`CostOverlay` corrections, keyed by device spec.

    The adaptive controller calibrates within one query; this store
    persists what was learned *across* queries — and, when given a
    path, across processes as JSON — so the optimizer prices candidates
    with corrected device speeds instead of cold priors.  Keys are
    ``"<spec name>|<sdk>"`` (e.g. ``"RTX 2080 Ti|cuda"``): the
    correction describes the hardware/SDK pair, not the plug-in name,
    so a device re-plugged under a new name keeps its calibration.
    """

    VERSION = 1

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.overlays: dict[str, CostOverlay] = {}
        if self.path is not None and self.path.exists():
            self.load()

    @staticmethod
    def spec_key(device: SimulatedDevice) -> str:
        return f"{device.spec.name}|{device.sdk.value}"

    def overlay_for(self, device: SimulatedDevice) -> CostOverlay:
        key = self.spec_key(device)
        if key not in self.overlays:
            self.overlays[key] = CostOverlay()
        return self.overlays[key]

    def factors(self, devices: Mapping[str, SimulatedDevice]
                ) -> dict[str, float]:
        """Per-device-name factors for the estimators (calibrated specs
        only; unsampled devices price uncorrected)."""
        out: dict[str, float] = {}
        for name, device in devices.items():
            entry = self.overlays.get(self.spec_key(device))
            if entry is not None and entry.samples >= 1:
                out[name] = entry.factor
        return out

    def fold(self, devices: Iterable[SimulatedDevice], *,
             observed: float, predicted: float) -> None:
        """Fold one query's (observed, predicted) seconds into the
        overlays of every device the plan ran on."""
        for device in devices:
            self.overlay_for(device).fold(observed, predicted)
        if self.path is not None:
            self.save()

    # -- persistence ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "version": self.VERSION,
            "overlays": {
                key: {"alpha": o.alpha, "factor": o.factor,
                      "samples": o.samples}
                for key, o in sorted(self.overlays.items())
            },
        }, indent=2, sort_keys=True) + "\n"

    def save(self) -> None:
        assert self.path is not None, "no path bound to this store"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(self.to_json())

    def load(self) -> None:
        assert self.path is not None, "no path bound to this store"
        payload = json.loads(self.path.read_text())
        self.overlays = {
            key: CostOverlay(alpha=entry["alpha"], factor=entry["factor"],
                             samples=entry["samples"])
            for key, entry in payload.get("overlays", {}).items()
        }
