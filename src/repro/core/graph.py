"""The primitive graph: ADAMANT's query-plan representation (Section III-C).

A query plan "generated from any existing optimizer" is translated into a
graph whose nodes are Table I primitives and whose edges carry data between
them.  Each node is annotated with the *device* that executes it; each edge
has the paper's unique data ID.  The rest of the paper's edge bookkeeping
is the run's: where the data lives is a per-run table keyed by data ID
(:meth:`PrimitiveGraph.reset_runtime_state`), and its fetch and process
cursors are the virtual clock's event dependencies.

Edges have two kinds of sources:

* a :class:`ScanSource` — a base-table column resolved against the catalog
  by ``load_data()``; these are the inputs chunked execution streams;
* another node — an intermediate result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GraphValidationError
from repro.primitives.definitions import PrimitiveDefinition, definition
from repro.primitives.values import IOSemantic

__all__ = ["ScanSource", "DataEdge", "PrimitiveNode", "PrimitiveGraph"]


@dataclass(frozen=True)
class ScanSource:
    """A base-table column feeding the plan (``table.column``)."""

    ref: str

    @property
    def table(self) -> str:
        return self.ref.partition(".")[0]

    @property
    def column(self) -> str:
        return self.ref.partition(".")[2]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.ref


@dataclass
class DataEdge:
    """A data path between a source (scan or node) and a node input slot.

    Attributes:
        data_id: Unique ID for the data path (paper: *data ID*); a run
            keys where the data lives by it.
        source: A :class:`ScanSource` or the producing node's id.
        target: Consuming node id.
        input_index: Positional input slot at the target primitive.
    """

    data_id: int
    source: ScanSource | str
    target: str
    input_index: int

    @property
    def is_scan(self) -> bool:
        return isinstance(self.source, ScanSource)


@dataclass
class PrimitiveNode:
    """One primitive invocation.

    Attributes:
        node_id: Unique name within the graph.
        primitive: Registered primitive name (Table I).
        params: Kernel parameters (comparators, aggregate functions ...).
        device: Annotation naming the plugged device that executes the
            node (set by the optimizer / annotator, Figure 2).
        cost_params: Cost-model hints (e.g. ``groups`` for HASH_AGG).
        hints: Planner hints for the runtime only (e.g.
            ``selectivity_estimate`` for output-buffer sizing); never
            forwarded to kernels.
        variant: Pin a specific kernel-variant key for this node,
            overriding the device's default — the paper's "an OpenCL
            implementation of arithmetic followed by a reduce implemented
            using CUDA for a single device" (Section III-B2).
    """

    node_id: str
    primitive: str
    params: dict = field(default_factory=dict)
    device: str | None = None
    cost_params: dict = field(default_factory=dict)
    hints: dict = field(default_factory=dict)
    variant: str | None = None

    @property
    def defn(self) -> PrimitiveDefinition:
        return definition(self.primitive)

    @property
    def is_breaker(self) -> bool:
        return self.defn.pipeline_breaker


class _EdgeIndex:
    """Adjacency of a graph's edge list, built in one pass over it."""

    __slots__ = ("edge_count", "inputs", "outputs", "scan_refs")

    def __init__(self, edges: list[DataEdge]) -> None:
        #: Length of the edge list the index was built from.
        self.edge_count = len(edges)
        #: target node id -> its in-edges, ordered by input slot.
        self.inputs: dict[str, list[DataEdge]] = {}
        #: source node id -> its (non-scan) out-edges, in edge-list order.
        self.outputs: dict[str, list[DataEdge]] = {}
        refs: set[str] = set()
        for edge in edges:
            self.inputs.setdefault(edge.target, []).append(edge)
            if edge.is_scan:
                refs.add(edge.source.ref)
            else:
                self.outputs.setdefault(edge.source, []).append(edge)
        for slots in self.inputs.values():
            slots.sort(key=lambda e: e.input_index)  # stable, like sorted()
        #: Distinct base-table columns read, sorted.
        self.scan_refs = sorted(refs)


class PrimitiveGraph:
    """A DAG of primitives with annotated data edges.

    **Mutation contract.**  A graph is built through :meth:`add_node`,
    :meth:`connect` and :meth:`mark_output`; each drops the derived
    caches (adjacency index, topological order, pipeline split,
    validation verdict, subplan digests).  Once built it is a value:
    ``nodes``, ``edges`` and ``outputs`` are public for reading, and no
    run, placement pass or optimizer writes into them.  The same plan
    with other parameters or other device annotations is :meth:`bind`
    (``annotate_devices``, the optimizer, failover and adaptive
    re-placement all place a copy), and a run keeps where its data lives
    in a table of its own (:meth:`reset_runtime_state`).  So one
    instance may run again, on any engine, or twice in one concurrent
    wave.  As a safety net, an ``edges.append`` behind :meth:`connect`'s
    back is noticed by its length and drops the caches.
    """

    def __init__(self, name: str = "query") -> None:
        self.name = name
        self.nodes: dict[str, PrimitiveNode] = {}
        self.edges: list[DataEdge] = []
        self.outputs: list[str] = []
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        """Drop the derived structure.  Topological order and pipeline
        split may be shared with the graphs of one :meth:`bind` family:
        they are replaced here, never written into."""
        self._edge_index: _EdgeIndex | None = None
        self._topo_cache: list[str] | None = None
        self._pipeline_cache: list | None = None
        self._validated = False
        #: node id -> subplan digest (:mod:`repro.core.fingerprint`).
        self._digests: dict[str, str] = {}

    def _index(self) -> _EdgeIndex:
        """The adjacency index, (re)built when the edge list changed."""
        index = self._edge_index
        if index is None or index.edge_count != len(self.edges):
            # A length mismatch is an out-of-band ``edges.append``: every
            # derived cache is stale, not only this one.
            self._invalidate_caches()
            index = self._edge_index = _EdgeIndex(self.edges)
        return index

    # -- construction -------------------------------------------------------

    def add_node(self, node_id: str, primitive: str, *,
                 params: dict | None = None, device: str | None = None,
                 cost_params: dict | None = None,
                 hints: dict | None = None,
                 variant: str | None = None) -> PrimitiveNode:
        """Add a primitive node; *primitive* must be registered."""
        if node_id in self.nodes:
            raise GraphValidationError(f"duplicate node id {node_id!r}")
        definition(primitive)  # raises UnknownPrimitiveError if missing
        node = PrimitiveNode(
            node_id=node_id, primitive=primitive, params=params or {},
            device=device, cost_params=cost_params or {},
            hints=hints or {}, variant=variant,
        )
        self.nodes[node_id] = node
        self._invalidate_caches()
        return node

    def connect(self, source: str | ScanSource, target: str,
                input_index: int) -> DataEdge:
        """Wire *source* into input slot *input_index* of *target*."""
        if isinstance(source, str) and source not in self.nodes:
            # Permit 'table.column' shorthand for scans.
            if "." in source:
                source = ScanSource(source)
            else:
                raise GraphValidationError(f"unknown source node {source!r}")
        if target not in self.nodes:
            raise GraphValidationError(f"unknown target node {target!r}")
        edge = DataEdge(
            data_id=len(self.edges), source=source, target=target,
            input_index=input_index,
        )
        self.edges.append(edge)
        self._invalidate_caches()
        return edge

    def mark_output(self, node_id: str) -> None:
        """Declare *node_id*'s result a query output (retrieved to host)."""
        if node_id not in self.nodes:
            raise GraphValidationError(f"unknown output node {node_id!r}")
        if node_id not in self.outputs:
            self.outputs.append(node_id)
            self._invalidate_caches()

    def bind(self, params_by_node: dict[str, dict],
             device: str | dict[str, str] | None = None) -> PrimitiveGraph:
        """This plan with other parameters or placement: a fresh graph
        whose nodes named in *params_by_node* take those ``params``, and
        whose every node (a device name) or named nodes (a ``{node id:
        device}`` mapping) are annotated with *device*.

        The bound graph owns its nodes and edges and shares, read-only,
        what structure alone decides: topological order, pipeline split
        and validation verdict, worked out here once — and the subplan
        digests when no parameter changes.  Mutating it detaches it.
        """
        from repro.core.pipelines import split_pipelines  # imports us

        self.validate()
        split_pipelines(self)
        placement = device if isinstance(device, dict) else \
            dict.fromkeys(self.nodes if device else (), device)
        unknown = sorted((params_by_node.keys() | placement.keys())
                         - self.nodes.keys())
        if unknown:
            raise GraphValidationError(f"bind: unknown nodes {unknown}")
        bound = PrimitiveGraph(self.name)
        bound.nodes = {
            nid: PrimitiveNode(
                nid, node.primitive,
                dict(params_by_node.get(nid, node.params)),
                placement.get(nid, node.device), dict(node.cost_params),
                dict(node.hints), node.variant)
            for nid, node in self.nodes.items()}
        bound.edges = [DataEdge(e.data_id, e.source, e.target, e.input_index)
                       for e in self.edges]
        bound.outputs = list(self.outputs)
        bound._edge_index = _EdgeIndex(bound.edges)
        bound._topo_cache = self._topo_cache
        bound._pipeline_cache = self._pipeline_cache
        bound._validated = True
        if not params_by_node:
            bound._digests = self._digests
        return bound

    # -- queries ---------------------------------------------------------------

    def in_edges(self, node_id: str) -> list[DataEdge]:
        """Input edges of *node_id*, ordered by input slot (a fresh list)."""
        return list(self._index().inputs.get(node_id, ()))

    def out_edges(self, node_id: str) -> list[DataEdge]:
        """Edges carrying *node_id*'s result to its consumers, in the
        order they were connected (a fresh list)."""
        return list(self._index().outputs.get(node_id, ()))

    def scan_refs(self) -> list[str]:
        """All distinct base-table columns the plan reads."""
        return list(self._index().scan_refs)

    def topological_order(self) -> list[str]:
        """Node ids in dependency order; raises on cycles.

        The order is cached until the graph is mutated — chunked models
        would otherwise re-sort the same structure once per chunk.
        """
        index = self._index()
        if self._topo_cache is not None:
            return list(self._topo_cache)
        incoming = dict.fromkeys(self.nodes, 0)
        for edges in index.outputs.values():
            for edge in edges:
                incoming[edge.target] += 1
        ready = sorted(nid for nid, deg in incoming.items() if deg == 0)
        order: list[str] = []
        while ready:
            nid = ready.pop(0)
            order.append(nid)
            for edge in index.outputs.get(nid, ()):
                incoming[edge.target] -= 1
                if incoming[edge.target] == 0:
                    ready.append(edge.target)
            ready.sort()
        if len(order) != len(self.nodes):
            raise GraphValidationError(
                f"graph {self.name!r} has a cycle among "
                f"{sorted(set(self.nodes) - set(order))}"
            )
        self._topo_cache = list(order)
        return order

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Check structure and I/O-semantic compatibility (Section III-B3);
        a pass is remembered until the graph is mutated."""
        self._index()  # notices an out-of-band edges.append
        if self._validated:
            return
        self.topological_order()
        for nid, node in self.nodes.items():
            edges = self.in_edges(nid)
            defn = node.defn
            slots = [e.input_index for e in edges]
            if slots != sorted(set(slots)):
                raise GraphValidationError(
                    f"node {nid!r} has duplicate input slots {slots}"
                )
            if not (defn.min_inputs <= len(edges) <= len(defn.inputs)):
                raise GraphValidationError(
                    f"node {nid!r} ({node.primitive}) expects "
                    f"{defn.min_inputs}..{len(defn.inputs)} inputs, "
                    f"got {len(edges)}"
                )
            for edge in edges:
                expected = defn.inputs[edge.input_index]
                produced = self._edge_semantic(edge)
                if produced is None or expected is IOSemantic.GENERIC:
                    continue
                if produced is not expected and produced is not IOSemantic.GENERIC:
                    raise GraphValidationError(
                        f"edge {edge.data_id} into {nid!r} slot "
                        f"{edge.input_index}: produces {produced.value}, "
                        f"{node.primitive} expects {expected.value}"
                    )
        for out in self.outputs:
            if out not in self.nodes:
                raise GraphValidationError(f"unknown output {out!r}")
        self._validated = True

    def _edge_semantic(self, edge: DataEdge) -> IOSemantic | None:
        if edge.is_scan:
            return IOSemantic.NUMERIC
        return self.nodes[edge.source].defn.output

    def reset_runtime_state(self) -> dict[int, str]:
        """A fresh run's state over this graph's edges: an empty table,
        ``{data_id: device name}``, of where each edge's data lives (the
        paper's per-edge *device ID*).  The run owns it, not the graph."""
        return {}
