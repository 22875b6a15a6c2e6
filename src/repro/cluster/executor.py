"""The cluster executor: data-parallel query execution across nodes.

Execution recipe (the classic scale-out plan, Volcano-style exchanges
over the unchanged single-node stack):

1. **Partition.**  The catalog is key-range sharded
   (:mod:`repro.cluster.partition`): orders/lineitem co-partitioned on
   orderkey, other fact tables on their primary keys, nation/region
   replicated.
2. **Broadcast.**  Tables the plan scans that are not co-partitioned or
   replicated are re-broadcast so every node holds them whole; only the
   scanned columns ship, priced per the cluster's network tier.
3. **Local execution.**  Every node runs the *same* primitive graph
   against its shard on its own devices/hub/clock — partial aggregation
   is thereby pushed below the exchange: a node reduces its shard to
   group-table / hash-table / scalar partials before anything crosses
   the network.
4. **Exchange + merge.**  Partials cross the network via GATHER or
   SHUFFLE (cost-chosen, result-identical; see
   :mod:`repro.cluster.exchange`) and merge with the same combiners
   chunked execution uses, so answers are byte-identical to
   single-node execution.

Node loss (every device of a node dead) fails the shard over to a
surviving node — shards are re-runnable because the partitioned catalog
is shared storage, mirroring the single-node device-failover ladder one
level up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.context import ExecutionStats, QueryResult
from repro.core.graph import PrimitiveGraph
from repro.core.pipelines import split_pipelines
from repro.devices.base import SimulatedDevice
from repro.engine.engine import DEFAULT_CHUNK_SIZE
from repro.errors import ClusterConfigError, ClusterError, NodeLostError
from repro.faults import FaultPlan
from repro.hardware.specs import (
    ETH_100G,
    NETWORK_TIERS,
    DeviceSpec,
    InterconnectSpec,
    NodeSpec,
)
from repro.observe.metrics import MetricsRegistry
from repro.planner.cost import broadcast_seconds
from repro.storage import Catalog

from repro.cluster.exchange import (
    ExchangeDecision,
    merge_outputs,
    partials_nbytes,
    plan_exchange,
)
from repro.cluster.node import ClusterNode
from repro.cluster.partition import (
    CO_PARTITIONED_TABLES,
    PartitionScheme,
    REPLICATED_TABLES,
    make_scheme,
    partition_catalog,
)

__all__ = ["ClusterExecutor", "DistributedPlan", "DistributedResult",
           "DistributedStats", "resolve_tier"]


def resolve_tier(network: str | InterconnectSpec) -> InterconnectSpec:
    """Resolve a tier name (``"eth_25g"``) or spec to the spec."""
    if isinstance(network, InterconnectSpec):
        return network
    try:
        return NETWORK_TIERS[network]
    except KeyError:
        raise ClusterConfigError(
            f"unknown network tier {network!r}; "
            f"available: {sorted(NETWORK_TIERS)}") from None


@dataclass
class DistributedPlan:
    """What the cluster decided for one query (rendered by
    :func:`~repro.observe.explain_distributed`)."""

    query: str
    num_nodes: int
    network: InterconnectSpec
    scheme: PartitionScheme
    #: table -> "co-partitioned" | "replicated" | "broadcast"; only the
    #: tables the plan scans.
    distribution: dict[str, str] = field(default_factory=dict)
    #: Logical bytes broadcast per table (scanned columns only).
    broadcast_bytes: dict[str, int] = field(default_factory=dict)
    broadcast_seconds: float = 0.0
    exchange: ExchangeDecision | None = None


@dataclass
class DistributedStats(ExecutionStats):
    """Single-node stats aggregated across shards, plus the network legs.

    ``makespan`` is the distributed wall clock:
    ``broadcast + max(per-node local time) + exchange``.
    """

    #: Local simulated seconds per node (failover re-runs included).
    node_seconds: dict[str, float] = field(default_factory=dict)
    broadcast_seconds: float = 0.0
    exchange_seconds: float = 0.0
    exchange_strategy: str = "none"
    exchange_bytes: int = 0
    broadcast_bytes: int = 0
    node_failovers: int = 0


@dataclass
class DistributedResult:
    """Merged outputs + per-shard results of one distributed execution.

    Quacks like :class:`~repro.core.context.QueryResult` for the query
    modules' ``finalize(result, catalog)`` helpers.
    """

    outputs: dict[str, object]
    stats: DistributedStats
    plan: DistributedPlan
    #: Per-shard single-node results, in shard order.
    shard_results: list[QueryResult] = field(default_factory=list)
    profile: object | None = None

    def output(self, node_id: str) -> object:
        try:
            return self.outputs[node_id]
        except KeyError:
            raise ClusterError(
                f"no output {node_id!r}; available: "
                f"{sorted(self.outputs)}") from None


class ClusterExecutor:
    """Sharded multi-node execution with exchange operators.

    Args:
        nodes: Node count (named ``node0..``, uniform NIC tier from
            *network*) or an explicit list of :class:`NodeSpec`.
        network: Tier name from
            :data:`~repro.hardware.specs.NETWORK_TIERS` or an
            :class:`~repro.hardware.specs.InterconnectSpec`; used for
            every exchange unless a :class:`NodeSpec` list overrides
            per-node NICs (the slowest NIC of a transfer prices it).

    Usage::

        cluster = ClusterExecutor(nodes=2, network="eth_100g")
        cluster.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI)
        result = cluster.run(lambda: q6.build(), catalog)
    """

    def __init__(self, nodes: int | list[NodeSpec] = 2, *,
                 network: str | InterconnectSpec = ETH_100G) -> None:
        tier = resolve_tier(network)
        if isinstance(nodes, int):
            if nodes < 1:
                raise ClusterConfigError(
                    f"need at least one node, got {nodes}")
            specs = [NodeSpec(f"node{i}", network=tier)
                     for i in range(nodes)]
        else:
            if not nodes:
                raise ClusterConfigError("need at least one node")
            specs = list(nodes)
        if len({spec.name for spec in specs}) != len(specs):
            raise ClusterConfigError("node names must be unique")
        self.network = tier
        self.nodes: list[ClusterNode] = [
            ClusterNode(spec) for spec in specs]
        #: Cluster-lifetime metrics (exchange volumes, failovers, node
        #: gauge); separate from each node engine's own registry.
        self.metrics = MetricsRegistry()
        self.metrics.set("adamant_cluster_nodes", len(self.nodes))

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, name: str) -> ClusterNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise ClusterConfigError(
            f"no node {name!r}; have: {[n.name for n in self.nodes]}")

    # -- plugging -------------------------------------------------------------

    def plug_device(self, name: str, driver: type[SimulatedDevice],
                    spec: DeviceSpec, *, memory_limit: int | None = None,
                    default: bool = False) -> None:
        """Plug the same device into every node (homogeneous cluster);
        per-node :class:`NodeSpec.interconnect` overrides apply."""
        for node in self.nodes:
            node.plug_device(name, driver, spec,
                             memory_limit=memory_limit, default=default)

    def install_faults(self, node_name: str, plan: FaultPlan) -> None:
        """Arm a fault plan on one node's devices (chaos testing)."""
        self.node(node_name).install_faults(plan)

    # -- planning helpers -----------------------------------------------------

    @staticmethod
    def classify_tables(graph: PrimitiveGraph) -> dict[str, str]:
        """Distribution of every table the plan scans."""
        tables = sorted({ref.partition(".")[0]
                         for ref in graph.scan_refs()})
        out: dict[str, str] = {}
        for table in tables:
            if table in CO_PARTITIONED_TABLES:
                out[table] = "co-partitioned"
            elif table in REPLICATED_TABLES:
                out[table] = "replicated"
            else:
                out[table] = "broadcast"
        return out

    @staticmethod
    def broadcast_columns(graph: PrimitiveGraph, catalog: Catalog,
                          distribution: dict[str, str],
                          data_scale: int) -> dict[str, int]:
        """Logical bytes each broadcast table ships (scanned columns)."""
        out: dict[str, int] = {}
        for ref in graph.scan_refs():
            table = ref.partition(".")[0]
            if distribution.get(table) != "broadcast":
                continue
            out[table] = out.get(table, 0) \
                + catalog.column(ref).nbytes * data_scale
        return out

    @staticmethod
    def exec_catalog(shard: Catalog, full: Catalog,
                     distribution: dict[str, str]) -> Catalog:
        """One node's execution-time catalog: its co-partitioned shards
        plus full copies of every replicated/broadcast table."""
        catalog = Catalog()
        for name in sorted(full.tables):
            if distribution.get(name) == "co-partitioned":
                catalog.add(shard.table(name))
            else:
                catalog.add(full.table(name))
        return catalog

    def _coordinator_mem_bandwidth(self) -> float:
        node = self.nodes[0]
        devices = node.devices
        if not devices:
            raise ClusterConfigError(
                "no devices plugged; call plug_device first")
        return devices[node.engine.default_device].spec.mem_bandwidth

    # -- execution ------------------------------------------------------------

    def run(self, graph_factory, catalog: Catalog, *,
            model: str = "chunked", chunk_size: int = DEFAULT_CHUNK_SIZE,
            data_scale: int = 1, fuse: bool = False,
            adaptive: bool = False,
            scheme: PartitionScheme | None = None) -> DistributedResult:
        """Execute one query data-parallel across every node.

        Args:
            graph_factory: Zero-argument callable returning the
                :class:`~repro.core.graph.PrimitiveGraph` to run; it is
                called once, and every node and every failover re-run
                reads that one graph.
            catalog: The full unsharded catalog; partitioned internally
                per *scheme* (or a freshly computed one).
            model, chunk_size, data_scale, fuse, adaptive: Forwarded to
                every node's local execution, same semantics as
                :meth:`~repro.core.executor.AdamantExecutor.run`.

        Returns a :class:`DistributedResult` whose merged outputs are
        byte-identical to single-node execution (hash-table positions
        excepted — they are node-local row numbers).
        """
        if not callable(graph_factory):
            raise ClusterConfigError(
                "graph_factory must be a zero-argument callable "
                "returning a PrimitiveGraph")
        graph = graph_factory()
        if self.num_nodes > 1 and any(pipeline.full_input_ids for pipeline
                                      in split_pipelines(graph)):
            raise ClusterConfigError(
                "a sort-based plan needs its full input on one node")
        if scheme is None:
            scheme = make_scheme(catalog, self.num_nodes)
        shards = partition_catalog(catalog, self.num_nodes,
                                   scheme=scheme)
        distribution = self.classify_tables(graph)
        bcast = self.broadcast_columns(graph, catalog, distribution,
                                       data_scale)
        bcast_total = sum(bcast.values())
        bcast_s = sum(
            broadcast_seconds(nbytes, self.network, self.num_nodes)
            for nbytes in bcast.values())

        flags = dict(model=model, chunk_size=chunk_size,
                     data_scale=data_scale, fuse=fuse, adaptive=adaptive)
        node_seconds: dict[str, float] = {n.name: 0.0
                                          for n in self.nodes}
        shard_results: list[QueryResult] = []
        partial_bytes: list[int] = []
        failovers = 0
        for node, shard in zip(self.nodes, shards):
            exec_catalog = self.exec_catalog(shard, catalog,
                                             distribution)
            try:
                result = node.execute(graph, exec_catalog, **flags)
                ran_on = node
            except NodeLostError:
                failovers += 1
                survivor = self._survivor()
                self.metrics.inc("adamant_node_failovers_total",
                                 node=node.name)
                result = survivor.execute(graph, exec_catalog, **flags)
                ran_on = survivor
            node_seconds[ran_on.name] += result.stats.makespan
            shard_results.append(result)
            partial_bytes.append(
                partials_nbytes(graph, result.outputs, data_scale))

        merged = merge_outputs(
            graph, [r.outputs for r in shard_results])
        merged_bytes = partials_nbytes(graph, merged, data_scale)
        exchange = plan_exchange(
            partial_bytes, merged_bytes, tier=self.network,
            mem_bandwidth=self._coordinator_mem_bandwidth())

        plan = DistributedPlan(
            query=graph.name, num_nodes=self.num_nodes,
            network=self.network, scheme=scheme,
            distribution=distribution, broadcast_bytes=bcast,
            broadcast_seconds=bcast_s, exchange=exchange)
        stats = self._aggregate_stats(
            shard_results, node_seconds, plan, bcast_total, failovers)
        self._record(stats)
        return DistributedResult(outputs=merged, stats=stats, plan=plan,
                                 shard_results=shard_results)

    def _survivor(self) -> ClusterNode:
        for node in self.nodes:
            if not node.lost:
                return node
        raise ClusterError("every node of the cluster is lost")

    def _aggregate_stats(self, shard_results: list[QueryResult],
                         node_seconds: dict[str, float],
                         plan: DistributedPlan, broadcast_bytes: int,
                         failovers: int) -> DistributedStats:
        exchange = plan.exchange
        assert exchange is not None
        local = max(node_seconds.values(), default=0.0)
        stats = DistributedStats(
            makespan=plan.broadcast_seconds + local + exchange.seconds,
            node_seconds=dict(node_seconds),
            broadcast_seconds=plan.broadcast_seconds,
            exchange_seconds=exchange.seconds,
            exchange_strategy=exchange.strategy,
            exchange_bytes=sum(exchange.partial_bytes),
            broadcast_bytes=broadcast_bytes,
            node_failovers=failovers,
        )
        for result in shard_results:
            s = result.stats
            stats.transfer_bytes += s.transfer_bytes
            stats.chunks_processed += s.chunks_processed
            stats.kernel_invocations += s.kernel_invocations
            stats.kernels_launched += s.kernels_launched
            stats.fused_nodes = max(stats.fused_nodes, s.fused_nodes)
            stats.retries += s.retries
            stats.failovers += s.failovers
            stats.oom_recoveries += s.oom_recoveries
            for category, seconds in s.time_by_category.items():
                stats.time_by_category[category] = \
                    stats.time_by_category.get(category, 0.0) + seconds
        return stats

    def _record(self, stats: DistributedStats) -> None:
        self.metrics.set("adamant_cluster_nodes", self.num_nodes)
        self.metrics.inc("adamant_exchange_bytes_total",
                         stats.broadcast_bytes, kind="broadcast")
        self.metrics.inc("adamant_exchange_bytes_total",
                         stats.exchange_bytes, kind="partial")
        self.metrics.inc("adamant_exchange_seconds_total",
                         stats.broadcast_seconds, kind="broadcast")
        if stats.exchange_strategy != "none":
            self.metrics.inc("adamant_exchange_seconds_total",
                             stats.exchange_seconds,
                             kind=stats.exchange_strategy)
