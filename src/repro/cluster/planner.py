"""The shard planner: choosing node counts and shuffle placement by cost.

The cluster analogue of the single-node cost-based optimizer — before
executing anything, :class:`ShardPlanner` prices a query at several
candidate node counts using the *same* estimators the single-node
EXPLAIN and optimizer use (:func:`~repro.planner.cost.estimate_graph_seconds`
on a sharded catalog, plus the network-hop pricers for broadcast and the
GATHER/SHUFFLE exchange) and picks the cheapest.  Because shard-local
work shrinks with node count while the network legs grow with it, the
argmin captures the scale-out sweet spot: Q6 keeps improving (an 8-byte
partial is free to ship), Q3 hits its shuffle-bound knee.

Estimates never mutate the graph, so one graph instance can be priced at
every candidate; execution still needs fresh graphs per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.graph import PrimitiveGraph
from repro.core.pipelines import split_pipelines
from repro.errors import ClusterConfigError
from repro.planner.cost import (
    DEFAULT_SELECTIVITY,
    NOMINAL_ROWS,
    broadcast_seconds,
    estimate_graph_seconds,
    pipeline_shape,
)
from repro.storage import Catalog

from repro.cluster.exchange import ExchangeDecision, plan_exchange
from repro.cluster.partition import partition_catalog

__all__ = ["DistributedEstimate", "ShardPlanner",
           "estimate_partial_bytes"]

#: Bytes per merged group row on the wire: an int64 group key plus one
#: int64 aggregate column (TPC-H partials are key+sum shaped).
_GROUP_ROW_BYTES = 16

#: Bytes per hash-table build row: key, offset slot, payload column.
_BUILD_ROW_BYTES = 24

#: A block-reduced scalar partial.
_SCALAR_BYTES = 8


def estimate_partial_bytes(graph: PrimitiveGraph, catalog: Catalog, *,
                           data_scale: int = 1) -> int:
    """Estimated logical bytes of one node's output partials.

    Reads the estimators' walk (:func:`~repro.planner.cost.pipeline_shape`):
    each pipeline starts at its scan cardinality and decays through
    selective primitives, so an output's partial size reflects the rows
    actually reaching it.  Group-table outputs are sized by the group
    key's distinct count (the same statistic the kernel pricer uses),
    scalars are fixed-width, hash tables scale with their decayed build
    cardinality.
    """
    shapes = {
        node.node_id: node
        for pipeline in split_pipelines(graph)
        for node in pipeline_shape(graph, pipeline, catalog,
                                   data_scale=data_scale).nodes
    }
    total = 0
    for out_id in graph.outputs:
        shape = shapes[out_id]
        if shape.cost_key == "hash_agg":
            groups = shape.cost_params.get("groups") \
                or shape.groups(data_scale) \
                or min(shape.rows_after, NOMINAL_ROWS)
            total += _GROUP_ROW_BYTES * int(max(1, groups))
        elif shape.cost_key == "agg_block":
            total += _SCALAR_BYTES * data_scale
        elif shape.cost_key == "hash_build":
            build_rows = shape.rows_after * DEFAULT_SELECTIVITY
            total += _BUILD_ROW_BYTES * int(max(1, build_rows))
        else:
            total += _SCALAR_BYTES * int(max(1, shape.rows_after))
    return total


@dataclass
class DistributedEstimate:
    """Priced outcome of running one query at one node count."""

    num_nodes: int
    #: Max per-node shard-local seconds (nodes run in parallel).
    local_seconds: float
    broadcast_seconds: float
    exchange: ExchangeDecision
    #: Estimated partial bytes per node.
    partial_bytes: list[int] = field(default_factory=list)
    #: Shard-local estimate per node (max of these = *local_seconds*).
    local_per_node: list[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Distributed makespan estimate: broadcast + local + exchange."""
        return (self.broadcast_seconds + self.local_seconds
                + self.exchange.seconds)


class ShardPlanner:
    """Prices a query across candidate node counts for one cluster.

    Uses the cluster's node-0 devices (clusters are homogeneous — the
    executor plugs the same devices everywhere) and its network tier.

    Usage::

        planner = ShardPlanner(cluster)
        best, sweep = planner.choose(graph, catalog, candidates=(1, 2, 4))
        best.num_nodes        # the cost-chosen shard count
        best.exchange.strategy  # "gather" or "shuffle"
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    def _devices(self):
        node = self.cluster.nodes[0]
        if not node.devices:
            raise ClusterConfigError(
                "no devices plugged; call plug_device first")
        return node.devices, node.engine.default_device

    def estimate(self, graph: PrimitiveGraph, catalog: Catalog,
                 num_nodes: int, *,
                 data_scale: int = 1) -> DistributedEstimate:
        """Price *graph* sharded across *num_nodes* nodes."""
        devices, default = self._devices()
        tier = self.cluster.network
        distribution = type(self.cluster).classify_tables(graph)
        bcast = type(self.cluster).broadcast_columns(
            graph, catalog, distribution, data_scale)
        bcast_s = sum(broadcast_seconds(nbytes, tier, num_nodes)
                      for nbytes in bcast.values())

        shards = partition_catalog(catalog, num_nodes)
        partial_bytes: list[int] = []
        local_per_node: list[float] = []
        local = 0.0
        for shard in shards:
            exec_catalog = self.cluster.exec_catalog(shard, catalog,
                                                     distribution)
            estimates = estimate_graph_seconds(
                graph, exec_catalog, devices, default,
                data_scale=data_scale)
            node_local = sum(estimates.values())
            local = max(local, node_local)
            local_per_node.append(node_local)
            partial_bytes.append(estimate_partial_bytes(
                graph, exec_catalog, data_scale=data_scale))

        merged_bytes = estimate_partial_bytes(
            graph, catalog, data_scale=data_scale)
        mem_bandwidth = devices[default].spec.mem_bandwidth
        exchange = plan_exchange(partial_bytes, merged_bytes, tier=tier,
                                 mem_bandwidth=mem_bandwidth)
        return DistributedEstimate(
            num_nodes=num_nodes, local_seconds=local,
            broadcast_seconds=bcast_s, exchange=exchange,
            partial_bytes=partial_bytes, local_per_node=local_per_node)

    def choose(self, graph: PrimitiveGraph, catalog: Catalog, *,
               candidates: tuple[int, ...] = (1, 2, 4, 8),
               data_scale: int = 1
               ) -> tuple[DistributedEstimate, list[DistributedEstimate]]:
        """Price every candidate node count and return the argmin.

        Returns ``(best, sweep)`` — the sweep (candidate order) feeds
        the what-if benchmarks and EXPLAIN's scale-out section.
        """
        if not candidates:
            raise ClusterConfigError("need at least one candidate count")
        sweep = [self.estimate(graph, catalog, n, data_scale=data_scale)
                 for n in candidates]
        best = min(sweep, key=lambda est: est.total_seconds)
        return best, sweep
