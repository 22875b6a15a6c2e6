"""Scale-out execution: sharding, exchanges, pricing, failover.

The tentpole claim of ``docs/sharding.md`` — a query run data-parallel
across N simulated nodes gives **byte-identical** answers to one node,
for every execution model, with fusion on or off — is checked by the
cluster door of the cell table in ``tools/timeline_digest.py``; here
the partitioning, the exchange choice, the shard planner and a node
dying mid-run, its shard failing over to a survivor.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CO_PARTITIONED_TABLES,
    ClusterExecutor,
    ShardPlanner,
    make_scheme,
    merge_outputs,
    output_agg_fn,
    partition_catalog,
    partition_table,
    plan_exchange,
    reassemble_table,
    resolve_tier,
)
from repro.devices import CudaDevice, OpenMPDevice
from repro.engine import Engine
from repro.errors import ClusterConfigError, ClusterError
from repro.faults import FaultPlan
from repro.hardware.specs import (
    CPU_I7_8700,
    ETH_10G,
    GPU_RTX_2080_TI,
    NVLINK_3,
    NodeSpec,
)
from repro.observe import explain_distributed
from repro.storage import Catalog, Column, DictionaryColumn, Table
from repro.tpch import dbgen
from repro.tpch.queries import QUERIES, q1_sorted, q6

#: Module-scope catalog so hypothesis properties avoid function-scoped
#: fixture health checks (~3k lineitems, same stream as tiny_catalog).
CATALOG = dbgen.generate(0.0005, seed=7)

def _build(name):
    """The query module and the graph factory ``cluster.run`` takes."""
    module = QUERIES[name]
    return module, (lambda: module.build(CATALOG))


def _cluster(nodes=2, network="eth_100g", *, host_fallback=False):
    cluster = ClusterExecutor(nodes=nodes, network=network)
    cluster.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI,
                        default=True)
    if host_fallback:
        cluster.plug_device("host0", OpenMPDevice, CPU_I7_8700)
    return cluster


def _engine():
    engine = Engine()
    engine.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI, default=True)
    return engine


# ---------------------------------------------------------------------------
# Partitioning: disjoint exact cover
# ---------------------------------------------------------------------------


class TestPartitioning:
    @settings(max_examples=10, deadline=None)
    @given(num_nodes=st.integers(1, 8))
    def test_co_partitioned_boundaries_shared(self, num_nodes):
        scheme = make_scheme(CATALOG, num_nodes)
        a, b = (scheme.ranges[t] for t in CO_PARTITIONED_TABLES)
        assert a == b
        # Contiguous cover of the orderkey domain.
        for left, right in zip(a, a[1:]):
            assert left.hi == right.lo

    def test_node_for_key_routes_into_owning_shard(self):
        scheme = make_scheme(CATALOG, 3)
        shards = partition_catalog(CATALOG, 3, scheme=scheme)
        keys = CATALOG.table("orders").column("o_orderkey").values
        for key in (int(keys.min()), int(keys[len(keys) // 2]),
                    int(keys.max())):
            node = scheme.node_for_key("orders", key)
            owned = shards[node].table("orders").column("o_orderkey")
            assert key in owned.values

    def test_generate_partitioned_matches_generate(self):
        shards, scheme = dbgen.generate_partitioned(0.0005, 2, seed=7)
        assert scheme.num_nodes == 2
        for table in ("orders", "lineitem"):
            rebuilt = reassemble_table(
                [s.table(table) for s in shards])
            whole = CATALOG.table(table)
            for column in whole.columns:
                assert np.array_equal(
                    rebuilt.column(column.name).values, column.values)

    def test_bad_node_counts_rejected(self):
        with pytest.raises(ClusterConfigError):
            make_scheme(CATALOG, 0)
        with pytest.raises(ClusterConfigError):
            ClusterExecutor(nodes=0)
        with pytest.raises(ClusterConfigError):
            scheme = make_scheme(CATALOG, 2)
            partition_catalog(CATALOG, 3, scheme=scheme)


# ---------------------------------------------------------------------------
# Exchange choice and pricing
# ---------------------------------------------------------------------------


class TestExchange:
    def test_single_node_needs_no_exchange(self):
        decision = plan_exchange([100], 100, tier=ETH_10G,
                                 mem_bandwidth=1e10)
        assert decision.strategy == "none"
        assert decision.seconds == 0.0

    def test_tiny_partials_gather(self):
        decision = plan_exchange([8, 8], 8, tier=ETH_10G,
                                 mem_bandwidth=1e10)
        assert decision.strategy == "gather"

    def test_huge_partials_shuffle(self):
        """Serial merge + coordinator NIC lose once partials are big."""
        sizes = [200_000_000] * 8
        decision = plan_exchange(sizes, sum(sizes), tier=ETH_10G,
                                 mem_bandwidth=1e10)
        assert decision.strategy == "shuffle"
        assert decision.shuffle_est < decision.gather_est

    def test_decision_records_both_estimates(self):
        decision = plan_exchange([1000, 1000], 1500, tier=ETH_10G,
                                 mem_bandwidth=1e10)
        assert decision.gather_est > 0 and decision.shuffle_est > 0
        assert decision.seconds == min(decision.gather_est,
                                       decision.shuffle_est)

    def test_output_agg_fn_resolves_through_fusion(self):
        from repro.planner.fusion import fuse_graph

        graph = fuse_graph(q6.build())
        assert output_agg_fn(graph, graph.outputs[0]) == "sum"

    def test_merge_outputs_rejects_unknown_carrier(self):
        graph = q6.build()
        out = graph.outputs[0]
        with pytest.raises(ClusterError):
            merge_outputs(graph, [{out: object()}, {out: object()}])

    def test_resolve_tier_names_and_specs(self):
        assert resolve_tier("eth_10g") is ETH_10G
        assert resolve_tier(NVLINK_3) is NVLINK_3
        with pytest.raises(ClusterConfigError):
            resolve_tier("token-ring")


# ---------------------------------------------------------------------------
# The shard planner
# ---------------------------------------------------------------------------


class TestShardPlanner:
    def test_choose_prices_every_candidate(self):
        cluster = _cluster(2)
        best, sweep = ShardPlanner(cluster).choose(
            q6.build(), CATALOG, candidates=(1, 2, 4), data_scale=4)
        assert [e.num_nodes for e in sweep] == [1, 2, 4]
        assert best.total_seconds == min(e.total_seconds for e in sweep)

    def test_single_node_estimate_has_no_network_legs(self):
        cluster = _cluster(2)
        est = ShardPlanner(cluster).estimate(q6.build(), CATALOG, 1)
        assert est.exchange.strategy == "none"
        assert est.broadcast_seconds == 0.0

    def test_local_work_shrinks_with_nodes(self):
        cluster = _cluster(2)
        planner = ShardPlanner(cluster)
        one = planner.estimate(q6.build(), CATALOG, 1, data_scale=4)
        four = planner.estimate(q6.build(), CATALOG, 4, data_scale=4)
        assert four.local_seconds < one.local_seconds

    def test_planner_requires_devices(self):
        cluster = ClusterExecutor(nodes=2)
        with pytest.raises(ClusterConfigError):
            ShardPlanner(cluster).estimate(q6.build(), CATALOG, 2)


# ---------------------------------------------------------------------------
# Node loss and failover
# ---------------------------------------------------------------------------


def _run_losing(cluster, faults: str, query: str, single):
    """*query* on *cluster* with *faults* on node0; its answer must be
    what the one engine *single* gives."""
    module, build = _build(query)
    cluster.install_faults("node0", FaultPlan.parse(faults))
    dist = cluster.run(build, CATALOG, data_scale=2)
    assert module.finalize(dist, CATALOG) == module.finalize(
        single.execute(build(), CATALOG, data_scale=2, fresh=True), CATALOG)
    return dist


class TestNodeLoss:
    def test_node_loss_fails_over_and_stays_identical(self):
        cluster = _cluster(2)
        dist = _run_losing(cluster, "dev0:device_loss:1", "q3", _engine())
        assert dist.stats.node_failovers == 1
        assert cluster.node("node0").lost
        assert cluster.metrics.value("adamant_node_failovers_total",
                                     node="node0") == 1.0
        # The survivor ran both shards; the lost node contributed none.
        assert dist.stats.node_seconds["node0"] == 0.0
        assert dist.stats.node_seconds["node1"] > 0.0

    def test_losing_every_node_raises(self):
        _, build = _build("q6")
        cluster = _cluster(2)
        for node in ("node0", "node1"):
            cluster.install_faults(node,
                                   FaultPlan.parse("dev0:device_loss:1"))
        with pytest.raises(ClusterError):
            cluster.run(build, CATALOG, data_scale=2)

    def test_within_node_failover_does_not_lose_node(self):
        """With a host fallback plugged, device loss stays node-local."""
        cluster = _cluster(2, host_fallback=True)
        dist = _run_losing(cluster, "dev0:device_loss:1", "q6", _engine())
        assert dist.stats.node_failovers == 0
        assert not cluster.node("node0").lost
        assert dist.stats.failovers >= 1  # device-level, inside node0


# ---------------------------------------------------------------------------
# Executor surface: stats, metrics, node specs, EXPLAIN
# ---------------------------------------------------------------------------


class TestExecutorSurface:
    def test_distributed_stats_and_metrics(self):
        _, build = _build("q3")
        cluster = _cluster(2)
        dist = cluster.run(build, CATALOG, data_scale=2)
        stats = dist.stats
        assert stats.makespan == pytest.approx(
            stats.broadcast_seconds
            + max(stats.node_seconds.values())
            + stats.exchange_seconds)
        assert stats.exchange_strategy in ("gather", "shuffle")
        assert stats.broadcast_bytes > 0  # customer ships to both nodes
        metrics = cluster.metrics
        assert metrics.value("adamant_cluster_nodes") == 2.0
        assert metrics.value("adamant_exchange_bytes_total",
                             kind="broadcast") == stats.broadcast_bytes
        assert metrics.value("adamant_exchange_bytes_total",
                             kind="partial") == stats.exchange_bytes
        assert metrics.value("adamant_exchange_seconds_total",
                             kind=stats.exchange_strategy) > 0.0

    def test_result_quacks_like_query_result(self):
        _, build = _build("q6")
        dist = _cluster(2).run(build, CATALOG)
        out = list(dist.outputs)
        assert dist.output(out[0]) is dist.outputs[out[0]]
        with pytest.raises(ClusterError):
            dist.output("nope")
        assert len(dist.shard_results) == 2

    def test_graph_factory_must_be_callable(self):
        cluster = _cluster(2)
        with pytest.raises(ClusterConfigError):
            cluster.run(q6.build(), CATALOG)

    def test_a_sort_based_plan_is_refused(self):
        """Sorting needs every row: per shard its group indices are
        local, and no merge makes them whole again."""
        with pytest.raises(ClusterConfigError, match="full input"):
            _cluster(2).run(q1_sorted.build, CATALOG, model="oaat")

    def test_node_spec_interconnect_override(self):
        specs = [NodeSpec("fast", interconnect=NVLINK_3),
                 NodeSpec("slow")]
        cluster = ClusterExecutor(nodes=specs)
        cluster.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI)
        fast = cluster.node("fast").devices["dev0"]
        slow = cluster.node("slow").devices["dev0"]
        assert fast.spec.interconnect_bandwidth == NVLINK_3.bandwidth
        assert slow.spec.interconnect_bandwidth == \
            GPU_RTX_2080_TI.interconnect_bandwidth

    def test_explain_distributed_is_deterministic(self):
        cluster = _cluster(2)
        graph = q6.build()
        first = explain_distributed(graph, CATALOG, cluster=cluster,
                                    data_scale=4)
        second = explain_distributed(q6.build(), CATALOG,
                                     cluster=cluster, data_scale=4)
        assert first == second
        assert "EXPLAIN DISTRIBUTED" in first
        assert "co-partitioned" in first


class TestNewDeviceCluster:
    """The RT-core / coupled-APU plug-ins on the heterogeneous-node
    path: a two-node cluster mixing both new devices survives losing
    the RT-core mid-run (failover to the APU within the node, or to the
    surviving node)."""

    def _cluster(self, nodes=2):
        from repro.devices import CoupledDevice, RTCoreDevice
        from repro.hardware import APU_RYZEN_7_8700G, GPU_RTX_3090
        from repro.task.registry import register_variant_kernels

        cluster = ClusterExecutor(nodes=nodes, network="eth_100g")
        cluster.plug_device("rt0", RTCoreDevice, GPU_RTX_3090,
                            default=True)
        cluster.plug_device("apu0", CoupledDevice, APU_RYZEN_7_8700G)
        for node in cluster.nodes:
            register_variant_kernels(node.engine.registry, "rtcore")
            register_variant_kernels(node.engine.registry, "coupled")
        return cluster

    def _single(self):
        from repro.devices import CoupledDevice, RTCoreDevice
        from repro.hardware import APU_RYZEN_7_8700G, GPU_RTX_3090
        from repro.task.registry import register_variant_kernels

        engine = Engine()
        engine.plug_device("rt0", RTCoreDevice, GPU_RTX_3090,
                           default=True)
        engine.plug_device("apu0", CoupledDevice, APU_RYZEN_7_8700G)
        register_variant_kernels(engine.registry, "rtcore")
        register_variant_kernels(engine.registry, "coupled")
        return engine

    def test_rtcore_loss_fails_over_within_node(self):
        """Losing the RT-core leaves the APU to carry the shard: no
        node failover, answers unchanged."""
        cluster = self._cluster()
        dist = _run_losing(cluster, "rt0:device_loss:1", "q6",
                           self._single())
        assert dist.stats.node_failovers == 0
        assert not cluster.node("node0").lost
        assert dist.stats.failovers >= 1

    def test_losing_every_new_device_fails_over_to_survivor(self):
        """node0 loses RT-core *and* APU: the shard re-runs on node1."""
        cluster = self._cluster()
        dist = _run_losing(cluster, "rt0:device_loss:1,apu0:device_loss:1",
                           "q3", self._single())
        assert dist.stats.node_failovers == 1
        assert cluster.node("node0").lost
        assert dist.stats.node_seconds["node0"] == 0.0
        assert dist.stats.node_seconds["node1"] > 0.0


# Slice-view partitioning == each range's row mask


def orders_table(keys: list[int]) -> Table:
    return Table("orders", [
        Column("o_orderkey", np.array(keys, dtype=np.int64)),
        Column("o_row", np.arange(len(keys), dtype=np.int64)),
        DictionaryColumn.from_strings(
            "o_status", [("F", "O", "P")[k % 3] for k in keys]),
    ])


def assert_shards_are_the_masks(parts: list[Table], table: Table,
                                ranges) -> None:
    keys = table.column("o_orderkey").values
    assert len(parts) == len(ranges)
    for part, key_range in zip(parts, ranges):
        mask = (keys >= key_range.lo) & (keys < key_range.hi)
        assert part.name == table.name
        assert part.column_names == table.column_names
        for mine, column in zip(part.columns, table.columns):
            assert type(mine) is type(column)
            assert mine.values.dtype == column.values.dtype
            assert np.array_equal(mine.values, column.values[mask])
            assert not mine.values.flags.writeable
            if isinstance(column, DictionaryColumn):
                assert mine.dictionary == column.dictionary
    # The ranges cover every key: each row is in exactly one shard.
    assert sum(part.num_rows for part in parts) == len(keys)


def shares_every_column(part: Table, table: Table) -> bool:
    return all(np.shares_memory(c.values, table.column(c.name).values)
               for c in part.columns)


class TestPartitionTable:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 60), max_size=40), st.integers(1, 8),
           st.randoms(use_true_random=False))
    def test_shards_are_the_range_masks(self, keys, num_nodes, shuffler):
        table = orders_table(sorted(keys))
        catalog = Catalog()
        catalog.add(table)
        ranges = make_scheme(catalog, num_nodes).ranges["orders"]
        parts = partition_table(table, "o_orderkey", ranges)
        assert_shards_are_the_masks(parts, table, ranges)
        # Sorted keys: every non-empty shard is a view (empty ranges --
        # more nodes than distinct keys -- hold no bytes to share).
        assert all(shares_every_column(part, table)
                   for part in parts if part.num_rows)

        shuffler.shuffle(keys)
        shuffled = orders_table(keys)
        parts = partition_table(shuffled, "o_orderkey", ranges)
        assert_shards_are_the_masks(parts, shuffled, ranges)
        if keys != sorted(keys):
            assert not any(shares_every_column(part, shuffled)
                           for part in parts)
