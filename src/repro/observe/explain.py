"""EXPLAIN: render a primitive graph's execution plan before running it.

:func:`explain` answers "what would the executor do with this plan?"
without spending any simulated time: which pipelines the graph splits
into, which device each one runs on, which kernel variant every node
resolves to, where the pipeline breakers sit, how many chunks the scan
loop would take, and what the calibrated
:class:`~repro.hardware.costmodel.CostModel` estimates each step to
cost.  The estimates deliberately reuse the same decay model as the
cost-based placement pass (:mod:`repro.planner.placement`), so EXPLAIN,
the optimizer, and the simulation never disagree about what is cheap.

The output is a deterministic function of (graph, catalog, devices,
options): rendering the same plan twice yields byte-identical text,
which the test suite asserts.
"""

from __future__ import annotations

from repro.core.graph import PrimitiveGraph, PrimitiveNode
from repro.core.models import MODELS
from repro.core.pipelines import (
    chunk_count,
    full_input_refusal,
    split_pipelines,
)
from repro.devices.base import SimulatedDevice
from repro.errors import ExecutionError
from repro.planner.compile import compile_plan
from repro.planner.cost import (
    estimate_graph_seconds,
    pipeline_placements,
    pipeline_shape,
)
from repro.planner.ir import DEFAULT_CHUNK_SIZE as _DEFAULT_CHUNK_SIZE
from repro.primitives.definitions import FUSED_PRIMITIVES
from repro.storage import Catalog

__all__ = ["explain", "explain_distributed", "explain_plans"]


def _fmt_seconds(seconds: float) -> str:
    return f"{seconds:.6g}s"


def _fmt_bytes(nbytes: int) -> str:
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return (f"{int(value)}{unit}" if unit == "B"
                    else f"{value:.1f}{unit}")
        value /= 1024
    raise AssertionError("unreachable")  # pragma: no cover


def _node_line(node: PrimitiveNode, device: SimulatedDevice,
               est: float, cached: bool = False) -> str:
    if node.primitive in FUSED_PRIMITIVES:
        steps = [step["primitive"] for step in node.params.get("steps", [])]
        primitive = f"{node.primitive}[{'+'.join(steps)}]"
    else:
        primitive = node.primitive
    variant = node.variant or device.variant_key
    breaker = "  *breaker*" if node.is_breaker else ""
    marker = "  [cached]" if cached else ""
    return (f"    {node.node_id}: {primitive}  variant={variant}  "
            f"est={_fmt_seconds(est)}{breaker}{marker}")


def explain(graph: PrimitiveGraph, catalog: Catalog, *,
            devices: dict[str, SimulatedDevice],
            default_device: str | None = None, model: str = "chunked",
            chunk_size: int = _DEFAULT_CHUNK_SIZE, data_scale: int = 1,
            fuse: bool = False, adaptive: bool = False,
            subplan_cache: object | None = None) -> str:
    """Render the execution plan for *graph* as an annotated tree.

    Args:
        graph: The primitive graph to explain (not mutated; fusion is
            applied to a copy when *fuse* is set).
        catalog: Supplies scan cardinalities and byte volumes.
        devices: Plugged devices by name (same mapping the executor or
            engine holds).
        default_device: Device for nodes without a placement annotation
            (defaults to the alphabetically first plugged device).
        model: Execution-model name, shown in the header and used to
            decide whether scans are chunked (``"oaat"`` is not).
        chunk_size: Logical rows per chunk for the chunk count.
        data_scale: Logical rows represented by each physical row.
        fuse: Apply the kernel-fusion pass before explaining, matching
            ``run(..., fuse=True)``.
        adaptive: Annotate the plan with the adaptive-execution actions
            ``run(..., adaptive=True)`` would arm (dynamic chunk
            sizing, split-model work stealing, re-placement).
        subplan_cache: Optional engine
            :class:`~repro.engine.subplan_cache.SubplanCache`; nodes
            whose subtree result is already cached (and would be served
            instead of executed) are marked ``[cached]``.  Probing is
            read-only — rendering never touches hit/miss counters.
    """
    if not devices:
        raise ExecutionError("no devices to explain against")
    if default_device is None:
        default_device = sorted(devices)[0]
    if default_device not in devices:
        raise ExecutionError(
            f"default device {default_device!r} not plugged; "
            f"plugged: {sorted(devices)}")
    plan = compile_plan(graph, model=model, chunk_size=chunk_size,
                        data_scale=data_scale, fuse=fuse, analyze=False,
                        adaptive=adaptive)
    graph = plan.graph
    graph.validate()
    estimates = estimate_graph_seconds(
        graph, catalog, devices, default_device, data_scale=data_scale)
    physical_chunk = plan.physical_chunk_rows

    cached_nodes: set[str] = set()
    if subplan_cache is not None and len(subplan_cache):
        from repro.core.fingerprint import subplan_fingerprint
        healthy = set(devices)
        cached_nodes = {
            nid for nid in graph.nodes
            if subplan_cache.peek(subplan_fingerprint(graph, nid), catalog,
                                  data_scale, healthy) is not None}

    lines = [
        f"EXPLAIN {graph.name}",
        f"  model={plan.model}  chunk_size={plan.chunk_size}  "
        f"data_scale={plan.data_scale}  "
        f"fuse={'on' if plan.fuse else 'off'}  "
        f"adaptive={'on' if plan.adaptive else 'off'}",
    ]
    for name in sorted(devices):
        device = devices[name]
        lines.append(
            f"  device {name}: {device.spec.kind.value}/"
            f"{device.sdk.value} ({device.spec.name})")

    # Operator-at-a-time has no chunk loop: one pass, nothing to refuse.
    chunked = "chunk" in MODELS[plan.model].tunable
    total = 0.0
    for pipeline in split_pipelines(graph):
        shape = pipeline_shape(graph, pipeline, catalog,
                               data_scale=data_scale)
        node_est = sum(estimates[nid] for nid in pipeline.node_ids)
        placements = pipeline_placements(graph, pipeline, default_device)
        transfer_est = shape.pageable_transfer_seconds(
            devices[placements[0]].cost)
        rows = shape.physical_rows
        chunks = (chunk_count(pipeline, rows, physical_chunk)
                  if chunked else 1)
        refusal = (full_input_refusal(pipeline, rows, physical_chunk)
                   if chunked else None)
        total += node_est + transfer_est
        lines.append(
            f"  pipeline {pipeline.index}  device={'+'.join(placements)}  "
            f"rows={rows * data_scale}  "
            f"chunks={chunks if refusal is None else 'refused'}  "
            f"est={_fmt_seconds(node_est + transfer_est)}")
        if refusal is not None:
            # What the run will do with this plan: raise exactly this.
            lines.append(f"    refused: {refusal}")
        if plan.adaptive and chunks > 1:
            if plan.model == "split_chunked" and len(devices) > 1:
                lines.append(
                    f"    adaptive: work-stealing morsel queue across "
                    f"{len(devices)} devices + online calibration")
            else:
                lines.append(
                    f"    adaptive: dynamic chunk sizing from "
                    f"{physical_chunk} physical rows + online calibration")
        for ref in pipeline.scan_refs:
            nbytes = catalog.column(ref).nbytes * data_scale
            lines.append(f"    scan {ref}  ({_fmt_bytes(nbytes)})")
        if pipeline.external_inputs:
            lines.append("    external inputs: "
                         + ", ".join(pipeline.external_inputs))
        for nid in pipeline.node_ids:
            node = graph.nodes[nid]
            lines.append(_node_line(
                node, devices[node.device or default_device],
                estimates[nid], cached=nid in cached_nodes))
    lines.append(f"  estimated total: {_fmt_seconds(total)}")
    return "\n".join(lines)


def explain_distributed(graph: PrimitiveGraph, catalog: Catalog, *,
                        cluster, model: str = "chunked",
                        chunk_size: int = _DEFAULT_CHUNK_SIZE,
                        data_scale: int = 1, fuse: bool = False) -> str:
    """EXPLAIN DISTRIBUTED: render the scale-out plan for *graph*.

    Shows what :meth:`~repro.cluster.ClusterExecutor.run` would do —
    how every scanned table is distributed (co-partitioned key ranges,
    replicated, broadcast with its shipped bytes), the shard-local
    estimate per node, and the priced GATHER-vs-SHUFFLE exchange choice
    — without executing anything.  Like :func:`explain`, the output is
    a deterministic function of (graph, catalog, cluster, options);
    the golden tests assert byte-identical renders.
    """
    from repro.cluster.planner import ShardPlanner

    plan = compile_plan(graph, model=model, chunk_size=chunk_size,
                        data_scale=data_scale, fuse=fuse, analyze=False,
                        adaptive=False)
    graph = plan.graph
    graph.validate()
    estimate = ShardPlanner(cluster).estimate(
        graph, catalog, cluster.num_nodes, data_scale=data_scale)
    distribution = cluster.classify_tables(graph)
    bcast = cluster.broadcast_columns(graph, catalog, distribution,
                                      data_scale)
    from repro.cluster.partition import PARTITION_KEYS, make_scheme
    scheme = make_scheme(catalog, cluster.num_nodes)
    tier = cluster.network

    lines = [
        f"EXPLAIN DISTRIBUTED {graph.name}",
        f"  model={plan.model}  chunk_size={plan.chunk_size}  "
        f"data_scale={plan.data_scale}  "
        f"fuse={'on' if plan.fuse else 'off'}",
        f"  cluster: {cluster.num_nodes} nodes  network={tier.name} "
        f"({tier.bandwidth / 1e9:g}GB/s, {tier.latency_s * 1e6:g}us)",
    ]
    node0 = cluster.nodes[0]
    for name in sorted(node0.devices):
        device = node0.devices[name]
        lines.append(
            f"  device {name} (per node): {device.spec.kind.value}/"
            f"{device.sdk.value} ({device.spec.name})")
    lines.append("  partitioning:")
    for table in sorted(distribution):
        how = distribution[table]
        if how == "co-partitioned":
            ranges = " / ".join(str(r) for r in scheme.ranges[table])
            lines.append(f"    {table}: co-partitioned on "
                         f"{PARTITION_KEYS[table]}  {ranges}")
        elif how == "broadcast":
            lines.append(f"    {table}: broadcast  "
                         f"({_fmt_bytes(bcast.get(table, 0))} scanned)")
        else:
            lines.append(f"    {table}: replicated")
    for index, node in enumerate(cluster.nodes):
        local = estimate.local_per_node[index]
        partial = estimate.partial_bytes[index]
        lines.append(
            f"  node {node.name}: shard est={_fmt_seconds(local)}  "
            f"partials={_fmt_bytes(partial)}")
    exchange = estimate.exchange
    lines.append(
        f"  exchange: merged={_fmt_bytes(exchange.merged_bytes)}  "
        f"gather={_fmt_seconds(exchange.gather_est)}  "
        f"shuffle={_fmt_seconds(exchange.shuffle_est)}  "
        f"chosen={exchange.strategy.upper()}")
    lines.append(
        f"  estimated total: {_fmt_seconds(estimate.total_seconds)}  "
        f"(broadcast {_fmt_seconds(estimate.broadcast_seconds)} + "
        f"local {_fmt_seconds(estimate.local_seconds)} + "
        f"exchange {_fmt_seconds(exchange.seconds)})")
    return "\n".join(lines)


def explain_plans(graph: PrimitiveGraph, catalog: Catalog, *,
                  devices: dict[str, SimulatedDevice],
                  default_device: str | None = None,
                  chunk_size: int = _DEFAULT_CHUNK_SIZE,
                  data_scale: int = 1, top_k: int = 3,
                  overlay: dict[str, float] | None = None) -> str:
    """EXPLAIN PLANS: render the optimizer's top-k ranked candidates.

    Runs the cost-based search
    (:meth:`~repro.planner.optimizer.PlanOptimizer.search`) without
    executing anything and renders each surviving candidate with its
    decision vector and cost breakdown.  Like :func:`explain`, the
    output is a deterministic function of (graph, catalog, devices,
    options) — byte-identical across renders, which the golden tests
    assert.
    """
    if not devices:
        raise ExecutionError("no devices to explain against")
    if default_device is None:
        default_device = sorted(devices)[0]
    if default_device not in devices:
        raise ExecutionError(
            f"default device {default_device!r} not plugged; "
            f"plugged: {sorted(devices)}")
    from repro.planner.optimizer import PlanOptimizer
    optimizer = PlanOptimizer(
        catalog, devices, default_device=default_device,
        data_scale=data_scale, overlay=overlay)
    report = optimizer.search(graph, chunk_size=chunk_size, top_k=top_k)

    lines = [
        f"EXPLAIN PLANS {graph.name}",
        f"  data_scale={data_scale}  requested_chunk={chunk_size}  "
        f"beam={report.beam_width}",
    ]
    for name in sorted(devices):
        device = devices[name]
        lines.append(
            f"  device {name}: {device.spec.kind.value}/"
            f"{device.sdk.value} ({device.spec.name})")
    lines.append(
        f"  searched {report.enumerated} candidates, "
        f"pruned {report.pruned}, showing top {len(report.ranked)}")
    for rank, cand in enumerate(report.ranked, start=1):
        if rank == 1:
            marker = "chosen"
        else:
            delta = cand.cost.total - report.chosen.cost.total
            marker = f"+{_fmt_seconds(delta)}"
        lines.append(
            f"  #{rank}  est={_fmt_seconds(cand.cost.total)}  "
            f"[{marker}]")
        lines.append(f"      {cand.describe()}")
        lines.append(
            f"      transfer={_fmt_seconds(cand.cost.transfer_seconds)}  "
            f"kernel={_fmt_seconds(cand.cost.kernel_seconds)}  "
            f"launch={_fmt_seconds(cand.cost.launch_seconds)}")
        for pipeline in cand.cost.pipelines:
            lines.append(
                f"      pipeline {pipeline.index}  "
                f"device={pipeline.device}  chunks={pipeline.chunks}  "
                f"est={_fmt_seconds(pipeline.total)}")
    return "\n".join(lines)
