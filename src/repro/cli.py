"""Command-line interface: run queries and compare execution models.

Usage::

    python -m repro devices
    python -m repro explain q6
    python -m repro run --query q6 --model four_phase_pipelined --sf 0.02
    python -m repro run --query q6 --analyze --metrics-out metrics.prom
    python -m repro compare --query q3 --sf 0.02 --data-scale 1024
    python -m repro run --query q3 --faults "dev0:transient:0.05,seed=7"
    python -m repro serve --qps 800 --duration 0.02 --scenario overload

Each query subcommand parses argv into the plan flags of one
:class:`~repro.engine.QueryRequest` per query and one :class:`Fleet`
(the device, nodes and faults it runs on); :func:`_execute` runs a
request on the fleet's target.

Exit codes: 0 success, 1 oracle mismatch, 2 user error (e.g. a
malformed ``--faults`` spec), 3 execution failure, 4 per-query
wall-clock retry budget exhausted (``--retry-budget``).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

from repro import devices, hardware
from repro.cluster import ClusterExecutor
from repro.core.executor import DEFAULT_CHUNK_SIZE, AdamantExecutor
from repro.core.models import MODELS
from repro.engine import Engine, QueryRequest
from repro.errors import (
    AdamantError,
    FaultConfigError,
    RetryBudgetExhaustedError,
)
from repro.faults import SCENARIOS, FaultPlan, RetryPolicy
from repro.tpch import generate, reference
from repro.tpch.queries import QUERIES

__all__ = ["main"]

#: Each driver with its default spec: the driver's kind of silicon, or
#: the part it needs (RT cores need a GPU that has them; the coupled
#: driver an APU whose CPU and GPU share physical memory).
DRIVERS = {
    "cuda": (devices.CudaDevice, hardware.GPU_RTX_2080_TI),
    "opencl-gpu": (devices.OpenCLDevice, hardware.GPU_RTX_2080_TI),
    "opencl-cpu": (devices.OpenCLDevice, hardware.CPU_I7_8700),
    "openmp": (devices.OpenMPDevice, hardware.CPU_I7_8700),
    "rtcore": (devices.RTCoreDevice, hardware.GPU_RTX_3090),
    "coupled": (devices.CoupledDevice, hardware.APU_RYZEN_7_8700G),
}

SPECS = {
    "2080ti": hardware.GPU_RTX_2080_TI,
    "3090": hardware.GPU_RTX_3090,
    "8700g": hardware.APU_RYZEN_7_8700G,
    "a100": hardware.GPU_A100,
    "i7": hardware.CPU_I7_8700,
    "xeon": hardware.CPU_XEON_5220R,
}


class UsageError(Exception):
    """A flag the CLI refuses: its message goes to stderr, exit 2."""


@dataclass(frozen=True)
class Fleet:
    """What one invocation runs on: the device plugged as ``dev0``
    (driver, spec, memory limit), how many nodes over which network,
    and the faults and retry budget it is armed with."""

    driver: str
    spec: str | None
    memory_limit: int | None
    nodes: int
    network: str
    faults: FaultPlan | None
    retry_budget: float | None
    overlay_path: str | None

    @classmethod
    def of(cls, args) -> Fleet:
        """The fleet *args* describe, armed by ``--faults`` or by serve's
        ``--scenario``."""
        options = vars(args)
        faults, scenario = options.get("faults"), options.get("scenario")
        if faults and scenario:
            raise UsageError("--faults conflicts with --scenario; pass one "
                             "or the other")
        plan = (FaultPlan.parse(faults) if faults
                else SCENARIOS[scenario]() if scenario else None)
        nodes = options.get("nodes", 1)
        if nodes < 1:
            raise UsageError(f"--nodes must be >= 1, got {nodes}")
        return cls(
            driver=options.get("driver", "cuda"), spec=options.get("spec"),
            memory_limit=options.get("memory_limit"), nodes=nodes,
            network=options.get("network", "eth_100g"), faults=plan,
            retry_budget=options.get("retry_budget"),
            overlay_path=options.get("overlay_path"))

    @property
    def armed(self) -> bool:
        """Faults or a retry budget: recovery runs, on an engine."""
        return self.faults is not None or self.retry_budget is not None

    def plug(self, target) -> None:
        """Plug ``dev0`` into *target* (an executor, an engine or a
        cluster — it is the first plugged, so the default).  An armed
        single-node fleet gives a GPU driver the host device ``host0``
        beside it, so a ``device_loss`` clause demonstrates failover."""
        driver, default = DRIVERS[self.driver]
        target.plug_device("dev0", driver,
                           SPECS[self.spec] if self.spec else default,
                           memory_limit=self.memory_limit)
        if (self.armed and self.nodes == 1
                and default.kind is hardware.DeviceKind.GPU):
            target.plug_device("host0", devices.OpenMPDevice,
                               hardware.CPU_I7_8700)

    def engine(self, **options) -> Engine:
        """An engine with this fleet's faults and retry budget armed."""
        policy = (RetryPolicy(budget_seconds=self.retry_budget)
                  if self.retry_budget is not None else None)
        engine = Engine(faults=self.faults, retry_policy=policy, **options)
        self.plug(engine)
        return engine

    def target(self):
        """Where one request runs: a cluster for several nodes (a fault
        plan arms ``node0``), an armed engine, or else the facade."""
        if self.nodes > 1:
            cluster = ClusterExecutor(nodes=self.nodes, network=self.network)
            self.plug(cluster)
            if self.faults is not None:
                cluster.install_faults("node0", self.faults)
            return cluster
        if self.armed:
            return self.engine()
        executor = AdamantExecutor(overlay_path=self.overlay_path)
        self.plug(executor)
        return executor


def _request(args, catalog, name: str) -> QueryRequest:
    """The plan flags of *args* as one request for query *name*."""
    options = vars(args)
    return QueryRequest(
        graph=QUERIES[name].build(catalog), catalog=catalog, label=name,
        model=options.get("model", "chunked"), chunk_size=args.chunk_size,
        data_scale=options.get("data_scale", 1), fuse=not args.no_fuse,
        analyze=options.get("analyze", False),
        adaptive=options.get("adaptive", False))


def _plan_flags(request: QueryRequest) -> dict:
    """The plan flags of *request* as the keywords every front door and
    ``explain`` take."""
    return dict(model=request.model, chunk_size=request.chunk_size,
                data_scale=request.data_scale, fuse=request.fuse,
                adaptive=request.adaptive)


def _execute(target, request: QueryRequest):
    """Run *request* on a :meth:`Fleet.target`."""
    flags = _plan_flags(request)
    if isinstance(target, ClusterExecutor):
        return target.run(lambda: request.graph, request.catalog, **flags)
    run = target.execute if isinstance(target, Engine) else target.run
    return run(request.graph, request.catalog, analyze=request.analyze,
               **flags)


def _verdict(name: str, result, catalog) -> tuple[object, bool]:
    """Query *name*'s answer in *result*, and whether it matches the
    oracle."""
    answer = QUERIES[name].finalize(result, catalog)
    return answer, reference.matches(answer,
                                     getattr(reference, name)(catalog))


def _write_metrics(path: str | None, metrics) -> None:
    """Export *metrics* to *path* (.json -> JSON, else Prometheus text);
    no path, no file."""
    if not path:
        return
    text = (metrics.to_json() if path.endswith(".json")
            else metrics.prometheus_text())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"metrics written to {path}")


def _query_list(text: str, known, example: str, unknown: str) -> list[str]:
    """The names of a comma-separated ``--queries`` value; an empty list
    or a name not in *known* is refused (*unknown* formats the names)."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise UsageError(f"no queries given (expected e.g. --queries "
                         f"{example})")
    missing = [name for name in names if name not in known]
    if missing:
        raise UsageError(unknown.format(", ".join(missing)))
    return names


def cmd_devices(_args) -> int:
    print(f"{'device':24s} {'kind':5s} {'memory':>10s} "
          f"{'mem bw':>10s} {'interconnect':>13s} {'units':>6s}")
    for spec in [*hardware.ALL_GPUS, hardware.GPU_RTX_3090,
                 hardware.APU_RYZEN_7_8700G, hardware.CPU_I7_8700,
                 hardware.CPU_XEON_5220R]:
        print(f"{spec.name:24s} {spec.kind.value:5s} "
              f"{spec.memory_bytes / 2**30:>8.1f}Gi "
              f"{spec.mem_bandwidth / 1e9:>7.0f}GB/s "
              f"{spec.interconnect_bandwidth / 1e9:>10.0f}GB/s "
              f"{spec.compute_units:>6d}")
    return 0


def cmd_figures(args) -> int:
    """Run the benchmark harness; tables land in benchmarks/results/."""
    import pathlib

    import pytest

    bench_dir = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
    if not bench_dir.is_dir():
        raise UsageError(f"benchmark directory not found at {bench_dir}")
    argv = [str(bench_dir), "--benchmark-only", "-s", "-q"]
    if args.filter:
        argv += ["-k", args.filter]
    return pytest.main(argv)


def cmd_micro(args) -> int:
    """Primitive throughput across drivers (Figures 5 and 9)."""
    from repro.bench import DRIVER_MATRIX, MicroBench

    bench = MicroBench(logical_n=args.logical_n, setup=args.setup)
    cost_params = {}
    if args.groups is not None:
        cost_params["groups"] = args.groups
    print(f"primitive={args.primitive} setup={args.setup} "
          f"n={args.logical_n}")
    print(f"{'driver':14s} {'throughput':>18s}")
    for key, _, _ in DRIVER_MATRIX:
        result = bench.profile(key, args.primitive,
                               cost_params=cost_params)
        print(f"{key:14s} {result.throughput / 1e9:>12.2f} Gelem/s")
    return 0


def cmd_validate(args) -> int:
    """Every query x model x driver must match its oracle exactly."""
    catalog = generate(args.sf, seed=args.seed)
    fleet = Fleet.of(args)
    failures = 0
    models = sorted(MODELS)
    print(f"validating {len(QUERIES)} queries x {len(models)} models x "
          f"{len(DRIVERS)} drivers at SF {args.sf}")
    for qname, module in sorted(QUERIES.items()):
        request = _request(args, catalog, qname)
        expected = getattr(reference, qname)(catalog)
        for driver_name in sorted(DRIVERS):
            executor = replace(fleet, driver=driver_name).target()
            for model in models:
                try:
                    answer = module.finalize(_execute(
                        executor, replace(request, model=model)), catalog)
                    ok = reference.matches(answer, expected)
                except Exception as error:
                    ok = False
                    answer = f"{type(error).__name__}: {error}"
                if not ok:
                    failures += 1
                    print(f"FAIL {qname} {driver_name} {model}: {answer}")
    total = len(QUERIES) * len(models) * len(DRIVERS)
    print(f"{total - failures}/{total} combinations match the oracles")
    return 1 if failures else 0


def cmd_explain(args) -> int:
    """Render the query's plan the way the executor would run it."""
    from repro.observe import explain, explain_distributed, explain_plans

    if args.plans is not None and args.plans < 1:
        raise UsageError(f"--plans must be >= 1, got {args.plans}")
    if args.plans is not None and args.nodes > 1:
        raise UsageError("--plans does not combine with --nodes")
    fleet = Fleet.of(args)
    catalog = generate(args.sf, seed=args.seed)
    request = _request(args, catalog, args.query)
    target = fleet.target()
    flags = _plan_flags(request)
    if isinstance(target, ClusterExecutor):
        del flags["adaptive"]  # no adaptive annotations across nodes
        print(explain_distributed(request.graph, catalog, cluster=target,
                                  **flags))
    elif args.plans is not None:
        print(explain_plans(request.graph, catalog, devices=target.devices,
                            default_device=target.default_device,
                            chunk_size=request.chunk_size,
                            data_scale=request.data_scale,
                            top_k=args.plans))
    else:
        print(explain(request.graph, catalog, devices=target.devices,
                      default_device=target.default_device, **flags))
    return 0


def cmd_run(args) -> int:
    fleet = Fleet.of(args)
    sharded = fleet.nodes > 1
    if sharded and args.model == "auto":
        raise UsageError("--nodes does not combine with --model auto (the "
                         "shard planner prices node counts instead; see "
                         "'repro explain --nodes')")
    if sharded and args.retry_budget is not None:
        raise UsageError("--retry-budget is a single-node engine flag; it "
                         "does not combine with --nodes")
    if sharded and args.analyze:
        raise UsageError("--analyze does not combine with --nodes (a "
                         "sharded run has no profile yet; ROADMAP: 'One "
                         "trace id per request; ANALYZE for served "
                         "requests and for clusters')")
    catalog = generate(args.sf, seed=args.seed)
    request = _request(args, catalog, args.query)
    target = fleet.target()
    result = _execute(target, request)
    answer, matches = _verdict(args.query, result, catalog)
    stats = result.stats
    print(f"query={args.query} model={args.model} driver={args.driver} "
          f"fuse={request.fuse}"
          + (f" nodes={fleet.nodes} network={fleet.network}"
             if sharded else ""))
    print(f"result: {answer}")
    print(f"oracle match: {matches}")
    if sharded:
        print(f"simulated time: {stats.makespan:.6f} s "
              f"(broadcast {stats.broadcast_seconds:.6f} s + local "
              f"{max(stats.node_seconds.values()):.6f} s + "
              f"{stats.exchange_strategy} {stats.exchange_seconds:.6f} s)")
        for name in sorted(stats.node_seconds):
            print(f"  node {name}: {stats.node_seconds[name]:.6f} s")
        print(f"exchange: {stats.broadcast_bytes} broadcast bytes, "
              f"{stats.exchange_bytes} partial bytes")
        if fleet.faults is not None:
            print(f"recovery: {stats.retries} retries, "
                  f"{stats.failovers} device failovers, "
                  f"{stats.node_failovers} node failovers")
    else:
        print(f"simulated time: {stats.makespan:.6f} s "
              f"({stats.chunks_processed} chunks, "
              f"{stats.kernel_invocations} kernels, "
              f"{stats.kernels_launched} launches, "
              f"{stats.fused_nodes} fused nodes)")
        if fleet.faults is not None:
            print(f"recovery: {stats.retries} retries, "
                  f"{stats.oom_recoveries} oom recoveries, "
                  f"{stats.failovers} failovers, "
                  f"quarantined={stats.quarantined_devices or '[]'}")
        if request.adaptive:
            print(f"adaptive: {stats.adaptive_resizes} resizes, "
                  f"{stats.adaptive_steals} steals, "
                  f"{stats.adaptive_replacements} replacements")
        if request.analyze and result.profile is not None:
            print(result.profile.render())
    _write_metrics(args.metrics_out, target.metrics)
    return 0 if matches else 1


def cmd_compare(args) -> int:
    catalog = generate(args.sf, seed=args.seed)
    executor = Fleet.of(args).target()
    request = _request(args, catalog, args.query)
    print(f"query={args.query} driver={args.driver} "
          f"data_scale={args.data_scale}")
    print(f"{'model':24s} {'ok':4s} {'time':>12s} {'vs chunked':>11s}")
    baseline = None
    status = 0
    for model in MODELS:
        try:
            result = _execute(executor, replace(request, model=model))
        except Exception as error:  # OOM for oaat is expected behaviour
            print(f"{model:24s} --   {type(error).__name__}: {error}")
            continue
        _, ok = _verdict(args.query, result, catalog)
        status |= 0 if ok else 1
        t = result.stats.makespan
        if model == "chunked":
            baseline = t
        ratio = f"{baseline / t:.2f}x" if baseline else "-"
        print(f"{model:24s} {str(ok):4s} {t:>10.6f} s {ratio:>11s}")
    return status


def cmd_concurrent(args) -> int:
    """Interleave a query batch on one shared device (engine mode)."""
    fleet = Fleet.of(args)
    names = _query_list(args.queries, QUERIES, "q3,q4,q6",
                        "unknown queries: {}")
    catalog = generate(args.sf, seed=args.seed)
    engine = fleet.engine(enable_subplan_cache=not args.no_subplan_cache)
    requests = {name: _request(args, catalog, name) for name in names}
    batch = [requests[name] for name in names]
    status = 0
    results = []
    for round_no in range(1, max(1, args.rounds) + 1):
        results = engine.run_concurrent(batch)
        combined = max(r.stats.makespan for r in results)
        print(f"round {round_no}: combined makespan {combined:.6f} s")
        print(f"  {'query':6s} {'ok':4s} {'makespan':>12s} "
              f"{'transfer':>12s} {'cache hits':>11s} {'subplan':>8s}")
        for name, result in zip(names, results):
            _, ok = _verdict(name, result, catalog)
            status |= 0 if ok else 1
            print(f"  {name:6s} {str(ok):4s} "
                  f"{result.stats.makespan:>10.6f} s "
                  f"{result.stats.transfer_bytes:>10d} B "
                  f"{result.stats.residency_hits:>11d} "
                  f"{result.stats.subplan_cache_hits:>8d}")
        if fleet.faults is not None:
            print(f"  recovery: "
                  f"{sum(r.stats.retries for r in results)} retries, "
                  f"{sum(r.stats.oom_recoveries for r in results)} oom, "
                  f"{sum(r.stats.failovers for r in results)} failovers, "
                  f"quarantined={engine.quarantined_devices or '[]'}")
    for device, stats in engine.residency_stats().items():
        print(f"residency[{device}]: "
              + " ".join(f"{k}={v}" for k, v in stats.items()))
    if engine.subplan_cache is not None:
        print("subplan cache: "
              + " ".join(f"{k}={v}"
                         for k, v in engine.subplan_stats().items()))
    if args.analyze:
        for result in results:
            if result.profile is not None:
                print(result.profile.render())
    _write_metrics(args.metrics_out, engine.metrics)
    return status


def cmd_serve(args) -> int:
    """Serve an open-loop workload over one shared engine."""
    from repro.observe import explain_admission
    from repro.serving import (
        AdmissionController,
        QueryService,
        TenantPolicy,
        open_loop_workload,
    )
    from repro.serving.workload import QUERY_MIX

    fleet = Fleet.of(args)
    names = _query_list(args.queries, QUERY_MIX, "q1,q6",
                        "unknown serve queries: {}; available: "
                        + ", ".join(sorted(QUERY_MIX)))
    catalog = generate(args.sf, seed=args.seed)
    engine = fleet.engine()
    controller = AdmissionController(
        default_policy=TenantPolicy(
            max_in_flight=args.max_in_flight,
            memory_budget=args.tenant_budget),
        max_queue_per_lane=args.max_queue)
    service = QueryService(
        engine, controller=controller,
        degrade_queue_depth=args.degrade_depth or None,
        preempt=not args.no_preempt)
    requests = open_loop_workload(
        catalog, qps=args.qps, duration_s=args.duration, seed=args.seed,
        interactive_fraction=args.interactive_frac,
        queries=tuple(names), chunk_size=args.chunk_size,
        data_scale=args.data_scale,
        interactive_deadline_s=(
            args.interactive_deadline_ms / 1e3
            if args.interactive_deadline_ms is not None else None),
        batch_deadline_s=(
            args.batch_deadline_ms / 1e3
            if args.batch_deadline_ms is not None else None))
    report = service.serve(requests)
    mismatches = sum(not _verdict(outcome.label, outcome.result, catalog)[1]
                     for outcome in report.outcomes if outcome.status == "ok")
    print(f"served {len(report.outcomes)} requests at {args.qps:g} qps "
          f"over {args.duration:g}s (virtual)")
    print(f"  {'lane':12s} {'sub':>5s} {'ok':>5s} {'shed':>5s} "
          f"{'ddl':>5s} {'fail':>5s} {'degr':>5s} {'cache':>5s} "
          f"{'p50':>11s} {'p95':>11s} {'miss%':>6s}")
    for lane, row in report.summary().items():
        p50 = (f"{row['p50_latency_s']:>10.6f}s"
               if row["p50_latency_s"] is not None else f"{'-':>11s}")
        p95 = (f"{row['p95_latency_s']:>10.6f}s"
               if row["p95_latency_s"] is not None else f"{'-':>11s}")
        print(f"  {lane:12s} {row['submitted']:>5d} {row['ok']:>5d} "
              f"{row['rejected']:>5d} {row['deadline']:>5d} "
              f"{row['failed']:>5d} {row['degraded']:>5d} "
              f"{row['cache_served']:>5d} {p50} {p95} "
              f"{row['deadline_miss_rate'] * 100:>5.1f}%")
    print(f"oracle mismatches among admitted: {mismatches}")
    if args.explain_admission:
        print(explain_admission(service.controller.decisions))
    _write_metrics(args.metrics_out, engine.metrics)
    return 1 if mismatches else 0


#: Every flag, with its one help text.  ``COMMANDS`` names the flags
#: each subcommand takes and where it changes a default or the choices.
FLAGS = {
    "query": dict(nargs="?", default="q6", choices=sorted(QUERIES),
                  help="TPC-H query"),
    "--query": dict(default="q6", choices=sorted(QUERIES), help="TPC-H query"),
    "--queries": dict(help="comma-separated query list"),
    "--sf": dict(type=float, default=0.01, help="physical TPC-H scale factor"),
    "--seed": dict(type=int, default=42, help="data generator seed"),
    "--driver": dict(default="cuda", choices=sorted(DRIVERS),
                     help="driver of the device dev0"),
    "--spec": dict(choices=sorted(SPECS),
                   help="hardware spec (defaults to the driver's kind)"),
    "--chunk-size": dict(type=int, default=DEFAULT_CHUNK_SIZE,
                         help="logical rows per chunk"),
    "--data-scale": dict(type=int, default=1,
                         help="logical rows represented per physical row"),
    "--memory-limit": dict(type=int, help="cap the device memory in bytes"),
    "--no-fuse": dict(action="store_true", help=(
        "disable the kernel-fusion pass (MAP/FILTER chains run as "
        "individual kernels)")),
    "--adaptive": dict(action="store_true", help=(
        "adaptive execution (online calibration, dynamic chunk sizing, "
        "work stealing); results stay byte-identical")),
    "--model": dict(default="chunked", choices=[*sorted(MODELS), "auto"],
                    help=("execution model; 'auto' lets the cost-based "
                          "optimizer pick model, placement, fusion and "
                          "chunk")),
    "--faults": dict(metavar="SPEC", help=(
        "inject faults and recover (engine mode), e.g. "
        "'dev0:transient:0.05,seed=7'; kinds: transient, oom, latency, "
        "device_loss; a GPU driver gets a host fallback device host0")),
    "--analyze": dict(action="store_true",
                      help="print each query's per-node ANALYZE profile"),
    "--metrics-out": dict(metavar="PATH", help=(
        "write the metrics (.json -> JSON, otherwise Prometheus text)")),
    "--nodes": dict(type=int, default=1, help=(
        "shard across this many simulated nodes; results stay "
        "byte-identical")),
    "--network": dict(default="eth_100g",
                      choices=sorted(hardware.NETWORK_TIERS),
                      help="network tier between nodes"),
    "--overlay-path": dict(metavar="PATH", help=(
        "JSON file of cost-overlay calibration that optimizer runs load "
        "and update")),
    "--retry-budget": dict(type=float, metavar="SECONDS", help=(
        "per-query wall-clock budget for retry backoff; exhausting it "
        "exits 4")),
    "--rounds": dict(type=int, default=2, help=(
        "repeat the batch (the residency cache warms up)")),
    "--no-subplan-cache": dict(action="store_true", help=(
        "disable the cross-query subplan result cache")),
    "--qps": dict(type=float, default=500.0,
                  help="mean arrivals per virtual second"),
    "--duration": dict(type=float, default=0.02,
                       help="arrival window in virtual seconds"),
    "--interactive-frac": dict(type=float, default=0.5, help=(
        "share of arrivals routed to the interactive lane")),
    "--interactive-deadline-ms": dict(type=float, help=(
        "per-request deadline of the interactive lane, virtual ms")),
    "--batch-deadline-ms": dict(type=float, help=(
        "per-request deadline of the batch lane, virtual ms")),
    "--max-in-flight": dict(type=int, default=4,
                            help="per-tenant in-flight quota"),
    "--tenant-budget": dict(type=int,
                            help="per-tenant admitted-bytes budget"),
    "--max-queue": dict(type=int, default=16, help=(
        "bounded admission queue per lane; arrivals beyond it are shed")),
    "--degrade-depth": dict(type=int, default=4, help=(
        "queue depth at which batch requests run with halved chunks "
        "(0 disables)")),
    "--no-preempt": dict(action="store_true", help=(
        "disable chunk-boundary preemption of batch pipelines")),
    "--scenario": dict(choices=sorted(SCENARIOS),
                       help="named chaos scenario (conflicts with --faults)"),
    "--explain-admission": dict(action="store_true", help=(
        "print the admission decision log after the run")),
    "--plans": dict(type=int, metavar="K", help=(
        "EXPLAIN PLANS: the optimizer's top-K ranked candidates (K >= 1)")),
    "--filter": dict(help="only benchmarks matching this pytest -k "
                          "expression"),
    "--primitive": dict(default="map", help="primitive to profile"),
    "--setup": dict(default="setup1", choices=["setup1", "setup2"]),
    "--logical-n": dict(type=int, default=2**28),
    "--groups": dict(type=int, help="group count for hash_agg contention"),
}

#: The data and device flags of every query subcommand.
_DEVICE = ("--sf --seed --driver --spec --chunk-size --data-scale "
           "--memory-limit")

#: Each subcommand in ``repro -h`` order: its handler, its help, its
#: flags, and the keywords of those flags that differ from ``FLAGS``.
COMMANDS = {
    "devices": (cmd_devices, "list simulated hardware specs", "", {}),
    "figures": (cmd_figures, "regenerate every paper figure (runs the "
                "benchmark suite)", "--filter", {}),
    "micro": (cmd_micro, "profile one primitive across all drivers "
              "(Section V-A methodology)",
              "--primitive --setup --logical-n --groups", {}),
    "validate": (cmd_validate, "run the full query x model x driver "
                 "correctness matrix against the oracles",
                 "--sf --seed --chunk-size --no-fuse",
                 {"--sf": dict(default=0.005),
                  "--chunk-size": dict(default=2048)}),
    "concurrent": (cmd_concurrent, "run several queries interleaved on one "
                   "shared device (engine mode, with cross-query data "
                   "residency)",
                   f"--queries {_DEVICE} --no-fuse --adaptive --model "
                   "--faults --analyze --metrics-out --rounds "
                   "--no-subplan-cache",
                   {"--queries": dict(default="q3,q4,q6"),
                    "--chunk-size": dict(default=2048)}),
    "serve": (cmd_serve, "serve an open-loop request stream over one shared "
              "engine (admission control, priority lanes, deadlines, "
              "shedding)",
              f"--qps --duration {_DEVICE} --faults --metrics-out --queries "
              "--interactive-frac --interactive-deadline-ms "
              "--batch-deadline-ms --max-in-flight --tenant-budget "
              "--max-queue --degrade-depth --no-preempt --scenario "
              "--explain-admission",
              {"--queries": dict(default="q1,q6,q14,q19"),
               "--sf": dict(default=0.002),
               "--chunk-size": dict(default=2048)}),
    "explain": (cmd_explain, "render a query's execution plan (pipelines, "
                "placement, variants, cost estimates) without running it",
                f"query {_DEVICE} --no-fuse --adaptive --nodes --network "
                "--model --plans",
                {"--model": dict(choices=sorted(MODELS))}),
    "run": (cmd_run, "run one query under one model",
            f"--query {_DEVICE} --no-fuse --adaptive --model --faults "
            "--analyze --metrics-out --nodes --network --overlay-path "
            "--retry-budget", {}),
    "compare": (cmd_compare, "run one query under all models",
                f"--query {_DEVICE} --no-fuse --adaptive", {}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ADAMANT reproduction: pluggable co-processor query "
                    "executor (ICDE 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags, changed) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        for flag in flags.split():
            cmd.add_argument(flag, **{**FLAGS[flag], **changed.get(flag, {})})
    return parser


#: Exit code and stderr prefix of each error the CLI reports, first
#: match wins (0 is success and 1 an oracle mismatch).
EXITS = [(UsageError, 2, ""), (FaultConfigError, 2, "error: "),
         (RetryBudgetExhaustedError, 4, "retry budget exhausted: "),
         (AdamantError, 3, "execution failed: ")]


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``repro devices | head -1``):
        # stop without a traceback, with the status a shell reports for
        # a writer that SIGPIPE ends (128 + 13), and send what is still
        # buffered to /dev/null so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, AdamantError) as error:
        code, prefix = next((code, prefix) for kind, code, prefix in EXITS
                            if isinstance(error, kind))
        print(f"{prefix}{error}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
