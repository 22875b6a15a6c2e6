"""Command-line interface: run queries and compare execution models.

Usage::

    python -m repro devices
    python -m repro explain q6
    python -m repro run --query q6 --model four_phase_pipelined --sf 0.02
    python -m repro run --query q6 --analyze --metrics-out metrics.prom
    python -m repro compare --query q3 --sf 0.02 --data-scale 1024
    python -m repro run --query q3 --faults "dev0:transient:0.05,seed=7"
    python -m repro serve --qps 800 --duration 0.02 --scenario overload

Exit codes: 0 success, 1 oracle mismatch, 2 user error (e.g. a
malformed ``--faults`` spec), 3 execution failure, 4 per-query
wall-clock retry budget exhausted (``--retry-budget``).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.executor import DEFAULT_CHUNK_SIZE, AdamantExecutor
from repro.core.models import MODELS
from repro.devices import (
    CoupledDevice,
    CudaDevice,
    OpenCLDevice,
    OpenMPDevice,
    RTCoreDevice,
)
from repro.errors import (
    AdamantError,
    FaultConfigError,
    RetryBudgetExhaustedError,
)
from repro.faults import SCENARIOS, FaultPlan, RetryPolicy
from repro.hardware import (
    ALL_GPUS,
    APU_RYZEN_7_8700G,
    CPU_I7_8700,
    CPU_XEON_5220R,
    GPU_A100,
    GPU_RTX_2080_TI,
    GPU_RTX_3090,
    NETWORK_TIERS,
)
from repro.tpch import generate, reference
from repro.tpch.queries import QUERIES

__all__ = ["main"]

DRIVERS = {
    "cuda": (CudaDevice, "GPU"),
    "opencl-gpu": (OpenCLDevice, "GPU"),
    "opencl-cpu": (OpenCLDevice, "CPU"),
    "openmp": (OpenMPDevice, "CPU"),
    "rtcore": (RTCoreDevice, "GPU"),
    "coupled": (CoupledDevice, "GPU"),
}

SPECS = {
    "2080ti": GPU_RTX_2080_TI,
    "3090": GPU_RTX_3090,
    "8700g": APU_RYZEN_7_8700G,
    "a100": GPU_A100,
    "i7": CPU_I7_8700,
    "xeon": CPU_XEON_5220R,
}

#: Per-driver default spec where the generic GPU/CPU default would be
#: wrong silicon (RT cores need a part that has them; the coupled
#: driver needs an APU whose CPU and GPU share physical memory).
DRIVER_DEFAULT_SPECS = {
    "rtcore": GPU_RTX_3090,
    "coupled": APU_RYZEN_7_8700G,
}


#: ``--adaptive`` help shared by the subcommands that execute queries.
ADAPTIVE_HELP = ("enable adaptive execution (online calibration, dynamic "
                 "chunk sizing, work stealing)")


def _add_plan_options(cmd, *, sf, chunk_size, described=False,
                      adaptive=None, optimizer=False, faults=None,
                      analyze=None, metrics_out=None, nodes=None) -> None:
    """Declare the data / device / plan flags the query subcommands share.

    Args:
        sf, chunk_size: The subcommand's defaults.
        described: Attach the long help texts (``run`` / ``compare``).
        adaptive: Help text of ``--adaptive``; a subcommand that passes
            none (``serve`` — its requests come from the workload
            generator) gets neither ``--no-fuse`` nor ``--adaptive``.
        optimizer: Declare ``--model`` with ``auto`` among its choices.
        faults, analyze, metrics_out, nodes: Help text of that flag
            (``--nodes`` brings ``--network``); None leaves it out.
    """
    def doc(text):
        return text if described else None

    cmd.add_argument("--sf", type=float, default=sf,
                     help=doc(f"physical TPC-H scale factor (default {sf})"))
    cmd.add_argument("--seed", type=int, default=42)
    cmd.add_argument("--driver", choices=sorted(DRIVERS), default="cuda")
    cmd.add_argument("--spec", choices=sorted(SPECS), default=None,
                     help=doc("hardware spec (defaults to the driver's kind)"))
    cmd.add_argument("--chunk-size", type=int, default=chunk_size,
                     help=doc("logical rows per chunk (default 2^25)"))
    cmd.add_argument("--data-scale", type=int, default=1,
                     help=doc("logical rows represented per physical row"))
    cmd.add_argument("--memory-limit", type=int, default=None,
                     help=doc("cap the device memory in bytes"))
    if adaptive is not None:
        cmd.add_argument("--no-fuse", action="store_true",
                         help="disable the kernel-fusion pass"
                              + (" (MAP/FILTER chains run as individual "
                                 "kernels)" if described else ""))
        cmd.add_argument("--adaptive", action="store_true", help=adaptive)
    if optimizer:
        cmd.add_argument("--model", choices=[*sorted(MODELS), "auto"],
                         default="chunked",
                         help="execution model (default chunked); 'auto' "
                              "lets the cost-based optimizer pick model, "
                              "placement, fusion and chunk size")
    if faults is not None:
        cmd.add_argument("--faults", default=None, metavar="SPEC", help=faults)
    if analyze is not None:
        cmd.add_argument("--analyze", action="store_true", help=analyze)
    if metrics_out is not None:
        cmd.add_argument("--metrics-out", default=None, metavar="PATH",
                         help=metrics_out)
    if nodes is not None:
        cmd.add_argument("--nodes", type=int, default=1, help=nodes)
        cmd.add_argument("--network", choices=sorted(NETWORK_TIERS),
                         default="eth_100g",
                         help="network tier between nodes (default eth_100g)")


def _plan_kwargs(args) -> dict:
    """The plan flags of *args* as the keywords ``run`` / ``execute`` /
    ``QueryRequest`` / ``cluster.run`` / ``explain`` all take."""
    return dict(chunk_size=args.chunk_size, data_scale=args.data_scale,
                fuse=not args.no_fuse, adaptive=args.adaptive)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ADAMANT reproduction: pluggable co-processor query "
                    "executor (ICDE 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list simulated hardware specs")

    figures = sub.add_parser(
        "figures",
        help="regenerate every paper figure (runs the benchmark suite)")
    figures.add_argument("--filter", default=None,
                         help="only benchmarks matching this substring "
                              "(pytest -k expression)")

    micro = sub.add_parser(
        "micro", help="profile one primitive across all drivers "
                      "(Section V-A methodology)")
    micro.add_argument("--primitive", default="map",
                       help="primitive to profile (default: map)")
    micro.add_argument("--setup", choices=["setup1", "setup2"],
                       default="setup1")
    micro.add_argument("--logical-n", type=int, default=2**28)
    micro.add_argument("--groups", type=int, default=None,
                       help="group count for hash_agg contention")

    validate = sub.add_parser(
        "validate", help="run the full query x model x driver "
                         "correctness matrix against the oracles")
    validate.add_argument("--sf", type=float, default=0.005)
    validate.add_argument("--seed", type=int, default=42)
    validate.add_argument("--chunk-size", type=int, default=2048)
    validate.add_argument("--no-fuse", action="store_true",
                          help="disable the kernel-fusion pass")

    concurrent = sub.add_parser(
        "concurrent",
        help="run several queries interleaved on one shared device "
             "(engine mode, with cross-query data residency)")
    concurrent.add_argument("--queries", default="q3,q4,q6",
                            help="comma-separated query list "
                                 "(default q3,q4,q6)")
    _add_plan_options(
        concurrent, sf=0.01, chunk_size=2048, adaptive=ADAPTIVE_HELP,
        optimizer=True,
        faults="inject faults, e.g. 'dev0:transient:0.05,seed=7' "
               "(device:kind:value[:primitive], kinds: transient, oom, "
               "latency, device_loss)",
        analyze="print a per-node ANALYZE profile for each query of the "
                "final round",
        metrics_out="write the engine's metrics after the batch (.json -> "
                    "JSON, otherwise Prometheus text format)")
    concurrent.add_argument("--rounds", type=int, default=2,
                            help="repeat the batch to show the residency "
                                 "cache warming up (default 2)")
    concurrent.add_argument("--no-subplan-cache", action="store_true",
                            help="disable the cross-query subplan "
                                 "result cache (computed intermediates "
                                 "are re-derived every round)")

    serve = sub.add_parser(
        "serve",
        help="serve an open-loop request stream over one shared engine "
             "(admission control, priority lanes, deadlines, shedding)")
    serve.add_argument("--qps", type=float, default=500.0,
                       help="mean arrival rate, requests per virtual "
                            "second (default 500)")
    serve.add_argument("--duration", type=float, default=0.02,
                       help="arrival window in virtual seconds "
                            "(default 0.02)")
    _add_plan_options(
        serve, sf=0.002, chunk_size=2048,
        faults="inject faults while serving, e.g. "
               "'dev0:transient:0.05,seed=7'",
        metrics_out="write the engine's metrics after the run")
    serve.add_argument("--queries", default="q1,q6,q14,q19",
                       help="comma-separated query mix "
                            "(default q1,q6,q14,q19)")
    serve.add_argument("--interactive-frac", type=float, default=0.5,
                       help="fraction of arrivals routed to the "
                            "interactive lane (default 0.5)")
    serve.add_argument("--interactive-deadline-ms", type=float,
                       default=None,
                       help="per-request deadline for the interactive "
                            "lane, in virtual milliseconds")
    serve.add_argument("--batch-deadline-ms", type=float, default=None,
                       help="per-request deadline for the batch lane, "
                            "in virtual milliseconds")
    serve.add_argument("--max-in-flight", type=int, default=4,
                       help="per-tenant in-flight quota (default 4)")
    serve.add_argument("--tenant-budget", type=int, default=None,
                       help="per-tenant admitted-bytes budget "
                            "(default unlimited)")
    serve.add_argument("--max-queue", type=int, default=16,
                       help="bounded admission queue per lane; "
                            "arrivals beyond it are shed (default 16)")
    serve.add_argument("--degrade-depth", type=int, default=4,
                       help="queue depth at which batch requests run "
                            "with halved chunks (default 4; 0 disables)")
    serve.add_argument("--no-preempt", action="store_true",
                       help="disable chunk-boundary preemption of "
                            "batch pipelines by interactive arrivals")
    serve.add_argument("--scenario", choices=sorted(SCENARIOS),
                       default=None,
                       help="named chaos scenario (conflicts with "
                            "--faults)")
    serve.add_argument("--explain-admission", action="store_true",
                       help="print the admission decision log after "
                            "the run")

    explain_cmd = sub.add_parser(
        "explain",
        help="render a query's execution plan (pipelines, placement, "
             "variants, cost estimates) without running it")
    explain_cmd.add_argument("query", nargs="?", default="q6",
                             choices=sorted(QUERIES))
    _add_plan_options(
        explain_cmd, sf=0.01, chunk_size=DEFAULT_CHUNK_SIZE,
        adaptive="annotate the plan with adaptive-execution actions",
        nodes="EXPLAIN DISTRIBUTED mode: render the scale-out plan for "
              "this many simulated nodes (>= 2)")
    explain_cmd.add_argument("--model", choices=sorted(MODELS),
                             default="chunked")
    explain_cmd.add_argument("--plans", type=int, default=None,
                             metavar="K",
                             help="EXPLAIN PLANS mode: render the "
                                  "optimizer's top-K ranked candidates "
                                  "with cost breakdowns instead of the "
                                  "single-plan tree (K >= 1)")

    for name, help_text in (("run", "run one query under one model"),
                            ("compare", "run one query under all models")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--query", choices=sorted(QUERIES), default="q6")
        shared = dict(sf=0.01, chunk_size=DEFAULT_CHUNK_SIZE, described=True,
                      adaptive=ADAPTIVE_HELP
                      + "; results stay byte-identical")
        if name == "compare":
            _add_plan_options(cmd, **shared)
            continue
        _add_plan_options(
            cmd, **shared, optimizer=True,
            faults="inject faults and run with recovery enabled (engine "
                   "mode), e.g. 'dev0:transient:0.05,seed=7'; a GPU driver "
                   "gets a host fallback device 'host0' for failover",
            analyze="print the per-node ANALYZE profile after the run",
            metrics_out="write the run's metrics (.json -> JSON, otherwise "
                        "Prometheus text format)",
            nodes="shard the query across this many simulated nodes "
                  "(default 1 = single-node); results stay byte-identical")
        cmd.add_argument("--overlay-path", default=None, metavar="PATH",
                         help="JSON file for persisted cost-overlay "
                              "calibration; optimizer runs load it and "
                              "fold their observations back in")
        cmd.add_argument("--retry-budget", type=float, default=None,
                         metavar="SECONDS",
                         help="per-query wall-clock budget for retry "
                              "backoff (engine mode, with --faults); "
                              "exhausting it fails the query with exit "
                              "code 4")
    return parser


def _plug_devices(target, driver_name, spec_name=None, *,
                  memory_limit=None, host_fallback=False) -> None:
    """Plug the CLI's device ``dev0`` into *target* (an executor, an
    engine or a cluster — it is the first plugged, so the default).
    With *host_fallback* a GPU driver gets the host device ``host0``
    beside it, so a ``device_loss`` clause demonstrates failover.
    """
    driver, kind = DRIVERS[driver_name]
    if spec_name:
        spec = SPECS[spec_name]
    else:
        spec = DRIVER_DEFAULT_SPECS.get(
            driver_name,
            GPU_RTX_2080_TI if kind == "GPU" else CPU_I7_8700)
    target.plug_device("dev0", driver, spec, memory_limit=memory_limit)
    if host_fallback and kind == "GPU":
        target.plug_device("host0", OpenMPDevice, CPU_I7_8700)


def _make_executor(args) -> AdamantExecutor:
    executor = AdamantExecutor(
        overlay_path=getattr(args, "overlay_path", None))
    _plug_devices(executor, args.driver, args.spec,
                  memory_limit=args.memory_limit)
    return executor


def _matches(answer, expected) -> bool:
    """The oracle verdict: floats to 1e-9, everything else exactly."""
    if isinstance(answer, float):
        return abs(answer - expected) < 1e-9
    return answer == expected


def cmd_devices(_args) -> int:
    print(f"{'device':24s} {'kind':5s} {'memory':>10s} "
          f"{'mem bw':>10s} {'interconnect':>13s} {'units':>6s}")
    for spec in [*ALL_GPUS, GPU_RTX_3090, APU_RYZEN_7_8700G,
                 CPU_I7_8700, CPU_XEON_5220R]:
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
        print(f"benchmark directory not found at {bench_dir}",
              file=sys.stderr)
        return 2
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
    failures = 0
    models = sorted(MODELS)
    print(f"validating {len(QUERIES)} queries x {len(models)} models x "
          f"{len(DRIVERS)} drivers at SF {args.sf}")
    for qname, module in sorted(QUERIES.items()):
        graph = module.build(catalog)
        expected = getattr(reference, qname)(catalog)
        for driver_name in sorted(DRIVERS):
            executor = AdamantExecutor()
            _plug_devices(executor, driver_name)
            for model in models:
                try:
                    result = executor.run(graph, catalog, model=model,
                                          chunk_size=args.chunk_size,
                                          fuse=not args.no_fuse)
                    answer = module.finalize(result, catalog)
                    ok = _matches(answer, expected)
                except Exception as error:
                    ok = False
                    answer = f"{type(error).__name__}: {error}"
                if not ok:
                    failures += 1
                    print(f"FAIL {qname} {driver_name} {model}: {answer}")
    total = len(QUERIES) * len(models) * len(DRIVERS)
    print(f"{total - failures}/{total} combinations match the oracles")
    return 1 if failures else 0


def _write_metrics(path: str, metrics) -> None:
    """Export *metrics* to *path* (.json -> JSON, else Prometheus text)."""
    text = (metrics.to_json() if path.endswith(".json")
            else metrics.prometheus_text())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"metrics written to {path}")


def _run_with_faults(args, graph, catalog, plan, flags):
    """Run one query in engine mode with *plan* armed and recovery on
    (a GPU driver gets the host fallback).  ``--retry-budget`` caps the
    cumulative backoff the retry ladder may charge to the query.
    Returns ``(result, metrics)``.
    """
    from repro.engine import Engine

    budget = getattr(args, "retry_budget", None)
    policy = (RetryPolicy(budget_seconds=budget)
              if budget is not None else None)
    engine = Engine(faults=plan, retry_policy=policy)
    _plug_devices(engine, args.driver, args.spec,
                  memory_limit=args.memory_limit, host_fallback=True)
    result = engine.execute(graph, catalog, **flags)
    return result, engine.metrics


def _make_cluster(args):
    """Build a ClusterExecutor per the CLI's --nodes/--network flags,
    every node plugged with the device a single-node run gets."""
    from repro.cluster import ClusterExecutor

    cluster = ClusterExecutor(nodes=args.nodes, network=args.network)
    _plug_devices(cluster, args.driver, args.spec,
                  memory_limit=args.memory_limit)
    return cluster


def _cmd_run_distributed(args, plan) -> int:
    """``run --nodes N``: shard the query across N simulated nodes.

    A fault plan (``--faults``) arms node0 only — losing every device
    of node0 demonstrates node-level failover: its shard re-runs on a
    survivor and the answer still matches the oracle byte-for-byte.
    """
    if args.model == "auto":
        print("--nodes does not combine with --model auto "
              "(the shard planner prices node counts instead; see "
              "'repro explain --nodes')", file=sys.stderr)
        return 2
    if args.retry_budget is not None:
        print("--retry-budget is a single-node engine flag; it does not "
              "combine with --nodes", file=sys.stderr)
        return 2
    if args.analyze:
        print("--analyze does not combine with --nodes (a sharded run "
              "has no profile yet; ROADMAP: 'One trace id per request; "
              "ANALYZE for served requests and for clusters')",
              file=sys.stderr)
        return 2
    catalog = generate(args.sf, seed=args.seed)
    module = QUERIES[args.query]
    cluster = _make_cluster(args)
    if plan is not None:
        cluster.install_faults("node0", plan)
    result = cluster.run(lambda: module.build(catalog), catalog,
                         model=args.model, **_plan_kwargs(args))
    answer = module.finalize(result, catalog)
    matches = _matches(answer, getattr(reference, args.query)(catalog))
    stats = result.stats
    print(f"query={args.query} model={args.model} driver={args.driver} "
          f"fuse={not args.no_fuse} nodes={args.nodes} "
          f"network={args.network}")
    print(f"result: {answer}")
    print(f"oracle match: {matches}")
    print(f"simulated time: {stats.makespan:.6f} s "
          f"(broadcast {stats.broadcast_seconds:.6f} s + local "
          f"{max(stats.node_seconds.values()):.6f} s + "
          f"{stats.exchange_strategy} {stats.exchange_seconds:.6f} s)")
    for name in sorted(stats.node_seconds):
        print(f"  node {name}: {stats.node_seconds[name]:.6f} s")
    print(f"exchange: {stats.broadcast_bytes} broadcast bytes, "
          f"{stats.exchange_bytes} partial bytes")
    if plan is not None:
        print(f"recovery: {stats.retries} retries, "
              f"{stats.failovers} device failovers, "
              f"{stats.node_failovers} node failovers")
    if args.metrics_out:
        _write_metrics(args.metrics_out, cluster.metrics)
    return 0 if matches else 1


def cmd_explain(args) -> int:
    """Render the query's plan the way the executor would run it."""
    from repro.observe import explain, explain_plans

    catalog = generate(args.sf, seed=args.seed)
    graph = QUERIES[args.query].build(catalog)
    if args.plans is not None and args.plans < 1:
        print(f"--plans must be >= 1, got {args.plans}", file=sys.stderr)
        return 2
    flags = dict(model=args.model, **_plan_kwargs(args))
    if args.nodes > 1:
        from repro.observe import explain_distributed

        if args.plans is not None:
            print("--plans does not combine with --nodes",
                  file=sys.stderr)
            return 2
        cluster = _make_cluster(args)
        del flags["adaptive"]  # no adaptive annotations across nodes
        print(explain_distributed(graph, catalog, cluster=cluster, **flags))
        return 0
    executor = _make_executor(args)
    if args.plans is not None:
        print(explain_plans(graph, catalog, devices=executor.devices,
                            default_device=executor.default_device,
                            chunk_size=args.chunk_size,
                            data_scale=args.data_scale,
                            top_k=args.plans))
        return 0
    print(explain(graph, catalog, devices=executor.devices,
                  default_device=executor.default_device, **flags))
    return 0


def cmd_run(args) -> int:
    plan = FaultPlan.parse(args.faults) if args.faults else None
    if args.nodes > 1:
        return _cmd_run_distributed(args, plan)
    if args.nodes < 1:
        print(f"--nodes must be >= 1, got {args.nodes}", file=sys.stderr)
        return 2
    catalog = generate(args.sf, seed=args.seed)
    module = QUERIES[args.query]
    graph = module.build(catalog)
    flags = dict(model=args.model, analyze=args.analyze,
                 **_plan_kwargs(args))
    if plan is not None or args.retry_budget is not None:
        result, metrics = _run_with_faults(args, graph, catalog, plan,
                                           flags)
    else:
        executor = _make_executor(args)
        result = executor.run(graph, catalog, **flags)
        metrics = executor.metrics
    answer = module.finalize(result, catalog)
    matches = _matches(answer, getattr(reference, args.query)(catalog))
    print(f"query={args.query} model={args.model} driver={args.driver} "
          f"fuse={not args.no_fuse}")
    print(f"result: {answer}")
    print(f"oracle match: {matches}")
    print(f"simulated time: {result.stats.makespan:.6f} s "
          f"({result.stats.chunks_processed} chunks, "
          f"{result.stats.kernel_invocations} kernels, "
          f"{result.stats.kernels_launched} launches, "
          f"{result.stats.fused_nodes} fused nodes)")
    if plan is not None:
        print(f"recovery: {result.stats.retries} retries, "
              f"{result.stats.oom_recoveries} oom recoveries, "
              f"{result.stats.failovers} failovers, "
              f"quarantined={result.stats.quarantined_devices or '[]'}")
    if args.adaptive:
        print(f"adaptive: {result.stats.adaptive_resizes} resizes, "
              f"{result.stats.adaptive_steals} steals, "
              f"{result.stats.adaptive_replacements} replacements")
    if args.analyze and result.profile is not None:
        print(result.profile.render())
    if args.metrics_out:
        _write_metrics(args.metrics_out, metrics)
    return 0 if matches else 1


def cmd_compare(args) -> int:
    catalog = generate(args.sf, seed=args.seed)
    executor = _make_executor(args)
    module = QUERIES[args.query]
    graph = module.build(catalog)
    expected = getattr(reference, args.query)(catalog)
    print(f"query={args.query} driver={args.driver} "
          f"data_scale={args.data_scale}")
    print(f"{'model':24s} {'ok':4s} {'time':>12s} {'vs chunked':>11s}")
    baseline = None
    status = 0
    for model in ("oaat", "chunked", "pipelined", "four_phase_chunked",
                  "four_phase_pipelined"):
        try:
            result = executor.run(graph, catalog, model=model,
                                  **_plan_kwargs(args))
        except Exception as error:  # OOM for oaat is expected behaviour
            print(f"{model:24s} --   {type(error).__name__}: {error}")
            continue
        answer = module.finalize(result, catalog)
        ok = _matches(answer, expected)
        status |= 0 if ok else 1
        t = result.stats.makespan
        if model == "chunked":
            baseline = t
        ratio = f"{baseline / t:.2f}x" if baseline else "-"
        print(f"{model:24s} {str(ok):4s} {t:>10.6f} s {ratio:>11s}")
    return status


def cmd_concurrent(args) -> int:
    """Interleave a query batch on one shared device (engine mode)."""
    from repro.engine import Engine, QueryRequest

    plan = FaultPlan.parse(args.faults) if args.faults else None
    catalog = generate(args.sf, seed=args.seed)
    engine = Engine(faults=plan,
                    enable_subplan_cache=not args.no_subplan_cache)
    _plug_devices(engine, args.driver, args.spec,
                  memory_limit=args.memory_limit,
                  host_fallback=plan is not None)
    names = [name.strip() for name in args.queries.split(",") if name.strip()]
    if not names:
        print("no queries given (expected e.g. --queries q3,q4,q6)",
              file=sys.stderr)
        return 2
    unknown = [name for name in names if name not in QUERIES]
    if unknown:
        print(f"unknown queries: {', '.join(unknown)}", file=sys.stderr)
        return 2

    graphs = {name: QUERIES[name].build(catalog) for name in names}
    batch = [QueryRequest(
        graph=graphs[name], catalog=catalog, model=args.model, label=name,
        analyze=args.analyze, **_plan_kwargs(args),
    ) for name in names]

    status = 0
    rounds = max(1, args.rounds)
    results = []
    for round_no in range(1, rounds + 1):
        results = engine.run_concurrent(batch)
        combined = max(r.stats.makespan for r in results)
        print(f"round {round_no}: combined makespan {combined:.6f} s")
        print(f"  {'query':6s} {'ok':4s} {'makespan':>12s} "
              f"{'transfer':>12s} {'cache hits':>11s} {'subplan':>8s}")
        for name, result in zip(names, results):
            ok = _matches(QUERIES[name].finalize(result, catalog),
                          getattr(reference, name)(catalog))
            status |= 0 if ok else 1
            print(f"  {name:6s} {str(ok):4s} "
                  f"{result.stats.makespan:>10.6f} s "
                  f"{result.stats.transfer_bytes:>10d} B "
                  f"{result.stats.residency_hits:>11d} "
                  f"{result.stats.subplan_cache_hits:>8d}")
        if plan is not None:
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
    if args.metrics_out:
        _write_metrics(args.metrics_out, engine.metrics)
    return status


def cmd_serve(args) -> int:
    """Serve an open-loop workload over one shared engine."""
    from repro.engine import Engine
    from repro.observe import explain_admission
    from repro.serving import (
        AdmissionController,
        QueryService,
        TenantPolicy,
        open_loop_workload,
    )
    from repro.serving.workload import QUERY_MIX

    if args.faults and args.scenario:
        print("--faults conflicts with --scenario; pass one or the "
              "other", file=sys.stderr)
        return 2
    names = [n.strip() for n in args.queries.split(",") if n.strip()]
    if not names:
        print("no queries given (expected e.g. --queries q1,q6)",
              file=sys.stderr)
        return 2
    unknown = [n for n in names if n not in QUERY_MIX]
    if unknown:
        print(f"unknown serve queries: {', '.join(unknown)}; "
              f"available: {', '.join(sorted(QUERY_MIX))}",
              file=sys.stderr)
        return 2
    plan = None
    if args.faults:
        plan = FaultPlan.parse(args.faults)
    elif args.scenario:
        plan = SCENARIOS[args.scenario]()
    catalog = generate(args.sf, seed=args.seed)
    engine = Engine(faults=plan)
    _plug_devices(engine, args.driver, args.spec,
                  memory_limit=args.memory_limit,
                  host_fallback=plan is not None)
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
    mismatches = 0
    for outcome in report.outcomes:
        if outcome.status != "ok":
            continue
        answer = QUERY_MIX[outcome.label].finalize(outcome.result, catalog)
        ok = _matches(answer, getattr(reference, outcome.label)(catalog))
        mismatches += 0 if ok else 1
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
    if args.metrics_out:
        _write_metrics(args.metrics_out, engine.metrics)
    return 1 if mismatches else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"devices": cmd_devices, "run": cmd_run,
               "compare": cmd_compare, "figures": cmd_figures,
               "micro": cmd_micro, "validate": cmd_validate,
               "concurrent": cmd_concurrent, "serve": cmd_serve,
               "explain": cmd_explain}[args.command]
    try:
        return handler(args)
    except FaultConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except RetryBudgetExhaustedError as error:
        print(f"retry budget exhausted: {error}", file=sys.stderr)
        return 4
    except AdamantError as error:
        print(f"execution failed: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
