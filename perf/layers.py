"""Per-layer metrics: one number per name declared in ``BENCHMARK.json``.

Counts and virtual numbers come from the *facts* the workloads read off
the program's public stats in normal (untraced) runs; ``*_host_*`` self
times and call counts come from the traced pass.  A metric that does not
apply to a workload (``serving.*`` outside ``serve_mixed``, ...) is 0
there, which is itself the evidence that the layer idles.

A layer is a directory of ``src/repro``; the trace's finer layer names
(``core.models``, ``hardware.clock``) are prefixes of it.
"""

from __future__ import annotations

from perf.stats import median, percentile

__all__ = ["layer_metrics"]

KERNEL_FAMILY_METRICS = ("hash_probe", "hash_build", "hash_agg", "filter",
                         "map", "materialize", "fused", "other")
TRANSFER_INTERFACES = ("place_data", "retrieve_data")
MEMORY_INTERFACES = ("prepare_memory", "delete_memory", "create_chunk",
                     "add_pinned_memory", "transform_memory")
SERVE_RATE_FACTS = ("virt_interactive_p50_s", "virt_interactive_p95_s",
                    "virt_batch_p95_s", "virt_queue_delay_p95_s",
                    "virt_goodput_qps", "shed_frac", "deadline_miss_frac",
                    "below_floor_frac")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Trace:
    """Lookups over the traced pass's aggregate table."""

    def __init__(self, trace: dict) -> None:
        self.rows = trace["table"]
        self.coarse = trace["coarse"]
        #: Host seconds of the traced pass (sum of the root item spans),
        #: raw -- the base of every share -- and speed-normalised.
        self.pass_s = sum(trace["host_s"].values())
        self.normalised_pass_s = sum(
            seconds * trace["speed"][item]
            for item, seconds in trace["host_s"].items())

    def _select(self, layer: str, functions=None):
        """Rows of *layer* or its sub-layers; *functions* filters on the
        method name (after the class prefix)."""
        for row in self.rows:
            if row["layer"] != layer \
                    and not row["layer"].startswith(layer + "."):
                continue
            if functions is not None \
                    and row["function"].rpartition(".")[2] not in functions:
                continue
            yield row

    def self_s(self, layer: str, functions=None) -> float:
        return sum(row["self_s"] for row in self._select(layer, functions))

    def total_s(self, layer: str, functions) -> float:
        return sum(row["total_s"] for row in self._select(layer, functions))

    def calls(self, layer: str, functions=None) -> int:
        return sum(row["calls"] for row in self._select(layer, functions))

    def self_us_per_call(self, layer: str, functions=None) -> float:
        return _ratio(self.self_s(layer, functions) * 1e6,
                      self.calls(layer, functions))

    def durations(self, span: str) -> list[dict]:
        return self.coarse.get(span, [])


def layer_metrics(child: dict, host_s_per_pass: float,
                  host_raw_s_per_pass: float) -> dict[str, float]:
    """Every per-layer metric of one workload.

    Args:
        child: Output of the traced subprocess (``harness.run_child``).
        host_s_per_pass: The workload's untraced end-to-end figure.
        host_raw_s_per_pass: The same before speed normalisation.
    """
    facts = child["facts"]
    trace = _Trace(child["trace"])
    diagnostics = child["trace"]["diagnostics"]

    def fact_sum(key: str) -> float:
        return sum(item.get(key, 0.0) for item in facts.values())

    def fact(item_id: str, key: str) -> float:
        return facts.get(item_id, {}).get(key, 0.0)

    out: dict[str, float] = {}
    pass_s = trace.pass_s

    # -- planner ------------------------------------------------------------
    choose = [span["dur_s"] for span in
              trace.durations("planner:PlanOptimizer.choose")]
    out["planner.search_host_ms"] = sum(choose) * 1e3
    out["planner.search_share"] = _ratio(sum(choose), pass_s)
    out["planner.search_host_ms_per_query_p50"] = (
        median(choose) * 1e3 if choose else 0.0)
    out["planner.candidates_enumerated"] = fact_sum("planner_candidates")
    out["planner.candidates_pruned"] = fact_sum("planner_pruned")
    out["planner.fusion_host_ms"] = trace.total_s(
        "planner.fusion", ("fuse_graph",)) * 1e3
    errors = [abs(item["planner_estimate_s"] - item["virt_makespan_s"])
              / item["virt_makespan_s"]
              for item in facts.values() if "planner_estimate_s" in item]
    out["planner.estimate_rel_err_max"] = max(errors, default=0.0)
    out["planner.estimate_rel_err_p50"] = median(errors) if errors else 0.0
    out["planner.auto_vs_best_fixed_ratio"] = diagnostics.get(
        "planner_auto_vs_best_fixed_ratio", 0.0)

    # -- engine -------------------------------------------------------------
    lookups = fact_sum("subplan_hits") + fact_sum("subplan_misses")
    out["engine.self_host_ms"] = trace.self_s("engine") * 1e3
    out["engine.scheduler_self_host_ms"] = trace.self_s(
        "engine.scheduler") * 1e3
    out["engine.subplan_host_ms"] = trace.self_s("engine.subplan") * 1e3
    out["engine.subplan_lookups"] = lookups
    out["engine.subplan_hit_ratio"] = _ratio(fact_sum("subplan_hits"),
                                             lookups)
    out["engine.subplan_insertions"] = fact_sum("subplan_insertions")
    out["engine.subplan_evictions"] = fact_sum("subplan_evictions")

    # -- core ---------------------------------------------------------------
    invocations = fact_sum("kernel_invocations")
    out["core.models_self_host_ms"] = trace.self_s("core.models") * 1e3
    out["core.hub_self_host_ms"] = trace.self_s("core.hub") * 1e3
    out["core.graph_self_host_ms"] = trace.self_s("core.graph") * 1e3
    out["core.fingerprint_host_ms"] = trace.total_s(
        "core.fingerprint", ("subplan_fingerprint",)) * 1e3
    out["core.kernel_invocations"] = invocations
    out["core.chunks_processed"] = fact_sum("chunks_processed")
    out["core.host_us_per_invocation"] = _ratio(host_s_per_pass * 1e6,
                                                invocations)

    # -- devices ------------------------------------------------------------
    residency_lookups = (fact_sum("residency_hits")
                         + fact_sum("residency_misses"))
    out["devices.self_host_ms"] = trace.self_s("devices") * 1e3
    out["devices.interface_calls"] = sum(
        row["calls"] for row in trace.rows if row["layer"] == "devices")
    out["devices.execute_self_us_per_call"] = trace.self_us_per_call(
        "devices", ("execute",))
    out["devices.transfer_self_us_per_call"] = trace.self_us_per_call(
        "devices", TRANSFER_INTERFACES)
    out["devices.memory_self_us_per_call"] = trace.self_us_per_call(
        "devices", MEMORY_INTERFACES)
    out["devices.residency_hit_ratio"] = _ratio(fact_sum("residency_hits"),
                                                residency_lookups)
    out["devices.residency_evictions"] = fact_sum("residency_evictions")

    # -- primitives ---------------------------------------------------------
    kernel_s = trace.self_s("primitives")
    out["primitives.kernel_host_ms"] = kernel_s * 1e3
    out["primitives.kernel_share"] = _ratio(kernel_s, pass_s)
    out["primitives.kernel_calls"] = trace.calls("primitives")
    for family in KERNEL_FAMILY_METRICS:
        out[f"primitives.{family}_host_ms"] = trace.self_s(
            "primitives", (family,)) * 1e3

    # -- hardware -----------------------------------------------------------
    events = fact_sum("clock_events")
    out["hardware.clock_events"] = events
    out["hardware.clock_self_us_per_event"] = _ratio(
        trace.self_s("hardware.clock") * 1e6, events)
    out["hardware.costmodel_self_host_ms"] = trace.self_s(
        "hardware.costmodel") * 1e3
    for key in ("transfer_s", "compute_s", "launch_s", "busy_s",
                "transfer_bytes", "kernels_launched"):
        out[f"hardware.virt_{key}"] = fact_sum(f"virt_{key}")
    out["hardware.virt_overhead_share"] = _ratio(
        fact_sum("virt_overhead_s"), fact_sum("virt_query_makespan_s"))

    # -- observe ------------------------------------------------------------
    metrics_s = trace.self_s("observe.metrics")
    out["observe.metrics_calls"] = trace.calls("observe.metrics")
    out["observe.metrics_self_us_per_call"] = trace.self_us_per_call(
        "observe.metrics")
    out["observe.metrics_share"] = _ratio(metrics_s, pass_s)

    # -- serving ------------------------------------------------------------
    served = "serving:QueryService.serve" in trace.coarse
    requests = (trace.durations("engine:Engine.execute") if served else [])
    per_request = [span["dur_s"] * 1e3 for span in requests]
    # A request served wholly from the subplan cache launches no kernel.
    hit = [span["dur_s"] * 1e3 for span in requests
           if span.get("kernels_launched") == 0]
    miss = [span["dur_s"] * 1e3 for span in requests
            if span.get("kernels_launched")]
    out["serving.self_host_ms"] = trace.self_s("serving") * 1e3
    out["serving.admit_host_us_per_request"] = _ratio(
        trace.total_s("serving", ("admit",)) * 1e6,
        trace.calls("serving", ("admit",)))
    out["serving.host_ms_per_request_p50"] = (
        median(per_request) if per_request else 0.0)
    out["serving.host_ms_per_request_p95"] = (
        percentile(per_request, 95) if per_request else 0.0)
    out["serving.host_ms_per_hit_request_p50"] = median(hit) if hit else 0.0
    out["serving.host_ms_per_miss_request_p50"] = (
        median(miss) if miss else 0.0)
    for key in ("preemptions", "degraded", "cache_served"):
        out[f"serving.{key}"] = fact_sum(key)
    for rate in ("low", "mid", "high"):
        for key in SERVE_RATE_FACTS:
            out[f"serving.{key}.{rate}"] = fact(f"rate={rate}", key)

    # -- cluster ------------------------------------------------------------
    out["cluster.self_host_ms"] = trace.self_s("cluster") * 1e3
    out["cluster.partition_host_ms"] = trace.total_s(
        "cluster.partition", ("make_scheme", "partition_catalog")) * 1e3
    out["cluster.merge_host_ms"] = trace.total_s(
        "cluster.exchange", ("merge_outputs",)) * 1e3
    out["cluster.node_execute_host_ms"] = trace.total_s(
        "cluster", ("execute",)) * 1e3
    out["cluster.virt_speedup_q6_n4"] = _ratio(
        fact("q6/n1/eth_10g", "virt_makespan_s"),
        fact("q6/n4/eth_100g", "virt_makespan_s"))
    out["cluster.virt_speedup_q3_n8_eth10g"] = _ratio(
        fact("q3/n1/eth_10g", "virt_makespan_s"),
        fact("q3/n8/eth_10g", "virt_makespan_s"))
    out["cluster.virt_network_share_q3_n8_eth10g"] = _ratio(
        fact("q3/n8/eth_10g", "virt_network_s"),
        fact("q3/n8/eth_10g", "virt_makespan_s"))
    out["cluster.virt_exchange_bytes"] = fact_sum("virt_exchange_bytes")
    out["cluster.virt_broadcast_bytes"] = fact_sum("virt_broadcast_bytes")

    # -- data, and the measurement itself -----------------------------------
    out["tpch.generate_host_s"] = child["generate_host_s"]
    out["storage.catalog_bytes"] = child["catalog_bytes"]
    out["trace.overhead_ratio"] = _ratio(trace.normalised_pass_s,
                                         host_s_per_pass) - 1.0
    out["trace.unattributed_share"] = _ratio(
        child["trace"]["layer_self_s"].get("item", 0.0), pass_s)
    out["trace.host_raw_s_per_pass"] = host_raw_s_per_pass
    out["trace.host_speed_factor"] = _ratio(host_s_per_pass,
                                            host_raw_s_per_pass)
    return out
