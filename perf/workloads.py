"""The five benchmark workloads.

A workload is a fixed list of *items*.  For each item the harness calls
``prepare`` (untimed: graphs, executors, request lists), then ``call``
(timed: exactly one public function of the program), then ``facts`` and
``verify`` (untimed: deterministic numbers read from the program's public
stats, and the oracle check).  ``--seed`` drives the TPC-H data seed, the
query parameters and the arrival schedules; the program only ever sees the
generated inputs.

Why each workload exists is recorded in ``BENCHMARK.json`` (one line) and
in ``perf/README.md`` (in full).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro import AdamantExecutor, ClusterExecutor
from repro.core.context import ExecutionStats
from repro.core.models import MODELS
from repro.devices import (
    CoupledDevice,
    CudaDevice,
    OpenCLDevice,
    OpenMPDevice,
    RTCoreDevice,
    register_coupled_kernels,
    register_rtcore_kernels,
)
from repro.engine import Engine, QueryRequest
from repro.engine.subplan_cache import SubplanCache
from repro.errors import AdamantError
from repro.hardware import (
    APU_RYZEN_7_8700G,
    CPU_XEON_5220R,
    GPU_A100,
    GPU_RTX_2080_TI,
    GPU_RTX_3090,
)
from repro.serving import (
    BATCH,
    INTERACTIVE,
    AdmissionController,
    QueryService,
    ServeRequest,
    TenantPolicy,
)
from repro.tpch import generate, reference
from repro.tpch.dbgen import MKT_SEGMENTS
from repro.tpch.queries import (q1, q3, q4, q5, q6, q10, q12, q14, q18,
                                q19)

from perf.stats import median, percentile

__all__ = ["WORKLOADS", "Item", "Workload", "make_workload"]

QUERY_MODULES = {"q1": q1, "q3": q3, "q4": q4, "q5": q5, "q6": q6,
                 "q10": q10, "q12": q12, "q14": q14, "q18": q18, "q19": q19}
#: Builders that take the catalog (to translate literals into dictionary
#: codes) as their first argument.
NEEDS_CATALOG = {"q3", "q5", "q10", "q12", "q14", "q19"}

#: Paper-equivalent scale: SF 0.05 physical x 2048 logical ~ SF 100.
PAPER_SF = 0.05
PAPER_DATA_SCALE = 2048
PAPER_CHUNK = 2**25
#: Chunk of ``dispatch_small_chunk``: 16 times more chunks than the paper's.
SMALL_CHUNK = 2**21

#: Categories of ``stats.time_by_category`` reported on their own.
CATEGORY_FACTS = ("transfer", "compute", "launch")


def draw_params(rng: np.random.Generator, query: str) -> dict:
    """Seeded query parameters, drawn from the TPC-H substitution ranges
    (which keep selectivity roughly constant, so the work per query does
    not swing with the seed).  Queries whose builder takes no parameter
    the benchmark varies get ``{}``."""
    year = lambda: int(rng.integers(1993, 1998))  # noqa: E731
    if query == "q1":
        return {"delta_days": int(rng.integers(60, 121))}
    if query == "q3":
        return {"segment": MKT_SEGMENTS[int(rng.integers(len(MKT_SEGMENTS)))],
                "date": f"1995-03-{int(rng.integers(1, 32)):02d}"}
    if query == "q4":
        return {"date": f"{year()}-{int(rng.integers(4)) * 3 + 1:02d}-01"}
    if query == "q6":
        return {"date": f"{year()}-01-01",
                "discount": int(rng.integers(2, 10)),
                "quantity": int(rng.integers(24, 26))}
    if query == "q12":
        return {"date": f"{year()}-01-01"}
    if query == "q14":
        return {"date": f"{year()}-{int(rng.integers(1, 13)):02d}-01"}
    return {}


def build_graph(query: str, params: dict, catalog):
    module = QUERY_MODULES[query]
    if query in NEEDS_CATALOG:
        return module.build(catalog, **params)
    return module.build(**params)


def answers_match(answer, expected) -> bool:
    if isinstance(expected, float):
        return abs(answer - expected) < 1e-9
    return answer == expected


@dataclass(frozen=True)
class Item:
    """One timed call of a workload."""

    id: str
    query: str = ""
    #: Query parameters as sorted ``(name, value)`` pairs (hashable, so
    #: oracles memoise on ``(query, params)``).
    params: tuple = ()
    #: Everything else that identifies the call (model, nodes, tier, ...).
    config: tuple = ()

    @property
    def kwargs(self) -> dict:
        return dict(self.params)

    @property
    def cfg(self) -> dict:
        return dict(self.config)


def stats_facts(stats) -> dict[str, float]:
    """The deterministic numbers every single-query item reports, read
    from the program's public ``ExecutionStats``."""
    by_category = stats.time_by_category
    facts = {
        "virt_makespan_s": stats.makespan,
        "virt_query_makespan_s": stats.makespan,
        "virt_busy_s": sum(by_category.values()),
        "virt_overhead_s": stats.abstraction_overhead,
        "virt_transfer_bytes": stats.transfer_bytes,
        "virt_kernels_launched": stats.kernels_launched,
        "kernel_invocations": stats.kernel_invocations,
        "chunks_processed": stats.chunks_processed,
    }
    for category in CATEGORY_FACTS:
        facts[f"virt_{category}_s"] = by_category.get(category, 0.0)
    return facts


@dataclass
class Workload:
    """Base class; subclasses fill ``items`` in ``setup`` and implement
    ``prepare`` / ``call`` / ``facts``."""

    seed: int
    smoke: bool = False
    name: str = ""
    items: list[Item] = field(default_factory=list)
    catalog: object = None
    generate_host_s: float = 0.0
    _oracles: dict = field(default_factory=dict)

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def _generate(self, scale_factor: float) -> None:
        started = time.perf_counter()
        self.catalog = generate(scale_factor, seed=self.seed)
        self.generate_host_s = time.perf_counter() - started

    def _params_rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, 1])

    def _oracle(self, query: str, params: tuple):
        """The reference answer at the same parameters, memoised; every
        oracle the items need is computed in set-up."""
        key = (query, params)
        if key not in self._oracles:
            self._oracles[key] = getattr(reference, query)(
                self.catalog, **dict(params))
        return self._oracles[key]

    def _precompute_oracles(self) -> None:
        for item in self.items:
            if item.query:
                self._oracle(item.query, item.params)

    # -- per item --------------------------------------------------------

    def prepare(self, item: Item):
        raise NotImplementedError

    def call(self, item: Item, state):
        raise NotImplementedError

    def facts(self, item: Item, state, result) -> dict[str, float]:
        raise NotImplementedError

    def verify(self, item: Item, state, result) -> tuple[int, list[str]]:
        """(operations attempted, failure messages)."""
        answer = QUERY_MODULES[item.query].finalize(result, self.catalog)
        if answers_match(answer, self._oracle(item.query, item.params)):
            return 1, []
        return 1, [f"{item.id}: answer differs from repro.tpch.reference"]

    def diagnostics(self) -> dict[str, float]:
        """Extra untimed facts, computed once in the traced subprocess."""
        return {}

    # -- identity --------------------------------------------------------

    def schedule(self) -> list:
        return [[item.id, item.query, list(item.params), list(item.config)]
                for item in self.items]

    def schedule_digest(self) -> str:
        blob = json.dumps(self.schedule(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def seed_fleet(executor) -> None:
    executor.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI, default=True)
    executor.plug_device("gpu1", OpenCLDevice, GPU_A100)


def extended_fleet(executor) -> None:
    seed_fleet(executor)
    executor.plug_device("cpu", OpenMPDevice, CPU_XEON_5220R)
    executor.plug_device("rt", RTCoreDevice, GPU_RTX_3090)
    executor.plug_device("apu", CoupledDevice, APU_RYZEN_7_8700G)
    register_rtcore_kernels(executor.registry)
    register_coupled_kernels(executor.registry)


# ---------------------------------------------------------------------------
# dispatch_small_chunk
# ---------------------------------------------------------------------------


@dataclass
class FacadeWorkload(Workload):
    """One long-lived ``AdamantExecutor``, one query per item."""

    executor: AdamantExecutor | None = None

    def prepare(self, item: Item):
        return build_graph(item.query, item.kwargs, self.catalog)

    def facts(self, item: Item, graph, result) -> dict[str, float]:
        facts = stats_facts(result.stats)
        facts["clock_events"] = self.executor.clock.event_count
        return facts


@dataclass
class DispatchSmallChunk(FacadeWorkload):
    """Many small chunks, unfused: the per-invocation harness path."""

    name: str = "dispatch_small_chunk"

    def setup(self) -> None:
        self._generate(PAPER_SF)
        rng = self._params_rng()
        queries = ("q6",) if self.smoke else ("q3", "q6", "q18")
        models = (("chunked", "split_chunked") if self.smoke else
                  ("chunked", "four_phase_pipelined", "split_chunked"))
        for query in queries:
            params = tuple(sorted(draw_params(rng, query).items()))
            for model in models:
                self.items.append(Item(f"{query}/{model}", query, params,
                                       (("model", model),)))
        self._precompute_oracles()
        self.executor = AdamantExecutor()
        seed_fleet(self.executor)

    def call(self, item: Item, graph):
        return self.executor.run(graph, self.catalog,
                                 model=item.cfg["model"],
                                 chunk_size=SMALL_CHUNK,
                                 data_scale=PAPER_DATA_SCALE)


# ---------------------------------------------------------------------------
# kernel_large_scan
# ---------------------------------------------------------------------------


@dataclass
class KernelLargeScan(FacadeWorkload):
    """Real data, no scale trick, fused, one chunk: numpy kernels."""

    name: str = "kernel_large_scan"

    def setup(self) -> None:
        self._generate(0.02 if self.smoke else 0.1)
        rng = self._params_rng()
        queries = (("q6", "q19") if self.smoke
                   else ("q1", "q3", "q6", "q18", "q19"))
        for query in queries:
            params = tuple(sorted(draw_params(rng, query).items()))
            self.items.append(Item(query, query, params))
        self._precompute_oracles()
        self.executor = AdamantExecutor()
        self.executor.plug_device("gpu0", OpenCLDevice, GPU_A100)

    def call(self, item: Item, graph):
        return self.executor.run(graph, self.catalog, model="chunked",
                                 chunk_size=PAPER_CHUNK, fuse=True)


# ---------------------------------------------------------------------------
# auto_plan
# ---------------------------------------------------------------------------


@dataclass
class AutoPlan(Workload):
    """``model="auto"`` on a fresh executor per item: optimizer search."""

    name: str = "auto_plan"

    FLEETS = {"seed": seed_fleet, "extended": extended_fleet}

    def setup(self) -> None:
        self._generate(PAPER_SF)
        rng = self._params_rng()
        queries = (("q6", "q3") if self.smoke else tuple(QUERY_MODULES))
        drawn = {query: tuple(sorted(draw_params(rng, query).items()))
                 for query in queries}
        for fleet in self.FLEETS:
            for query in queries:
                self.items.append(Item(f"{query}/{fleet}", query,
                                       drawn[query], (("fleet", fleet),)))
        self._precompute_oracles()

    def _executor(self, fleet: str) -> AdamantExecutor:
        # A fresh executor per call: the cost overlay an auto run folds
        # into would otherwise drift from pass to pass.
        executor = AdamantExecutor()
        self.FLEETS[fleet](executor)
        return executor

    def prepare(self, item: Item):
        return (self._executor(item.cfg["fleet"]),
                build_graph(item.query, item.kwargs, self.catalog))

    def call(self, item: Item, state):
        executor, graph = state
        return executor.run(graph, self.catalog, model="auto",
                            chunk_size=PAPER_CHUNK,
                            data_scale=PAPER_DATA_SCALE)

    def facts(self, item: Item, state, result) -> dict[str, float]:
        executor, _ = state
        metrics = executor.metrics
        facts = stats_facts(result.stats)
        facts["clock_events"] = executor.clock.event_count
        facts["planner_candidates"] = metrics.total(
            "adamant_optimizer_candidates_total")
        facts["planner_pruned"] = metrics.total(
            "adamant_optimizer_pruned_total")
        facts["planner_estimate_s"] = metrics.value(
            "adamant_optimizer_chosen_cost_seconds", query=item.query)
        return facts

    def diagnostics(self) -> dict[str, float]:
        """Auto against the best fixed model, seed fleet, one pass."""
        auto_total = best_total = 0.0
        for item in self.items:
            if item.cfg["fleet"] != "seed":
                continue
            auto_total += self.call(item, self.prepare(item)).stats.makespan
            fixed = []
            for model in sorted(MODELS):
                executor = self._executor("seed")
                graph = build_graph(item.query, item.kwargs, self.catalog)
                try:
                    fixed.append(executor.run(
                        graph, self.catalog, model=model,
                        chunk_size=PAPER_CHUNK,
                        data_scale=PAPER_DATA_SCALE).stats.makespan)
                except AdamantError:
                    continue  # e.g. operator-at-a-time does not fit
            best_total += min(fixed)
        return {"planner_auto_vs_best_fixed_ratio": auto_total / best_total}


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------

#: Fixed virtual arrival rates (requests per simulated second), frozen
#: here: ~0.25x, ~1x and ~2x the A100's capacity of ~2000 requests per
#: virtual second on this mix (mean isolated warm makespan ~0.5 ms at
#: SF 0.005, chunk 2^14, measured when the benchmark was defined).
SERVE_RATES = {"low": 500.0, "mid": 2000.0, "high": 4000.0}
SERVE_REQUESTS_PER_RATE = 200
SERVE_SF = 0.005
SERVE_CHUNK = 2**14
#: Interactive requests must finish within this many virtual seconds of
#: arrival (~20 mean service times).
SERVE_INTERACTIVE_DEADLINE_S = 0.010
#: Subplan-cache byte budget, small enough that the fresh-parameter half
#: of the stream evicts the hot pool's entries.
SERVE_SUBPLAN_BYTES = 100_000
SERVE_QUERIES = ("q1", "q3", "q4", "q6", "q12", "q14")
SERVE_TENANTS = ("tenant-a", "tenant-b")


@dataclass
class ServeMixed(Workload):
    """Open loop on the virtual clock over one long-lived engine.

    Arrivals are timestamps handed to ``serve()``: a fixed count placed
    uniformly at random in a fixed window (a Poisson process conditioned
    on its count), so the generator cannot run late.
    """

    name: str = "serve_mixed"

    def setup(self) -> None:
        self._generate(SERVE_SF)
        rng = self._params_rng()
        hot_pool = {query: tuple(sorted(draw_params(rng, query).items()))
                    for query in SERVE_QUERIES}
        count = 24 if self.smoke else SERVE_REQUESTS_PER_RATE
        #: rate -> request descriptors, in arrival order.
        self.requests: dict[str, list[dict]] = {}
        for index, rate in enumerate(SERVE_RATES):
            arrivals_rng = np.random.default_rng([self.seed, 2, index])
            window = count / SERVE_RATES[rate]
            arrivals = np.sort(arrivals_rng.uniform(0.0, window, count))
            # The mix is fixed -- every query, hot or fresh parameters,
            # lane and tenant in equal shares, crossed -- and the seed
            # only orders it: a seed that happened to draw more of the
            # expensive queries would otherwise move host time by ~10 %.
            mix = [(SERVE_QUERIES[slot % 6], (slot // 6) % 2 == 0,
                    (INTERACTIVE, BATCH)[(slot // 12) % 2],
                    SERVE_TENANTS[(slot // 24) % 2])
                   for slot in range(count)]
            descriptors = []
            for arrival, pick in zip(arrivals, arrivals_rng.permutation(count)):
                query, hot, lane, tenant = mix[pick]
                params = (hot_pool[query] if hot else tuple(sorted(
                    draw_params(arrivals_rng, query).items())))
                descriptors.append({
                    "arrival_s": float(arrival), "query": query,
                    "params": params, "tenant": tenant, "lane": lane})
                self._oracle(query, params)
            self.requests[rate] = descriptors
            self.items.append(Item(f"rate={rate}", config=(("rate", rate),)))
        self.floors = {query: self._isolated_warm_makespan(query)
                       for query in SERVE_QUERIES}

    def _engine(self, *, subplan_cache: bool = True) -> Engine:
        engine = Engine(enable_subplan_cache=subplan_cache)
        engine.plug_device("dev0", CudaDevice, GPU_A100)
        if subplan_cache:
            engine.subplan_cache = SubplanCache(
                max_bytes=SERVE_SUBPLAN_BYTES)
        return engine

    def _isolated_warm_makespan(self, query: str) -> float:
        """The floor under any honest latency of *query*: its makespan
        alone on a warm engine (columns resident, subplan cache off)."""
        engine = self._engine(subplan_cache=False)
        for _ in range(2):
            result = engine.execute(build_graph(query, {}, self.catalog),
                                    self.catalog, chunk_size=SERVE_CHUNK)
        return result.stats.makespan

    def schedule(self) -> list:
        return [[rate, [[d["arrival_s"], d["query"], list(d["params"]),
                         d["tenant"], d["lane"]] for d in descriptors]]
                for rate, descriptors in self.requests.items()]

    def prepare(self, item: Item):
        engine = self._engine()
        service = QueryService(engine, controller=AdmissionController(
            default_policy=TenantPolicy(max_in_flight=4),
            max_queue_per_lane=16))
        requests = [
            ServeRequest(
                query=QueryRequest(
                    graph=build_graph(d["query"], dict(d["params"]),
                                      self.catalog),
                    catalog=self.catalog, model="chunked",
                    chunk_size=SERVE_CHUNK, label=d["query"]),
                tenant=d["tenant"], lane=d["lane"],
                arrival_s=d["arrival_s"],
                deadline_s=(SERVE_INTERACTIVE_DEADLINE_S
                            if d["lane"] == INTERACTIVE else None),
                request_id=f"w{index}")
            for index, d in enumerate(self.requests[item.cfg["rate"]])]
        return engine, service, requests

    def call(self, item: Item, state):
        _, service, requests = state
        return service.serve(requests)

    def verify(self, item: Item, state, report) -> tuple[int, list[str]]:
        rate = item.cfg["rate"]
        failures = []
        for descriptor, outcome in zip(self.requests[rate], report.outcomes):
            label = f"{item.id} {outcome.request_id} {descriptor['query']}"
            if outcome.status == "ok":
                answer = QUERY_MODULES[descriptor["query"]].finalize(
                    outcome.result, self.catalog)
                if not answers_match(answer, self._oracle(
                        descriptor["query"], descriptor["params"])):
                    failures.append(f"{label}: answer differs from "
                                    "repro.tpch.reference")
            elif outcome.status == "failed" or rate == "low":
                # Below capacity nothing may be shed or miss a deadline.
                failures.append(f"{label}: status {outcome.status}")
        return len(report.outcomes), failures

    def facts(self, item: Item, state, report) -> dict[str, float]:
        engine, _, _ = state
        ok = report.with_status("ok")
        facts = dict.fromkeys(stats_facts(ExecutionStats()), 0.0)
        for outcome in ok:
            for key, value in stats_facts(outcome.result.stats).items():
                facts[key] += value
        # The serve() call's own makespan: virtual time to drain the
        # whole schedule (the per-request makespans above are the ones
        # the fencing defect clamps to 0).
        facts["virt_makespan_s"] = engine.clock.now()
        facts["clock_events"] = engine.clock.event_count

        subplan = engine.subplan_stats()
        facts["subplan_hits"] = subplan["hits"]
        facts["subplan_misses"] = subplan["misses"]
        facts["subplan_insertions"] = subplan["insertions"]
        facts["subplan_evictions"] = subplan["evictions"]
        for key in ("hits", "misses", "evictions"):
            facts[f"residency_{key}"] = sum(
                stats[key] for stats in engine.residency_stats().values())

        submitted = len(report.outcomes)
        admitted = submitted - len(report.with_status("rejected"))
        window = max(o.arrival_s for o in report.outcomes)
        # An empty lane reports 0 (only a smoke-sized schedule can
        # leave one empty).
        interactive = report.latencies(INTERACTIVE) or [0.0]
        batch = report.latencies(BATCH) or [0.0]
        delays = [o.queue_delay_s for o in ok] or [0.0]
        facts.update({
            "requests": submitted,
            "preemptions": sum(o.preemptions for o in report.outcomes),
            "degraded": sum(1 for o in report.outcomes if o.degraded),
            "cache_served": sum(1 for o in report.outcomes
                                if o.cache_served),
            "virt_interactive_p50_s": median(interactive),
            "virt_interactive_p95_s": percentile(interactive, 95),
            "virt_batch_p95_s": percentile(batch, 95),
            "virt_queue_delay_p95_s": percentile(delays, 95),
            "virt_goodput_qps": len(ok) / window,
            "shed_frac": (submitted - admitted) / submitted,
            "deadline_miss_frac": (len(report.with_status("deadline"))
                                   / max(1, admitted)),
            "below_floor_frac": sum(
                1 for o in ok if o.latency_s < self.floors[o.label]
            ) / max(1, len(ok)),
        })
        return facts


# ---------------------------------------------------------------------------
# shard_scaleout
# ---------------------------------------------------------------------------


@dataclass
class ShardScaleout(Workload):
    """Key-range sharded execution across simulated nodes."""

    name: str = "shard_scaleout"

    def setup(self) -> None:
        self._generate(PAPER_SF)
        rng = self._params_rng()
        queries = ("q6", "q3") if self.smoke else ("q3", "q5", "q6", "q18")
        node_counts = (1, 4) if self.smoke else (1, 2, 4, 8)
        tiers = ("eth_10g", "eth_100g")
        for query in queries:
            params = tuple(sorted(draw_params(rng, query).items()))
            for nodes in node_counts:
                # One node never touches the network: a single tier.
                for tier in tiers[:1] if nodes == 1 else tiers:
                    self.items.append(Item(
                        f"{query}/n{nodes}/{tier}", query, params,
                        (("nodes", nodes), ("tier", tier))))
        self._precompute_oracles()

    def prepare(self, item: Item):
        cluster = ClusterExecutor(nodes=item.cfg["nodes"],
                                  network=item.cfg["tier"])
        cluster.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI)
        kwargs = item.kwargs
        return cluster, lambda: build_graph(item.query, kwargs, self.catalog)

    def call(self, item: Item, state):
        cluster, factory = state
        return cluster.run(factory, self.catalog,
                           model="four_phase_pipelined",
                           chunk_size=PAPER_CHUNK,
                           data_scale=PAPER_DATA_SCALE, fuse=True)

    def facts(self, item: Item, state, result) -> dict[str, float]:
        cluster, _ = state
        stats = result.stats
        facts = stats_facts(stats)
        facts["clock_events"] = sum(node.engine.clock.event_count
                                    for node in cluster.nodes)
        facts["virt_network_s"] = (stats.broadcast_seconds
                                   + stats.exchange_seconds)
        facts["virt_exchange_bytes"] = stats.exchange_bytes
        facts["virt_broadcast_bytes"] = stats.broadcast_bytes
        return facts


WORKLOADS = {cls.name: cls for cls in (DispatchSmallChunk, KernelLargeScan,
                                       AutoPlan, ServeMixed, ShardScaleout)}


def make_workload(name: str, seed: int, *, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed=seed, smoke=smoke)
