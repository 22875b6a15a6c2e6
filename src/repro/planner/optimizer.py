"""The cost-based plan optimizer: enumerate, price, prune, pick.

ADAMANT's runtime executes whatever annotated plan it is handed and
leaves producing that plan to "any existing query optimizer".  This
module is that optimizer for the decision vector the repo exposes:

* **placement** — which device each pipeline runs on (the greedy
  cost-based annotation plus every single-pipeline deviation from it);
* **execution model** — operator-at-a-time, chunked, pipelined,
  4-phase (both variants), zero-copy, or split;
* **fusion** — which fusible MAP/FILTER groups to collapse
  (per-group, via :func:`~repro.planner.fusion.fuse_graph`'s ``only=``);
* **chunk size** — a quantized ladder from the 32-value alignment
  quantum up to a single chunk covering the largest scan.

Exhaustively crossing the axes would be
``placements x models x 2^groups x rungs``; instead the search runs in
three stages with a beam between them (placement x model first, then
fusion, then the chunk ladder), pricing every candidate through one
:class:`~repro.planner.cost.PricingTable` per search (the code behind
:func:`~repro.planner.cost.estimate_plan_seconds`, remembering what the
candidates share) and an optional
:class:`~repro.planner.cost.CostOverlayStore` correction.  Enumeration
order and tie-breaking are deterministic, so ``EXPLAIN PLANS`` output
is byte-stable for a given catalog and device set.

:meth:`PlanOptimizer.choose` turns the winning candidate into a real
:class:`~repro.planner.ir.PhysicalPlan` by annotating the caller's
graph and applying the chosen fusion — the exact artifacts a manual
configuration would produce, so optimizer-picked executions are
byte-identical to running the same knobs by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from repro.core.graph import PrimitiveGraph
from repro.core.models import MODELS
from repro.core.pipelines import chunk_quantum, descale_chunk, split_pipelines
from repro.devices.base import SimulatedDevice
from repro.errors import PlanError
from repro.planner.compile import validate_flags
from repro.planner.cost import PlanCost, PricingTable
from repro.planner.fusion import fuse_graph, fusion_groups
from repro.planner.ir import DEFAULT_CHUNK_SIZE, PhysicalPlan
from repro.planner.placement import annotate_devices
from repro.storage import Catalog

__all__ = ["DEFAULT_BEAM_WIDTH", "DEFAULT_TOP_K", "OptimizerReport",
           "PlanCandidate", "PlanOptimizer"]

#: Survivors kept between search stages.
DEFAULT_BEAM_WIDTH = 8
#: Ranked candidates reported by default (``EXPLAIN PLANS`` shows them).
DEFAULT_TOP_K = 3
#: Chunk-ladder geometric step (rungs are ``quantum * STEP**k``).
CHUNK_LADDER_STEP = 8
#: Ladder length cap (excluding the covering and caller sizes).
MAX_LADDER_RUNGS = 8
#: Fusion subsets are enumerated exhaustively only up to this many
#: groups; larger graphs get all-or-nothing fusion (beam hygiene).
MAX_FUSION_SUBSET_GROUPS = 3


@dataclass(frozen=True)
class PlanCandidate:
    """One priced point of the search space (graph-free, reportable)."""

    model: str
    chunk_size: int
    fused_groups: tuple[str, ...]
    #: Sorted ``(pipeline index, device name)`` pairs.
    placement: tuple[tuple[int, str], ...]
    cost: PlanCost

    def describe(self) -> str:
        """Deterministic one-line summary (the search tie-breaker)."""
        fuse = (f"on({','.join(self.fused_groups)})" if self.fused_groups
                else "off")
        placed = " ".join(f"p{i}={dev}" for i, dev in self.placement)
        return (f"model={self.model} chunk={self.chunk_size} "
                f"fuse={fuse} {placed}")

    @property
    def sort_key(self) -> tuple:
        return (self.cost.total, self.describe())


@dataclass(frozen=True)
class OptimizerReport:
    """What the search saw: counts plus the ranked survivors."""

    graph_name: str
    default_device: str
    beam_width: int
    enumerated: int
    pruned: int
    ranked: tuple[PlanCandidate, ...]

    @property
    def chosen(self) -> PlanCandidate:
        return self.ranked[0]


@dataclass
class _Candidate:
    """Mutable search-internal candidate (carries the priced graph)."""

    model: str
    chunk_size: int
    fused: tuple[str, ...]
    placement: dict[int, str]
    graph: PrimitiveGraph
    cost: PlanCost

    @property
    def sort_key(self) -> tuple:
        return (self.cost.total, self.model, self.chunk_size,
                self.fused, tuple(sorted(self.placement.items())))

    def freeze(self) -> PlanCandidate:
        return PlanCandidate(
            model=self.model, chunk_size=self.chunk_size,
            fused_groups=self.fused,
            placement=tuple(sorted(self.placement.items())),
            cost=self.cost)


class PlanOptimizer:
    """Three-stage beam search over placement x model x fusion x chunk.

    Args:
        catalog: Column store the graph scans (sizes the estimates).
        devices: Candidate devices by name (the engine passes its
            healthy set).
        default_device: Fallback for unannotated nodes; defaults to the
            lexicographically first device.
        data_scale: Logical rows per physical row.
        overlay: Per-device slowdown factors (from a
            :class:`~repro.planner.cost.CostOverlayStore`).
        models: Execution-model names to consider (default: all
            registered models, sorted).
        beam_width: Survivors kept between stages.
        subplan_cache: Optional engine
            :class:`~repro.engine.subplan_cache.SubplanCache`.  When
            set, pipelines whose persisted subplans are all already
            cached are priced at their serve-transfer cost instead of
            full execution, so the search prefers plan shapes that
            reuse what prior queries materialized.
    """

    def __init__(self, catalog: Catalog,
                 devices: dict[str, SimulatedDevice], *,
                 default_device: str | None = None, data_scale: int = 1,
                 overlay: Mapping[str, float] | None = None,
                 models: list[str] | None = None,
                 beam_width: int = DEFAULT_BEAM_WIDTH,
                 subplan_cache: object | None = None) -> None:
        if not devices:
            raise PlanError("no devices to optimize for")
        self.catalog = catalog
        self.devices = devices
        self.default_device = (default_device if default_device is not None
                               else sorted(devices)[0])
        if self.default_device not in devices:
            raise PlanError(
                f"default device {self.default_device!r} not among "
                f"candidate devices {sorted(devices)}")
        self.data_scale = data_scale
        self.overlay = dict(overlay or {})
        self.models = sorted(models if models is not None else MODELS)
        for name in self.models:
            if name not in MODELS:
                raise PlanError(f"unknown execution model {name!r}; "
                                f"available: {sorted(MODELS)}")
        if beam_width < 1:
            raise PlanError(f"beam_width must be >= 1, got {beam_width}")
        self.beam_width = beam_width
        self.subplan_cache = subplan_cache

    # -- search space ------------------------------------------------------

    def chunk_ladder(self, graph: PrimitiveGraph, *,
                     base_chunk: int = DEFAULT_CHUNK_SIZE) -> list[int]:
        """The quantized chunk sizes the search prices.

        Geometric rungs ``quantum * STEP**k`` below the largest scan,
        plus one size covering it in a single chunk, plus *base_chunk*
        (a valid chunk size: the caller's configuration is always in the
        running).
        """
        quantum = chunk_quantum(self.data_scale)
        rows = 0
        for pipeline in split_pipelines(graph):
            for ref in pipeline.scan_refs:
                rows = max(rows,
                           self.catalog.column(ref).values.shape[0])
        logical_rows = rows * self.data_scale
        ladder = {base_chunk}
        size = quantum
        while size < logical_rows and len(ladder) < MAX_LADDER_RUNGS:
            ladder.add(size)
            size *= CHUNK_LADDER_STEP
        if logical_rows:
            ladder.add(math.ceil(logical_rows / quantum) * quantum)
        return sorted(ladder)

    def _fusion_options(self, graph: PrimitiveGraph
                        ) -> list[tuple[str, ...]]:
        """Fusion subsets to price: none, all, and (for small group
        counts) every proper subset."""
        exits = tuple(g.exit_id for g in fusion_groups(graph))
        options: list[tuple[str, ...]] = [()]
        if exits:
            options.append(exits)
            if 2 <= len(exits) <= MAX_FUSION_SUBSET_GROUPS:
                for r in range(1, len(exits)):
                    options.extend(combinations(exits, r))
        return options

    def _placements(self, graph: PrimitiveGraph
                    ) -> tuple[dict[int, str], list[dict[int, str]]]:
        """(greedy placement, [greedy + single-pipeline deviations])."""
        _, reports = annotate_devices(
            graph, self.catalog, self.devices, data_scale=self.data_scale,
            overlay=self.overlay or None)
        greedy = {r.pipeline_index: r.chosen for r in reports}
        configs = [greedy]
        for index in sorted(greedy):
            for name in sorted(self.devices):
                if name == greedy[index]:
                    continue
                flipped = dict(greedy)
                flipped[index] = name
                configs.append(flipped)
        return greedy, configs

    def _supports(self, model: str, graph: PrimitiveGraph,
                  chunk_size: int) -> bool:
        return MODELS[model].supports(
            graph, self.catalog,
            physical_chunk_rows=descale_chunk(chunk_size, self.data_scale))

    def _feasible_chunk(self, model: str, graph: PrimitiveGraph,
                        preferred: int, ladder: list[int]) -> int | None:
        """The stage-A pricing chunk: the preferred size when the model
        can run it, else the largest feasible rung (full-input
        pipelines need a covering chunk)."""
        for chunk in [preferred] + [c for c in reversed(ladder)
                                    if c != preferred]:
            if self._supports(model, graph, chunk):
                return chunk
        return None

    # -- the search --------------------------------------------------------

    def search(self, graph: PrimitiveGraph, *,
               chunk_size: int = DEFAULT_CHUNK_SIZE,
               top_k: int = DEFAULT_TOP_K) -> OptimizerReport:
        """Enumerate and price the plan space; return the ranked top-k.

        Deterministic: same graph, catalog, devices and overlay always
        yield the same report (ties break on the candidate summary
        string).  The input graph is never mutated.  *chunk_size* and
        the optimizer's data scale are refused exactly as
        :func:`~repro.planner.compile.compile_plan` refuses them.
        """
        validate_flags(chunk_size=chunk_size, data_scale=self.data_scale)
        if top_k < 1:
            raise PlanError(f"top_k must be >= 1, got {top_k}")
        graph.validate()
        ladder = self.chunk_ladder(graph, base_chunk=chunk_size)
        greedy, placements = self._placements(graph)
        fusion_options = self._fusion_options(graph)
        fused_cache: dict[tuple[str, ...], PrimitiveGraph] = {(): graph}
        # One table per search: its candidates share their graphs,
        # devices and chunk counts, so what is priced for one is looked
        # up by the next.  It dies with the search, so the next one sees
        # whatever changed in between (overlay folds, subplan-cache
        # inserts and evictions).
        table = PricingTable(
            self.catalog, self.devices, default_device=self.default_device,
            data_scale=self.data_scale, overlay=self.overlay,
            subplan_cache=self.subplan_cache)

        def fused_graph(option: tuple[str, ...]) -> PrimitiveGraph:
            if option not in fused_cache:
                fused_cache[option] = fuse_graph(graph, only=option)
            return fused_cache[option]

        enumerated = 0

        # Stage A: model x placement at one feasible chunk, unfused.
        stage: list[_Candidate] = []
        for model in self.models:
            chunk = self._feasible_chunk(model, graph, chunk_size, ladder)
            if chunk is None:
                continue
            tunable = MODELS[model].tunable
            configs = (placements if "placement" in tunable else [greedy])
            for placement in configs:
                cost = table.price(graph, model=model, chunk_size=chunk,
                                   placement=placement)
                enumerated += 1
                stage.append(_Candidate(
                    model=model, chunk_size=chunk, fused=(),
                    placement=placement, graph=graph, cost=cost))
        if not stage:
            raise PlanError(
                f"no execution model among {self.models} can run "
                f"graph {graph.name!r}")
        stage.sort(key=lambda c: c.sort_key)
        survivors = stage[:self.beam_width]

        # Stage B: fusion subsets for each survivor (same chunk).
        stage = []
        for cand in survivors:
            options = (fusion_options
                       if "fusion" in MODELS[cand.model].tunable
                       else [()])
            for option in options:
                if option == ():
                    stage.append(cand)  # already priced unfused
                    continue
                fg = fused_graph(option)
                actually_fused = tuple(
                    exit_id for exit_id in option
                    if exit_id in fg.nodes
                    and fg.nodes[exit_id].cost_params.get("fused_steps"))
                if not actually_fused:
                    continue
                cost = table.price(fg, model=cand.model,
                                   chunk_size=cand.chunk_size,
                                   placement=cand.placement)
                enumerated += 1
                stage.append(_Candidate(
                    model=cand.model, chunk_size=cand.chunk_size,
                    fused=actually_fused, placement=cand.placement,
                    graph=fg, cost=cost))
        stage.sort(key=lambda c: c.sort_key)
        survivors = stage[:self.beam_width]

        # Stage C: the chunk ladder (models that price chunks only);
        # rungs producing identical per-pipeline chunk counts dedupe.
        final: list[_Candidate] = []
        for cand in survivors:
            rungs = (ladder if "chunk" in MODELS[cand.model].tunable
                     else [cand.chunk_size])
            seen_counts: set[tuple] = set()
            for chunk in rungs:
                if chunk != cand.chunk_size and \
                        not self._supports(cand.model, cand.graph, chunk):
                    continue
                if chunk == cand.chunk_size:
                    cost = cand.cost
                else:
                    cost = table.price(cand.graph, model=cand.model,
                                       chunk_size=chunk,
                                       placement=cand.placement)
                    enumerated += 1
                counts = tuple(p.chunks for p in cost.pipelines)
                if counts in seen_counts:
                    continue
                seen_counts.add(counts)
                final.append(_Candidate(
                    model=cand.model, chunk_size=chunk,
                    fused=cand.fused, placement=cand.placement,
                    graph=cand.graph, cost=cost))

        final.sort(key=lambda c: c.sort_key)
        seen_desc: set[str] = set()
        ranked: list[PlanCandidate] = []
        for cand in final:
            frozen = cand.freeze()
            desc = frozen.describe()
            if desc in seen_desc:
                continue
            seen_desc.add(desc)
            ranked.append(frozen)
            if len(ranked) >= top_k:
                break

        return OptimizerReport(
            graph_name=graph.name, default_device=self.default_device,
            beam_width=self.beam_width, enumerated=enumerated,
            pruned=enumerated - len(ranked), ranked=tuple(ranked))

    def choose(self, graph: PrimitiveGraph, *,
               chunk_size: int = DEFAULT_CHUNK_SIZE,
               analyze: bool = False, adaptive: bool = False
               ) -> tuple[PhysicalPlan, OptimizerReport]:
        """Search, then realize the winner as an executable plan.

        The winning placement lands on a copy of the caller's graph
        (:meth:`~repro.core.graph.PrimitiveGraph.bind`, exactly as a
        manual ``annotate_devices`` + explicit override would place
        it), and the winning fusion subset is applied with the public
        :func:`~repro.planner.fusion.fuse_graph` — so the returned plan
        executes byte-identically to the same manual configuration, and
        the caller's graph is not written into.
        """
        report = self.search(graph, chunk_size=chunk_size)
        best = report.chosen
        placement = dict(best.placement)
        placed = graph.bind({}, device={
            nid: placement[pipeline.index]
            for pipeline in split_pipelines(graph)
            for nid in pipeline.node_ids})
        run_graph = (fuse_graph(placed, only=best.fused_groups)
                     if best.fused_groups else placed)
        plan = PhysicalPlan(
            graph=run_graph, model=best.model,
            chunk_size=best.chunk_size, data_scale=self.data_scale,
            fuse=bool(best.fused_groups), adaptive=adaptive,
            analyze=analyze)
        return plan, report
