"""Kernel fusion pass: collapse primitive data paths into fused nodes.

ADAMANT executes every primitive of a pipeline as its own kernel, paying
one launch plus one intermediate buffer per node — the abstraction
overhead the paper measures in Figure 10.  Generating one kernel for a
whole chain of data-parallel operators is the classic counter-move (Breß
et al., "Generating Custom Code for Efficient Query Execution on
Heterogeneous Processors"; Ozawa & Goda, "Data Path Fusion in GPU for
Analytical Query Processing").

:func:`fuse_graph` rewrites a :class:`~repro.core.graph.PrimitiveGraph`
before execution.  Maximal regions of fusible nodes are collapsed into a
single fused node whose parameter block is the ordered list of fused
steps; the fused kernels (:mod:`repro.primitives.kernels.fused`)
evaluate the steps in one pass per chunk without materializing
intermediate bitmaps, columns or position lists, and the cost model
charges one launch (with summed arg-mapping cost) plus a single fused
sweep instead of per-node kernels.  Interior edges — and with them the
hub routing and intermediate output buffers they would have required —
disappear from the rewritten graph entirely.

Three fused primitives exist, chosen per group by what it contains:

``fused_map_filter``
    Element-wise MAP/FILTER/bitmap chains (the original PR 2 pass).
``fused_probe_path``
    Data paths through gathers and HASH_PROBE — the probe side of a
    join runs from the filters, through the probe, to the downstream
    gathers/maps as one kernel, with no intermediate position list.
``fused_filter_agg``
    Chains terminating in an aggregation sink (HASH_AGG / AGG_BLOCK).
    The fused node inherits the sink's pipeline-breaker role and
    mirrors its ``fn`` so chunked execution combines the per-chunk
    partials exactly as for the unfused sink.

A producer is merged into its consumers' group only when the merge is
safe:

* the producer is mergeable (:data:`FUSIBLE` element-wise primitives or
  the probe-path set — never a pipeline breaker) and not a query output
  (its value must be retrievable);
* **every** out-edge of the producer targets nodes of one single group
  (the group may consume it several times — fused steps are shared, a
  real multi-consumer buffer is not needed);
* every consumer is itself fusible (aggregation sinks count, but only
  ever as the group's exit — they are breakers and never merge upward);
* producer and consumers carry the same device annotation and
  kernel-variant pin.

Groups therefore always lie inside one pipeline, and each group is a
DAG with a unique sink — the exit, which keeps its node id so
downstream edges and ``mark_output`` declarations are untouched.  A
group whose distinct external inputs exceed :data:`MAX_FUSED_INPUTS`
is split: the topologically earliest members are peeled off and
re-grouped on their own (two fused launches instead of falling back to
fully unfused).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.graph import PrimitiveGraph, ScanSource
from repro.primitives.definitions import FUSED_PRIMITIVES

__all__ = ["FUSED_PRIMITIVE", "FUSED_PROBE_PRIMITIVE", "FUSED_AGG_PRIMITIVE",
           "FUSED_PRIMITIVES", "FUSIBLE", "PROBE_FUSIBLE", "AGG_SINKS",
           "MAX_FUSED_INPUTS", "FusionGroup", "fuse_graph", "fusion_groups"]

#: Name of the synthetic primitive an element-wise chain collapses into.
FUSED_PRIMITIVE = "fused_map_filter"

#: Name of the synthetic primitive a probe-side data path collapses into.
FUSED_PROBE_PRIMITIVE = "fused_probe_path"

#: Name of the synthetic primitive an aggregation-terminated chain
#: collapses into (a pipeline breaker, like its sink).
FUSED_AGG_PRIMITIVE = "fused_filter_agg"

#: Element-wise primitives: one value per input row, never breakers
#: (``between`` indicators are MAP ops and ride along).
FUSIBLE = frozenset({
    "map", "filter_bitmap", "filter_position", "bitmap_and", "bitmap_or",
})

#: Probe-path primitives: row-domain changing but still streaming —
#: gathers and the hash probe itself.  Fusing through them is what
#: removes the intermediate position-list materializations.
PROBE_FUSIBLE = frozenset({
    "materialize", "materialize_position", "hash_probe", "join_side",
    "gather_payload",
})

#: Aggregation sinks a fused chain may terminate in.  They are pipeline
#: breakers, so they only ever appear as a group's exit.
AGG_SINKS = frozenset({"hash_agg", "agg_block"})

#: Everything that may merge *upward* into a consumer group.
_MERGEABLE = FUSIBLE | PROBE_FUSIBLE

#: Input-slot budget of the fused primitive definitions; groups needing
#: more external inputs are split into smaller groups.
MAX_FUSED_INPUTS = 16


@dataclass
class _FusionPlan:
    """Blueprint of one fused node (group exit keeps its node id)."""

    exit_id: str
    members: list[str]
    primitive: str = FUSED_PRIMITIVE
    steps: list[dict] = field(default_factory=list)
    externals: list[ScanSource | str] = field(default_factory=list)
    cost_steps: list[tuple[str, bool, bool]] = field(default_factory=list)
    num_args: int = 0


def _classify(graph: PrimitiveGraph, members: list[str]) -> str:
    """The fused primitive a member set collapses into."""
    primitives = {graph.nodes[nid].primitive for nid in members}
    if primitives & AGG_SINKS:
        return FUSED_AGG_PRIMITIVE
    if primitives & PROBE_FUSIBLE:
        return FUSED_PROBE_PRIMITIVE
    return FUSED_PRIMITIVE


def _plan_group(graph: PrimitiveGraph, members: list[str]
                ) -> _FusionPlan | None:
    """Compile one group (members in topological order) into a plan.

    Returns None when the group would exceed the fused primitive's
    input-slot budget — the caller then splits the group.
    """
    member_set = set(members)
    exit_id = members[-1]  # unique sink: always topologically last
    plan = _FusionPlan(exit_id=exit_id, members=members,
                       primitive=_classify(graph, members))
    ext_slot: dict[tuple[str, str], int] = {}
    for nid in members:
        node = graph.nodes[nid]
        args: list[tuple[str, object]] = []
        reads_memory = False
        for edge in graph.in_edges(nid):
            if not edge.is_scan and edge.source in member_set:
                args.append(("step", edge.source))
                continue
            key = (("scan", edge.source.ref) if edge.is_scan
                   else ("node", edge.source))
            if key not in ext_slot:
                if len(plan.externals) >= MAX_FUSED_INPUTS:
                    return None
                ext_slot[key] = len(plan.externals)
                plan.externals.append(edge.source)
            args.append(("input", ext_slot[key]))
            reads_memory = True
        plan.steps.append({
            "id": nid,
            "primitive": node.primitive,
            "params": dict(node.params),
            "args": args,
        })
        # The third entry: the cost model decays the fused sweep size
        # past each selective step, as the estimators do past the node.
        plan.cost_steps.append((node.defn.cost_key, reads_memory,
                                node.defn.selective))
        plan.num_args += len(args) + 1  # inputs plus the step's output
    return plan


@dataclass(frozen=True)
class FusionGroup:
    """One fusible region: its exit node id and ordered members."""

    exit_id: str
    members: tuple[str, ...]


def _form_groups(graph: PrimitiveGraph,
                 allowed: set[str] | None = None) -> list[list[str]]:
    """Member lists (topological order) of every fusible region.

    A node merges into the single group all its consumers belong to;
    *allowed* restricts both producers and consumers to a node subset
    (used when re-grouping the peeled-off prefix of an oversized group).
    """
    order = [nid for nid in graph.topological_order()
             if allowed is None or nid in allowed]
    member = set(order)
    outputs = set(graph.outputs)

    # Union-find over merge edges (producer -> its consumers' group).
    parent = {nid: nid for nid in order}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Reverse topological pass: consumers are grouped before their
    # producers, so "all out-edges land in one group" is decidable.
    for nid in reversed(order):
        node = graph.nodes[nid]
        if node.primitive not in _MERGEABLE or nid in outputs:
            continue
        targets = {e.target for e in graph.out_edges(nid)}
        if not targets or not targets <= member:
            continue
        if len({find(t) for t in targets}) != 1:
            continue
        mergeable = all(
            graph.nodes[t].primitive in _MERGEABLE
            or graph.nodes[t].primitive in AGG_SINKS
            for t in targets
        ) and all(
            graph.nodes[t].device == node.device
            and graph.nodes[t].variant == node.variant
            for t in targets
        )
        if not mergeable:
            continue
        parent[find(nid)] = find(next(iter(targets)))

    groups: dict[str, list[str]] = {}
    for nid in order:  # members stay in topological order
        groups.setdefault(find(nid), []).append(nid)
    return [members for members in groups.values() if len(members) >= 2]


def _compile_members(graph: PrimitiveGraph,
                     members: list[str]) -> list[_FusionPlan]:
    """Plans for one region, splitting it when it overflows the
    input-slot budget.

    Peeling the topologically earliest member is always safe: it has no
    in-group producers, its consumers stay in the remainder, and its
    own output becomes one external input of the remainder.  The peeled
    prefix is re-grouped on its own, so an oversized chain becomes two
    fused groups rather than falling back to fully unfused.
    """
    plan = _plan_group(graph, members)
    if plan is not None:
        return [plan]
    for cut in range(1, len(members) - 1):
        suffix_plan = _plan_group(graph, members[cut:])
        if suffix_plan is None:
            continue
        plans: list[_FusionPlan] = []
        for sub in _form_groups(graph, allowed=set(members[:cut])):
            plans.extend(_compile_members(graph, sub))
        plans.append(suffix_plan)
        return plans
    return []


def _candidate_plans(graph: PrimitiveGraph) -> dict[str, _FusionPlan]:
    """All fusible groups of *graph*, keyed by exit node id."""
    plans: dict[str, _FusionPlan] = {}
    for members in _form_groups(graph):
        for plan in _compile_members(graph, members):
            plans[plan.exit_id] = plan
    return plans


def fusion_groups(graph: PrimitiveGraph) -> list[FusionGroup]:
    """The fusible regions of *graph*, in topological order of their
    exits — the per-group choice space the optimizer enumerates."""
    plans = _candidate_plans(graph)
    order = {nid: i for i, nid in enumerate(graph.topological_order())}
    return [
        FusionGroup(exit_id=plan.exit_id, members=tuple(plan.members))
        for plan in sorted(plans.values(), key=lambda p: order[p.exit_id])
    ]


def fuse_graph(graph: PrimitiveGraph, *,
               only: Iterable[str] | None = None) -> PrimitiveGraph:
    """Rewrite *graph*, collapsing fusible regions into fused nodes.

    Returns a new graph (the input is never mutated); when nothing can be
    fused, the input graph itself is returned unchanged.

    Args:
        only: Fuse only the groups with these exit node ids (see
            :func:`fusion_groups`); None fuses every eligible group.
            The optimizer uses this to price and execute per-group
            fusion choices.
    """
    order = graph.topological_order()
    plans = _candidate_plans(graph)
    if only is not None:
        wanted = set(only)
        plans = {exit_id: plan for exit_id, plan in plans.items()
                 if exit_id in wanted}
    if not plans:
        return graph

    fused_away = {
        nid for plan in plans.values() for nid in plan.members
        if nid != plan.exit_id
    }

    fused = PrimitiveGraph(graph.name)
    for nid in order:
        if nid in fused_away:
            continue
        node = graph.nodes[nid]
        plan = plans.get(nid)
        if plan is None:
            fused.add_node(nid, node.primitive, params=dict(node.params),
                           device=node.device,
                           cost_params=dict(node.cost_params),
                           hints=dict(node.hints), variant=node.variant)
        else:
            params: dict = {"steps": plan.steps}
            if plan.primitive == FUSED_AGG_PRIMITIVE:
                # Mirror the sink's aggregate so chunked execution
                # combines partial results exactly as for the sink.
                params["fn"] = str(
                    plan.steps[-1]["params"].get("fn", "sum"))
            fused.add_node(
                nid, plan.primitive,
                params=params,
                device=node.device,
                cost_params={"fused_steps": plan.cost_steps,
                             "fused_num_args": plan.num_args},
                hints=dict(node.hints),
                variant=node.variant,
            )
    for nid in order:
        if nid in fused_away:
            continue
        plan = plans.get(nid)
        if plan is None:
            for edge in graph.in_edges(nid):
                fused.connect(edge.source, nid, edge.input_index)
        else:
            # Interior edges vanish; distinct external sources each get
            # one deduplicated input slot.
            for slot, source in enumerate(plan.externals):
                fused.connect(source, nid, slot)
    for out in graph.outputs:
        fused.mark_output(out)
    return fused

