"""Logical-plan to primitive-graph translation.

The translator compiles the algebra of :mod:`repro.planner.logical` into
Table I primitives, applying the paper's conventions:

* selections become FILTER_BITMAP chains conjoined with BITMAP_AND,
  followed by late MATERIALIZE of exactly the columns required downstream
  (requirements are computed top-down);
* derived columns become MAP nodes;
* (semi-) joins become HASH_BUILD / HASH_PROBE pairs with
  MATERIALIZE_POSITION gathers, splitting pipelines at the build;
* aggregations become AGG_BLOCK / HASH_AGG breakers.

The resulting graph runs under every execution model unchanged.
"""

from __future__ import annotations

from repro.core.graph import PrimitiveGraph
from repro.errors import PlanError
from repro.planner import logical as L

__all__ = ["translate"]


def translate(plan: L.LogicalPlan, *, name: str = "query",
              device: str | None = None,
              catalog=None) -> PrimitiveGraph:
    """Compile *plan* into a validated :class:`PrimitiveGraph`.

    The plan root must be a :class:`~repro.planner.logical.ScalarAggregate`
    or :class:`~repro.planner.logical.GroupAggregate` (queries return
    aggregates; see the query modules for host-side finalization).  Output
    node ids are ``"result"`` for a scalar aggregate and the aggregate
    names for a grouped one.

    Args:
        catalog: When given, predicate selectivities are estimated from a
            row sample (:mod:`repro.planner.stats`) and folded into the
            MATERIALIZE buffer hints; otherwise a fixed 0.5 is assumed.
    """
    translator = _Translator(name=name, device=device, catalog=catalog)
    translator.emit_root(plan)
    graph = translator.graph
    graph.validate()
    return graph


class _Translator:
    """Single-use translation state (graph under construction)."""

    def __init__(self, *, name: str, device: str | None,
                 catalog=None) -> None:
        self.graph = PrimitiveGraph(name)
        self.device = device
        self.catalog = catalog
        self._n = 0

    # -- naming -----------------------------------------------------------

    def fresh(self, stem: str) -> str:
        self._n += 1
        return f"{stem}_{self._n}"

    def node(self, stem: str, primitive: str, **kwargs) -> str:
        node_id = self.fresh(stem)
        self.graph.add_node(node_id, primitive, device=self.device, **kwargs)
        return node_id

    # -- top level -----------------------------------------------------------

    def emit_root(self, plan: L.LogicalPlan) -> None:
        if isinstance(plan, L.ScalarAggregate):
            sources = self.emit(plan.child, {plan.column})
            agg = "result"
            self.graph.add_node(agg, "agg_block", params=dict(fn=plan.fn),
                                device=self.device)
            self.graph.connect(sources[plan.column], agg, 0)
            self.graph.mark_output(agg)
            return
        if isinstance(plan, L.GroupAggregate):
            required = set(plan.keys) | {
                a.column for a in plan.aggregates if a.column
            }
            sources = self.emit(plan.child, required)
            key_source = self._group_key(plan, sources)
            for spec in plan.aggregates:
                agg = spec.name
                self.graph.add_node(agg, "hash_agg",
                                    params=dict(fn=spec.fn),
                                    device=self.device)
                self.graph.connect(key_source, agg, 0)
                if spec.column is not None:
                    self.graph.connect(sources[spec.column], agg, 1)
                self.graph.mark_output(agg)
            return
        raise PlanError(
            f"plan root must be an aggregate, got {type(plan).__name__}"
        )

    def _group_key(self, plan: L.GroupAggregate,
                   sources: dict[str, str]) -> str:
        if len(plan.keys) == 1:
            return sources[plan.keys[0]]
        combined = self.node("groupkey", "map",
                             params=dict(op="combine_keys",
                                         const=plan.second_key_domain))
        self.graph.connect(sources[plan.keys[0]], combined, 0)
        self.graph.connect(sources[plan.keys[1]], combined, 1)
        return combined

    # -- recursive emission -------------------------------------------------------

    def emit(self, plan: L.LogicalPlan, required: set[str]
             ) -> dict[str, str]:
        """Emit primitives for *plan*, returning column -> source id for
        every column in *required* (row-aligned)."""
        if isinstance(plan, L.Scan):
            return {col: f"{plan.table}.{col}" for col in required}
        if isinstance(plan, L.Select):
            return self._emit_select(plan, required)
        if isinstance(plan, L.Derive):
            return self._emit_derive(plan, required)
        if isinstance(plan, L.SemiJoin):
            return self._emit_join(plan, required, semi=True)
        if isinstance(plan, L.HashJoin):
            return self._emit_join(plan, required, semi=False)
        raise PlanError(
            f"unsupported operator in this position: {type(plan).__name__}"
        )

    def _emit_select(self, plan: L.Select, required: set[str]
                     ) -> dict[str, str]:
        predicate_cols = {p.column for p in plan.predicates}
        sources = self.emit(plan.child, required | predicate_cols)
        bitmap = None
        for predicate in plan.predicates:
            f = self.node("filter", "filter_bitmap",
                          params=predicate.kernel_params())
            self.graph.connect(sources[predicate.column], f, 0)
            if bitmap is None:
                bitmap = f
            else:
                combined = self.node("and", "bitmap_and")
                self.graph.connect(bitmap, combined, 0)
                self.graph.connect(f, combined, 1)
                bitmap = combined
        selectivity = self._selectivity(plan, sources)
        out: dict[str, str] = {}
        for col in sorted(required):
            m = self.node(f"mat_{col}", "materialize",
                          hints=dict(selectivity_estimate=selectivity))
            self.graph.connect(sources[col], m, 0)
            self.graph.connect(bitmap, m, 1)
            out[col] = m
        return out

    def _selectivity(self, plan: L.Select, sources: dict[str, str]) -> float:
        """Sampled conjunction selectivity; 0.5 per unsampleable term."""
        if self.catalog is None:
            return 0.5
        from repro.planner.stats import estimate_selectivity
        selectivity = 1.0
        for predicate in plan.predicates:
            source = sources[predicate.column]
            if "." in source:  # a direct scan column: sample it
                table = source.partition(".")[0]
                selectivity *= estimate_selectivity(
                    self.catalog, table, predicate)
            else:  # derived column: no statistics
                selectivity *= 0.5
        return max(selectivity, 1e-4)

    def _emit_derive(self, plan: L.Derive, required: set[str]
                     ) -> dict[str, str]:
        derived = {d.name: d for d in plan.columns}
        needed_inputs = set()
        for name in required & set(derived):
            d = derived[name]
            needed_inputs.add(d.left)
            if d.right is not None:
                needed_inputs.add(d.right)
        child_required = (required - set(derived)) | needed_inputs
        sources = self.emit(plan.child, child_required)
        out = {col: sources[col] for col in required - set(derived)}
        for name in sorted(required & set(derived)):
            d = derived[name]
            m = self.node(f"map_{name}", "map",
                          params=dict(op=d.op))
            self.graph.connect(sources[d.left], m, 0)
            if d.right is not None:
                self.graph.connect(sources[d.right], m, 1)
            out[name] = m
        return out

    def _emit_join(self, plan: L.SemiJoin | L.HashJoin, required: set[str],
                   *, semi: bool) -> dict[str, str]:
        # Build side: its own pipeline ending at the HASH_BUILD breaker.
        if semi:
            build_required = {plan.build_key}
            payload: list[str] = []
        else:
            payload = list(plan.payload)
            build_required = {plan.build_key, *payload}
        build_sources = self.emit(plan.build, build_required)
        build = self.node("build", "hash_build",
                          params=(dict(payload_names=tuple(payload))
                                  if payload else {}))
        self.graph.connect(build_sources[plan.build_key], build, 0)
        for slot, col in enumerate(payload, start=1):
            self.graph.connect(build_sources[col], build, slot)

        # Probe side.
        probe_sources = self.emit(plan.probe, required | {plan.probe_key})
        probe = self.node("probe", "hash_probe",
                          params=dict(mode="semi" if semi else "inner"))
        self.graph.connect(probe_sources[plan.probe_key], probe, 0)
        self.graph.connect(build, probe, 1)

        positions = probe
        if not semi:
            positions = self.node("jleft", "join_side",
                                  params=dict(side="left"))
            self.graph.connect(probe, positions, 0)

        out: dict[str, str] = {}
        for col in sorted(required):
            m = self.node(f"gather_{col}", "materialize_position",
                          hints=dict(selectivity_estimate=0.5))
            self.graph.connect(probe_sources[col], m, 0)
            self.graph.connect(positions, m, 1)
            out[col] = m
        return out
