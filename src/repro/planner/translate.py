"""Logical-plan to primitive-graph translation.

The translator compiles the algebra of :mod:`repro.planner.logical` into
Table I primitives, applying the paper's conventions:

* selections become FILTER_BITMAP chains conjoined with BITMAP_AND (a
  disjunction inside one with BITMAP_OR), followed by late MATERIALIZE
  of exactly the columns required downstream (requirements are computed
  top-down);
* derived columns become MAP nodes;
* (semi-) joins become HASH_BUILD / HASH_PROBE pairs with
  MATERIALIZE_POSITION gathers of probe columns and GATHER_PAYLOAD of
  build-side payload, splitting pipelines at the build;
* aggregations become AGG_BLOCK / HASH_AGG breakers (GROUP_PREFIX +
  SORT_AGG over a sorted input), and a selection over a grouped
  aggregate reads it through GROUP_KEYS / GROUP_VALUES.

Every TPC-H query's ``template()`` is ``translate`` of its plan: node ids,
hints and cost parameters the plan names are used as given, the others
are fresh ids (``filter_1`` ...) and sampled or 0.5 selectivity hints.
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

    The plan root must be a :class:`~repro.planner.logical.ScalarAggregate`,
    :class:`~repro.planner.logical.GroupAggregate` or
    :class:`~repro.planner.logical.HashBuild` (see the query modules for
    host-side finalization).  The outputs are the root's nodes — one per
    aggregate, named by it — then the hash tables and aggregates kept
    below the root, in plan order.

    Args:
        catalog: When given, predicate selectivities are estimated from a
            row sample (:mod:`repro.planner.stats`) and folded into the
            MATERIALIZE buffer hints a selection does not name; otherwise
            a fixed 0.5 is assumed.
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
        self.kept: list[str] = []  # outputs below the root, in plan order
        self._n = 0

    # -- naming and wiring ------------------------------------------------

    def node(self, stem: str, primitive: str, node_id: str | None = None,
             **kwargs) -> str:
        """Add a node, named *node_id* or else ``{stem}_{n}``."""
        if node_id is None:
            self._n += 1
            node_id = f"{stem}_{self._n}"
        self.graph.add_node(node_id, primitive, device=self.device,
                            **kwargs)
        return node_id

    def wire(self, target: str, *sources: str) -> None:
        """Connect *sources* into *target*'s input slots 0, 1, ..."""
        for slot, source in enumerate(sources):
            self.graph.connect(source, target, slot)

    @staticmethod
    def hints(plan, default: float) -> dict:
        """The plan's hints, or a *default* selectivity estimate."""
        if plan.hints is not None:
            return plan.hints
        return dict(selectivity_estimate=default)

    # -- top level -----------------------------------------------------------

    def emit_root(self, plan: L.LogicalPlan) -> None:
        if isinstance(plan, L.ScalarAggregate):
            sources = self.emit(plan.child,
                                {a.column for a in plan.aggregates})
            outputs = []
            for spec in plan.aggregates:
                agg = self.node("agg", "agg_block", spec.name,
                                params=dict(fn=spec.fn))
                self.wire(agg, sources[spec.column])
                outputs.append(agg)
        elif isinstance(plan, L.GroupAggregate):
            aggs, key_column = self._group(plan)
            outputs = list(aggs.values()) + ([key_column] if plan.sort
                                             else [])
        elif isinstance(plan, L.HashBuild):
            outputs = [self._build(plan.child, plan.key, plan.payload,
                                   plan.id)]
        else:
            raise PlanError(
                f"plan root must be an aggregate or a hash table, got "
                f"{type(plan).__name__}"
            )
        for node_id in outputs + self.kept:
            self.graph.mark_output(node_id)

    def _group(self, plan: L.GroupAggregate) -> tuple[dict[str, str], str]:
        """Emit *plan*'s aggregates: ({name: node id}, the key column's
        source)."""
        required = set(plan.keys) | {
            a.column for a in plan.aggregates if a.column
        }
        sources = self.emit(plan.child, required)
        key_column = sources[plan.keys[0]]
        if plan.sort:
            key = self.node("prefix", "group_prefix", plan.key_id)
            self.wire(key, key_column)
        elif len(plan.keys) == 2:
            key = self.node("groupkey", "map", plan.key_id,
                            params=dict(op="combine_keys",
                                        const=plan.second_key_domain))
            self.wire(key, key_column, sources[plan.keys[1]])
        else:
            key = key_column
        aggs = {}
        for spec in plan.aggregates:
            if plan.sort:
                agg = self.node("agg", "sort_agg", spec.name,
                                params=dict(fn=spec.fn))
                self.wire(agg, sources[spec.column], key)
            else:
                agg = self.node("agg", "hash_agg", spec.name,
                                params=dict(fn=spec.fn),
                                cost_params=dict(plan.cost_params))
                self.wire(agg, key, *([sources[spec.column]]
                                      if spec.column else []))
            aggs[spec.name] = agg
        return aggs, key_column

    def _build(self, plan: L.LogicalPlan, key: str, payload: list[str],
               node_id: str | None) -> str:
        """Emit a HASH_BUILD of *plan*'s rows; its own pipeline."""
        sources = self.emit(plan, {key, *payload})
        build = self.node("build", "hash_build", node_id,
                          params=(dict(payload_names=tuple(payload))
                                  if payload else {}))
        self.wire(build, sources[key], *(sources[c] for c in payload))
        return build

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
        if isinstance(plan, L.Rename):
            sources = self.emit(plan.child, {plan.columns.get(c, c)
                                             for c in required})
            return {c: sources[plan.columns.get(c, c)] for c in required}
        if isinstance(plan, L.Sort):
            return self._emit_sort(plan, required)
        if isinstance(plan, L.GroupAggregate):
            return self._emit_having_input(plan, required)
        if isinstance(plan, L.SemiJoin):
            return self._emit_join(plan, required, semi=True)
        if isinstance(plan, L.HashJoin):
            return self._emit_join(plan, required, semi=False)
        raise PlanError(
            f"unsupported operator in this position: {type(plan).__name__}"
        )

    def _emit_select(self, plan: L.Select, required: set[str]
                     ) -> dict[str, str]:
        predicate_cols = {p.column for term in plan.predicates
                          for p in term.terms}
        sources = self.emit(plan.child, required | predicate_cols)
        bitmap = self._combine(plan.predicates, sources, "and",
                               "bitmap_and", plan.and_ids)
        hints = self.hints(plan, self._selectivity(plan, sources))
        out: dict[str, str] = {}
        for col in sorted(required):
            m = self.node(f"mat_{col}", "materialize", plan.ids.get(col),
                          hints=dict(hints))
            self.wire(m, sources[col], bitmap)
            out[col] = m
        return out

    def _combine(self, terms: list, sources: dict[str, str], stem: str,
                 primitive: str, ids: list[str]) -> str:
        """Filter on each term and fold the bitmaps with *primitive*
        (BITMAP_AND, or BITMAP_OR inside an AnyOf); nodes named by
        *ids* in order, fresh once they run out."""
        names = iter(ids)
        bitmap = None
        for term in terms:
            if isinstance(term, L.AnyOf):
                f = self._combine(term.terms, sources, "or",
                                  "bitmap_or", term.ids)
            else:
                f = self.node("filter", "filter_bitmap", term.id,
                              params=term.kernel_params())
                self.wire(f, sources[term.column])
            if bitmap is None:
                bitmap = f
            else:
                combined = self.node(stem, primitive, next(names, None))
                self.wire(combined, bitmap, f)
                bitmap = combined
        return bitmap

    def _selectivity(self, plan: L.Select, sources: dict[str, str]) -> float:
        """Sampled conjunction selectivity; 0.5 per term without
        statistics (a disjunction, a derived column, or literals bound
        later)."""
        if self.catalog is None or plan.hints is not None:
            return 0.5
        from repro.planner.stats import estimate_selectivity
        selectivity = 1.0
        for term in plan.predicates:
            source = sources[term.terms[0].column]
            if isinstance(term, L.AnyOf) or "." not in source \
                    or not term.kernel_params():
                selectivity *= 0.5
            else:  # a direct scan column: sample it
                selectivity *= estimate_selectivity(
                    self.catalog, source.partition(".")[0], term)
        return max(selectivity, 1e-4)

    def _emit_derive(self, plan: L.Derive, required: set[str]
                     ) -> dict[str, str]:
        derived = {d.name: d for d in plan.columns}
        wanted = required & derived.keys()
        child_required = required - derived.keys()
        for d in reversed(plan.columns):  # a column may read earlier ones
            if d.name in wanted:
                for col in (d.left, d.right):
                    if col in derived:
                        wanted.add(col)
                    elif col is not None:
                        child_required.add(col)
        out = self.emit(plan.child, child_required)
        for d in plan.columns:
            if d.name in wanted:
                m = self.node(f"map_{d.name}", "map", d.id,
                              params=d.kernel_params())
                self.wire(m, *(out[col] for col in (d.left, d.right)
                               if col is not None))
                out[d.name] = m
        return {col: out[col] for col in required}

    def _emit_sort(self, plan: L.Sort, required: set[str]
                   ) -> dict[str, str]:
        sources = self.emit(plan.child, required | {plan.key})
        order = self.node("sort", "sort_positions", plan.id)
        self.wire(order, sources[plan.key])
        out: dict[str, str] = {}
        for col in sorted(required):
            m = self.node(f"sorted_{col}", "materialize_position",
                          plan.ids.get(col))
            self.wire(m, sources[col], order)
            out[col] = m
        return out

    def _emit_having_input(self, plan: L.GroupAggregate, required: set[str]
                           ) -> dict[str, str]:
        """A grouped aggregate below the root: its key and aggregates as
        row-aligned columns."""
        if len(plan.keys) != 1 or plan.sort:
            raise PlanError("only a one-key hash GroupAggregate can be "
                            "read below the plan root")
        aggs, _ = self._group(plan)
        if plan.output:
            self.kept.extend(aggs.values())
        fns = {a.name: a.fn for a in plan.aggregates}
        out: dict[str, str] = {}
        for col in sorted(required):
            if col == plan.keys[0]:
                out[col] = self.node("gkeys", "group_keys", plan.ids.get(col))
                self.wire(out[col], next(iter(aggs.values())))
            elif col in aggs:
                out[col] = self.node("gvalues", "group_values",
                                     plan.ids.get(col),
                                     params=dict(fn=fns[col]))
                self.wire(out[col], aggs[col])
            else:
                raise PlanError(f"grouped aggregate has no column {col!r}")
        return out

    def _emit_join(self, plan: L.SemiJoin | L.HashJoin, required: set[str],
                   *, semi: bool) -> dict[str, str]:
        # Build side: its own pipeline ending at the HASH_BUILD breaker.
        payload = [] if semi else plan.payload
        build = self._build(plan.build, plan.build_key, payload,
                            plan.build_id)
        if not semi and plan.output:
            self.kept.append(build)

        # Probe side.
        probe_sources = self.emit(
            plan.probe, (required - set(payload)) | {plan.probe_key})
        probe = self.node("probe", "hash_probe", plan.probe_id,
                          params=dict(mode="semi" if semi else "inner"))
        self.wire(probe, probe_sources[plan.probe_key], build)

        positions = probe
        if not semi:
            positions = self.node("jleft", "join_side", plan.side_id,
                                  params=dict(side="left"))
            self.wire(positions, probe)

        hints = self.hints(plan, 0.5)
        out: dict[str, str] = {}
        for col in sorted(required):
            if col in payload:
                m = self.node(f"payload_{col}", "gather_payload",
                              plan.ids.get(col), params=dict(name=col),
                              hints=dict(hints))
                self.wire(m, probe, build)
            else:
                m = self.node(f"gather_{col}", "materialize_position",
                              plan.ids.get(col), hints=dict(hints))
                self.wire(m, probe_sources[col], positions)
            out[col] = m
        return out
