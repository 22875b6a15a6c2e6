"""Property-based end-to-end test: random logical plans, every model.

Hypothesis generates small logical plans (filter chains with
disjunctions inside, derived columns, an optional semi-join or inner
join whose build payload is read after it, several scalar aggregates, a
grouped aggregate or a HAVING over one) over a fixed synthetic
database; each translated plan must produce identical results under the
execution models, fusion and adaptive settings of the cell table's axes
(``tools/timeline_digest.py``) — and a plain-numpy evaluation of the
same logical plan must agree.  Chunk sizes are drawn
to be non-divisors of the table sizes so every run exercises a ragged
tail chunk.

The same generator feeds the subplan-digest property: a digest names the
value a subtree computes, so it is blind to node ids, placement, variant
pins and fusion, and sees every parameter, input edge and scan column.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import subplan_fingerprint
from repro.core.graph import PrimitiveGraph, ScanSource
from repro.planner import (
    AggregateSpec,
    AnyOf,
    Derive,
    Derived,
    GroupAggregate,
    HashJoin,
    Predicate,
    ScalarAggregate,
    Scan,
    Select,
    SemiJoin,
    translate,
)
from repro.planner.fusion import fuse_graph
from repro.storage import Catalog, Column, Table
from tests.conftest import make_executor
from tests.test_timeline_golden import load_tool

N_FACT = 463  # deliberately not a multiple of any chunk size
N_DIM = 57


def build_catalog() -> Catalog:
    rng = np.random.default_rng(2024)
    catalog = Catalog()
    catalog.add(Table("fact", [
        Column("k", rng.integers(0, 80, N_FACT).astype(np.int64)),
        Column("v", rng.integers(-50, 50, N_FACT).astype(np.int64)),
        Column("w", rng.integers(1, 20, N_FACT).astype(np.int64)),
        Column("g", rng.integers(0, 6, N_FACT).astype(np.int64)),
    ]))
    catalog.add(Table("dim", [
        Column("dk", rng.integers(0, 80, N_DIM).astype(np.int64)),
        Column("dp", rng.integers(0, 5, N_DIM).astype(np.int64)),
    ]))
    return catalog


CATALOG = build_catalog()

predicate = st.builds(
    Predicate,
    column=st.sampled_from(["k", "v", "w", "g"]),
    cmp=st.sampled_from(["lt", "le", "gt", "ge", "eq", "ne"]),
    value=st.integers(-60, 90),
)
predicates = st.lists(
    st.one_of(predicate, st.builds(
        AnyOf, st.lists(predicate, min_size=2, max_size=3))),
    min_size=1, max_size=3,
)

derive_ops = st.sampled_from(["add", "sub", "mul"])
functions = st.sampled_from(["sum", "count", "min", "max"])


@st.composite
def logical_plans(draw):
    """A selection (disjunctions inside), maybe a derived column, maybe
    a semi-join or an inner join whose build payload is read after it,
    then several scalar aggregates, a grouped aggregate, or a HAVING
    over a grouped aggregate."""
    plan = Select(Scan("fact"), draw(predicates))
    values, keys = ["v", "w"], ["g"]
    if draw(st.booleans()):
        op = draw(derive_ops)
        plan = Derive(plan, [Derived("d", op, "v", "w")])
        values.append("d")
    join = draw(st.sampled_from([None, "semi", "inner"]))
    if join == "semi":
        plan = SemiJoin(probe=plan, build=Scan("dim"),
                        probe_key="k", build_key="dk")
    elif join == "inner":
        plan = HashJoin(probe=plan, build=Scan("dim"), probe_key="k",
                        build_key="dk", payload=["dp"])
        values.append("dp")
        keys.append("dp")
    shape = draw(st.sampled_from(["scalar", "group", "having"]))
    group = GroupAggregate(plan, keys=[draw(st.sampled_from(keys))],
                           aggregates=[AggregateSpec(
                               "agg", draw(functions),
                               draw(st.sampled_from(values)))])
    if shape == "group":
        return group
    if shape == "having":
        plan = Select(group, [Predicate("agg", draw(st.sampled_from(
            ["lt", "gt", "ne"])), draw(st.integers(-100, 200)))])
        values = [group.keys[0], "agg"]
    columns = draw(st.lists(st.sampled_from(values), min_size=1,
                            max_size=3))
    return ScalarAggregate(plan, [
        AggregateSpec(f"a{i}", draw(functions), column)
        for i, column in enumerate(columns)])


COMPARE = {"lt": np.less, "le": np.less_equal, "gt": np.greater,
           "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal}
REDUCE = {"sum": np.sum, "min": np.min, "max": np.max}
EMPTY = {"sum": 0, "count": 0, "min": np.iinfo(np.int64).max,
         "max": np.iinfo(np.int64).min}


def reduce(fn: str, values: np.ndarray) -> int:
    if fn == "count":
        return int(values.shape[0])
    return int(REDUCE[fn](values)) if values.shape[0] else EMPTY[fn]


def numpy_eval(plan):
    """Independent evaluation of the logical plan with plain numpy."""
    def mask(data, term) -> np.ndarray:
        if isinstance(term, AnyOf):
            return np.logical_or.reduce([mask(data, p) for p in term.terms])
        return COMPARE[term.cmp](data[term.column], term.value)

    def grouped(node) -> dict[int, int]:
        data = frame(node.child)
        keys = data[node.keys[0]]
        spec = node.aggregates[0]
        return {int(key): reduce(spec.fn, data[spec.column][keys == key]
                                 if spec.column else keys[keys == key])
                for key in np.unique(keys)}

    def frame(node) -> dict[str, np.ndarray]:
        if isinstance(node, Scan):
            table = CATALOG.table(node.table)
            return {c.name: c.values.astype(np.int64)
                    for c in table.columns}
        if isinstance(node, Select):
            data = frame(node.child)
            keep = np.logical_and.reduce([mask(data, t)
                                          for t in node.predicates])
            return {k: v[keep] for k, v in data.items()}
        if isinstance(node, Derive):
            data = frame(node.child)
            for d in node.columns:
                ops = {"add": np.add, "sub": np.subtract,
                       "mul": np.multiply}
                data[d.name] = ops[d.op](data[d.left], data[d.right])
            return data
        if isinstance(node, SemiJoin):
            data = frame(node.probe)
            build = frame(node.build)[node.build_key]
            keep = np.isin(data[node.probe_key], build)
            return {k: v[keep] for k, v in data.items()}
        if isinstance(node, HashJoin):
            data, build = frame(node.probe), frame(node.build)
            left, right = np.nonzero(data[node.probe_key][:, None]
                                     == build[node.build_key][None, :])
            return {**{k: v[left] for k, v in data.items()},
                    **{p: build[p][right] for p in node.payload}}
        if isinstance(node, GroupAggregate):
            groups = grouped(node)
            return {node.keys[0]: np.array(list(groups), dtype=np.int64),
                    "agg": np.array(list(groups.values()), dtype=np.int64)}
        raise AssertionError(type(node))

    if isinstance(plan, ScalarAggregate):
        data = frame(plan.child)
        return {spec.name: reduce(spec.fn, data[spec.column])
                for spec in plan.aggregates}
    return grouped(plan)


def run_plan(plan, model: str, chunk: int, *, fuse: bool = False,
             adaptive: bool = False):
    graph = translate(plan, catalog=CATALOG)
    executor = make_executor()
    result = executor.run(graph, CATALOG, model=model, chunk_size=chunk,
                          fuse=fuse, adaptive=adaptive)
    if isinstance(plan, ScalarAggregate):
        return {spec.name: int(result.output(spec.name)[0])
                for spec in plan.aggregates}
    table = result.output("agg")
    fn = plan.aggregates[0].fn
    return {int(k): int(v)
            for k, v in zip(table.keys, table.aggregates[fn])}


#: The random-plan column of the cell table: its models (``oaat`` is
#: the per-example baseline inside the test, so the strategy draws from
#: the others) and its fuse and adaptive axes.
AXES = load_tool().PAIRS
MODELS = [model for model in AXES["model"] if model != "oaat"]
FUSED = st.sampled_from(AXES["fuse"]).map(lambda fuse: fuse == "fused")

#: The table's chunk settings are sized for SF 0.01; none of these
#: divide N_FACT=463 (prime) or N_DIM=57, so every chunked run ends on a
#: ragged tail chunk.
CHUNKS = [32, 96, 160, 288]


@settings(max_examples=60, deadline=None)
@given(plan=logical_plans(), chunk=st.sampled_from(CHUNKS),
       model=st.sampled_from(MODELS), fuse=FUSED,
       adaptive=st.sampled_from(AXES["mode"]).map(
           lambda mode: mode == "adaptive"))
def test_random_plan_all_models_match_numpy(plan, chunk, model, fuse,
                                            adaptive):
    expected = numpy_eval(plan)
    assert run_plan(plan, "oaat", 32) == expected
    assert run_plan(plan, model, chunk, fuse=fuse,
                    adaptive=adaptive) == expected


@settings(max_examples=25, deadline=None)
@given(plan=logical_plans(), chunk=st.sampled_from(CHUNKS),
       model=st.sampled_from(MODELS), fuse=FUSED)
def test_adaptive_matches_static_exactly(plan, chunk, model, fuse):
    """Adaptive execution is an optimization, never a semantics change."""
    static = run_plan(plan, model, chunk, fuse=fuse, adaptive=False)
    adaptive = run_plan(plan, model, chunk, fuse=fuse, adaptive=True)
    assert adaptive == static


# ---------------------------------------------------------------------------
# Subplan digests, against their definition
# ---------------------------------------------------------------------------

def rebuilt(graph, *, rename=lambda nid: nid, edges=None, params=None,
            sources=None) -> PrimitiveGraph:
    """*graph* built again by hand: ids through *rename*, edges connected
    in the order *edges* gives, ``params[nid]`` in place of that node's
    and ``sources[data_id]`` in place of that edge's source."""
    out = PrimitiveGraph(graph.name)
    for nid, node in reversed(graph.nodes.items()):
        out.add_node(rename(nid), node.primitive,
                     params=(params or {}).get(nid, node.params))
    for edge in edges or graph.edges:
        source = (sources or {}).get(edge.data_id, edge.source)
        out.connect(source if isinstance(source, ScanSource)
                    else rename(source), rename(edge.target),
                    edge.input_index)
    for nid in graph.outputs:
        out.mark_output(rename(nid))
    return out


def digests(graph) -> dict[str, str]:
    return {nid: subplan_fingerprint(graph, nid) for nid in graph.nodes}


def downstream(graph, nid: str) -> set[str]:
    """*nid* and every node its result reaches."""
    reached, frontier = {nid}, [nid]
    while frontier:
        for edge in graph.out_edges(frontier.pop()):
            if edge.target not in reached:
                reached.add(edge.target)
                frontier.append(edge.target)
    return reached


def changed_params(draw, params: dict) -> dict:
    key = draw(st.sampled_from(sorted(params)))
    kind = draw(st.sampled_from(["alter", "drop", "add"]))
    if kind == "drop":
        return {k: v for k, v in params.items() if k != key}
    if kind == "add":
        return {**params, "extra": 0}
    value = params[key]
    return {**params,
            key: value + 1 if isinstance(value, int) else (value, "x")}


@settings(max_examples=60, deadline=None)
@given(plan=logical_plans(), data=st.data())
def test_digest_names_the_value_and_nothing_else(plan, data):
    draw = data.draw
    graph = translate(plan, catalog=CATALOG)
    names = digests(graph)

    # Blind to ids and build order, to placement, variant pins, fusion.
    twin = rebuilt(graph, rename=lambda nid: f"renamed-{nid}",
                   edges=draw(st.permutations(graph.edges)))
    for node in twin.nodes.values():
        node.device = draw(st.sampled_from([None, "gpu0", "cpu0"]))
        node.variant = draw(st.sampled_from([None, "opencl", "cuda"]))
    assert digests(twin) == {f"renamed-{nid}": name
                             for nid, name in names.items()}
    for nid, name in digests(fuse_graph(graph)).items():
        assert name == names[nid]

    # Sees any one change, exactly in what the changed node feeds.
    node = draw(st.sampled_from(sorted(
        nid for nid, node in graph.nodes.items() if node.params)))
    edge = draw(st.sampled_from(graph.edges))
    scan = draw(st.sampled_from([e for e in graph.edges if e.is_scan]))
    other_sources = sorted(  # acyclic, and a different value
        nid for nid in set(graph.nodes) - downstream(graph, edge.target)
        if names[nid] != names.get(edge.source))
    changes = [
        (node, dict(params={node: changed_params(
            draw, graph.nodes[node].params)})),
        (edge.target, dict(sources={edge.data_id: draw(st.sampled_from(
            [ScanSource("fact.elsewhere"), *other_sources]))})),
        (scan.target, dict(sources={scan.data_id: ScanSource(
            scan.source.ref + "_2")})),
    ]
    for root, change in changes:
        affected = downstream(graph, root)
        for nid, name in digests(rebuilt(graph, **change)).items():
            assert (name != names[nid]) == (nid in affected), (nid, change)
