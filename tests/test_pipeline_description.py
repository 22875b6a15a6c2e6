"""One description of a pipeline before it runs.

Each pre-run fact has one home — the row walk
(``planner/cost.py::pipeline_shape``), the chunk rule
(``core/pipelines.py``), selectivity and the fused kinds
(``primitives/definitions.py``) — and every reader reads it.  These
tests keep it so: a structural guard over the sources, the readers of
the chunk rule checked against each other and against the run, and a
primitive plugged in by its definition alone.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

import repro
from repro.cluster import ClusterExecutor, ShardPlanner
from repro.cluster import executor as cluster_executor
from repro.cluster import planner as cluster_planner
from repro.core.graph import PrimitiveGraph
from repro.core.models import MODELS
from repro.core.pipelines import split_pipelines
from repro.devices import CudaDevice, OpenMPDevice
from repro.errors import ExecutionError
from repro.hardware import CPU_I7_8700, GPU_RTX_2080_TI
from repro.observe import explain
from repro.planner.cost import (
    DEFAULT_SELECTIVITY,
    PricingTable,
    estimate_graph_seconds,
    estimate_node_seconds,
)
from repro.planner.fusion import fuse_graph
from repro.primitives.definitions import (
    FUSED_PRIMITIVES,
    PRIMITIVES,
    PrimitiveDefinition,
    register_primitive,
)
from repro.primitives.values import IOSemantic
from repro.tpch.queries import QUERIES, q1_sorted, q3
from tests.conftest import make_executor

SRC = Path(repro.__file__).parent

#: The two lists the ``selective`` flag replaced, as they read.
SELECTIVE = {"materialize", "materialize_position", "hash_probe",
             "filter_position"}


@functools.cache
def modules():
    return {str(path.relative_to(SRC)): ast.parse(path.read_text())
            for path in sorted(SRC.rglob("*.py"))}


def where(found):
    """The modules (paths under ``src/repro``) holding an AST node that
    *found* accepts."""
    return [name for name, tree in modules().items()
            if any(found(node) for node in ast.walk(tree))]


def named(node, name):
    return getattr(node, "id", getattr(node, "attr", None)) == name


def listing(tree, names):
    """Whether *tree* spells exactly *names* as one literal collection
    (a module's ``__all__`` lists what it defines, not a fact)."""
    exports = {id(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and getattr(node.targets[0], "id", None) == "__all__"}
    return any(
        isinstance(node, (ast.Tuple, ast.List, ast.Set))
        and id(node) not in exports
        and {e.value for e in node.elts
             if isinstance(e, ast.Constant)} == set(names)
        for node in ast.walk(tree))


class TestOneHomePerFact:
    def test_each_fact_is_spelled_in_one_module(self):
        trees = modules()
        assert where(lambda n: isinstance(n, ast.Attribute)
                     and n.attr == "requires_full_input") == \
            ["core/pipelines.py"]
        assert where(lambda n: isinstance(n, ast.keyword)
                     and n.arg == "selective") == \
            ["primitives/definitions.py"]
        assert [name for name, tree in trees.items()
                if listing(tree, FUSED_PRIMITIVES)] == \
            ["primitives/definitions.py"]
        assert not [name for name, tree in trees.items()
                    if listing(tree, SELECTIVE)]
        for name in ("cluster/planner.py", "planner/adaptive.py"):
            assert not [n for n in ast.walk(trees[name])
                        if isinstance(n, ast.Constant) and n.value == 1024]

    def test_plans_and_the_chunk_rule_have_one_home_each(self):
        assert where(lambda n: isinstance(n, ast.Call)
                     and named(n.func, "PhysicalPlan")) == \
            ["planner/compile.py", "planner/optimizer.py"]
        # The quantum (32 physical rows, scaled) and the logical-to-
        # physical chunk conversion.
        assert where(lambda n: isinstance(n, ast.BinOp)
                     and isinstance(n.op, ast.Mult)
                     and any(named(side, "data_scale")
                             for side in (n.left, n.right))
                     and any(named(side, "CHUNK_QUANTUM")
                             or getattr(side, "value", None) == 32
                             for side in (n.left, n.right))) == \
            ["core/pipelines.py"]
        assert where(lambda n: isinstance(n, ast.BinOp)
                     and isinstance(n.op, ast.FloorDiv)
                     and named(n.right, "data_scale")) == \
            ["core/pipelines.py"]
        assert not where(lambda n: isinstance(n, ast.ImportFrom)
                         and n.module == "repro.engine.scheduler"
                         and any(alias.name.startswith("_")
                                 for alias in n.names))

    def test_the_decay_is_applied_by_the_one_walk(self):
        trees = modules()
        calls = {
            (name, function.name)
            for name, tree in trees.items()
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_node_decay"}
        assert calls == {("planner/cost.py", "pipeline_shape")}

    def test_one_decay_literal(self):
        from repro.hardware import calibration
        assert DEFAULT_SELECTIVITY is calibration.FUSED_SELECTIVE_DECAY

    def test_selective_flag_reproduces_the_deleted_lists(self, tiny_catalog):
        assert {name for name, defn in PRIMITIVES.items()
                if defn.selective} == SELECTIVE
        steps = 0
        for module in QUERIES.values():
            fused = fuse_graph(module.build(tiny_catalog))
            for node in fused.nodes.values():
                for step, cost_step in zip(
                        node.params.get("steps", ()),
                        node.cost_params.get("fused_steps", ())):
                    assert cost_step[2] == (step["primitive"] in SELECTIVE)
                    steps += 1
        assert steps > 50


# ---------------------------------------------------------------------------
# The chunk rule's readers agree with each other and with the run.

FLEETS = {
    "one": (),
    "two": (("cpu0", OpenMPDevice, CPU_I7_8700),),
}


def explained_chunks(text):
    return re.findall(r"^  pipeline \d+ .* chunks=(\w+) ", text, re.M)


@pytest.mark.parametrize("fleet", sorted(FLEETS))
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_explain_pricer_and_run_agree_on_chunks(query, fleet, tiny_catalog):
    executor = make_executor(CudaDevice, GPU_RTX_2080_TI, name="gpu0",
                             extra_devices=FLEETS[fleet])
    for chunk_size in (512, 1024):
        table = PricingTable(tiny_catalog, executor.devices,
                             default_device="gpu0")
        for model in sorted(MODELS):
            flags = dict(model=model, chunk_size=chunk_size)
            graph = QUERIES[query].build(tiny_catalog)
            where = (query, fleet, model, chunk_size)
            priced = [p.chunks
                      for p in table.price(graph, **flags).pipelines]
            assert explained_chunks(explain(
                graph, tiny_catalog, devices=executor.devices, **flags)
            ) == [str(chunks) for chunks in priced], where
            if model == "oaat":
                continue
            stats = executor.run(graph, tiny_catalog, fuse=False,
                                 **flags).stats
            assert stats.chunks_processed == sum(
                chunks for chunks, pipeline
                in zip(priced, split_pipelines(graph))
                if pipeline.scan_refs), where


@pytest.mark.parametrize("model", sorted(set(MODELS) - {"oaat"}))
def test_full_input_pipeline_is_one_chunk_or_refused(model, tiny_catalog):
    executor = make_executor()
    rows = tiny_catalog.column("lineitem.l_shipdate").values.shape[0]
    for chunk_size, covering in ((1024, False), (4096, True)):
        assert (rows <= chunk_size) is covering
        flags = dict(model=model, chunk_size=chunk_size)
        text = explain(q1_sorted.build(), tiny_catalog,
                       devices=executor.devices, **flags)
        assert MODELS[model].supports(
            q1_sorted.build(), tiny_catalog,
            physical_chunk_rows=chunk_size) is covering
        priced = PricingTable(
            tiny_catalog, executor.devices, default_device="dev0"
        ).price(q1_sorted.build(), **flags)
        assert [p.chunks for p in priced.pipelines] == [1]
        if covering:
            assert explained_chunks(text) == ["1"]
            stats = executor.run(q1_sorted.build(), tiny_catalog,
                                 **flags).stats
            assert stats.chunks_processed == 1
        else:
            assert explained_chunks(text) == ["refused"]
            with pytest.raises(ExecutionError) as refused:
                executor.run(q1_sorted.build(), tiny_catalog, **flags)
            assert f"    refused: {refused.value}" in text.splitlines()


# ---------------------------------------------------------------------------
# The shard planner prices the catalogs the cluster executes on.


def test_shard_planner_prices_the_executors_catalogs(tiny_catalog,
                                                     monkeypatch):
    cluster = ClusterExecutor(nodes=2)
    cluster.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI)
    made, priced, executed = [], [], []
    exec_catalog = ClusterExecutor.exec_catalog

    def recording(shard, full, distribution):
        made.append(exec_catalog(shard, full, distribution))
        return made[-1]

    def price(graph, catalog, *args, **kwargs):
        priced.append(catalog)
        return estimate_graph_seconds(graph, catalog, *args, **kwargs)

    def execute(node, graph, catalog, **flags):
        executed.append(catalog)
        return node_execute(node, graph, catalog, **flags)

    node_execute = cluster_executor.ClusterNode.execute
    monkeypatch.setattr(ClusterExecutor, "exec_catalog",
                        staticmethod(recording))
    monkeypatch.setattr(cluster_planner, "estimate_graph_seconds", price)
    monkeypatch.setattr(cluster_executor.ClusterNode, "execute", execute)

    ShardPlanner(cluster).estimate(q3.build(tiny_catalog), tiny_catalog, 2)
    assert len(made) == 2 and all(a is b for a, b in zip(made, priced))
    cluster.run(lambda: q3.build(tiny_catalog), tiny_catalog)
    assert len(made) == 4 and all(
        a is b for a, b in zip(made[2:], executed))
    # Same rule, so the same table objects wherever nothing is sharded.
    for planned, ran in zip(made[:2], made[2:]):
        assert sorted(planned.tables) == sorted(ran.tables)
        assert planned.table("customer") is ran.table("customer") \
            is tiny_catalog.table("customer")
        assert planned.table("lineitem").num_rows \
            == ran.table("lineitem").num_rows \
            < tiny_catalog.table("lineitem").num_rows


# ---------------------------------------------------------------------------
# A plugged-in primitive is priced from its definition alone.


@pytest.mark.parametrize("selective", [False, True])
def test_plugged_in_selective_primitive_decays_its_successors(
        selective, tiny_catalog, gpu):
    register_primitive(PrimitiveDefinition(
        name="throwaway", inputs=(IOSemantic.NUMERIC,),
        output=IOSemantic.NUMERIC, pipeline_breaker=False, cost_key="map",
        estimate_output_bytes=lambda n, params: 8 * n,
        selective=selective))
    try:
        graph = PrimitiveGraph("plugged")
        graph.add_node("plugged", "throwaway")
        graph.add_node("after", "map", params=dict(op="add"))
        graph.add_node("last", "map", params=dict(op="add"))
        graph.connect("lineitem.l_quantity", "plugged", 0)
        graph.connect("plugged", "after", 0)
        graph.connect("after", "last", 0)
        graph.mark_output("last")
        estimates = estimate_graph_seconds(
            graph, tiny_catalog, {"gpu0": gpu}, "gpu0", data_scale=4096)
        rows = 4096 * tiny_catalog.column(
            "lineitem.l_quantity").values.shape[0]
        after = rows // 2 if selective else rows
        for nid, at in (("plugged", rows), ("after", after),
                        ("last", after)):
            assert estimates[nid] == estimate_node_seconds(
                graph.nodes[nid], gpu, at), nid
        assert (estimates["after"] < estimates["plugged"]) is selective
    finally:
        del PRIMITIVES["throwaway"]
