"""The eleven TPC-H templates, their structure pinned.

``tests/golden/templates.json`` holds, per query module (the ten of
``QUERIES`` and ``q1_sorted``), every node's primitive, params, hints,
cost params and device, the edges as a set of ``(source, target,
slot)`` and the outputs in order.  The comparison is by sets, not by
the order nodes and edges were inserted: the property test below shows
that a graph rebuilt in a shuffled insertion order records the same
events, gives the same answer and prints the same EXPLAIN.

Regenerate the golden with
``PYTHONPATH=src python -m tests.test_template_structure``.
"""

from __future__ import annotations

import functools
import json
import pathlib
import random

import pytest

from repro.core.graph import PrimitiveGraph
from repro.devices import OpenMPDevice
from repro.hardware import CPU_I7_8700
from repro.observe import explain
from repro.tpch import queries
from tests.conftest import make_executor
from tests.test_timeline_golden import load_tool

GOLDEN = pathlib.Path(__file__).parent / "golden" / "templates.json"
NAMES = sorted([*queries.QUERIES, "q1_sorted"])


def canonical(mapping: dict) -> str:
    """A dict as an exact, key-ordered string (tuples stay tuples)."""
    return repr(dict(sorted(mapping.items())))


def structure(graph: PrimitiveGraph) -> dict:
    """*graph* as insertion-order-free data."""
    return {
        "nodes": {nid: {"primitive": node.primitive,
                        "params": canonical(node.params),
                        "hints": canonical(node.hints),
                        "cost_params": canonical(node.cost_params),
                        "device": node.device}
                  for nid, node in sorted(graph.nodes.items())},
        "edges": sorted([getattr(e.source, "ref", e.source), e.target,
                         e.input_index] for e in graph.edges),
        "outputs": list(graph.outputs),
    }


@functools.cache
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def template(name: str) -> PrimitiveGraph:
    return getattr(queries, name).template()


def test_the_golden_names_every_template():
    assert sorted(golden()) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_template_matches_the_structural_golden(name):
    assert structure(template(name)) == golden()[name]


# ---------------------------------------------------------------------------
# Insertion order is not structure
# ---------------------------------------------------------------------------

def shuffled(graph: PrimitiveGraph, rng: random.Random) -> PrimitiveGraph:
    """*graph* rebuilt with its nodes and its edges inserted in random
    orders (outputs keep theirs: they are structure)."""
    out = PrimitiveGraph(graph.name)
    for node in rng.sample(list(graph.nodes.values()), len(graph.nodes)):
        out.add_node(node.node_id, node.primitive, params=node.params,
                     device=node.device, cost_params=node.cost_params,
                     hints=node.hints, variant=node.variant)
    for edge in rng.sample(graph.edges, len(graph.edges)):
        out.connect(edge.source, edge.target, edge.input_index)
    for nid in graph.outputs:
        out.mark_output(nid)
    return out


#: (label, model, extra devices, fuse): one chunked, one fused and one
#: split run.  The sort-based Q1 needs a chunk that covers its scan.
RUNS = (("chunked", "chunked", (), False),
        ("fused", "four_phase_pipelined", (), True),
        ("split", "split_chunked", (("cpu0", OpenMPDevice, CPU_I7_8700),),
         False))


def trace(graph, catalog, model, extra, fuse, chunk) -> tuple:
    """(every event row, the outputs' sha256) of one run of *graph*."""
    tool = load_tool()
    executor = make_executor(name="gpu0", extra_devices=extra)
    result = executor.run(graph, catalog, model=model, chunk_size=chunk,
                          fuse=fuse)
    return ([tool.event_row(e) for e in executor.clock.events],
            tool.outputs_sha(result.outputs))


@pytest.mark.parametrize("name", NAMES)
def test_insertion_order_changes_no_event_and_no_explain(name,
                                                         tiny_catalog):
    graph = getattr(queries, name).build(tiny_catalog)
    twin = shuffled(graph, random.Random(name))
    assert structure(twin) == structure(graph)
    assert [e.source for e in twin.edges] != [e.source for e in graph.edges]
    chunk = 1 << 16 if name == "q1_sorted" else 256
    for label, model, extra, fuse in RUNS:
        assert trace(twin, tiny_catalog, model, extra, fuse, chunk) == \
            trace(graph, tiny_catalog, model, extra, fuse, chunk), label
        executor = make_executor(name="gpu0", extra_devices=extra)
        texts = [explain(g, tiny_catalog, devices=executor.devices,
                         default_device="gpu0", model=model,
                         chunk_size=chunk, fuse=fuse)
                 for g in (graph, twin)]
        assert texts[0] == texts[1], label


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: structure(template(name)) for name in NAMES},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
