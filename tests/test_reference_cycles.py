"""A dropped engine is freed by reference counting, not by the cycle
collector.

Through each front door — the facade, a concurrent wave, a served run
with a preempted batch query, a two-node cluster — the test runs a
query with the collector off, drops everything, and then asks that every
weak reference to the engines, their devices and their clocks is dead
and that a collection finds no ``repro`` object in cyclic garbage.  A
cycle (a device and its residency cache pointing at each other, a
session and its chunk gate) would keep a whole engine alive until the
collector happened to run.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import AdamantExecutor, Engine, QueryRequest
from repro.cluster import ClusterExecutor
from repro.devices import CudaDevice
from repro.hardware import GPU_RTX_2080_TI
from repro.serving import BATCH, INTERACTIVE, QueryService, ServeRequest
from repro.tpch.queries import q1, q6


@pytest.fixture(autouse=True)
def engines_end_quiescent():
    """Overrides the suite's fixture, whose list of every engine created
    would keep them alive; each door checks its engine itself."""


def engine_refs(engine) -> list:
    return [weakref.ref(engine), weakref.ref(engine.clock),
            *map(weakref.ref, engine.devices.values())]


def facade(catalog) -> list:
    executor = AdamantExecutor()
    executor.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI)
    executor.run(q6.build(), catalog, chunk_size=256)
    return [weakref.ref(executor), *engine_refs(executor._engine)]


def wave(catalog) -> list:
    engine = Engine()
    engine.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI)
    engine.run_concurrent([
        QueryRequest(graph=q.build(catalog), catalog=catalog,
                     chunk_size=256) for q in (q1, q6)])
    assert not engine.holdings()
    return engine_refs(engine)


def served(catalog) -> list:
    engine = Engine()
    engine.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI)
    report = QueryService(engine).serve([
        ServeRequest(query=QueryRequest(graph=q.build(catalog),
                                        catalog=catalog, chunk_size=256),
                     lane=lane, arrival_s=arrival, request_id=name)
        for name, q, lane, arrival in (("q1", q1, BATCH, 0.0),
                                       ("q6", q6, INTERACTIVE, 1e-6))])
    assert sum(o.preemptions for o in report.outcomes) == 1
    assert not engine.holdings()
    return engine_refs(engine)


def cluster(catalog) -> list:
    executor = ClusterExecutor(nodes=2)
    executor.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI)
    executor.run(q6.build, catalog, chunk_size=256)
    return [weakref.ref(executor), *(ref for node in executor.nodes
                                     for ref in engine_refs(node.engine))]


@pytest.mark.parametrize("door", [facade, wave, served, cluster],
                         ids=lambda door: door.__name__)
def test_a_dropped_engine_leaves_no_cyclic_garbage(door, tiny_catalog):
    gc.collect()
    gc.disable()
    try:
        refs = door(tiny_catalog)
        alive = [type(ref()).__name__ for ref in refs if ref() is not None]
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = {type(obj).__name__ for obj in gc.garbage
                  if type(obj).__module__.startswith("repro")}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert alive == []
    assert cyclic == set()
