#!/usr/bin/env python
"""The cell table: one equivalence matrix of runs, every answer checked
and every compact timeline digested, one line per cell.

::

    python3 tools/timeline_digest.py [--out FILE] [--full]
    python3 tools/timeline_digest.py --diff A.json B.json

A digest cell is one run: query / model / device fleet /
static-or-adaptive / fused-or-unfused / chunk size x ``data_scale``,
plus engine runs (warm subplan cache, transient faults, a
``device_loss`` failover, an OOM restart, two concurrent queries over
two rounds) and ``QueryService`` runs whose batch query is preempted at
a ``ChunkGate`` checkpoint.  Its line holds the sha256 over every event
of the run in schedule order (stream, label, start and end as float
hex, category, bytes, node) followed by the output bytes, with the
event count and the makespan (float hex) beside it so that a mismatch
says what kind it is, and last the sha256 of the ``metrics.snapshot()``
the run's engine / executor is left with (sorted JSON, floats as hex).
A refactor of the chunk loop that moves one event by one ulp changes
the first digest; one that books a launch twice, or sums kernel seconds
in another order, the second.

Every run of every cell must give the oracle's answer (the CLI's
``oracle match`` rule) or raise the ``repro.errors`` class
``expected_error`` names, or the tool stops naming the cell.  The pairs
section (``PAIRS``: queries, device classes, front doors and fault
plans) is checked, not digested: each pair of values runs on the SF
0.01 catalog, raw outputs equal to the query's baseline run.

``tests/golden/timelines.json`` is the compact matrix on the tiny
catalog (``tests/test_timeline_golden.py`` compares against it and runs
the pairs sample, one test per cell); ``--full`` is the 2,023-cell cross at SF 0.01 for a
parent/change comparison, with the ``SCHEDULED`` cross for the pairs
sample.  ``--diff`` finds the first cell on which two digest files
disagree, re-runs it under the source tree each file was made from and
prints the first event — or, the events being equal, the first metric
series — at which the two runs part.

The program digested is whichever ``repro`` is importable —
``PYTHONPATH=<other checkout>/src`` digests that checkout — and this
checkout's ``src`` otherwise.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if importlib.util.find_spec("repro") is None:
    sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402 - needs the path set above
from repro import devices, hardware  # noqa: E402
from repro.cli import _matches  # noqa: E402
from repro.cluster import ClusterExecutor  # noqa: E402
from repro.core.executor import AdamantExecutor  # noqa: E402
from repro.core.models import MODELS  # noqa: E402
from repro.engine import Engine, QueryRequest  # noqa: E402
from repro.errors import AdamantError  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.serving import BATCH, INTERACTIVE, QueryService, ServeRequest  # noqa: E402
from repro.tpch import generate, queries, reference  # noqa: E402

#: The source tree digested, relative to this checkout when inside it
#: (so a committed digest file names no machine).
SRC = Path(repro.__file__).resolve().parents[1]
SRC = str(SRC.relative_to(ROOT) if SRC.is_relative_to(ROOT) else SRC)

#: Fleet name -> (device name, driver, spec) in plug order.  Every
#: fleet beyond the first holds a non-CUDA device, so routed buffers
#: change format on the way and the OpenCL pinned penalty is in play.
FLEETS = {
    "gpu": [("gpu0", "CudaDevice", "GPU_RTX_2080_TI")],
    "gpu+ocl": [("gpu0", "CudaDevice", "GPU_RTX_2080_TI"),
                ("gpu1", "OpenCLDevice", "GPU_A100")],
    "gpu+ocl+cpu": [("gpu0", "CudaDevice", "GPU_RTX_2080_TI"),
                    ("gpu1", "OpenCLDevice", "GPU_A100"),
                    ("cpu0", "OpenMPDevice", "CPU_I7_8700")],
    "ocl+cpu": [("gpu1", "OpenCLDevice", "GPU_A100"),
                ("cpu0", "OpenMPDevice", "CPU_XEON_5220R")],
}

#: Device classes, name -> (driver, spec).  A new plug-in is one entry:
#: the pairs section runs it alone and beside a host through every door,
#: and ``tests/test_plugin_conformance.py`` checks its contract.
DEVICE_CLASSES = {
    "opencl": (devices.OpenCLDevice, hardware.GPU_A100),
    "cuda": (devices.CudaDevice, hardware.GPU_RTX_2080_TI),
    "openmp": (devices.OpenMPDevice, hardware.CPU_XEON_5220R),
    "fpga": (devices.FpgaDevice, hardware.FPGA_ALVEO_U250),
    "rtcore": (devices.RTCoreDevice, hardware.GPU_RTX_3090),
    "coupled": (devices.CoupledDevice, hardware.APU_RYZEN_7_8700G),
}

#: (scale factor, catalog seed, queries, fleets, chunk size x data_scale).
#: Compact: Q1 persists several nodes in one pipeline, Q3 has external
#: inputs and three pipelines, Q6 is the single-pipeline scan.
COMPACT = (0.0005, 7, ("q1", "q3", "q6"),
           ("gpu", "gpu+ocl", "gpu+ocl+cpu"), ("256x1", "32768x64"))
FULL = (0.01, 11,
        ("q1", "q3", "q4", "q5", "q6", "q10", "q12", "q14", "q18"),
        tuple(FLEETS), ("2048x1", "33554432x2048"))

ENGINE_CELLS = ("engine/warm-subplan-cache",
                "engine/transient-faults",
                "engine/device-loss-failover",
                "engine/oom-ladder-restart",
                "engine/concurrent-two-rounds",
                "serve/chunked/gpu/preempted",
                "serve/split_chunked/gpu+ocl/preempted")

#: Engine cell -> (fleet, fault plan, the recovery stat that must be
#: non-zero for the cell to mean anything).  These are where the cold
#: metric series (retries, injected faults, recovery actions) live.
FAULT_CELLS = {
    "transient-faults": ("gpu+ocl", "gpu0:transient:0.05,seed=3",
                         "retries"),
    "device-loss-failover": ("gpu+ocl+cpu", "gpu0:device_loss:30",
                             "failovers"),
    "oom-ladder-restart": ("gpu+ocl", "gpu0:oom:0.05,seed=3",
                           "oom_recoveries"),
}


def cell_names(full: bool) -> list[str]:
    _, _, names, fleets, settings = FULL if full else COMPACT
    return ["/".join(cell) for cell in itertools.product(
        names, MODELS, fleets, ("static", "adaptive"),
        ("unfused", "fused"), settings)] + list(ENGINE_CELLS)


def build(name: str, catalog, **literals):
    return getattr(queries, name).build(catalog, **literals)


def plug(target, fleet: str) -> None:
    for name, driver, spec in FLEETS[fleet]:
        target.plug_device(name, getattr(devices, driver),
                           getattr(hardware, spec))


def run_cell(cell: str, catalog) -> tuple[list, list, dict, list]:
    """(the clock's events in schedule order, the outputs, the metrics
    snapshot of the engine / executor afterwards, and ``(query, result
    or the error it raised)`` per query run) of *cell*."""
    parts = cell.split("/")
    if parts[0] == "engine" and parts[1] in FAULT_CELLS:
        fleet, faults, stat = FAULT_CELLS[parts[1]]
        engine = Engine(faults=FaultPlan.parse(faults))
        plug(engine, fleet)
        result = engine.execute(build("q3", catalog), catalog,
                                chunk_size=256)
        if not getattr(result.stats, stat):
            raise SystemExit(f"{cell}: stats.{stat} is 0")
        return engine.clock.events, [result.outputs], \
            engine.metrics.snapshot(), [("q3", result)]
    if parts[0] == "engine":
        # Q3 twice on one engine: the second run is served from the
        # subplan cache, pipeline by pipeline.  Or Q3 beside Q6, twice:
        # round two hits the residency cache as well.
        engine = Engine()
        plug(engine, "gpu+ocl")
        if parts[1] == "concurrent-two-rounds":
            names = ["q3", "q6"] * 2
            results = [r for _ in range(2) for r in engine.run_concurrent(
                [QueryRequest(graph=build(name, catalog), catalog=catalog,
                              chunk_size=256) for name in ("q3", "q6")])]
        else:
            names = ["q3"] * 2
            results = [engine.execute(build("q3", catalog), catalog,
                                      chunk_size=256) for _ in range(2)]
        return engine.clock.events, [r.outputs for r in results], \
            engine.metrics.snapshot(), list(zip(names, results))
    if parts[0] == "serve":
        # A batch Q1 with an interactive Q6 arriving just behind it: the
        # batch pipeline yields at its first ChunkGate checkpoint.
        _, model, fleet, _ = parts
        engine = Engine()
        plug(engine, fleet)
        report = QueryService(engine).serve([
            ServeRequest(
                query=QueryRequest(graph=build(name, catalog),
                                   catalog=catalog, model=model,
                                   chunk_size=256, label=name),
                lane=lane, arrival_s=arrival, request_id=name)
            for name, lane, arrival in (("q1", BATCH, 0.0),
                                        ("q6", INTERACTIVE, 1e-6))])
        preempted = sum(o.preemptions for o in report.outcomes)
        if not preempted:
            raise SystemExit(f"{cell}: nothing was preempted")
        return engine.clock.events, [(o.status, o.result.outputs)
                                     for o in report.outcomes], \
            engine.metrics.snapshot(), [
                (o.request_id, o.result or o.error)
                for o in report.outcomes]
    name, model, fleet, mode, fusion, setting = parts
    chunk_size, data_scale = map(int, setting.split("x"))
    executor = AdamantExecutor()
    plug(executor, fleet)
    try:
        result = executor.run(
            build(name, catalog), catalog, model=model,
            chunk_size=chunk_size, data_scale=data_scale,
            adaptive=mode == "adaptive", fuse=fusion == "fused")
        outputs = result.outputs
    except AdamantError as error:
        # A typed failure is the cell's outcome (operator-at-a-time
        # outgrows device memory at paper scale): the events up to it
        # and the message are what is digested.
        result = error
        outputs = f"{type(error).__name__}: {error}"
    return executor.clock.events, [outputs], executor.metrics.snapshot(), \
        [(name, result)]


def expected_error(label: str, catalog) -> str | None:
    """The ``repro.errors`` class the run *label* names must raise on
    *catalog*, or None: it must give the oracle's answer."""
    if not label.startswith("pairs/"):
        # Operator-at-a-time holds whole columns: at paper scale Q1's
        # outgrow the 11 GB of the RTX 2080 Ti (the A100 of ocl+cpu
        # holds them).
        return ("DeviceMemoryError" if fnmatch.fnmatchcase(
            label, "q1/oaat/gpu*/*/*/33554432x2048") else None)
    query, model, fleet, _, _, setting, door, faults, *interactive = \
        label.split("/")[1:]
    chunk_size, data_scale = map(int, setting.split("x"))
    if interactive:  # Q6 meets the lost lone device, or finds it gone
        return ("DeviceLostError" if faults == "device_loss"
                and "+" not in fleet else None)
    if query == "q1_sorted" and door == "cluster":
        return "ClusterConfigError"  # no shard holds every row to sort
    if query == "q1_sorted" and model != "oaat" and \
            chunk_size // data_scale < catalog.table("lineitem").num_rows:
        return "ExecutionError"  # sorting needs its whole input at once
    if faults == "device_loss+deadline":
        return "DeadlineExceededError"
    if faults == "device_loss" and "+" not in fleet and door != "cluster":
        # No survivor to fail over to; a cluster re-runs node0's shard
        # on node1.
        return "DeviceLostError"
    return None


_ORACLES: dict = {}


def oracle(name: str, catalog, literals: dict):
    """The oracle's answer for query *name* bound with *literals*, once
    per catalog (kept beside it, so that its id is not reused)."""
    key = (name, id(catalog), *sorted(literals.items()))
    if key not in _ORACLES:
        # The sort-based Q1 plan answers Q1.
        _ORACLES[key] = catalog, getattr(
            reference, name.removesuffix("_sorted"))(catalog, **literals)
    return _ORACLES[key][1]


def check(cell: str, name: str, outcome, catalog) -> None:
    """Fail, naming *cell*, unless *outcome* — query *name*'s result or
    the error its run raised — is the oracle's answer (the CLI's
    ``oracle match`` rule), or the error ``expected_error`` names."""
    expected = expected_error(cell, catalog)
    if expected is not None or isinstance(outcome, Exception):
        got = (type(outcome).__name__ if isinstance(outcome, Exception)
               else "an answer")
        if got != expected:
            raise SystemExit(f"{cell}: {name} expected "
                             f"{expected or 'an answer'}, got {got}"
                             + (f": {outcome}" if expected is None else ""))
        return
    literals = LITERALS.get(name, {}) if cell.startswith("pairs/") else {}
    answer = getattr(queries, name).finalize(outcome, catalog)
    if not _matches(answer, oracle(name, catalog, literals)):
        raise SystemExit(f"{cell}: {name} misses its oracle: "
                         f"{str(answer)[:200]}")


# -- the pairs section: checked against the oracle, not digested ---------

#: Literals the pairs section binds where a query's defaults select
#: nothing on its catalog: no order of SF 0.01 sums past Q18's 300.
LITERALS = {"q18": {"quantity": 220}}

#: Fault plans on ``dev0`` (node0's on a cluster); the late loss is
#: for a composition.
FAULT_PLANS = {
    "none": None,
    "transient": "dev0:transient:0.05,seed=3",
    "latency": "dev0:latency:0.2x4,seed=3",
    "device_loss": "dev0:device_loss:5",
    "oom": "dev0:oom:0.01,seed=3",
    "late_device_loss": "dev0:device_loss:40",
}

#: Axis -> values of a cell ``pairs/query/model/devices/fuse/mode/
#: setting/door/faults``; devices are classes joined by ``+`` in plug
#: order (``dev0``, ``dev1``, ...).  Doors: ``facade`` is
#: ``AdamantExecutor.run`` (``Engine.execute`` under faults, as ``repro
#: run --faults``), ``wave`` two runs in one ``run_concurrent`` wave,
#: ``served`` a batch request an interactive Q6 preempts, ``cluster``
#: two nodes.
PAIRS = {
    "query": tuple(queries.QUERIES),
    "model": tuple(MODELS),
    "devices": (*DEVICE_CLASSES,
                *(f"{name}+openmp" for name in DEVICE_CLASSES),
                "cuda+openmp+fpga", "rtcore+cuda", "coupled+cuda",
                "rtcore+coupled"),
    "fuse": ("unfused", "fused"),
    "mode": ("static", "adaptive"),
    "setting": ("2048x1", "1024x2"),
    "door": ("facade", "wave", "served", "cluster"),
    "faults": ("none", "transient", "latency", "device_loss", "oom"),
}

#: 32-row chunks: thousands of allocations a run outlast the OOM
#: ladder's six restarts at one spike in a hundred, so no OOM plan.
TINY_CHUNKS = ("32x1", "1024x32", "32768x1024")


def allowed(values: dict) -> bool:
    """Whether a (partial) pairs row, axis -> value, may run.  Besides
    OOM at 32-row chunks: Q1 by sorting holds a sorted copy of every
    column, which at 1,024x data outgrows a GPU unless the door spills."""
    get = values.get
    return not (get("faults") == "oom" and get("setting") in TINY_CHUNKS
                or get("query") == "q1_sorted" and get("model") == "oaat"
                and get("setting") == "32768x1024")


#: The scheduled cross (``--full``): wider axes, sampled so that every
#: three values occur together, after the rows of ``SUBSUMED``.
SCHEDULED = {**PAIRS, "query": (*PAIRS["query"], "q1_sorted"),
             "setting": ("32x1", "256x1", "512x1", "1024x2", "1024x32",
                         "2048x1", "4096x1", "8192x1", "1048576x1",
                         "32768x1024", "33554432x1", "33554432x2")}

#: The tests and CI loops this table replaced, a line per slice: the
#: test class or CI step, then per ``PAIRS`` axis its values (``,``
#: between them, or a ``SHORTHAND``).  They seed the scheduled cross.
SUBSUMED = """
TestQueryMatrix q1,q3,q4,q6 PAPER cuda,opencl,openmp unfused static 4096x1 facade none
TestAdaptiveByteIdentical q1,q3,q4,q6 ALL cuda+openmp unfused static,adaptive 4096x1 facade none
TestChunkSizeInvariance q6 chunked cuda unfused static 32x1,512x1,4096x1,1048576x1 facade none
TestChunkSizeInvariance q3 four_phase_pipelined cuda unfused static 512x1,8192x1 facade none
TestDataScaleInvariance q6 chunked cuda unfused static 32x1,1024x32,32768x1024 facade none
TestExtensionModels EIGHT zero_copy cuda unfused static 2048x1 facade none
TestExtensionModels EIGHT split_chunked cuda+openmp+fpga unfused static 2048x1 facade none
TestQ18Extensions q18 zero_copy,split_chunked cuda+openmp unfused static 2048x1 facade none
TestFusedByteIdentity q3,q6,q19 ALL cuda+openmp FUSE static 2048x1 facade none
TestNewDevicePlugins q3,q6,q19 SLICE NEW FUSE static 2048x1 facade none
TestNewDevicePlugins q3,q6,q19 chunked NEW unfused adaptive 2048x1 facade none
TestFusedUnfusedEquivalence TEN FOUR cuda FUSE static 2048x1 facade none
TestFusedUnfusedEquivalence q1_sorted FOUR cuda FUSE static 1048576x1 facade none
TestByteIdentity TEN chunked cuda FUSE static 33554432x2 cluster none
TestByteIdentity q3,q5,q6,q18 SIX cuda unfused static 1024x2 cluster none
TestByteIdentity q3,q5,q6,q18 split_chunked cuda+openmp unfused static 1024x2 cluster none
TestNewDeviceCluster q3,q6,q19 chunked rtcore+coupled FUSE static 33554432x2 cluster none
TestDeviceConformance TEN four_phase_pipelined CLASSES unfused static 2048x1 facade none
TestDeviceConformance q3 chunked HOSTED unfused static 2048x1 facade transient,device_loss
TestDeviceConformance q6 chunked HOSTED unfused static 2048x1 facade oom
ci:seeded-chaos q3 chunked,four_phase_pipelined,split_chunked cuda+openmp unfused static 2048x1 facade transient
ci:seeded-chaos q6 chunked cuda+openmp unfused static,adaptive 2048x1 facade device_loss
ci:chaos-new-devices q19 chunked rtcore+openmp unfused static 2048x1 facade transient,device_loss
ci:chaos-new-devices q6 chunked coupled+openmp unfused static 2048x1 facade device_loss
ci:chaos-subplan-cache q3,q6 chunked cuda+openmp unfused static 2048x1 wave none,transient,device_loss
ci:chaos-adaptive q6 split_chunked cuda+openmp unfused adaptive 2048x1 facade transient
ci:chaos-adaptive q3 chunked cuda+openmp unfused adaptive 2048x1 facade latency
ci:chaos-serving q1,q6,q14,q19 chunked cuda+openmp unfused static 33554432x1 served transient
ci:chaos-sharding q3,q5 chunked cuda unfused static 2048x1 cluster transient,device_loss
ci:chaos-sharding q6 chunked openmp unfused static 2048x1 cluster device_loss
"""

#: The sets ``SUBSUMED`` names.
SHORTHAND = {
    "TEN": " ".join(queries.QUERIES),
    "EIGHT": "q1 q3 q4 q5 q6 q12 q14 q19",
    "ALL": " ".join(MODELS),
    "PAPER": "oaat chunked pipelined four_phase_chunked four_phase_pipelined",
    "FOUR": "oaat chunked pipelined four_phase_pipelined",
    "SLICE": "chunked four_phase_pipelined split_chunked zero_copy",
    "SIX": "oaat chunked pipelined four_phase_chunked four_phase_pipelined "
           "zero_copy",
    "CLASSES": " ".join(DEVICE_CLASSES),
    "HOSTED": " ".join(f"{name}+openmp" for name in DEVICE_CLASSES),
    "NEW": "rtcore+cuda coupled+cuda",
    "FUSE": "unfused fused",
}


def subsumed_rows() -> list[tuple]:
    """Every row of the cross of each ``SUBSUMED`` slice, once."""
    return list(dict.fromkeys(
        row for line in SUBSUMED.split("\n") if line
        for row in itertools.product(*(
            SHORTHAND.get(field, field.replace(",", " ")).split()
            for field in line.split()[1:]))))


def covering(axes: dict[str, tuple], strength: int,
             seeds: list[tuple] = ()) -> list[tuple]:
    """A deterministic sample of the ``allowed`` cross of *axes* in which
    every allowed combination of *strength* values of as many axes
    occurs: *seeds* first, then greedy rows, each opened on the first
    combination still missing and completed axis by axis with whichever
    allowed value adds the most missing combinations (the first such
    value on a tie)."""
    names = list(axes)
    groups = list(itertools.combinations(range(len(names)), strength))
    holding = {index: [group for group in groups if index in group]
               for index in range(len(names))}
    missing = {(group, combo) for group in groups
               for combo in itertools.product(*(axes[names[i]]
                                                for i in group))
               if allowed({names[i]: v for i, v in zip(group, combo)})}
    rows = []

    def take(row: tuple) -> None:
        if not allowed(dict(zip(names, row))) or any(
                value not in axes[name] for name, value in zip(names, row)):
            raise ValueError(f"{row} is not a row of the cross")
        rows.append(row)
        missing.difference_update(
            (group, tuple(row[i] for i in group)) for group in groups)

    for row in seeds:
        take(tuple(row))
    for group, combo in sorted(missing):
        if (group, combo) not in missing:
            continue
        row = dict(zip(group, combo))
        for index, name in enumerate(names):
            if index in row:
                continue
            named = {names[i]: value for i, value in row.items()}
            candidates = [value for value in axes[name]
                          if allowed({**named, name: value})]
            # Each group the value would complete, with the value's slot.
            ready = [(group, tuple(row.get(i) for i in group),
                      group.index(index)) for group in holding[index]
                     if all(i in row or i == index for i in group)]

            def gain(value) -> int:
                return sum((group, combo[:at] + (value,) + combo[at + 1:])
                           in missing for group, combo, at in ready)
            row[index] = max(candidates, key=gain)
        take(tuple(row[i] for i in range(len(names))))
    return rows


#: Compositions no pair forces: a device lost in the interactive query's
#: run while the batch is preempted, a deadline that expires while a
#: failover recompiles, two adaptive queries on one device, and a device
#: that one query of a wave loses under the other's intermediates.
COMPOSED = ("pairs/q1/zero_copy/cuda+openmp/unfused/static/2048x1/served/"
            "late_device_loss",
            "pairs/q18/oaat/cuda+openmp/unfused/static/2048x1/wave/"
            "device_loss",
            "pairs/q3/chunked/cuda+openmp/unfused/static/2048x1/served/"
            "device_loss+deadline",
            "pairs/q3/chunked/cuda/unfused/adaptive/2048x1/wave/none")


def pairs_cells(full: bool) -> list[str]:
    rows = (covering(SCHEDULED, 3, subsumed_rows()) if full
            else covering(PAIRS, 2))
    return ["/".join(("pairs", *row)) for row in rows] + list(COMPOSED)


def attempt(run, *args, **kwargs):
    """*run*'s result, or the typed error it raised."""
    try:
        return run(*args, **kwargs)
    except AdamantError as error:
        return error


def run_pairs_cell(cell: str, catalog) -> list:
    """``(cell, query, result or error)`` per query that pairs *cell*
    runs — the served door's interactive Q6 as ``<cell>/interactive`` —
    after checking that every engine it used ends holding nothing."""
    name, model, fleet, fuse, mode, setting, door, faults = \
        cell.split("/")[1:]
    faults, _, deadline = faults.partition("+")
    chunk_size, data_scale = map(int, setting.split("x"))
    flags = dict(model=model, chunk_size=chunk_size, data_scale=data_scale,
                 fuse=fuse == "fused", adaptive=mode == "adaptive")
    plan = FAULT_PLANS[faults] and FaultPlan.parse(FAULT_PLANS[faults])
    graph = build(name, catalog, **LITERALS.get(name, {}))
    engines = []

    def make():
        if door == "cluster":
            target = ClusterExecutor(nodes=2)
            engines.extend(node.engine for node in target.nodes)
        elif door == "facade" and plan is None:
            target = AdamantExecutor()
        else:
            target = Engine(faults=plan)
            engines.append(target)
        for index, device in enumerate(fleet.split("+")):
            target.plug_device(f"dev{index}", *DEVICE_CLASSES[device])
        return target

    target = make()
    if door == "cluster":
        if plan:
            target.install_faults("node0", plan)
        runs = [attempt(target.run, lambda: graph, catalog, **flags)]
    elif door == "facade":
        runs = [attempt(target.run if plan is None else target.execute,
                        graph, catalog, **flags)]
    elif door == "wave":
        runs = target.run_concurrent(
            [QueryRequest(graph=graph, catalog=catalog, **flags)] * 2,
            return_exceptions=True)
    else:
        outcomes = serve(target, graph, catalog, flags)
        if deadline:
            # Again on a fresh engine, with a deadline halfway between
            # the failover and the finish of the run without one.
            failover = min(event.start for event in target.clock.events
                           if event.category == "recovery")
            outcomes = serve(make(), graph, catalog, flags,
                             (failover + outcomes[0].finished_s) / 2)
        runs = [outcome.result or outcome.error for outcome in outcomes]
        if faults == "late_device_loss" and not runs[1].stats.failovers:
            raise SystemExit(f"{cell}: the device was not lost while the "
                             "batch query was preempted")
    for engine in engines:
        if engine.active_sessions or engine.holdings():
            raise SystemExit(f"{cell}: engine left holding "
                             f"{engine.holdings()}")
    if door == "served":
        return [(cell, name, runs[0]), (f"{cell}/interactive", "q6", runs[1])]
    return [(cell, name, run) for run in runs]


def serve(engine, graph, catalog, flags, deadline_s=None) -> list:
    """Outcomes of a batch *graph* and an interactive Q6 behind it."""
    return QueryService(engine).serve([
        ServeRequest(query=QueryRequest(graph=graph, catalog=catalog,
                                        **flags),
                     lane=BATCH, deadline_s=deadline_s),
        ServeRequest(query=QueryRequest(graph=build("q6", catalog),
                                        catalog=catalog,
                                        chunk_size=flags["chunk_size"]),
                     lane=INTERACTIVE, arrival_s=1e-6)]).outcomes


def check_pairs(full: bool = False, catalog=None) -> int:
    """Check every pairs cell (the scheduled cross with *full*).
    Returns the count."""
    catalog = catalog or make_catalog(True)
    baselines: dict[str, object] = {}
    cells = pairs_cells(full)
    for cell in cells:
        check_pairs_cell(cell, catalog, baselines)
    return len(cells)


def check_pairs_cell(cell: str, catalog, baselines: dict) -> None:
    """Check pairs *cell*'s answers, and the raw outputs of the cell's
    query, unless an OOM may have halved its chunks, against its
    baseline cell (facade, chunked, cuda, unfused, static, no faults,
    same setting), which *baselines* memoises by name.  Hash-table
    positions count rows from a chunk's or a shard's first scanned row
    (``ClusterExecutor.run``), so they are left out where the chunks
    differ from the baseline's: on a cluster, and where an adaptive
    run resized them."""
    runs = run_pairs_cell(cell, catalog)
    for label, name, outcome in runs:
        check(label, name, outcome, catalog)
    query, model, _, _, _, setting, door, faults = cell.split("/")[1:]
    # Operator-at-a-time numbers hash-table rows over its whole
    # input; every other model gives chunked's bytes.
    base = (f"pairs/{query}/{'oaat' if model == 'oaat' else 'chunked'}"
            f"/cuda/unfused/static/{setting}/facade/none")
    if base not in baselines:
        [(_, _, baselines[base])] = run_pairs_cell(base, catalog)
    expected = baselines[base]
    if faults == "oom" or isinstance(expected, Exception):
        return
    # A probe directory is a lazy memo.
    skip = ("_directory", "positions") if door == "cluster" or any(
        not isinstance(outcome, Exception) and outcome.stats.adaptive_resizes
        for _, _, outcome in runs) else ("_directory",)
    for label, _, outcome in runs:
        if label == cell and not isinstance(outcome, Exception) and \
                outputs_sha(outcome.outputs, skip) != \
                outputs_sha(expected.outputs, skip):
            raise SystemExit(f"{cell}: raw outputs differ from {base}")


def outputs_sha(outputs, skip=()) -> str:
    digest = hashlib.sha256()
    feed(digest, outputs, skip)
    return digest.hexdigest()


def event_row(event) -> str:
    return " ".join((event.stream, event.label, event.start.hex(),
                     event.end.hex(), event.category, str(event.nbytes),
                     event.node))


def feed(digest, value, skip=()) -> None:
    """Hash *value* (nested outputs) by type, shape and bytes, leaving
    out the carrier fields named in *skip*."""
    if isinstance(value, np.ndarray):
        digest.update(f"nd{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            digest.update(f"key{key}".encode())
            feed(digest, value[key], skip)
    elif isinstance(value, (list, tuple)):
        digest.update(f"seq{len(value)}".encode())
        for item in value:
            feed(digest, item, skip)
    elif hasattr(value, "__dict__"):
        digest.update(type(value).__name__.encode())
        feed(digest, {key: item for key, item in vars(value).items()
                      if key not in skip}, skip)
    else:
        digest.update(repr(value).encode())


def metric_rows(snapshot: dict) -> list[str]:
    """One line per series of a ``metrics.snapshot()``, sorted, floats
    as hex: ``name{label="value",...} value`` (a histogram's buckets,
    sum and count on its one line)."""
    rows = []
    for name in sorted(snapshot):
        for sample in snapshot[name]["samples"]:
            labels = ",".join(f'{key}="{value}"' for key, value
                              in sorted(sample["labels"].items()))
            values = ([sample["value"]] if "value" in sample else
                      [*sample["buckets"].values(), sample["sum"],
                       sample["count"]])
            rows.append(f"{name}{{{labels}}} "
                        + " ".join(float(v).hex() for v in values))
    return rows


def digest_cell(cell: str, catalog) -> list:
    """[sha256, event count, makespan as float hex, sha256 of the
    metrics snapshot] of *cell*, whose every answer is checked."""
    events, outputs, snapshot, answers = run_cell(cell, catalog)
    for name, outcome in answers:
        check(cell, name, outcome, catalog)
    digest = hashlib.sha256()
    for event in events:
        digest.update(event_row(event).encode())
        digest.update(b"\n")
    feed(digest, outputs)
    makespan = max((e.end for e in events), default=0.0)
    metrics = hashlib.sha256("\n".join(metric_rows(snapshot)).encode())
    return [digest.hexdigest(), len(events), makespan.hex(),
            metrics.hexdigest()]


def make_catalog(full: bool):
    scale_factor, seed = (FULL if full else COMPACT)[:2]
    return generate(scale_factor, seed=seed)


def digest_matrix(full: bool = False) -> dict[str, list]:
    catalog = make_catalog(full)
    return {cell: digest_cell(cell, catalog) for cell in cell_names(full)}


def render(cells: dict[str, list], full: bool) -> str:
    """The digest file: JSON, one cell per line."""
    lines = [f'"src": {json.dumps(SRC)}',
             f'"full": {json.dumps(full)}',
             '"cells": {\n' + ",\n".join(
                 f"{json.dumps(cell)}: {json.dumps(record)}"
                 for cell, record in cells.items()) + "\n}"]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def print_events(cell: str, full: bool) -> None:
    events, outputs, snapshot, _ = run_cell(cell, make_catalog(full))
    for event in events:
        print(event_row(event))
    digest = hashlib.sha256()
    feed(digest, outputs)
    print("outputs", digest.hexdigest())
    for row in metric_rows(snapshot):
        print("metric", row)


def diff(path_a: str, path_b: str) -> int:
    sides = [json.loads(Path(p).read_text()) for p in (path_a, path_b)]
    a, b = (side["cells"] for side in sides)
    if a.keys() != b.keys() or sides[0]["full"] != sides[1]["full"]:
        print("the two files digest different matrices")
        return 2
    differing = [cell for cell in a if a[cell] != b[cell]]
    print(f"{len(differing)} of {len(a)} cells differ")
    if not differing:
        return 0
    cell = differing[0]
    print(f"first: {cell}\n  {path_a}: {a[cell]}\n  {path_b}: {b[cell]}")
    runs = []
    for side in sides:
        command = [sys.executable, __file__, "--events", cell]
        if side["full"]:
            command.append("--full")
        done = subprocess.run(
            command, env={**os.environ,
                          "PYTHONPATH": str(ROOT / side["src"])},
            capture_output=True, text=True, check=True)
        runs.append(done.stdout.splitlines())
    for index, rows in enumerate(itertools.zip_longest(*runs)):
        if rows[0] != rows[1]:
            what = ("metric series" if (rows[0] or rows[1]).startswith(
                "metric ") else f"event, #{index}")
            print(f"first differing {what}:\n"
                  f"  {sides[0]['src']}: {rows[0]}\n"
                  f"  {sides[1]['src']}: {rows[1]}")
            return 1
    print("re-running the cell under both source trees gives one event "
          "list and one set of series: the difference lies in how the "
          "files were made (PYTHONHASHSEED, interpreter, numpy), not in "
          "the trees")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", metavar="FILE",
                        help="write the digests here instead of stdout")
    parser.add_argument("--full", action="store_true",
                        help="the 2,023-cell cross at SF 0.01 and the "
                             "scheduled pairs cross (minutes)")
    parser.add_argument("--diff", nargs=2, metavar=("A.json", "B.json"),
                        help="first differing cell and event of two files")
    parser.add_argument("--events", metavar="CELL",
                        help="print one cell's events (what --diff runs)")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.events:
        print_events(args.events, args.full)
        return 0
    text = render(digest_matrix(args.full), args.full)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"{check_pairs(args.full)} pairs cells give their oracles' "
          "answers", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
