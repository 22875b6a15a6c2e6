#!/usr/bin/env python
"""Digest the virtual timeline of a matrix of runs, one line per cell.

::

    python3 tools/timeline_digest.py [--out FILE] [--full]
    python3 tools/timeline_digest.py --diff A.json B.json

A cell is one run: query / model / device fleet / static-or-adaptive /
fused-or-unfused / chunk size x ``data_scale``, plus engine runs (warm
subplan cache, transient faults, a ``device_loss`` failover, an OOM
restart, two concurrent queries over two rounds) and ``QueryService``
runs whose batch query is preempted at a ``ChunkGate`` checkpoint.  Its
line holds the sha256 over every event of the run in schedule order
(stream, label, start and end as float hex, category, bytes, node)
followed by the output bytes, with the event count and the makespan
(float hex) beside it so that a mismatch says what kind it is, and last
the sha256 of the ``metrics.snapshot()`` the run's engine / executor is
left with (sorted JSON, floats as hex).  A refactor of the chunk loop
that moves one event by one ulp changes the first digest; one that
books a launch twice, or sums kernel seconds in another order, the
second.

``tests/golden/timelines.json`` is the compact matrix on the tiny
catalog (``tests/test_timeline_golden.py`` compares against it);
``--full`` is the 2,023-cell cross at SF 0.01 for a parent/change
comparison.  ``--diff`` finds the first cell on which two digest files
disagree, re-runs it under the source tree each file was made from and
prints the first event — or, the events being equal, the first metric
series — at which the two runs part.

The program digested is whichever ``repro`` is importable —
``PYTHONPATH=<other checkout>/src`` digests that checkout — and this
checkout's ``src`` otherwise.
"""

from __future__ import annotations

import argparse
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
from repro.core.executor import AdamantExecutor  # noqa: E402
from repro.core.models import MODELS  # noqa: E402
from repro.engine import Engine, QueryRequest  # noqa: E402
from repro.errors import AdamantError  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.serving import BATCH, INTERACTIVE, QueryService, ServeRequest  # noqa: E402
from repro.tpch import generate, queries  # noqa: E402

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


def build(name: str, catalog):
    return getattr(queries, name).build(catalog)


def plug(target, fleet: str) -> None:
    for name, driver, spec in FLEETS[fleet]:
        target.plug_device(name, getattr(devices, driver),
                           getattr(hardware, spec))


def run_cell(cell: str, catalog) -> tuple[list, list, dict]:
    """(the clock's events in schedule order, the outputs, the metrics
    snapshot of the engine / executor afterwards) of *cell*."""
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
            engine.metrics.snapshot()
    if parts[0] == "engine":
        # Q3 twice on one engine: the second run is served from the
        # subplan cache, pipeline by pipeline.  Or Q3 beside Q6, twice:
        # round two hits the residency cache as well.
        engine = Engine()
        plug(engine, "gpu+ocl")
        if parts[1] == "concurrent-two-rounds":
            results = [r for _ in range(2) for r in engine.run_concurrent(
                [QueryRequest(graph=build(name, catalog), catalog=catalog,
                              chunk_size=256) for name in ("q3", "q6")])]
        else:
            results = [engine.execute(build("q3", catalog), catalog,
                                      chunk_size=256) for _ in range(2)]
        return engine.clock.events, [r.outputs for r in results], \
            engine.metrics.snapshot()
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
            engine.metrics.snapshot()
    name, model, fleet, mode, fusion, setting = parts
    chunk_size, data_scale = map(int, setting.split("x"))
    executor = AdamantExecutor()
    plug(executor, fleet)
    try:
        outputs = executor.run(
            build(name, catalog), catalog, model=model,
            chunk_size=chunk_size, data_scale=data_scale,
            adaptive=mode == "adaptive", fuse=fusion == "fused").outputs
    except AdamantError as error:
        # A typed failure is the cell's outcome (operator-at-a-time
        # outgrows device memory at paper scale): the events up to it
        # and the message are what is digested.
        outputs = f"{type(error).__name__}: {error}"
    return executor.clock.events, [outputs], executor.metrics.snapshot()


def event_row(event) -> str:
    return " ".join((event.stream, event.label, event.start.hex(),
                     event.end.hex(), event.category, str(event.nbytes),
                     event.node))


def feed(digest, value) -> None:
    """Hash *value* (nested outputs) by type, shape and bytes."""
    if isinstance(value, np.ndarray):
        digest.update(f"nd{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            digest.update(f"key{key}".encode())
            feed(digest, value[key])
    elif isinstance(value, (list, tuple)):
        digest.update(f"seq{len(value)}".encode())
        for item in value:
            feed(digest, item)
    elif hasattr(value, "__dict__"):
        digest.update(type(value).__name__.encode())
        feed(digest, vars(value))
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
    metrics snapshot] of *cell*."""
    events, outputs, snapshot = run_cell(cell, catalog)
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
    events, outputs, snapshot = run_cell(cell, make_catalog(full))
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
                        help="the 2,023-cell cross at SF 0.01 (minutes)")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
