"""One benchmark subprocess: set-up, warm-up, timed passes, traced pass.

The load is a closed loop with one client, in one process and one
thread: the next item starts when the previous one has returned.  A
*pass* runs every item of the workload once; only ``workload.call`` --
one public function of the program -- sits inside the timed region, and
its result is fully materialised before the clock stops (every public
call the workloads use returns finished results, nothing lazy).
"""

from __future__ import annotations

import gc
import json
import math
import resource
import time
import traceback
from functools import partial
from pathlib import Path

import numpy as np

from perf import spans
from perf.stats import first_fact_difference
from perf.workloads import Workload, make_workload

__all__ = ["machine_speed", "run_child", "run_pass"]


# ---------------------------------------------------------------------------
# Speed probe
# ---------------------------------------------------------------------------
#
# This sandbox runs fast and slow for seconds at a time (the same loop
# takes 72, 95 or 125 ms depending on what else the host is doing; CPU
# time inflates with wall time, so it is not visible as steal).  Two
# short fixed loops -- one interpreter-bound, one numpy-bound -- run
# between the timed calls and measure the machine's speed at that
# moment; an item's host time is scaled by the speed found just before
# and just after it, that is, to the speed the loops had when the
# benchmark was defined.  Measured on this machine over 200 s per
# workload, that takes the spread of 20 s medians from 3-16 % (raw) to
# 2-5 %.  The geometric mean of both loops tracks every workload better
# than either loop alone, and the residual is the difference between the
# loops' and the program's response to contention, not probe noise (one
# probe per item does as well as two).

_PROBE_ARRAY = np.arange(200_000, dtype=np.int64)
#: Seconds each loop took on the defining machine at its usual speed.
PYTHON_LOOP_REFERENCE_S = 2.16e-3
NUMPY_LOOP_REFERENCE_S = 4.34e-3


class _Counter:
    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.calls = 0

    def inc(self, key: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1
        self.calls += 1


def machine_speed() -> float:
    """Speed of the machine right now relative to when the benchmark
    was defined (1.0 = the same, 0.8 = a fifth slower)."""
    started = time.perf_counter()
    counter = _Counter()
    for i in range(20_000):
        counter.inc(i & 63)
    python_s = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(4):
        mask = (_PROBE_ARRAY % 7) == 3
        _PROBE_ARRAY[mask].sum()
    numpy_s = time.perf_counter() - started
    return math.sqrt((PYTHON_LOOP_REFERENCE_S / python_s)
                     * (NUMPY_LOOP_REFERENCE_S / numpy_s))


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def run_pass(workload: Workload, *,
             recorder: spans.SpanRecorder | None = None) -> dict:
    """Run every item once.

    Returns per item the raw host seconds of the timed call, the machine
    speed around it and the deterministic facts, plus the operations
    attempted and the failure messages.
    """
    host, speed, facts, failures = {}, {}, {}, []
    attempted = 0
    speed_before = machine_speed()
    for item in workload.items:
        state = workload.prepare(item)
        call = partial(workload.call, item, state)
        started = time.perf_counter()
        try:
            result = (call() if recorder is None
                      else recorder.timed_item(item.id, call))
            host[item.id] = time.perf_counter() - started
            facts[item.id] = workload.facts(item, state, result)
            count, messages = workload.verify(item, state, result)
        except Exception as error:  # noqa: BLE001 - counted, run goes on
            host.setdefault(item.id, time.perf_counter() - started)
            facts.setdefault(item.id, {})
            count, messages = 1, [
                f"{item.id}: raised {type(error).__name__}: {error}\n"
                f"{traceback.format_exc()}"]
        speed_after = machine_speed()
        speed[item.id] = (speed_before + speed_after) / 2.0
        speed_before = speed_after
        attempted += count
        failures.extend(messages)
    return {"host_s": host, "speed": speed, "facts": facts,
            "attempted": attempted, "failures": failures}


def run_child(name: str, seed: int, seconds: float, *, trace: bool,
              smoke: bool, started: float,
              trace_path: Path | None = None) -> dict:
    """Everything one subprocess measures, as plain data.

    Args:
        seconds: Budget for timed passes; a new pass starts while it is
            not spent, and at least one pass runs.
        trace: After the timed passes, run one more pass with the
            timing wrappers of :mod:`perf.spans` installed.
        started: ``time.perf_counter()`` at process start, so that
            set-up time includes importing the program.
        trace_path: Where the traced pass's coarse spans go, in
            Chrome-trace form.
    """
    workload = make_workload(name, seed, smoke=smoke)
    workload.setup()
    # The warm-up pass fills caches and finishes lazy imports; it is
    # verified like any other but its times are part of set-up.
    warm_up = run_pass(workload)
    gc.collect()
    setup_s = time.perf_counter() - started

    baseline = warm_up["facts"]
    attempted = warm_up["attempted"]
    failures = list(warm_up["failures"])
    determinism: list[str] = []

    def account(label: str, result: dict) -> None:
        nonlocal attempted
        attempted += result["attempted"]
        failures.extend(result["failures"])
        difference = first_fact_difference(baseline, result["facts"])
        if difference is not None:
            determinism.append(f"{label}: {difference}")

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        result = run_pass(workload)
        gc.collect()
        account(f"pass {len(passes) + 1}", result)
        passes.append({"host_s": result["host_s"],
                       "speed": result["speed"]})
        if time.perf_counter() >= deadline:
            break

    traced = None
    if trace:
        recorder = spans.SpanRecorder()
        with spans.Wrappers(recorder):
            result = run_pass(workload, recorder=recorder)
        account("traced pass", result)
        coarse: dict[str, list] = {}
        for span in recorder.spans:
            coarse.setdefault(f"{span['layer']}:{span['name']}", []).append(
                {"dur_s": span["dur_s"], **span["args"]})
        traced = {
            "host_s": result["host_s"],
            "speed": result["speed"],
            "table": recorder.table(),
            "layer_self_s": recorder.layer_self_seconds(),
            "coarse": coarse,
            "diagnostics": workload.diagnostics(),
        }
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(
                json.dumps(spans.chrome_trace(recorder.spans)) + "\n")

    return {
        "workload": name,
        "seed": seed,
        "schedule_digest": workload.schedule_digest(),
        "items": [item.id for item in workload.items],
        "setup_s": setup_s,
        "generate_host_s": workload.generate_host_s,
        "catalog_bytes": workload.catalog.nbytes,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "facts": baseline,
        "attempted": attempted,
        "failures": failures,
        "determinism": determinism,
        "trace": traced,
    }
