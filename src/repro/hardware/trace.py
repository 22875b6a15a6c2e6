"""Reading the event log: the one fold, and the trace exports.

The virtual clock records every simulated event (transfers, launches,
kernels, allocations) and that record is the system's only ledger:
:func:`fold` is the one pass that turns events into counters — a
query's statistics, the whole timeline's :func:`counters` and the
engine's metrics registry are three calls of it.  The module also
renders the record two ways:

* :func:`to_chrome_trace` — the Chrome/Perfetto ``chrome://tracing`` JSON
  format (one row per stream), for interactive inspection of
  copy-compute overlap;
* :func:`ascii_gantt` — a terminal Gantt chart, used by the examples and
  handy in test failures.

Both operate on any :class:`~repro.hardware.clock.VirtualClock`, so a
query can be traced by running it and passing ``executor.clock``.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from functools import lru_cache
from typing import NamedTuple

from repro.hardware.clock import Event, VirtualClock

__all__ = ["to_chrome_trace", "ascii_gantt", "overlap_ratio", "counters",
           "fold", "Ledger"]

#: Category -> single-character glyph for the ASCII chart.
_GLYPHS = {
    "transfer": "T",
    "compute": "#",
    "launch": "l",
    "alloc": "a",
    "compile": "c",
    "transform": "x",
    "setup": "s",
    "cache": "r",
    "backoff": "b",
    "recovery": "R",
    "adaptive": "A",
}


#: Event categories whose label names a metric series.
_LABELLED = frozenset(
    ("compute", "launch", "transfer", "cache", "recovery", "adaptive"))


@lru_cache(maxsize=1024)
def _parse(stream: str, label: str) -> tuple[str, str, str]:
    """``(device, kind, subject)`` of an event on *stream* labelled
    ``device:kind:subject`` (the device is the stream's, so a label's
    first field is never trusted; a two-field label has no subject)."""
    _, _, rest = label.partition(":")
    kind, _, subject = rest.partition(":")
    return stream.rpartition(".")[0], kind, subject


class _Totals(dict):
    """Series totals that start where *running* says (or at zero)."""

    def __init__(self, running: Callable | None) -> None:
        self.running = running

    def __missing__(self, key: tuple[str, ...]) -> float:
        return self.running(key) if self.running else 0.0


class Ledger(NamedTuple):
    """What a run of events adds up to (the result of :func:`fold`)."""

    #: Per event category: the summed durations (in schedule order),
    #: the number of events and the summed payload bytes.
    seconds: dict[str, float]
    count: dict[str, int]
    nbytes: dict[str, int]
    #: Latest end time of any event (0.0 for no events).
    end: float
    #: ``(category, node id, primitive)`` of the ``launch`` and
    #: ``compute`` events of each owner's *completed* attempt.
    completed: list[tuple[str, str, str]]
    #: The labelled metric series the events fed, keyed ``(metric
    #: name, *label values)``, the values in the order
    #: ``observe.metrics.METRIC_CATALOG`` declares the labels.
    series: dict[tuple[str, ...], float]


def fold(events: Iterable[Event],
         running: Callable[[tuple[str, ...]], float] | None = None
         ) -> Ledger:
    """The one reading of the event log: every counter the system
    prints is a field of this fold over *events* (in schedule order).

    An event says where it ran through its stream (``<device>.transfer``
    / ``<device>.compute``) and what it was through its label, whose
    grammar is ``device:kind:subject`` — ``gpu0:launch:filter_bitmap``,
    ``gpu0:h2d:q7:lineitem.l_quantity#0``, ``gpu0:adaptive-steal``; the
    scheduler's markers are ``recovery:<reason>:<query id>``.  Which
    series an event feeds follows from its category and kind alone, so
    a driver that schedules its own ``h2d`` event is counted like the
    built-in ones.

    With *running*, a series continues from ``running(key)`` (the engine
    passes its registry's, so a float sum keeps one association across
    publishes); without it every series starts from zero.

    A scheduler restart re-runs a query's graph from the top, leaving
    the aborted attempt's launch events on the shared timeline; counting
    them would double-charge the plan (most visibly for fused nodes,
    whose whole point is a lower launch count).  ``completed`` therefore
    holds, per owner, only what follows the owner's last ``recovery``
    marker — exactly the run that completed.  Every other field,
    ``series`` included, counts *every* event, aborted attempts too.
    """
    seconds: dict[str, float] = {}
    count: dict[str, int] = {}
    volume: dict[str, int] = {}
    series = _Totals(running)
    #: owner -> its kernel events since its last recovery marker
    live: dict[str, list[tuple[str, str, str]]] = {}
    last = 0.0
    for _, stream, label, start, end, category, nbytes, owner, node in events:
        seconds[category] = seconds.get(category, 0.0) + (end - start)
        count[category] = count.get(category, 0) + 1
        if nbytes:
            volume[category] = volume.get(category, 0) + nbytes
        if end > last:
            last = end
        if category not in _LABELLED:
            continue
        device, kind, subject = _parse(stream, label)
        amount = 1
        if category == "compute":
            key = ("adamant_kernel_seconds_total", device, subject)
            amount = end - start
            live.setdefault(owner, []).append((category, node, subject))
        elif category == "launch":
            key = ("adamant_kernel_launches_total", device, subject)
            live.setdefault(owner, []).append((category, node, subject))
        elif category == "transfer":
            if kind not in ("h2d", "d2h"):
                continue  # pinned-map, uma-publish, uma-read: time only
            key = ("adamant_transfer_bytes_total", device, kind)
            amount = nbytes
        elif category == "cache":
            key = ("adamant_residency_hit_bytes_total", device)
            series[key] += nbytes
            key = ("adamant_residency_hits_total", device)
        elif category == "recovery":
            # The marker's owner starts over, and with it the launches
            # charged to nobody, which ``events_of`` shows every owner;
            # a marker charged to nobody restarts everyone.
            if owner:
                live.pop(owner, None)
                live.pop("", None)
            else:
                live.clear()
            if kind == "oom":  # "oom:chunk=512:q7" -> reason "oom:chunk"
                kind += ":" + subject.rsplit(":", 1)[0].split("=")[0]
            key = ("adamant_recovery_actions_total", kind)
        elif kind == "adaptive-resize":
            old, _, new = subject.partition("->")
            key = ("adamant_adaptive_resize_total",
                   "grow" if int(new) > int(old) else "shrink")
        elif kind == "adaptive-steal":
            key = ("adamant_adaptive_steals_total", device)
        else:
            key = ("adamant_adaptive_replacements_total",)
        series[key] += amount
    completed = [kernel for run in live.values() for kernel in run]
    return Ledger(seconds, count, volume, last, completed, series)


def counters(clock: VirtualClock) -> dict[str, int]:
    """Launch and recovery counters of the whole recorded timeline.

    ``kernels_launched`` counts the launch events of each query's
    *completed* run (see :func:`fold`) and ``fused_kernels_launched``
    those that launched a planner-fused kernel — the difference
    before/after fusion is the launch overhead the pass saves.
    ``retries`` (backoff waits), ``recovery_actions`` (the scheduler's
    restart markers) and ``adaptive_actions`` count *every* attempt.
    """
    ledger = fold(clock.events_since(0))
    launched = [primitive for category, _, primitive in ledger.completed
                if category == "launch"]
    return {
        "kernels_launched": len(launched),
        "fused_kernels_launched": sum(
            primitive.startswith("fused_") for primitive in launched),
        "retries": ledger.count.get("backoff", 0),
        "recovery_actions": ledger.count.get("recovery", 0),
        "adaptive_actions": ledger.count.get("adaptive", 0),
    }


#: Shown as the process row in the trace viewer.
PROCESS_NAME = "adamant"

#: Simulated seconds to trace microseconds (the format's unit).
TIME_SCALE = 1e6


def to_chrome_trace(clock: VirtualClock) -> str:
    """Serialize the clock's events as Chrome tracing JSON."""
    streams = sorted({e.stream for e in clock.events})
    tid_of = {name: i for i, name in enumerate(streams)}
    events: list[dict] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "args": {"name": PROCESS_NAME},
    }]
    for name, tid in tid_of.items():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": name},
        })
    events.append({
        "name": "counters",
        "ph": "M",
        "pid": 0,
        "args": counters(clock),
    })
    for event in clock.events:
        events.append({
            "name": event.label or event.category,
            "cat": event.category,
            "ph": "X",
            "pid": 0,
            "tid": tid_of[event.stream],
            "ts": event.start * TIME_SCALE,
            "dur": event.duration * TIME_SCALE,
            "args": ({"nbytes": event.nbytes, "node": event.node}
                     if event.node else {"nbytes": event.nbytes}),
        })
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def ascii_gantt(clock: VirtualClock, *, width: int = 78,
                min_duration: float = 0.0) -> str:
    """Render the clock's streams as a fixed-width Gantt chart.

    Each stream becomes one row; time maps linearly onto *width* columns;
    each event paints its category glyph (later events win ties).  Events
    shorter than *min_duration* are skipped.
    """
    events = [e for e in clock.events if e.duration >= min_duration]
    if not events:
        return "(no events)"
    makespan = max(e.end for e in events)
    if makespan <= 0:
        return "(zero-length timeline)"
    streams = sorted({e.stream for e in events})
    label_width = max(len(s) for s in streams) + 1

    lines = []
    for stream in streams:
        row = [" "] * width
        for event in events:
            if event.stream != stream:
                continue
            glyph = _GLYPHS.get(event.category, "?")
            first = int(event.start / makespan * (width - 1))
            last = max(first, int(event.end / makespan * (width - 1)))
            for i in range(first, min(last + 1, width)):
                row[i] = glyph
        lines.append(f"{stream:<{label_width}}|{''.join(row)}|")
    legend = "  ".join(f"{g}={c}" for c, g in _GLYPHS.items())
    lines.append(f"{'':<{label_width}} 0{'':<{width - 10}}"
                 f"{makespan:.4f}s")
    lines.append(legend)
    return "\n".join(lines)


def overlap_ratio(clock: VirtualClock, stream_a: str, stream_b: str) -> float:
    """Fraction of *stream_a*'s busy time that overlaps *stream_b*'s.

    1.0 means fully hidden (perfect copy-compute overlap); 0.0 means the
    two streams strictly alternate — exactly the property distinguishing
    the pipelined from the chunked models.
    """
    a = [(e.start, e.end) for e in clock.events if e.stream == stream_a]
    b = [(e.start, e.end) for e in clock.events if e.stream == stream_b]
    busy_a = sum(end - start for start, end in a)
    if busy_a == 0:
        return 0.0
    # Events of one stream are serial and time-ordered, so one merge
    # over both interval lists visits every overlapping pair.
    overlap = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        (sa, ea), (sb, eb) = a[i], b[j]
        overlap += max(0.0, min(ea, eb) - max(sa, sb))
        if ea <= eb:
            i += 1
        else:
            j += 1
    return min(1.0, overlap / busy_a)
