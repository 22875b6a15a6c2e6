"""Execution-trace export: Chrome tracing JSON and ASCII Gantt charts.

The virtual clock records every simulated event (transfers, launches,
kernels, allocations).  This module renders that record two ways:

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

from repro.hardware.clock import VirtualClock

__all__ = ["to_chrome_trace", "ascii_gantt", "overlap_ratio", "counters"]

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


def counters(clock: VirtualClock) -> dict[str, int]:
    """Launch counters of the recorded timeline.

    ``kernels_launched`` counts every host-side launch event of each
    query's *completed* run; ``fused_kernels_launched`` the subset that
    launched the planner's fused MAP/FILTER kernel.  The difference
    before/after fusion is the launch-overhead saving the pass buys.
    ``retries`` counts the backoff waits charged by transient-fault
    recovery and ``recovery_actions`` the scheduler's restart markers
    (OOM degradation and device failover).

    A scheduler restart re-runs a query's graph from the top, leaving
    the aborted attempt's launch events on the shared timeline; counting
    them would double-charge the plan (most visibly for fused nodes,
    whose whole point is a lower launch count).  Launches are therefore
    counted per owner only after the owner's last ``recovery`` marker —
    exactly the run that completed.  ``retries`` and
    ``recovery_actions`` intentionally keep counting *every* recovery
    action, aborted attempts included.
    """
    events = clock.events  # the property copies the timeline: read once
    restart_eid: dict[str, int] = {}
    for e in events:
        if e.category == "recovery":
            restart_eid[e.owner] = max(restart_eid.get(e.owner, -1), e.eid)
    launches = [e for e in events if e.category == "launch"
                and e.eid > restart_eid.get(e.owner, -1)]
    return {
        "kernels_launched": len(launches),
        "fused_kernels_launched": sum(
            1 for e in launches
            if (e.label or "").rsplit(":", 1)[-1].startswith("fused_")),
        "retries": sum(1 for e in events if e.category == "backoff"),
        "recovery_actions": sum(1 for e in events
                                if e.category == "recovery"),
        "adaptive_actions": sum(1 for e in events
                                if e.category == "adaptive"),
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
