"""Reading the event log: the one fold, and the trace exports.

The virtual clock records every simulated event (transfers, launches,
kernels, allocations) as one row of columns — start, end, class id,
owner id, node id, nbytes — and that record is the system's only
ledger: :func:`fold` is the one reading that turns rows into counters —
a query's statistics, the whole timeline's :func:`counters` and the
engine's metrics registry are three calls of it.  An event's class
(interned by the clock when it schedules the event) says which
category and series it feeds, so the fold is a few array operations
over the columns with no Python per event; a run's statistics and its
publish read the same fold.  The module also renders the record two
ways:

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
from collections import Counter
from collections.abc import Callable
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.hardware.clock import VirtualClock

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


#: How an event adds to the series it feeds: its duration, its payload
#: bytes or one.
_DURATION, _BYTES, _ONE = 0, 1, 2


def _feeds(stream: str, category: str, key: str
           ) -> list[tuple[tuple[str, ...], int]]:
    """The series an event of class ``(stream, category, key)`` feeds
    and how (see :func:`repro.hardware.clock.fold_key` for *key*)."""
    device = stream.rpartition(".")[0]
    if category == "compute":
        return [(("adamant_kernel_seconds_total", device, key), _DURATION)]
    if category == "launch":
        return [(("adamant_kernel_launches_total", device, key), _ONE)]
    if category == "transfer":
        if key not in ("h2d", "d2h"):
            return []  # pinned-map, uma-publish, uma-read: time only
        return [(("adamant_transfer_bytes_total", device, key), _BYTES)]
    if category == "cache":
        return [(("adamant_residency_hit_bytes_total", device), _BYTES),
                (("adamant_residency_hits_total", device), _ONE)]
    if category == "recovery":
        return [(("adamant_recovery_actions_total", key), _ONE)]
    if category != "adaptive":
        return []
    if key in ("grow", "shrink"):
        return [(("adamant_adaptive_resize_total", key), _ONE)]
    if key == "steal":
        return [(("adamant_adaptive_steals_total", device), _ONE)]
    return [(("adamant_adaptive_replacements_total",), _ONE)]


class _Classes(NamedTuple):
    """What each of a clock's event classes means to :func:`fold`
    (indexed by class id)."""

    categories: list[str]
    category: list[int]           # class -> category id
    by_category: np.ndarray       # the same, as an array
    series: list[tuple[str, ...]]
    #: class -> ``(series id, way of adding)`` per series it feeds
    feeds: list[list[tuple[int, int]]]
    #: Per way of adding: class -> the series it adds to that way, or a
    #: sink past the last series.
    by_amount: tuple[np.ndarray, np.ndarray, np.ndarray]
    kernel: np.ndarray            # class -> launch or compute?
    primitive: list[str]          # class -> its fold key
    recovery: int                 # category id of "recovery" (or -1)
    #: ``node id * classes + class id`` -> ``(category, node,
    #: primitive)``, filled as kernel rows show them
    kernel_keys: dict[int, tuple[str, str, str]]


def _classes(clock: VirtualClock) -> _Classes:
    """The class tables, rebuilt when a class was born."""
    cached = _TABLES[0]
    if cached is not None and len(cached.category) == len(clock.classes):
        return cached
    categories: dict[str, int] = {}
    series: dict[tuple[str, ...], int] = {}
    fed = [_feeds(*cls) for cls in clock.classes]
    category = [categories.setdefault(cat, len(categories))
                for _, cat, _ in clock.classes]
    feeds = [[(series.setdefault(key, len(series)), how) for key, how in cls]
             for cls in fed]
    sink = len(series)
    by_amount = tuple(np.array(
        [next((series[key] for key, how in cls if how == amount), sink)
         for cls in fed], dtype=np.intp)
        for amount in (_DURATION, _BYTES, _ONE))
    tables = _Classes(
        list(categories), category, np.array(category, dtype=np.intp),
        list(series), feeds, by_amount,  # type: ignore[arg-type]
        np.array([cat in ("launch", "compute")
                  for _, cat, _ in clock.classes], dtype=bool),
        [key for _, _, key in clock.classes],
        categories.get("recovery", -1), {})
    _TABLES[0] = tables
    return tables


#: The latest :func:`_classes` (every clock shares one class table).
_TABLES: list[_Classes | None] = [None]


class _Rows:
    """The rows one fold reads, and what it derives from them when a
    ledger first asks (shared by every fold of the same rows)."""

    def __init__(self, clock: VirtualClock, rows: np.ndarray) -> None:
        self.tables = _classes(clock)
        self.rows = rows
        #: class, owner and node id per row
        self.ids = rows[:, 2:5].astype(np.intp)
        self.cls = self.ids[:, 0]
        self.nodes = clock.nodes
        self.owners = len(clock.owners)

    @cached_property
    def order(self) -> list[int]:
        """The classes present, in the order the rows first show them."""
        return list(dict.fromkeys(self.cls.tolist()))

    @cached_property
    def duration(self) -> np.ndarray:
        return self.rows[:, 1] - self.rows[:, 0]

    @cached_property
    def per_category(self) -> tuple[dict, dict, dict]:
        tables = self.tables
        category = tables.by_category[self.cls]
        n = len(tables.categories)
        seconds = np.bincount(category, self.duration, n).tolist()
        count = np.bincount(category, None, n).tolist()
        volume = np.bincount(category, self.rows[:, 5], n).tolist()
        names = tables.categories
        seen = dict.fromkeys(tables.category[c] for c in self.order)
        return ({names[c]: seconds[c] for c in seen},
                {names[c]: count[c] for c in seen},
                {names[c]: int(volume[c]) for c in seen if volume[c]})

    @cached_property
    def completed(self) -> dict[tuple[str, str, str], int]:
        tables = self.tables
        kernel = tables.kernel[self.cls]
        if any(tables.category[c] == tables.recovery for c in self.order):
            kernel &= ~_aborted(self.ids[:, 1], tables.by_category[self.cls]
                                == tables.recovery, self.owners)
        # One count per (node, class), keyed node * classes + class, in
        # the order the kernel rows first show each.
        n_classes = len(tables.category)
        codes = (self.ids[:, 2] * n_classes + self.cls)[kernel].tolist()
        keys = tables.kernel_keys
        completed: dict[tuple[str, str, str], int] = {}
        for code, n in Counter(codes).items():
            key = keys.get(code)
            if key is None:
                node, c = divmod(code, n_classes)
                key = keys[code] = (tables.categories[tables.category[c]],
                                    self.nodes[node], tables.primitive[c])
            completed[key] = completed.get(key, 0) + n
        return completed

    @cached_property
    def feed(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """The series fed, first-fed first, and what the rows add to
        them: a series id and an addend each, in row order."""
        tables = self.tables
        feeds = [fed for c in self.order for fed in tables.feeds[c]]
        fed = list(dict.fromkeys(sid for sid, _ in feeds))
        ways = {way for _, way in feeds}
        index, addends = [], []
        for way, values in ((_DURATION, self.duration),
                            (_BYTES, self.rows[:, 5]), (_ONE, None)):
            if way in ways:
                index.append(tables.by_amount[way][self.cls])
                addends.append(values if values is not None
                               else np.ones(len(self.cls)))
        if not index:
            return fed, np.empty(0, dtype=np.intp), np.empty(0)
        return fed, np.concatenate(index), np.concatenate(addends)


class Ledger:
    """What a run of events adds up to (the result of :func:`fold`).

    Each field is worked out from the clock's rows when it is first
    read, so a reader pays for the fields it reads and no others.
    """

    def __init__(self, rows: _Rows,
                 running: Callable[[tuple[str, ...]], float] | None
                 ) -> None:
        self._rows = rows
        self._running = running

    @cached_property
    def seconds(self) -> dict[str, float]:
        """Per event category: the summed durations (in schedule order)."""
        return dict(self._rows.per_category[0])

    @cached_property
    def count(self) -> dict[str, int]:
        """Per event category: the number of events."""
        return dict(self._rows.per_category[1])

    @cached_property
    def nbytes(self) -> dict[str, int]:
        """Per event category: the summed payload bytes (categories
        that moved none are left out)."""
        return dict(self._rows.per_category[2])

    @cached_property
    def end(self) -> float:
        """Latest end time of any event (0.0 for no events)."""
        ends = self._rows.rows[:, 1]
        return max(0.0, float(ends.max())) if len(ends) else 0.0

    @cached_property
    def completed(self) -> dict[tuple[str, str, str], int]:
        """Per ``(category, node id, primitive)``: the ``launch`` and
        ``compute`` events of each owner's *completed* attempt."""
        return dict(self._rows.completed)

    @cached_property
    def series(self) -> dict[tuple[str, ...], float]:
        """The labelled metric series the events fed, keyed ``(metric
        name, *label values)``, the values in the order
        ``observe.metrics.METRIC_CATALOG`` declares the labels."""
        fed, index, addends = self._rows.feed
        if not fed:
            return {}
        names = self._rows.tables.series
        keys = [names[sid] for sid in fed]
        running = self._running
        starts = [running(key) for key in keys] if running else \
            [0.0] * len(keys)
        # Each series' running total is its first addend.
        totals = np.bincount(np.concatenate((fed, index)),
                             np.concatenate((starts, addends)),
                             len(names) + 1).tolist()
        return {key: totals[sid] for key, sid in zip(keys, fed)}


def fold(clock: VirtualClock, owner: str | None = None, *, since: int = 0,
         running: Callable[[tuple[str, ...]], float] | None = None
         ) -> Ledger:
    """The one reading of the event log: every counter the system
    prints is a field of this fold over exactly the rows charged to
    *owner* (the events ``clock.events_of(owner)`` lists), or else over
    every row from *since* on (``clock.events_since(since)``), rows
    charged to nobody included; in schedule order either way, and every
    dict lists its keys in the order the events first fed them.

    An event says where it ran through its stream (``<device>.transfer``
    / ``<device>.compute``) and what it was through its label, whose
    grammar is ``device:kind:subject`` — ``gpu0:launch:filter_bitmap``,
    ``gpu0:h2d:q7:lineitem.l_quantity#0``, ``gpu0:adaptive-steal``; the
    scheduler's markers are ``recovery:<reason>:<query id>``.  Which
    series an event feeds follows from its class — stream, category and
    the label field :func:`~repro.hardware.clock.fold_key` picks — so a
    driver that schedules its own ``h2d`` event is counted like the
    built-in ones.  The fold is a few array operations over the clock's
    columns: ``np.bincount`` adds its weights in row order, so every
    float sum keeps the schedule-order association.

    With *running*, a series continues from ``running(key)`` (the engine
    passes its registry's, so a float sum keeps one association across
    publishes); without it every series starts from zero.  Folding the
    rows the clock last folded reuses what that fold worked out: a
    run's statistics and its publish read one fold.

    A scheduler restart re-runs a query's graph from the top, leaving
    the aborted attempt's launch events on the shared timeline; counting
    them would double-charge the plan (most visibly for fused nodes,
    whose whole point is a lower launch count).  ``completed`` therefore
    counts, per owner, only what follows the owner's last ``recovery``
    marker — exactly the run that completed.  Every other field,
    ``series`` included, counts *every* event, aborted attempts too.
    """
    window = clock.window(owner, since)
    cached = clock.cache.get("fold")
    if cached is None or cached[0] != window:
        cached = clock.cache["fold"] = (
            window, _Rows(clock, clock.columns(window)))
    return Ledger(cached[1], running)


def _aborted(owner: np.ndarray, markers: np.ndarray, owners: int
             ) -> np.ndarray:
    """Which rows a later ``recovery`` marker of the row's own owner
    restarts."""
    at = np.flatnonzero(markers)
    # Per owner the row of its last marker (0, restarting nothing, for
    # an owner with none).
    latest = np.zeros(owners, dtype=np.intp)
    np.maximum.at(latest, owner[at], at)
    return np.arange(len(owner)) < latest[owner]


def counters(clock: VirtualClock) -> dict[str, int]:
    """Launch and recovery counters of the whole recorded timeline.

    ``kernels_launched`` counts the launch events of each query's
    *completed* run (see :func:`fold`) and ``fused_kernels_launched``
    those that launched a planner-fused kernel — the difference
    before/after fusion is the launch overhead the pass saves.
    ``retries`` (backoff waits), ``recovery_actions`` (the scheduler's
    restart markers) and ``adaptive_actions`` count *every* attempt.
    """
    ledger = fold(clock)
    launched = [(primitive, n) for (category, _, primitive), n
                in ledger.completed.items() if category == "launch"]
    return {
        "kernels_launched": sum(n for _, n in launched),
        "fused_kernels_launched": sum(
            n for primitive, n in launched if primitive.startswith("fused_")),
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
    recorded = clock.events
    streams = sorted({e.stream for e in recorded})
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
    for event in recorded:
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
    rows = clock.columns(clock.window())

    def intervals(stream: str) -> list[list[float]]:
        on = [cls for cls, (name, _, _) in enumerate(clock.classes)
              if name == stream]
        return rows[np.isin(rows[:, 2], on), :2].tolist()

    a, b = intervals(stream_a), intervals(stream_b)
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
