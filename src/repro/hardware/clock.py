"""Event-driven virtual time engine.

The paper's execution models differ in *which operations overlap*: chunked
execution serializes transfer and compute, pipelined execution runs them on
separate threads, and 4-phase execution alternates dual pinned buffers.  On
real hardware those interactions are realized with CUDA/OpenCL streams and
host threads; here they are realized with a deterministic event simulation.

Each device exposes named :class:`Stream` objects (typically ``transfer`` and
``compute``).  Work is scheduled as :class:`Event` objects; an event starts
when both its stream is free *and* all its dependencies have finished.  The
makespan of the recorded events is the simulated wall-clock time of a query.

The log is kept as columns, not as objects: each event is one row of
start, end, class id, owner id, node id and nbytes (plus its label
string, kept only to rebuild the :class:`Event`).  The class id is
interned from what :func:`repro.hardware.trace.fold` reads off an event
— its stream, its category and the one label field the category's
counters depend on (a kernel's primitive, a transfer's kind, a
recovery's reason, an adaptive decision) — never from the whole label,
which names query ids and buffer aliases, so the class table, which
every clock shares, stays as small as the fleet and the primitive set.
``Event`` tuples are rebuilt on demand (:attr:`VirtualClock.events`,
:meth:`~VirtualClock.events_of`, :meth:`~VirtualClock.events_since`)
for the readers that want objects.

The simulation is deterministic: the same schedule of calls always yields the
same makespan, which keeps benchmark output reproducible and lets tests
assert exact overlap behaviour (e.g. "prefetch of chunk *c+1* overlaps
compute of chunk *c*").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import SchedulingError

__all__ = ["Event", "Stream", "VirtualClock"]


class Event(NamedTuple):
    """A completed piece of scheduled work on a stream (immutable).

    Attributes:
        eid: Monotonically increasing event id (schedule order).
        stream: Name of the stream the event ran on.
        label: Human-readable description (used in traces and tests).
        start: Simulated start time in seconds.
        end: Simulated end time in seconds.
        category: Free-form grouping tag (``transfer``, ``compute``,
            ``alloc`` ...) used by the instrumentation that reproduces
            Figure 10 (abstraction overhead).
        nbytes: Payload size for transfer events (0 otherwise).
        owner: Query id the event was charged to (empty for work
            charged to nobody, such as serving's arrival markers); a
            query's statistics read exactly its own events.
        node: Plan node the event realizes (kernel launches, kernel
            runs, retry backoffs and unified-memory reads carry it);
            empty for work that is not attributable to a single node.
            The ANALYZE profiler groups wall-clock time by it.
    """

    eid: int
    stream: str
    label: str
    start: float
    end: float
    category: str = "compute"
    nbytes: int = 0
    owner: str = ""
    node: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Stream:
    """An in-order execution queue (one per device engine).

    Mirrors a CUDA stream / OpenCL command queue: events issued to the same
    stream execute back-to-back in issue order, while events on different
    streams may overlap.
    """

    name: str
    available_at: float = 0.0


#: Categories whose label is looked up whole: a launch or kernel run is
#: labelled ``device:kind:primitive`` and nothing else, so there are no
#: more such labels than primitives per stream.
_WHOLE_LABEL = frozenset(("launch", "compute"))

#: Categories with a label field the fold keys on (see :func:`fold_key`).
_KEYED = frozenset(("transfer", "recovery", "adaptive"))

#: Columns of a row: start, end, class id, owner id, node id, nbytes.
_COLUMNS = 6


def fold_key(category: str, label: str) -> str:
    """The one field of a ``device:kind:subject`` *label* that says which
    counters an event of *category* feeds: a kernel's primitive, a
    transfer's kind, a recovery marker's reason (``oom:chunk=512:q7``
    -> ``oom:chunk``) or an adaptive decision (``grow``, ``shrink``,
    ``steal``, ``replace``); empty for every other category."""
    if category not in _WHOLE_LABEL and category not in _KEYED:
        return ""
    _, _, rest = label.partition(":")
    kind, _, subject = rest.partition(":")
    if category in _WHOLE_LABEL:
        return subject
    if category == "transfer":
        return kind
    if category == "recovery":
        if kind == "oom":
            kind += ":" + subject.rsplit(":", 1)[0].split("=")[0]
        return kind
    if kind == "adaptive-resize":
        old, _, new = subject.partition("->")
        return "grow" if int(new) > int(old) else "shrink"
    return "steal" if kind == "adaptive-steal" else "replace"


_CLASSES: list[tuple[str, str, str]] = []
_CLASS_IDS: dict[tuple[str, str, str], int] = {}
_NODES = [""]
_NODE_IDS = {"": 0}
#: category -> label (kernels) or fold key -> node -> stream -> ``(class
#: id, node id)``: nested, so that an event builds no key to look up.
_LOOKUP: dict[str, dict] = {}


def _intern(stream: str, category: str, part: str, node: str, label: str
            ) -> tuple[int, int]:
    """Class and node id of an event :data:`_LOOKUP` does not know yet."""
    fold = (stream, category, fold_key(category, label))
    cls = _CLASS_IDS.get(fold)
    if cls is None:
        cls = _CLASS_IDS[fold] = len(_CLASSES)
        _CLASSES.append(fold)
    nid = _NODE_IDS.get(node)
    if nid is None:
        nid = _NODE_IDS[node] = len(_NODES)
        _NODES.append(node)
    ids = (_LOOKUP.setdefault(category, {}).setdefault(part, {})
           .setdefault(node, {}))[stream] = (cls, nid)
    return ids


class VirtualClock:
    """Deterministic scheduler for streams of timed events.

    A single clock is shared by every device in an execution so that
    cross-device dependencies (host staging, device-to-device routing)
    are ordered on one timeline.
    """

    def __init__(self) -> None:
        self._streams: dict[str, Stream] = {}
        #: Class id -> ``(stream, category, fold key)`` and node id ->
        #: plan node (``""`` for none).  Every clock shares the two
        #: tables: they grow with the fleet, the primitives and the
        #: plans' nodes, not with runs, so a fresh clock's first events
        #: cost a look-up, not an intern.
        self.classes, self.nodes = _CLASSES, _NODES
        #: What readers derive from the log (:mod:`repro.hardware.trace`
        #: keeps its latest fold here); :meth:`reset` empties it.
        self.cache: dict[str, object] = {}
        self.reset()

    # -- stream management --------------------------------------------------

    def stream(self, name: str) -> Stream:
        """Return the stream called *name*, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = Stream(name)
        return self._streams[name]

    @property
    def streams(self) -> dict[str, Stream]:
        return dict(self._streams)

    # -- owners ----------------------------------------------------------------

    @property
    def current_owner(self) -> str | None:
        """Query id new events are charged to (set by the scheduler)."""
        return self._current_owner

    @current_owner.setter
    def current_owner(self, owner: str | None) -> None:
        self._current_owner = owner
        name = owner or ""
        oid = self._owner_ids.get(name)
        if oid is None:
            oid = self._owner_ids[name] = len(self.owners)
            self.owners.append(name)
            self._rows_of.append([])
        self._owner, self._oid = name, oid
        self._owned = self._rows_of[oid]

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self,
        stream: str,
        duration: float,
        *,
        label: str = "",
        deps: list[Event] | None = None,
        category: str = "compute",
        nbytes: int = 0,
        not_before: float = 0.0,
        node: str = "",
    ) -> Event:
        """Schedule *duration* seconds of work on *stream*.

        The event starts at ``max(stream.available_at, dep ends, not_before)``
        and occupies the stream until it finishes.  Returns the completed
        :class:`Event`, which callers may use as a dependency for later work.
        """
        if duration < 0:
            raise SchedulingError(
                f"negative duration {duration!r} for event {label!r}"
            )
        s = self._streams.get(stream)
        if s is None:
            s = self.stream(stream)
        start = s.available_at
        if not_before > start:
            start = not_before
        for dep in deps or ():
            if dep.end > start:
                start = dep.end
        end = start + duration
        if category in _WHOLE_LABEL:
            part = label
        elif category == "transfer":  # the kind, as fold_key reads it
            part = label.partition(":")[2].partition(":")[0]
        elif category in _KEYED:
            part = fold_key(category, label)
        else:
            part = ""
        try:
            cls, nid = _LOOKUP[category][part][node][stream]
        except KeyError:
            cls, nid = _intern(stream, category, part, node, label)
        labels = self._labels
        eid = len(labels)
        staged = self._staged
        staged += (start, end, cls, self._oid, nid, nbytes)
        labels.append(label)
        self._owned.append(eid)
        s.available_at = end
        if end > self._now:
            self._now = end
        # Not ``Event(...)``: the namedtuple's own ``__new__`` is a
        # Python-level call per event.
        return tuple.__new__(Event, (eid, stream, label, start, end,
                                     category, nbytes, self._owner, node))

    def barrier(self, streams: list[str] | None = None) -> float:
        """Synchronize streams: set each stream's availability to the
        latest availability among them (host thread join / pipeline-breaker
        sync in the paper's Algorithm 2).  Returns the synchronized time.
        """
        names = streams if streams is not None else list(self._streams)
        at = max((self.stream(n).available_at for n in names), default=0.0)
        for n in names:
            self.stream(n).available_at = at
        return at

    # -- the columns -----------------------------------------------------------

    def window(self, owner: str | None = None, since: int = 0) -> tuple:
        """Name the rows :meth:`events_of` (*owner*) or else
        :meth:`events_since` (*since*) would list: ``(since, count,
        owner)``, where *owner* is None when the rows are every row from
        *since* on (an owner whose rows are the whole log names the same
        rows as ``since=0``)."""
        count = len(self._labels)
        if owner is not None and len(self._rows(owner)) != count:
            return (0, count, owner)
        return (0 if owner is not None else since, count, None)

    def columns(self, window: tuple) -> np.ndarray:
        """The rows of *window* (see :meth:`window`), one per event in
        schedule order: start, end, class id, owner id, node id and
        nbytes as floats."""
        since, count, owner = window
        table = self._flush()
        if owner is None:
            return table[since:count]
        return table[self._rows(owner)]

    def _rows(self, owner: str) -> list[int]:
        """Rows charged to *owner* (``""``: to nobody), ascending."""
        oid = self._owner_ids.get(owner)
        return self._rows_of[oid] if oid is not None else []

    def _flush(self) -> np.ndarray:
        """Move the rows scheduled since the last read into the table,
        and return the table."""
        staged = self._staged
        if staged:
            block = np.array(staged, dtype=np.float64).reshape(-1, _COLUMNS)
            start = self._flushed
            stop = start + len(block)
            if stop > len(self._table):
                grown = np.empty((max(stop, 2 * len(self._table)), _COLUMNS))
                grown[:start] = self._table[:start]
                self._table = grown
            self._table[start:stop] = block
            self._flushed = stop
            staged.clear()
        return self._table[:self._flushed]

    def _materialise(self, rows: range | list[int]) -> list[Event]:
        """The :class:`Event` tuples of *rows* (row ids, ascending)."""
        if not rows:
            return []
        table = self._flush()
        picked = (table[rows.start:rows.stop] if isinstance(rows, range)
                  else table[rows])
        classes, owners, nodes, labels = (self.classes, self.owners,
                                          self.nodes, self._labels)
        events = []
        for eid, (start, end), (cls, oid, nid, nbytes) in zip(
                rows, picked[:, :2].tolist(),
                picked[:, 2:].astype(np.int64).tolist()):
            stream, category, _ = classes[cls]
            events.append(tuple.__new__(Event, (
                eid, stream, labels[eid], start, end, category, nbytes,
                owners[oid], nodes[nid])))
        return events

    # -- inspection ----------------------------------------------------------

    @property
    def events(self) -> list[Event]:
        return self._materialise(range(len(self._labels)))

    @property
    def event_count(self) -> int:
        """Number of events recorded so far (cheap cursor for callers
        that want to inspect just the events of one chunk)."""
        return len(self._labels)

    def events_since(self, cursor: int) -> list[Event]:
        """Events recorded at or after position *cursor* (a value
        previously read from :attr:`event_count`)."""
        return self._materialise(range(cursor, len(self._labels)))

    def now(self) -> float:
        """Latest point in time any stream has reached (a barrier only
        raises streams to a time one of them already reached)."""
        return self._now

    def makespan(self) -> float:
        """End time of the last finished event (total simulated runtime)."""
        table = self._flush()
        return float(table[:, 1].max()) if len(table) else 0.0

    def events_of(self, owner: str) -> list[Event]:
        """Events charged to *owner* (``""``: to nobody), in schedule
        order."""
        return self._materialise(self._rows(owner))

    def drop_stream(self, name: str) -> None:
        """Forget a stream's position (used when a device is unplugged);
        its already-recorded events remain on the timeline."""
        self._streams.pop(name, None)
        self._now = max((s.available_at for s in self._streams.values()),
                        default=0.0)

    def reset(self) -> None:
        """Forget all events and stream positions (fresh timeline)."""
        self._streams.clear()
        self.cache.clear()
        #: Rows scheduled since the last read, flattened (six numbers
        #: each); :meth:`_flush` moves them into ``_table``.  A fresh
        #: table, not the old one overwritten: rows are only ever
        #: appended to a table, so a ledger still reading one stays true.
        self._staged: list[float] = []
        self._table = np.empty((0, _COLUMNS))
        self._flushed = 0
        self._labels: list[str] = []
        #: Owner id -> its rows; id 0 is the unowned ``""``.
        self.owners = [""]
        self._owner_ids = {"": 0}
        self._rows_of: list[list[int]] = [[]]
        self._now = 0.0
        self.current_owner = None
