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

The simulation is deterministic: the same schedule of calls always yields the
same makespan, which keeps benchmark output reproducible and lets tests
assert exact overlap behaviour (e.g. "prefetch of chunk *c+1* overlaps
compute of chunk *c*").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

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
        owner: Query id the event was charged to (empty outside engine
            runs); the engine's per-query makespan accounting filters on
            it when several queries share one timeline.
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


_EID = attrgetter("eid")


class VirtualClock:
    """Deterministic scheduler for streams of timed events.

    A single clock is shared by every device in an execution so that
    cross-device dependencies (host staging, device-to-device routing)
    are ordered on one timeline.
    """

    def __init__(self) -> None:
        self._streams: dict[str, Stream] = {}
        self._events: list[Event] = []
        #: owner -> its events in schedule order (``""`` = unowned), so
        #: per-query accounting on a long-lived engine does not re-read
        #: the whole timeline.
        self._events_by_owner: dict[str, list[Event]] = {}
        self._ids = itertools.count()
        #: Latest ``available_at`` over the streams (:meth:`now`).
        self._now = 0.0
        #: Query id new events are charged to (set by the scheduler).
        self.current_owner: str | None = None

    # -- stream management --------------------------------------------------

    def stream(self, name: str) -> Stream:
        """Return the stream called *name*, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = Stream(name)
        return self._streams[name]

    @property
    def streams(self) -> dict[str, Stream]:
        return dict(self._streams)

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
        owner = self.current_owner or ""
        end = start + duration
        # Not ``Event(...)``: the namedtuple's own ``__new__`` is a
        # Python-level call per event.
        event = tuple.__new__(Event, (next(self._ids), stream, label, start,
                                      end, category, nbytes, owner, node))
        s.available_at = end
        if end > self._now:
            self._now = end
        self._events.append(event)
        self._events_by_owner.setdefault(owner, []).append(event)
        return event

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

    # -- inspection ----------------------------------------------------------

    @property
    def events(self) -> list[Event]:
        return list(self._events)

    @property
    def event_count(self) -> int:
        """Number of events recorded so far (cheap cursor for callers
        that want to inspect just the events of one chunk)."""
        return len(self._events)

    def events_since(self, cursor: int) -> list[Event]:
        """Events recorded at or after position *cursor* (a value
        previously read from :attr:`event_count`)."""
        return self._events[cursor:]

    def now(self) -> float:
        """Latest point in time any stream has reached (a barrier only
        raises streams to a time one of them already reached)."""
        return self._now

    def makespan(self) -> float:
        """End time of the last finished event (total simulated runtime)."""
        return max((e.end for e in self._events), default=0.0)

    def begin_epoch(self) -> float:
        """Open a new epoch at the current time and return its start.

        The engine calls this per query batch instead of :meth:`reset`:
        events and stream positions are preserved (device buffers and
        the residency cache stay meaningful), but per-query accounting
        measures from the epoch start rather than from zero.
        """
        return self.now()

    def events_of(self, owner: str) -> list[Event]:
        """Events charged to *owner* plus unowned (engine-free) events,
        in schedule order."""
        unowned = self._events_by_owner.get("", ())
        if not owner:
            return list(unowned)
        owned = self._events_by_owner.get(owner, ())
        if not unowned:
            return list(owned)
        # Both runs are already in eid order: the sort is one merge.
        return sorted([*owned, *unowned], key=_EID)

    def drop_stream(self, name: str) -> None:
        """Forget a stream's position (used when a device is unplugged);
        its already-recorded events remain on the timeline."""
        self._streams.pop(name, None)
        self._now = max((s.available_at for s in self._streams.values()),
                        default=0.0)

    def reset(self) -> None:
        """Forget all events and stream positions (fresh timeline)."""
        self._streams.clear()
        self._events.clear()
        self._events_by_owner.clear()
        self._ids = itertools.count()
        self._now = 0.0
        self.current_owner = None
