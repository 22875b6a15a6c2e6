"""Cross-query data residency cache (engine mode).

The single-shot executor wipes every device between runs, so a base-table
column transferred for one query is paid for again by the next.  When
devices are owned by a long-lived :class:`~repro.engine.Engine` instead,
each device carries a :class:`ResidencyCache`: the first query that
streams a column through ``load_data`` *absorbs* it into a device-resident
buffer as a side effect of the H2D transfers it performs anyway, and later
queries that scan the same column receive it by device-internal copy at
memory bandwidth — no interconnect traffic at all.

Entries are reference-counted by the query ids currently using them
(pinned entries are never evicted), evicted in LRU order under memory
pressure, and invalidated when the catalog changes underneath
(:attr:`~repro.storage.Catalog.version`) or when a query runs at a
different ``data_scale`` than the one the column was cached at.

Cache buffers are charged to the pseudo-owner :data:`RESIDENCY_OWNER`, so
per-query allocation accounting and OOM reclamation never touch them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DeviceMemoryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devices.base import SimulatedDevice
    from repro.storage import Catalog

__all__ = ["RESIDENCY_OWNER", "ResidencyCache", "ResidentColumn"]

#: Owner tag of cache-held buffers in the device memory manager.
RESIDENCY_OWNER = "__residency__"

#: Largest share of device memory the cache may occupy; columns bigger
#: than this are never admitted, so live queries always keep at least
#: half the device to themselves.
MAX_FRACTION = 0.5


@dataclass
class ResidentColumn:
    """Bookkeeping for one cached base-table column on one device."""

    ref: str
    alias: str
    rows: int
    catalog_id: int
    version: int
    data_scale: int
    coverage: int = 0
    complete: bool = False
    hits: int = 0
    last_used: int = 0
    #: Query ids currently reading the entry; pinned entries are not
    #: evictable, so an in-flight query never loses data under its feet.
    pins: set[str] = field(default_factory=set)


class ResidencyCache:
    """LRU cache of device-resident base-table columns for one device."""

    def __init__(self, device: "SimulatedDevice") -> None:
        self.device = device
        self._entries: dict[str, ResidentColumn] = {}
        #: (ref, catalog id, version) triples that did not fit in device
        #: memory — retried on the next catalog version, not per chunk.
        self._oversized: set[tuple[str, int, int]] = set()
        #: Entries evicted mid-absorption (cache buffers are unpinned
        #: while filling, so live queries can reclaim them); skipped
        #: until a query finishes, to avoid re-admission thrash within
        #: the very pass that is under memory pressure.
        self._cooldown: set[tuple[str, int, int]] = set()
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- queries -------------------------------------------------------------

    def __contains__(self, ref: str) -> bool:
        entry = self._entries.get(ref)
        return entry is not None and entry.complete

    @property
    def max_bytes(self) -> int:
        """Admission cap: the cache never claims more of the device than
        :data:`MAX_FRACTION` of its capacity per column."""
        return int(self.device.memory.capacity_bytes * MAX_FRACTION)

    @property
    def resident_bytes(self) -> int:
        memory = self.device.memory
        return sum(memory.get(e.alias).nbytes for e in self._entries.values()
                   if e.alias in memory)

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "complete": sum(1 for e in self._entries.values() if e.complete),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "resident_bytes": self.resident_bytes,
        }

    # -- lookup / absorb -----------------------------------------------------

    def _stale(self, entry: ResidentColumn, catalog: "Catalog") -> bool:
        return (entry.catalog_id != id(catalog)
                or entry.version != catalog.version
                or entry.data_scale != self.device.data_scale)

    def lookup(self, ref: str, catalog: "Catalog",
               query_id: str) -> np.ndarray | None:
        """The cached full-column payload for *ref*, or None on a miss.

        A hit pins the entry for *query_id* until
        :meth:`release_query`; a stale entry (catalog changed, different
        ``data_scale``) is dropped on sight.
        """
        entry = self._entries.get(ref)
        if entry is not None and self._stale(entry, catalog):
            self._drop(entry)
            self.invalidations += 1
            entry = None
        if entry is None or not entry.complete:
            self.misses += 1
            return None
        self._tick += 1
        entry.last_used = self._tick
        entry.hits += 1
        self.hits += 1
        entry.pins.add(query_id)
        return self.device.memory.get(entry.alias).value  # type: ignore[return-value]

    def absorb(self, ref: str, catalog: "Catalog", query_id: str, *,
               start: int, payload: np.ndarray, total_rows: int) -> None:
        """Fold the chunk ``[start, start+len(payload))`` of *ref* into the
        cache as a side effect of the H2D transfer that just happened.

        The resident buffer is reserved on first contact (evicting colder
        entries if needed); once chunk coverage reaches the full column the
        entry becomes hit-eligible.  Out-of-order chunks are ignored — the
        execution models stream columns front to back.
        """
        entry = self._entries.get(ref)
        if entry is not None and self._stale(entry, catalog):
            self._drop(entry)
            self.invalidations += 1
            entry = None
        if entry is None:
            entry = self._admit(ref, catalog, payload.dtype, total_rows)
            if entry is None:
                return
        if start != entry.coverage or entry.complete:
            return
        mirror = self.device.memory.get(entry.alias).value
        mirror[start:start + payload.shape[0]] = payload
        entry.coverage = start + payload.shape[0]
        if entry.coverage >= entry.rows:
            entry.complete = True

    def _admit(self, ref: str, catalog: "Catalog", dtype: np.dtype,
               total_rows: int) -> ResidentColumn | None:
        key = (ref, id(catalog), catalog.version)
        if key in self._oversized or key in self._cooldown:
            return None
        device = self.device
        logical = total_rows * int(dtype.itemsize) * device.data_scale
        if logical > self.max_bytes:
            self._oversized.add(key)
            return None
        alias = f"resident:{ref}"
        if alias in device.memory:  # stale buffer from a dropped entry
            device.memory.free(alias, at_time=device.clock.now())
        if not self._reserve(alias, logical):
            self._oversized.add(key)
            return None
        device.memory.get(alias).value = np.empty(total_rows, dtype=dtype)
        self._tick += 1
        entry = ResidentColumn(
            ref=ref, alias=alias, rows=total_rows, catalog_id=id(catalog),
            version=catalog.version, data_scale=device.data_scale,
            last_used=self._tick,
        )
        self._entries[ref] = entry
        return entry

    def _reserve(self, alias: str, logical: int) -> bool:
        memory = self.device.memory
        for attempt in range(2):
            try:
                memory.allocate(alias, logical,
                                data_format=self.device.data_format,
                                at_time=self.device.clock.now(),
                                owner=RESIDENCY_OWNER)
                return True
            except DeviceMemoryError:
                if attempt or not self.evict_bytes(logical
                                                   - memory.device_free):
                    return False
        return False  # pragma: no cover - loop always returns

    # -- eviction / invalidation ---------------------------------------------

    def evict_bytes(self, nbytes: int) -> int:
        """Drop unpinned entries, coldest first, until at least *nbytes*
        of device memory has been released; returns bytes freed."""
        if nbytes <= 0:
            return 0
        freed = 0
        victims = sorted(
            (e for e in self._entries.values() if not e.pins),
            key=lambda e: (e.complete, e.last_used),
        )
        for entry in victims:
            freed += self._drop(entry)
            self.evictions += 1
            if freed >= nbytes:
                break
        return freed

    def _drop(self, entry: ResidentColumn) -> int:
        self._entries.pop(entry.ref, None)
        if not entry.complete:
            self._cooldown.add((entry.ref, entry.catalog_id, entry.version))
        memory = self.device.memory
        if entry.alias in memory:
            nbytes = memory.get(entry.alias).nbytes
            memory.free(entry.alias, at_time=self.device.clock.now())
            return nbytes
        return 0

    def release_query(self, query_id: str) -> None:
        """Unpin every entry *query_id* was holding (query finished).

        The absorption cooldown also lifts here: with one query gone the
        memory pressure that evicted half-filled entries has eased, so
        the next query may try to absorb those columns again.
        """
        for entry in self._entries.values():
            entry.pins.discard(query_id)
        self._cooldown.clear()

    def invalidate(self, ref: str | None = None) -> None:
        """Drop the entry for *ref*, or every entry when None."""
        entries = ([self._entries[ref]] if ref in self._entries
                   else [] if ref is not None
                   else list(self._entries.values()))
        for entry in entries:
            self._drop(entry)
            self.invalidations += 1

    def clear(self) -> None:
        """Forget all entries and retry history (device reset/unplug);
        hit/miss counters survive for engine-lifetime statistics."""
        self._entries.clear()
        self._oversized.clear()
        self._cooldown.clear()
