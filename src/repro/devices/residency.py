"""Cross-query data residency cache (engine mode).

The single-shot executor wipes every device between runs, so a base-table
column transferred for one query is paid for again by the next.  When
devices are owned by a long-lived :class:`~repro.engine.Engine` instead,
each device carries a :class:`ResidencyCache`: the first query that
streams a column through ``load_data`` *absorbs* it into a device-resident
buffer as a side effect of the H2D transfers it performs anyway, and later
queries that scan the same column receive it by device-internal copy at
memory bandwidth — no interconnect traffic at all.

Pinning, LRU eviction under memory pressure and invalidation (catalog
changed, different ``data_scale``) are :mod:`repro.devices.pinned_lru`'s;
this module is the admission policy: what fits, where it is reserved
and how chunk coverage turns into a hit-eligible column.

Cache buffers are charged to the pseudo-owner :data:`RESIDENCY_OWNER`, so
per-query allocation accounting and OOM reclamation never touch them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.devices.pinned_lru import PinnedEntry, PinnedLRU
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
class ResidentColumn(PinnedEntry):
    """Bookkeeping for one cached base-table column on one device."""

    ref: str
    alias: str
    rows: int
    coverage: int = 0
    complete: bool = False


class ResidencyCache(PinnedLRU):
    """LRU cache of device-resident base-table columns for one device."""

    STATS_KEYS = ("entries", "complete", "hits", "misses", "evictions",
                  "invalidations", "resident_bytes")

    def __init__(self, device: "SimulatedDevice") -> None:
        super().__init__()
        # Weak: the device owns its cache (``device.residency``), so a
        # dropped engine's devices are freed by reference counting.
        self._device = weakref.ref(device)
        #: (ref, catalog id, version) triples that did not fit in device
        #: memory — retried on the next catalog version, not per chunk.
        self._oversized: set[tuple[str, int, int]] = set()
        #: Entries evicted mid-absorption (cache buffers are unpinned
        #: while filling, so live queries can reclaim them); skipped
        #: until a query finishes, to avoid re-admission thrash within
        #: the very pass that is under memory pressure.
        self._cooldown: set[tuple[str, int, int]] = set()

    # -- queries -------------------------------------------------------------

    @property
    def device(self) -> "SimulatedDevice":
        return self._device()

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
        return super().stats(
            complete=sum(1 for e in self._entries.values() if e.complete),
            resident_bytes=self.resident_bytes)

    # -- lookup / absorb -----------------------------------------------------

    def lookup(self, ref: str, catalog: "Catalog",
               query_id: str) -> np.ndarray | None:
        """The cached full-column payload for *ref*, or None on a miss.

        A hit pins the entry for *query_id* until
        :meth:`release_query`; a stale entry (catalog changed, different
        ``data_scale``) is dropped on sight.
        """
        entry = self._current(ref, catalog, self.device.data_scale)
        if entry is None or not entry.complete:
            self.misses += 1
            return None
        self._hit(entry, query_id)
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
        entry = self._current(ref, catalog, self.device.data_scale)
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
        entry = ResidentColumn(
            ref=ref, alias=alias, rows=total_rows, catalog_id=id(catalog),
            version=catalog.version, data_scale=device.data_scale)
        self._store(ref, entry)
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

    def _eviction_key(self, entry: ResidentColumn) -> tuple[bool, int]:
        """Half-filled columns go before complete ones, then coldest."""
        return (entry.complete, entry.last_used)

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
        super().release_query(query_id)
        self._cooldown.clear()

    def clear(self) -> None:
        """Forget all entries and retry history (device reset/unplug);
        hit/miss counters survive for engine-lifetime statistics."""
        super().clear()
        self._oversized.clear()
        self._cooldown.clear()
