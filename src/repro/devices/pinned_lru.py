"""The pinned-LRU mechanism both cross-query caches are built on.

:class:`~repro.devices.residency.ResidencyCache` and
:class:`~repro.engine.subplan_cache.SubplanCache` track, pin, evict and
release their entries here; each adds only its policy: how an entry is
admitted, what dropping one frees and which unpinned entry goes first.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage import Catalog

__all__ = ["PinnedEntry", "PinnedLRU"]


@dataclass(kw_only=True)
class PinnedEntry:
    """What the mechanism keeps per entry, whatever the cache stores."""

    #: Freshness key (:meth:`PinnedLRU._stale`).
    catalog_id: int
    version: int
    data_scale: int
    hits: int = 0
    last_used: int = 0
    #: Query ids currently reading the entry; pinned entries are not
    #: evictable, so an in-flight query never loses data under its feet.
    pins: set[str] = field(default_factory=set)


class PinnedLRU:
    """Entries by key with hit / pin / LRU bookkeeping and counters."""

    #: Key order of :meth:`stats` (published in ``BENCH_*.json``).
    STATS_KEYS: tuple[str, ...]

    def __init__(self) -> None:
        self._entries: dict[str, PinnedEntry] = {}
        self._tick = 0
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def _drop(self, entry: PinnedEntry) -> int:
        """Remove *entry* from ``_entries``; returns the bytes released."""
        raise NotImplementedError

    def _eviction_key(self, entry: PinnedEntry):
        return entry.last_used

    def stats(self, **own: int) -> dict[str, int]:
        figures = {"entries": len(self._entries), "hits": self.hits,
                   "misses": self.misses, "evictions": self.evictions,
                   "invalidations": self.invalidations, **own}
        return {key: figures[key] for key in self.STATS_KEYS}

    def pinned(self) -> dict[str, int]:
        """Entries each query still pins (empty when nothing is held)."""
        return dict(Counter(query_id for entry in self._entries.values()
                            for query_id in entry.pins))

    def _stale(self, entry: PinnedEntry, catalog: "Catalog",
               data_scale: int) -> bool:
        """Cached under another catalog object, version or scale."""
        return (entry.catalog_id != id(catalog)
                or entry.version != catalog.version
                or entry.data_scale != data_scale)

    def _current(self, key: str, *now) -> PinnedEntry | None:
        """The entry under *key*, or None; one that is stale *now* (the
        arguments of :meth:`_stale`) is dropped on sight and counted as
        an invalidation."""
        entry = self._entries.get(key)
        if entry is not None and self._stale(entry, *now):
            self._invalidate([entry])
            return None
        return entry

    def _hit(self, entry: PinnedEntry, query_id: str) -> None:
        """Count a hit, mark *entry* most recently used and pin it for
        *query_id* until :meth:`release_query`."""
        self._tick += 1
        entry.last_used = self._tick
        entry.hits += 1
        self.hits += 1
        entry.pins.add(query_id)

    def _store(self, key: str, entry: PinnedEntry) -> None:
        self._tick += 1
        entry.last_used = self._tick
        self._entries[key] = entry

    def evict_bytes(self, nbytes: int) -> int:
        """Drop unpinned entries, coldest first, until at least *nbytes*
        have been released; returns bytes freed."""
        if nbytes <= 0:
            return 0
        freed = 0
        for entry in sorted((e for e in self._entries.values()
                             if not e.pins), key=self._eviction_key):
            freed += self._drop(entry)
            self.evictions += 1
            if freed >= nbytes:
                break
        return freed

    def release_query(self, query_id: str) -> None:
        """Unpin every entry *query_id* was holding (query finished)."""
        for entry in self._entries.values():
            entry.pins.discard(query_id)

    def _invalidate(self, entries: Iterable[PinnedEntry]) -> None:
        entries = list(entries)
        for entry in entries:
            self._drop(entry)
        self.invalidations += len(entries)

    def invalidate(self, key: str | None = None) -> None:
        """Drop the entry under *key*, or every entry when None."""
        self._invalidate(self._entries.values() if key is None
                         else [self._entries[key]]
                         if key in self._entries else [])

    def clear(self) -> None:
        """Forget all entries; counters survive for engine-lifetime
        statistics."""
        self._entries.clear()
