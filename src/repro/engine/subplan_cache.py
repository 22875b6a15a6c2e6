"""Cross-query subplan result cache (engine mode).

The residency cache (:mod:`repro.devices.residency`) reuses *base-table
columns* across queries; this cache generalizes the idea to *computed
intermediates*.  When a query finishes a pipeline, the results that
outlive it — pipeline-breaker outputs like hash tables and aggregate
blocks, query outputs, and values feeding later pipelines — are
snapshotted into an engine-scope store keyed by the canonical
fingerprint of the subtree that produced them
(:func:`~repro.core.fingerprint.subplan_fingerprint`) plus catalog
identity/version and ``data_scale``.  A later query whose pipeline's
persisted set is fully covered skips the pipeline entirely: the cached
values are installed in device memory for the charge of a
device-internal copy (same device) or a host push (different device),
and none of the pipeline's kernels launch.

Because fingerprints are placement-, variant-, fusion-, model- and
chunk-invariant, a warm Q3 run under ``model="auto"`` hits the entries a
cold chunked Q3 wrote, and concurrent queries sharing a build side
(scheduled round-robin one pipeline at a time) execute it once.

Pinning, LRU eviction and invalidation (catalog changed, different
``data_scale``) are :mod:`repro.devices.pinned_lru`'s; this module adds
the byte budget and the device-health rule: entries whose producing
device is lost, quarantined or unplugged are dropped — results produced
by hardware that later proved faulty are re-derived rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.devices.pinned_lru import PinnedEntry, PinnedLRU

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage import Catalog

__all__ = ["SUBPLAN_CACHE_MAX_BYTES", "CachedSubplan", "SubplanCache"]

#: Default byte budget of the host-side subplan store (physical bytes,
#: before ``data_scale``): generous next to the tiny test catalogs, a
#: real bound for benchmark-scale aggregates.
SUBPLAN_CACHE_MAX_BYTES = 256 * 2**20


@dataclass
class CachedSubplan(PinnedEntry):
    """One cached intermediate result with its provenance."""

    fingerprint: str
    #: Node id of the producer at insert time (diagnostics only; the
    #: fingerprint, not the id, is the identity).
    node_id: str
    #: The runtime value (ndarray / Bitmap / HashTable / GroupTable ...).
    #: Kernels are pure, so sharing one object across queries is safe.
    value: object
    #: Physical payload bytes (``value_nbytes``; logical = * data_scale).
    nbytes: int
    #: Device that computed the value; entries from devices later lost,
    #: quarantined or unplugged are invalidated, not served.
    device: str


class SubplanCache(PinnedLRU):
    """Engine-scope LRU store of fingerprinted subplan results."""

    STATS_KEYS = ("entries", "hits", "misses", "insertions", "evictions",
                  "invalidations", "cached_bytes")

    def __init__(self, *, max_bytes: int = SUBPLAN_CACHE_MAX_BYTES) -> None:
        super().__init__()
        self.max_bytes = max_bytes
        self.insertions = 0

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def cached_bytes(self) -> int:
        return sum(entry.nbytes for entry in self._entries.values())

    def stats(self) -> dict[str, int]:
        return super().stats(insertions=self.insertions,
                             cached_bytes=self.cached_bytes)

    def _stale(self, entry: CachedSubplan, catalog: "Catalog",
               data_scale: int, healthy: set[str]) -> bool:
        return (super()._stale(entry, catalog, data_scale)
                or entry.device not in healthy)

    def peek(self, fingerprint: str, catalog: "Catalog", data_scale: int,
             healthy: set[str]) -> CachedSubplan | None:
        """The entry a lookup would hit, or None — used by the
        optimizer's pricing and EXPLAIN; touches no counters, pins
        nothing, drops nothing."""
        entry = self._entries.get(fingerprint)
        if entry is None or self._stale(entry, catalog, data_scale, healthy):
            return None
        return entry

    # -- lookup / insert -----------------------------------------------------

    def lookup(self, fingerprint: str, catalog: "Catalog",
               data_scale: int, query_id: str,
               healthy: set[str]) -> CachedSubplan | None:
        """The cached entry for *fingerprint*, or None on a miss.

        A hit pins the entry for *query_id* until
        :meth:`release_query`.  A stale entry (catalog changed,
        different ``data_scale``) or one whose producing device is no
        longer healthy is dropped on sight.
        """
        entry = self._current(fingerprint, catalog, data_scale, healthy)
        if entry is None:
            self.misses += 1
            return None
        self._hit(entry, query_id)
        return entry

    def insert(self, fingerprint: str, node_id: str, value: object, *,
               nbytes: int, device: str, catalog: "Catalog",
               data_scale: int, query_id: str,
               healthy: set[str]) -> CachedSubplan | None:
        """Store one persisted result; returns the entry, or None when
        it cannot be admitted (over budget and nothing evictable).

        An existing live entry is kept (first writer wins — both copies
        are byte-identical by construction) and pinned for *query_id*;
        one written by a device no longer in *healthy* is replaced, so a
        failed-over query's recomputed value is not discarded in favour
        of an entry the next lookup would drop.
        """
        entry = self._current(fingerprint, catalog, data_scale, healthy)
        if entry is not None:
            entry.pins.add(query_id)
            return entry
        if nbytes > self.max_bytes:
            return None
        needed = self.cached_bytes + nbytes - self.max_bytes
        if needed > 0 and self.evict_bytes(needed) < needed:
            return None
        entry = CachedSubplan(
            fingerprint=fingerprint, node_id=node_id, value=value,
            nbytes=nbytes, device=device, catalog_id=id(catalog),
            version=catalog.version, data_scale=data_scale,
            pins={query_id})
        self._store(fingerprint, entry)
        self.insertions += 1
        return entry

    # -- eviction / invalidation ---------------------------------------------

    def _drop(self, entry: CachedSubplan) -> int:
        self._entries.pop(entry.fingerprint, None)
        return entry.nbytes

    def release_query(self, query_id: str) -> None:
        # Defined here, not inherited: perf/spans.py rebinds the targets
        # it times through ``vars(cls)``.
        super().release_query(query_id)

    def invalidate_device(self, device: str) -> None:
        """Drop every entry computed on *device* (unplugged or dead)."""
        self._invalidate(entry for entry in self._entries.values()
                         if entry.device == device)

    def sweep(self, healthy: set[str]) -> None:
        """Drop entries whose producing device is not in *healthy* (the
        engine calls this after every scheduler run, so entries written
        by a device that faulted mid-stream do not outlive the wave)."""
        self._invalidate(entry for entry in self._entries.values()
                         if entry.device not in healthy)
