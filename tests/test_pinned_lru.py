"""The pinned-LRU core against a plain-dict model.

:class:`~repro.devices.pinned_lru.PinnedLRU` is the one mechanism under
:class:`~repro.devices.residency.ResidencyCache` and
:class:`~repro.engine.subplan_cache.SubplanCache`.  A Hypothesis state
machine drives a minimal store built on it — admission is "store if
absent", dropping frees the entry's bytes — through lookup, admit,
release, evict, invalidate and catalog-version bumps, under each of the
two caches' eviction keys, and compares it after every step with a
model that is a dict and a few integers:

* a pinned entry is never evicted;
* eviction is coldest-first among the unpinned (by the cache's key);
* the bytes freed cover the bytes asked, or nothing evictable is left;
* entries, pins, recency and all four counters equal the model's.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.devices.pinned_lru import PinnedEntry, PinnedLRU
from repro.devices.residency import ResidencyCache

KEYS = st.sampled_from(["a", "b", "c", "d", "e"])
QUERIES = st.sampled_from(["q1", "q2", "q3"])


@dataclass
class Item(PinnedEntry):
    key: str
    nbytes: int
    complete: bool


class Store(PinnedLRU):
    STATS_KEYS = ("entries", "hits", "misses", "evictions", "invalidations")

    def _drop(self, entry: Item) -> int:
        self._entries.pop(entry.key, None)
        return entry.nbytes


class ColumnStore(Store):
    """The same store under the residency cache's own eviction key."""

    _eviction_key = ResidencyCache._eviction_key


class PinnedLRUMachine(RuleBasedStateMachine):
    store_type = Store

    @staticmethod
    def coldness(item: dict):
        return item["last_used"]

    def __init__(self) -> None:
        super().__init__()
        self.cache = self.store_type()
        self.catalog = SimpleNamespace(version=0)
        #: key -> nbytes, complete, version, pins, hits, last_used
        self.model: dict[str, dict] = {}
        self.tick = 0
        self.counts = dict.fromkeys(
            ("hits", "misses", "evictions", "invalidations"), 0)

    def current(self, key: str) -> dict | None:
        """The model's ``_current``: a stale entry goes on sight."""
        item = self.model.get(key)
        if item is not None and item["version"] != self.catalog.version:
            del self.model[key]
            self.counts["invalidations"] += 1
            return None
        return item

    @rule(key=KEYS, nbytes=st.integers(1, 64), complete=st.booleans())
    def admit(self, key, nbytes, complete):
        if self.cache._current(key, self.catalog, 1) is None:
            self.cache._store(key, Item(
                key=key, nbytes=nbytes, complete=complete,
                catalog_id=id(self.catalog), version=self.catalog.version,
                data_scale=1))
        if self.current(key) is None:
            self.tick += 1
            self.model[key] = {
                "nbytes": nbytes, "complete": complete,
                "version": self.catalog.version, "pins": set(), "hits": 0,
                "last_used": self.tick}

    @rule(key=KEYS, query=QUERIES)
    def lookup(self, key, query):
        entry = self.cache._current(key, self.catalog, 1)
        if entry is None:
            self.cache.misses += 1
        else:
            self.cache._hit(entry, query)
        item = self.current(key)
        assert (entry is None) == (item is None)
        if item is None:
            self.counts["misses"] += 1
        else:
            self.tick += 1
            item["last_used"] = self.tick
            item["hits"] += 1
            item["pins"].add(query)
            self.counts["hits"] += 1

    @rule(query=QUERIES)
    def release(self, query):
        self.cache.release_query(query)
        for item in self.model.values():
            item["pins"].discard(query)

    @rule(nbytes=st.integers(-4, 200))
    def evict(self, nbytes):
        pinned = {key for key, item in self.model.items() if item["pins"]}
        coldest_first = sorted(
            (key for key in self.model if key not in pinned),
            key=lambda key: self.coldness(self.model[key]))
        expected, victims = 0, []
        for key in coldest_first:
            if expected >= nbytes:
                break
            expected += self.model[key]["nbytes"]
            victims.append(key)
        freed = self.cache.evict_bytes(nbytes)
        assert freed == expected
        assert freed >= nbytes or set(victims) == set(coldest_first)
        assert pinned <= set(self.cache._entries)
        for key in victims:
            del self.model[key]
        self.counts["evictions"] += len(victims)

    @rule(key=st.one_of(st.none(), KEYS))
    def invalidate(self, key):
        self.cache.invalidate(key)
        doomed = list(self.model) if key is None else \
            [key] if key in self.model else []
        for name in doomed:
            del self.model[name]
        self.counts["invalidations"] += len(doomed)

    @rule()
    def bump_catalog_version(self):
        self.catalog.version += 1

    @rule()
    def clear(self):
        self.cache.clear()
        self.model.clear()

    @invariant()
    def cache_equals_model(self):
        entries = self.cache._entries
        assert set(entries) == set(self.model)
        for key, item in self.model.items():
            entry = entries[key]
            assert (entry.pins, entry.hits, entry.last_used) == \
                (item["pins"], item["hits"], item["last_used"])
        assert self.cache.stats() == {"entries": len(self.model),
                                      **self.counts}
        holders: dict[str, int] = {}
        for item in self.model.values():
            for query in item["pins"]:
                holders[query] = holders.get(query, 0) + 1
        assert self.cache.pinned() == holders


class ColumnStoreMachine(PinnedLRUMachine):
    """Half-filled columns go before complete ones, then coldest."""

    store_type = ColumnStore

    @staticmethod
    def coldness(item: dict):
        return (item["complete"], item["last_used"])


PROFILE = settings(max_examples=60, stateful_step_count=40,
                   derandomize=True, deadline=None)
TestSubplanEvictionKey = PinnedLRUMachine.TestCase
TestSubplanEvictionKey.settings = PROFILE
TestResidencyEvictionKey = ColumnStoreMachine.TestCase
TestResidencyEvictionKey.settings = PROFILE


def test_one_byte_asked_evicts_the_coldest_unpinned_entry():
    store = Store()
    store._store("a", Item(catalog_id=0, version=0, data_scale=1, key="a",
                           nbytes=8, complete=True))
    assert store.evict_bytes(0) == 0 and store.evict_bytes(-1) == 0
    assert store.evict_bytes(1) == 8
    assert (len(store._entries), store.evictions) == (0, 1)
