"""The cross-query subplan result cache: hits, identity, invalidation.

Engine-level tests pin the contract — warm reruns are served without
launching kernels yet stay byte-identical to uncached execution, and
entries die when the catalog, ``data_scale``, or their producing device
changes underneath — while the unit tests cover the store's pin / LRU /
first-writer semantics directly.
"""

import numpy as np
import pytest

from repro.core.fingerprint import subplan_fingerprint
from repro.core.graph import PrimitiveGraph
from repro.devices import CudaDevice, OpenMPDevice
from repro.engine import Engine, QueryRequest, SubplanCache
from repro.errors import GraphValidationError
from repro.hardware import CPU_I7_8700, GPU_RTX_2080_TI
from repro.tpch.queries import q3, q6

CHUNK = 1024


def gpu_engine(**kwargs) -> Engine:
    engine = Engine(**kwargs)
    engine.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI)
    return engine


def hybrid_engine(**kwargs) -> Engine:
    engine = Engine(**kwargs)
    engine.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI, default=True)
    engine.plug_device("cpu0", OpenMPDevice, CPU_I7_8700)
    return engine


def blob(outputs):
    return tuple(sorted(
        (key, value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, np.ndarray) else (key, repr(value))
        for key, value in outputs.items()))


class TestWarmReuse:
    def test_warm_rerun_is_served_without_kernels(self, tiny_catalog):
        engine = gpu_engine()
        cold = engine.execute(q3.build(tiny_catalog), tiny_catalog,
                              chunk_size=CHUNK)
        warm = engine.execute(q3.build(tiny_catalog), tiny_catalog,
                              chunk_size=CHUNK)
        assert cold.stats.subplan_cache_hits == 0
        assert cold.stats.subplan_cache_misses > 0
        assert warm.stats.subplan_cache_hits > 0
        assert warm.stats.subplan_cache_misses == 0
        assert warm.stats.kernels_launched == 0
        assert warm.stats.makespan < cold.stats.makespan
        assert blob(warm.outputs) == blob(cold.outputs)

    def test_cached_outputs_match_uncached_engine(self, tiny_catalog):
        cached = gpu_engine()
        cached.execute(q3.build(tiny_catalog), tiny_catalog,
                       chunk_size=CHUNK)
        warm = cached.execute(q3.build(tiny_catalog), tiny_catalog,
                              chunk_size=CHUNK)
        plain = gpu_engine(enable_subplan_cache=False)
        baseline = plain.execute(q3.build(tiny_catalog), tiny_catalog,
                                 chunk_size=CHUNK)
        assert baseline.stats.subplan_cache_hits == 0
        assert blob(warm.outputs) == blob(baseline.outputs)

    @pytest.mark.parametrize("warm_model", ["oaat", "pipelined",
                                            "four_phase_chunked", "auto"])
    def test_hits_cross_execution_models(self, tiny_catalog, warm_model):
        """Fingerprints ignore model and chunking: entries a chunked
        run wrote serve any other model's identical plan."""
        engine = gpu_engine()
        engine.execute(q3.build(tiny_catalog), tiny_catalog,
                       model="chunked", chunk_size=CHUNK)
        warm = engine.execute(q3.build(tiny_catalog), tiny_catalog,
                              model=warm_model, chunk_size=4096)
        assert warm.stats.subplan_cache_hits > 0
        assert warm.stats.kernels_launched == 0

    def test_hits_cross_fusion_choices(self, tiny_catalog):
        """Fused nodes canonicalize back to their unfused subtree, so
        an unfused cold run serves a fused warm run."""
        engine = gpu_engine()
        engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        warm = engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK,
                              fuse=True)
        assert warm.stats.subplan_cache_hits > 0
        assert warm.stats.kernels_launched == 0

    def test_concurrent_identical_queries_dedup(self, tiny_catalog):
        """Round-robin scheduling completes one query's pipeline before
        the twin attempts it, so a batch computes shared work once."""
        engine = gpu_engine()
        results = engine.run_concurrent([
            QueryRequest(graph=q3.build(tiny_catalog),
                         catalog=tiny_catalog, chunk_size=CHUNK)
            for _ in range(2)
        ])
        assert blob(results[0].outputs) == blob(results[1].outputs)
        assert sum(r.stats.subplan_cache_hits for r in results) > 0
        stats = engine.subplan_stats()
        assert stats["hits"] > 0

    def test_metrics_and_stats_surface(self, tiny_catalog):
        engine = gpu_engine()
        engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        stats = engine.subplan_stats()
        assert stats["entries"] > 0
        assert stats["hits"] > 0 and stats["insertions"] > 0
        assert engine.metrics.total(
            "adamant_subplan_cache_hits_total") == stats["hits"]
        assert engine.metrics.total(
            "adamant_subplan_cache_misses_total") > 0
        assert engine.metrics.value(
            "adamant_subplan_cached_bytes") == stats["cached_bytes"]

    def test_opt_outs(self, tiny_catalog):
        disabled = gpu_engine(enable_subplan_cache=False)
        disabled.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        warm = disabled.execute(q6.build(), tiny_catalog,
                                chunk_size=CHUNK)
        assert warm.stats.subplan_cache_hits == 0
        assert disabled.subplan_cache is None

        fresh = gpu_engine()
        fresh.execute(q6.build(), tiny_catalog, chunk_size=CHUNK,
                      fresh=True)
        # Single-shot facade runs never touch the engine cache.
        assert fresh.subplan_stats()["entries"] == 0


class TestExplainAnnotation:
    def test_explain_marks_cached_nodes(self, tiny_catalog):
        from repro.observe import explain

        engine = gpu_engine()
        kwargs = dict(devices=engine.devices, default_device="gpu0",
                      chunk_size=CHUNK)
        cold = explain(q6.build(), tiny_catalog,
                       subplan_cache=engine.subplan_cache, **kwargs)
        assert "[cached]" not in cold
        engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        warm = explain(q6.build(), tiny_catalog,
                       subplan_cache=engine.subplan_cache, **kwargs)
        assert "[cached]" in warm
        # Probing is read-only and the default render is unchanged.
        assert engine.subplan_stats()["hits"] == 0
        assert explain(q6.build(), tiny_catalog, **kwargs) == cold


class TestInvalidation:
    def test_catalog_version_change_invalidates(self, tiny_catalog):
        engine = gpu_engine()
        engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        assert engine.subplan_stats()["entries"] > 0
        tiny_catalog.add(tiny_catalog.table("lineitem"))
        warm = engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        assert warm.stats.subplan_cache_hits == 0
        assert engine.subplan_stats()["invalidations"] > 0

    def test_data_scale_change_misses(self, tiny_catalog):
        engine = gpu_engine()
        engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK,
                       data_scale=1)
        warm = engine.execute(q6.build(), tiny_catalog, chunk_size=2048,
                              data_scale=2)
        assert warm.stats.subplan_cache_hits == 0

    def test_unplug_device_drops_its_entries(self, tiny_catalog):
        engine = hybrid_engine()
        engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        assert engine.subplan_stats()["entries"] > 0
        engine.unplug_device("gpu0")
        assert engine.subplan_stats()["entries"] == 0
        warm = engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK,
                              default_device="cpu0")
        assert warm.stats.subplan_cache_hits == 0


class TestFingerprints:
    def test_fusion_transparent(self, tiny_catalog):
        from repro.planner.fusion import fuse_graph

        plain = q6.build()
        fused = fuse_graph(q6.build())
        for nid in plain.outputs:
            assert subplan_fingerprint(plain, nid) == \
                subplan_fingerprint(fused, nid)

    def test_distinct_plans_differ(self, tiny_catalog):
        g3, g6 = q3.build(tiny_catalog), q6.build()
        fps = {subplan_fingerprint(g3, nid) for nid in g3.outputs}
        fps |= {subplan_fingerprint(g6, nid) for nid in g6.outputs}
        assert len(fps) == len(g3.outputs) + len(g6.outputs)

    def test_param_changes_differ(self, tiny_catalog):
        from repro.tpch.queries import q18

        lo = q18.build(quantity=220)
        hi = q18.build(quantity=300)
        # The threshold feeds build_orders; agg_qty is upstream of the
        # filter and must (correctly) fingerprint the same.
        assert subplan_fingerprint(lo, "build_orders") != \
            subplan_fingerprint(hi, "build_orders")
        assert subplan_fingerprint(lo, "agg_qty") == \
            subplan_fingerprint(hi, "agg_qty")

    @staticmethod
    def _filter_on(value):
        graph = PrimitiveGraph()
        graph.add_node("f", "filter_bitmap", params=dict(cmp="eq",
                                                         value=value))
        graph.connect("t.c", "f", 0)
        return subplan_fingerprint(graph, "f")

    def test_long_array_literals_are_hashed_not_elided(self):
        # repr() of an array over 1,000 elements drops its middle.
        values = np.arange(2000)
        changed = values.copy()
        changed[1000] += 1
        assert "..." in repr(values)
        assert self._filter_on(values) != self._filter_on(changed)
        assert self._filter_on(values) == self._filter_on(values.copy())
        assert self._filter_on(values) != self._filter_on(
            values.astype(np.int32))
        assert self._filter_on(values) != self._filter_on(
            values.reshape(2, 1000))

    def test_numpy_scalars_name_what_python_scalars_name(self):
        assert self._filter_on(np.int64(3)) == self._filter_on(3)
        assert self._filter_on(np.float64(0.5)) == self._filter_on(0.5)
        assert self._filter_on(np.str_("a")) == self._filter_on("a")
        assert self._filter_on(3) != self._filter_on(3.0)
        assert self._filter_on(1) != self._filter_on(True)
        assert self._filter_on("3") != self._filter_on(3)
        assert self._filter_on(b"3") != self._filter_on("3")

    @pytest.mark.parametrize("value", [
        {1, 2}, object(), np.array(["a", None], dtype=object),
        np.datetime64("1995-03-15"), lambda row: row])
    def test_leaf_without_a_faithful_name_is_refused(self, value):
        with pytest.raises(GraphValidationError, match="fingerprint"):
            self._filter_on(value)
        with pytest.raises(GraphValidationError, match="fingerprint"):
            self._filter_on([1, (2, {"nested": value})])


class TestStoreSemantics:
    def _insert(self, cache, catalog, fingerprint, *, nbytes=100,
                device="gpu0", query="qA", value=None,
                healthy=frozenset({"gpu0", "cpu0"})):
        return cache.insert(
            fingerprint, "n0",
            value if value is not None else np.zeros(4),
            nbytes=nbytes, device=device, catalog=catalog,
            data_scale=1, query_id=query, healthy=healthy)

    def test_pinned_entries_survive_pressure(self, tiny_catalog):
        cache = SubplanCache(max_bytes=250)
        assert self._insert(cache, tiny_catalog, "a", query="qA")
        # qA still pins "a": the second insert must evict, cannot, and
        # is rejected rather than tossing a live consumer's data.
        assert self._insert(cache, tiny_catalog, "b", nbytes=200,
                            query="qB") is None
        cache.release_query("qA")
        assert self._insert(cache, tiny_catalog, "b", nbytes=200,
                            query="qB") is not None
        assert cache.peek("a", tiny_catalog, 1, {"gpu0"}) is None

    def test_lru_eviction_order(self, tiny_catalog):
        cache = SubplanCache(max_bytes=300)
        for name in ("a", "b", "c"):
            self._insert(cache, tiny_catalog, name, query="q1")
        cache.release_query("q1")
        cache.lookup("a", tiny_catalog, 1, "q2", {"gpu0"})  # refresh a
        cache.release_query("q2")
        self._insert(cache, tiny_catalog, "d", query="q3")
        held = {fp for fp in ("a", "b", "c", "d")
                if cache.peek(fp, tiny_catalog, 1, {"gpu0"})}
        assert "b" not in held and "a" in held and "d" in held

    def test_first_writer_wins(self, tiny_catalog):
        cache = SubplanCache()
        first = self._insert(cache, tiny_catalog, "a", query="qA")
        again = self._insert(cache, tiny_catalog, "a", query="qB",
                             value=np.ones(4))
        assert again is first
        assert again.pins == {"qA", "qB"}
        assert cache.stats()["insertions"] == 1

    def test_dead_writers_entry_is_replaced(self, tiny_catalog):
        """First writer wins only while its device is healthy: after a
        failover the survivor's recomputed value takes the slot instead
        of being discarded for an entry the next lookup would drop."""
        cache = SubplanCache()
        self._insert(cache, tiny_catalog, "a", device="gpu0", query="qA")
        fresh = self._insert(cache, tiny_catalog, "a", device="cpu0",
                             query="qA", value=np.ones(4),
                             healthy={"cpu0"})
        assert fresh.device == "cpu0"
        assert cache.lookup("a", tiny_catalog, 1, "qB", {"cpu0"}) is fresh
        stats = cache.stats()
        assert (stats["entries"], stats["insertions"],
                stats["invalidations"]) == (1, 2, 1)

    def test_peek_touches_nothing(self, tiny_catalog):
        cache = SubplanCache()
        self._insert(cache, tiny_catalog, "a")
        before = cache.stats()
        assert cache.peek("a", tiny_catalog, 1, {"gpu0"}) is not None
        assert cache.peek("a", tiny_catalog, 1, set()) is None
        assert cache.stats() == before

    def test_oversized_value_rejected(self, tiny_catalog):
        cache = SubplanCache(max_bytes=10)
        assert self._insert(cache, tiny_catalog, "a",
                            nbytes=11) is None
        assert len(cache) == 0

    def test_invalidate_and_clear(self, tiny_catalog):
        cache = SubplanCache()
        self._insert(cache, tiny_catalog, "a")
        self._insert(cache, tiny_catalog, "b")
        cache.invalidate("a")
        assert cache.peek("a", tiny_catalog, 1, {"gpu0"}) is None
        assert cache.peek("b", tiny_catalog, 1, {"gpu0"}) is not None
        cache.invalidate()
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 2
