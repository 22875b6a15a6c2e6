"""Multi-query engine: sessions, scheduling, residency, isolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro import AdamantExecutor, Engine, QueryRequest
from repro.core.models import MODELS
from repro.devices import CudaDevice, OpenMPDevice
from repro.devices.residency import RESIDENCY_OWNER
from repro.errors import (
    ExecutionError,
    QueryAdmissionError,
    QueryBudgetError,
)
from repro.hardware import CPU_I7_8700, GPU_RTX_2080_TI
from repro.tpch import reference
from repro.tpch.queries import q1, q3, q4, q6
from tests.conftest import assert_quiescent, make_executor

CHUNK = 2048


def make_engine(**kwargs) -> Engine:
    engine = Engine(**kwargs)
    engine.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI)
    return engine


def blob(value):
    """Canonical byte-level form of a query output for exact comparison."""
    if isinstance(value, np.ndarray):
        return ("nd", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return ("map", tuple(sorted((k, blob(v)) for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(blob(v) for v in value))
    if hasattr(value, "__dict__"):
        return ("obj", type(value).__name__, tuple(
            sorted((k, blob(v)) for k, v in vars(value).items())))
    return ("lit", repr(value))


def assert_identical_outputs(a, b):
    assert blob(a.outputs) == blob(b.outputs)


def three_queries(catalog):
    """(module, graph) for the mixed Q3/Q4/Q6 batch, fresh graphs."""
    return [(q3, q3.build(catalog)), (q4, q4.build()), (q6, q6.build())]


class TestFacadeDeterminism:
    """The single-shot facade keeps its original reset-world semantics."""

    def test_successive_runs_identical(self, tiny_catalog, gpu_executor):
        first = gpu_executor.run(q6.build(), tiny_catalog, chunk_size=CHUNK)
        second = gpu_executor.run(q6.build(), tiny_catalog, chunk_size=CHUNK)
        assert first.stats.makespan == second.stats.makespan
        assert_identical_outputs(first, second)

    def test_data_scale_does_not_leak(self, tiny_catalog, gpu_executor):
        scaled = gpu_executor.run(q6.build(), tiny_catalog,
                                  chunk_size=2048, data_scale=64)
        assert gpu_executor.devices["dev0"].data_scale == 64
        plain = gpu_executor.run(q6.build(), tiny_catalog, chunk_size=CHUNK)
        assert gpu_executor.devices["dev0"].data_scale == 1
        assert plain.stats.makespan != scaled.stats.makespan
        reference = make_executor()
        baseline = reference.run(q6.build(), tiny_catalog, chunk_size=CHUNK)
        assert plain.stats.makespan == baseline.stats.makespan

    def test_unplug_releases_device_state(self, tiny_catalog):
        executor = AdamantExecutor()
        device = executor.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI)
        executor.run(q6.build(), tiny_catalog, chunk_size=CHUNK)
        executor.unplug_device("dev0")
        assert not device.data_container.transforms
        assert not device.memory.aliases()
        # Re-plugging the same name (even a different driver) starts clean.
        executor.plug_device("dev0", OpenMPDevice, CPU_I7_8700)
        replug = executor.run(q6.build(), tiny_catalog, chunk_size=CHUNK)
        reference = make_executor(OpenMPDevice, CPU_I7_8700)
        baseline = reference.run(q6.build(), tiny_catalog, chunk_size=CHUNK)
        assert replug.stats.makespan == baseline.stats.makespan


def test_fused_probe_nodes_count_the_fused_nodes_that_probe(tiny_catalog):
    engine = Engine()
    engine.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI)
    result = engine.execute(q3.build(tiny_catalog), tiny_catalog,
                            chunk_size=1024, fuse=True)
    assert (result.stats.fused_nodes, result.stats.fused_probe_nodes) == (6, 2)


class TestConcurrentCorrectness:
    """Interleaved execution must not change what queries compute."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_concurrent_matches_sequential(self, tiny_catalog, model):
        sequential = []
        executor = make_executor()
        for _, graph in three_queries(tiny_catalog):
            sequential.append(executor.run(graph, tiny_catalog,
                                           model=model, chunk_size=CHUNK))
        engine = make_engine()
        concurrent = engine.run_concurrent([
            QueryRequest(graph=graph, catalog=tiny_catalog, model=model,
                         chunk_size=CHUNK)
            for _, graph in three_queries(tiny_catalog)
        ])
        for seq, conc in zip(sequential, concurrent):
            assert_identical_outputs(seq, conc)
        combined = max(r.stats.makespan for r in concurrent)
        total_sequential = sum(r.stats.makespan for r in sequential)
        assert combined <= total_sequential

    def test_shared_graph_instance_accepted(self, tiny_catalog):
        graph = q6.build()
        shared = make_engine().run_concurrent([
            QueryRequest(graph=graph, catalog=tiny_catalog, chunk_size=CHUNK)
            for _ in range(2)])
        separate = make_engine().run_concurrent([
            QueryRequest(graph=q6.build(), catalog=tiny_catalog,
                         chunk_size=CHUNK)
            for _ in range(2)])
        for got, want in zip(shared, separate):
            assert_identical_outputs(got, want)
            assert got.stats.makespan == want.stats.makespan

    def test_more_requests_than_slots_run_in_waves(self, tiny_catalog):
        engine = make_engine(max_concurrent=2)
        results = engine.run_concurrent([
            QueryRequest(graph=q6.build(), catalog=tiny_catalog,
                         chunk_size=CHUNK)
            for _ in range(5)
        ])
        assert len(results) == 5
        answers = {q6.finalize(r, tiny_catalog) for r in results}
        assert len(answers) == 1


class TestResidencyCache:
    """Columns one query transferred are reused by later queries."""

    def test_warm_rerun_transfers_strictly_less(self, tiny_catalog):
        # Subplan caching would serve the warm rerun outright; disable
        # it so the column-residency layer itself is exercised.
        engine = make_engine(enable_subplan_cache=False)
        cold = engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        warm = engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        assert cold.stats.transfer_bytes > 0
        assert warm.stats.transfer_bytes < cold.stats.transfer_bytes
        assert warm.stats.residency_hits > 0
        assert warm.stats.residency_hit_bytes > 0
        assert cold.stats.residency_hits == 0
        assert_identical_outputs(cold, warm)

    def test_warm_makespan_not_worse(self, tiny_catalog):
        engine = make_engine()
        cold = engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        warm = engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        assert warm.stats.makespan <= cold.stats.makespan

    def test_catalog_change_invalidates(self, tiny_catalog):
        engine = make_engine()
        engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        device = engine.devices["dev0"]
        assert device.residency.stats()["complete"] > 0
        # Re-registering a table bumps the catalog version: cached
        # columns may be stale and must not be served any more.
        tiny_catalog.add(tiny_catalog.table("lineitem"))
        result = engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        assert result.stats.residency_hits == 0
        assert device.residency.invalidations > 0

    def test_data_scale_change_invalidates(self, tiny_catalog):
        engine = make_engine()
        engine.execute(q6.build(), tiny_catalog, chunk_size=2048,
                       data_scale=64)
        result = engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        assert result.stats.residency_hits == 0

    def test_residency_buffers_not_query_owned(self, tiny_catalog):
        engine = make_engine()
        engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        device = engine.devices["dev0"]
        assert device.memory.owner_used(RESIDENCY_OWNER) > 0
        assert device.memory.owned_aliases(RESIDENCY_OWNER) == sorted(
            a for a in device.memory.aliases() if a.startswith("resident:"))

    def test_growing_a_combined_result_evicts_resident_columns(
            self, small_catalog):
        # Q6 and Q1 leave ~1.6 MB of unpinned lineitem columns resident
        # on a 2.2 MB device; Q3's combined hash-build result outgrows
        # its last chunk's buffer.  That growth yields the cache's
        # columns like any allocation instead of failing the query into
        # the scheduler's OOM ladder.
        engine = Engine()
        engine.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI,
                           memory_limit=2_200_000)
        engine.execute(q6.build(), small_catalog, chunk_size=CHUNK)
        engine.execute(q1.build(), small_catalog, chunk_size=CHUNK)
        evicted = engine.residency_stats()["dev0"]["evictions"]
        result = engine.execute(q3.build(small_catalog), small_catalog,
                                chunk_size=CHUNK)
        assert result.stats.oom_recoveries == 0
        assert engine.residency_stats()["dev0"]["evictions"] > evicted
        assert q3.finalize(result, small_catalog) == \
            reference.q3(small_catalog)

    def test_facade_has_no_residency(self, tiny_catalog, gpu_executor):
        assert gpu_executor.devices["dev0"].residency is None
        result = gpu_executor.run(q6.build(), tiny_catalog, chunk_size=CHUNK)
        assert result.stats.residency_hits == 0


class TestSessionsAndIsolation:
    def test_admission_limit(self, tiny_catalog):
        engine = make_engine(max_concurrent=2)
        first = engine.open_session()
        second = engine.open_session()
        with pytest.raises(QueryAdmissionError):
            engine.open_session()
        second.close()
        with engine.open_session() as third:
            assert third.query_id not in (first.query_id, second.query_id)
        assert engine.active_sessions == 1
        first.close()
        assert engine.active_sessions == 0

    def test_session_cleanup_frees_owner_memory(self, tiny_catalog):
        engine = make_engine()
        with engine.open_session() as session:
            result = engine.execute(q6.build(), tiny_catalog,
                                    chunk_size=CHUNK, session=session)
            assert result.stats.query_id == session.query_id
            assert session.makespan == result.stats.makespan
        device = engine.devices["dev0"]
        assert device.memory.owner_used(session.query_id) == 0
        assert not device.memory.owned_aliases(session.query_id)

    def test_holdings_name_what_a_query_in_flight_holds(self, tiny_catalog):
        engine = make_engine(enable_subplan_cache=False)
        engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        seen = []

        class Gate:
            def checkpoint(self, model):
                seen.append(engine.holdings())

        with engine.open_session(memory_budget=2**30) as session:
            session.gate = Gate()
            engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK,
                           session=session)
            # Finishing let go of everything; the open session holds
            # only its admission slot.
            assert engine.holdings() == {}
        assert set(seen[-1]) == {session.query_id}
        held = seen[-1][session.query_id]
        assert held["pins"] > 0  # resident columns the warm run reads
        assert held["buffers"] > 0 and held["bytes"] > 0
        assert held["budgets"] == len(engine.devices)
        assert_quiescent(engine)

    def test_budget_oom_is_isolated(self, tiny_catalog):
        engine = make_engine()
        results = engine.run_concurrent(
            [
                QueryRequest(graph=q6.build(), catalog=tiny_catalog,
                             chunk_size=CHUNK, memory_budget=64,
                             label="starved"),
                QueryRequest(graph=q6.build(), catalog=tiny_catalog,
                             chunk_size=CHUNK, label="healthy"),
            ],
            return_exceptions=True,
        )
        assert isinstance(results[0], QueryBudgetError)
        healthy = results[1]
        reference = make_executor()
        baseline = reference.run(q6.build(), tiny_catalog, chunk_size=CHUNK)
        assert q6.finalize(healthy, tiny_catalog) == \
            q6.finalize(baseline, tiny_catalog)
        # The failed query's buffers are fully reclaimed.
        device = engine.devices["dev0"]
        assert not any(device.memory.get(a).owner.startswith("q")
                       for a in device.memory.aliases())

    def test_budget_failure_raised_without_flag(self, tiny_catalog):
        engine = make_engine()
        with pytest.raises(QueryBudgetError):
            engine.run_concurrent([
                QueryRequest(graph=q6.build(), catalog=tiny_catalog,
                             chunk_size=CHUNK, memory_budget=64),
            ])

    def test_per_query_makespans_on_shared_timeline(self, tiny_catalog):
        engine = make_engine()
        results = engine.run_concurrent([
            QueryRequest(graph=graph, catalog=tiny_catalog,
                         chunk_size=CHUNK)
            for _, graph in three_queries(tiny_catalog)
        ])
        for result in results:
            assert result.stats.makespan > 0
        # A second batch starts a new epoch: makespans are measured from
        # the epoch start, not from the engine's birth.
        again = engine.run_concurrent([
            QueryRequest(graph=graph, catalog=tiny_catalog,
                         chunk_size=CHUNK)
            for _, graph in three_queries(tiny_catalog)
        ])
        for first, second in zip(results, again):
            assert second.stats.makespan <= first.stats.makespan * 1.5


class TestEngineDeviceManagement:
    def test_unplug_replug_same_name(self, tiny_catalog):
        engine = make_engine()
        engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        engine.unplug_device("dev0")
        assert engine.devices == {}
        engine.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI)
        result = engine.execute(q6.build(), tiny_catalog, chunk_size=CHUNK)
        assert result.stats.residency_hits == 0  # cache did not survive

    def test_unknown_model_rejected_before_admission(self, tiny_catalog):
        engine = make_engine()
        with pytest.raises(ExecutionError, match="unknown execution model"):
            engine.run_concurrent([
                QueryRequest(graph=q6.build(), catalog=tiny_catalog,
                             model="nope", chunk_size=CHUNK),
            ])
        assert engine.active_sessions == 0
