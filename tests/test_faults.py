"""Fault injection and fault-tolerant execution.

The contract under test: with recovery enabled, every injected-fault run
must complete *byte-identical* to its fault-free run — retries, OOM
degradation and device failover change the timeline, never the answer.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro import Engine, FaultPlan, FaultSpec, QueryRequest, RetryPolicy
from repro.core.fingerprint import subplan_fingerprint
from repro.core.pipelines import halve_chunk
from repro.devices import CudaDevice, OpenMPDevice
from repro.errors import (
    DeviceLostError,
    DeviceMemoryError,
    FaultConfigError,
    KernelCompilationError,
    QueryBudgetError,
    RetryExhaustedError,
    TransientDeviceError,
    UnknownBufferError,
)
from repro.faults.plan import FaultKind
from repro.hardware import CPU_I7_8700, GPU_RTX_2080_TI
from repro.hardware.trace import counters
from repro.tpch import reference
from repro.tpch.queries import QUERIES, q3, q4, q6
from tests.test_timeline_golden import load_tool

CHUNK = 2048


#: The cell table's digest of an output's types, shapes and bytes.
blob = load_tool().outputs_sha


def gpu_engine(faults=None, **kwargs) -> Engine:
    engine = Engine(faults=faults, **kwargs)
    engine.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI)
    return engine


def reasons(engine: Engine) -> list[str]:
    """The scheduler's recovery markers, in order, without the query id:
    which rung of which ladder each restart took."""
    return [event.label.rsplit(":", 1)[0].removeprefix("recovery:")
            for event in engine.clock.events
            if event.category == "recovery"]


def hybrid_engine(faults=None, *, gpu_memory_limit=None, **kwargs) -> Engine:
    engine = Engine(faults=faults, **kwargs)
    engine.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI,
                       memory_limit=gpu_memory_limit, default=True)
    engine.plug_device("cpu0", OpenMPDevice, CPU_I7_8700)
    return engine


class TestFaultPlanParsing:
    def test_full_grammar(self):
        plan = FaultPlan.parse(
            "gpu0:transient:0.05,*:latency:0.1x8,"
            "gpu0:oom:0.02:hash_build,cpu0:device_loss:40,seed=7")
        assert plan.seed == 7
        kinds = [spec.kind for spec in plan.specs]
        assert kinds == [FaultKind.TRANSIENT, FaultKind.LATENCY,
                         FaultKind.OOM, FaultKind.DEVICE_LOSS]
        latency = plan.specs[1]
        assert latency.device == "*" and latency.rate == 0.1 \
            and latency.factor == 8.0
        assert plan.specs[2].primitive == "hash_build"
        assert plan.specs[3].after == 40

    def test_latency_defaults_factor(self):
        plan = FaultPlan.parse("gpu0:latency:0.5")
        assert plan.specs[0].factor == 4.0

    @pytest.mark.parametrize("spec", [
        "", "seed=7", "gpu0:transient", "gpu0:bogus:0.1",
        "gpu0:transient:nan?", "gpu0:transient:1.5",
        "gpu0:latency:0.1x0.5", "gpu0:device_loss:-1",
        "seed=x,gpu0:transient:0.1", "gpu0:transient:0.1:map:extra",
    ])
    def test_bad_specs_are_user_errors(self, spec):
        with pytest.raises(FaultConfigError):
            FaultPlan.parse(spec)

    def test_rate_validation_on_add(self):
        with pytest.raises(FaultConfigError):
            FaultPlan([FaultSpec(kind=FaultKind.TRANSIENT, rate=2.0)])

    def test_injector_scoping(self):
        plan = FaultPlan.parse("gpu0:transient:0.1")
        assert plan.injector_for("cpu0") is None
        injector = plan.injector_for("gpu0")
        assert injector is not None and len(injector.specs) == 1
        wildcard = FaultPlan.parse("*:transient:0.1")
        assert wildcard.injector_for("anything") is not None

    def test_injector_streams_are_deterministic_per_device(self):
        plan = FaultPlan.parse("*:transient:0.5,seed=11")
        a1 = plan.injector_for("gpu0").rng.random(8).tolist()
        a2 = plan.injector_for("gpu0").rng.random(8).tolist()
        b = plan.injector_for("gpu1").rng.random(8).tolist()
        assert a1 == a2
        assert a1 != b


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(max_attempts=4, base_backoff=1e-4,
                             multiplier=2.0)
        assert [policy.backoff_seconds(i) for i in (1, 2, 3)] == \
            [1e-4, 2e-4, 4e-4]

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0}, {"base_backoff": -1.0}, {"multiplier": 0.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(FaultConfigError):
            RetryPolicy(**kwargs)


class TestChaosEquivalence:
    """Injected faults cost time, never an answer byte."""

    def test_latency_faults_slow_but_do_not_corrupt(self, tiny_catalog):
        baseline = gpu_engine().execute(q6.build(), tiny_catalog,
                                        chunk_size=1024)
        slowed = gpu_engine(FaultPlan.parse("*:latency:1.0x16,seed=1")) \
            .execute(q6.build(), tiny_catalog, chunk_size=1024)
        assert blob(slowed.outputs) == blob(baseline.outputs)
        assert slowed.stats.makespan > baseline.stats.makespan
        assert slowed.stats.retries == 0

    def test_retries_are_observed_and_charged(self, tiny_catalog):
        engine = gpu_engine(FaultPlan.parse("*:transient:0.1,seed=7"))
        result = engine.execute(q3.build(tiny_catalog), tiny_catalog,
                                chunk_size=1024)
        assert result.stats.retries > 0
        counts = counters(engine.clock)
        assert counts["retries"] == result.stats.retries
        assert any(e.category == "backoff" and e.duration > 0
                   for e in engine.clock.events)


class TestRetryExhaustion:
    def test_exhaustion_without_fallback_fails_with_context(self,
                                                            tiny_catalog):
        engine = gpu_engine(FaultPlan.parse("gpu0:transient:1.0,seed=1"))
        with pytest.raises(DeviceLostError):
            # Rate 1.0 exhausts every retry; the circuit breaker then
            # quarantines gpu0 and failover finds no survivors.
            engine.execute(q6.build(), tiny_catalog, chunk_size=1024)
        assert engine.quarantined_devices == ["gpu0"]

    def test_exhaustion_with_fallback_fails_over(self, tiny_catalog):
        engine = hybrid_engine(FaultPlan.parse("gpu0:transient:1.0,seed=1"))
        result = engine.execute(q3.build(tiny_catalog), tiny_catalog,
                                chunk_size=1024)
        reference = hybrid_engine()
        expected = reference.execute(q3.build(tiny_catalog), tiny_catalog,
                                     chunk_size=1024,
                                     default_device="cpu0")
        assert blob(result.outputs) == blob(expected.outputs)
        # Below the breaker's threshold a fault restarts in place; the
        # third quarantines gpu0 and fails over, once.
        assert reasons(engine) == ["device-fault:gpu0", "device-fault:gpu0",
                                   "failover:gpu0"]
        assert (result.stats.failovers, result.stats.oom_recoveries) == (1, 0)
        assert "gpu0" in result.stats.quarantined_devices
        assert result.stats.retries >= RetryPolicy().max_attempts - 1

    def test_an_error_naming_no_device_is_not_counted(self):
        scheduler = Engine()._scheduler
        error = RetryExhaustedError("no device named")
        assert scheduler._recover_device_fault(None, error, deque()) is error
        assert not scheduler._fault_counts and not scheduler.quarantined

    def test_custom_retry_policy_is_honoured(self, tiny_catalog):
        policy = RetryPolicy(max_attempts=2, base_backoff=1e-3)
        engine = hybrid_engine(FaultPlan.parse("gpu0:transient:1.0,seed=1"),
                               retry_policy=policy)
        result = engine.execute(q6.build(), tiny_catalog, chunk_size=1024)
        backoffs = [e for e in engine.clock.events
                    if e.category == "backoff"]
        assert backoffs and all(e.duration == pytest.approx(1e-3)
                                for e in backoffs)
        assert result.stats.failovers >= 1


class TestDeviceLossFailover:
    @pytest.mark.parametrize("model", ["chunked", "auto"])
    def test_failover_reruns_the_requested_decision_vector(
            self, tiny_catalog, model):
        """The rebuilt model executes what the request asked for — the
        recovery callback recompiles the flags, it has no pass sequence
        (or default) of its own."""
        engine = hybrid_engine(FaultPlan.parse("gpu0:device_loss:2"),
                               enable_subplan_cache=False)
        result = engine.execute(q6.build(), tiny_catalog, model=model,
                                chunk_size=1024, default_device="gpu0",
                                fuse=True, adaptive=True, analyze=True)
        assert result.stats.failovers >= 1
        assert result.stats.fused_nodes > 0
        assert result.profile is not None
        assert q6.finalize(result, tiny_catalog) == \
            reference.q6(tiny_catalog)

    def test_loss_evicts_subplan_cache_entries(self, tiny_catalog):
        """Results computed by hardware that later proved faulty are
        re-derived, not trusted: losing a device sweeps every subplan
        cache entry it produced."""
        engine = hybrid_engine()
        engine.execute(q6.build(), tiny_catalog, chunk_size=1024)
        stats = engine.subplan_stats()
        assert stats["entries"] > 0  # populated, provenance gpu0
        engine.install_faults(FaultPlan.parse("gpu0:device_loss:10"))
        # A different query misses the cache, executes, and loses gpu0
        # mid-run; the post-run sweep must drop gpu0's entries.
        result = engine.execute(q3.build(tiny_catalog), tiny_catalog,
                                chunk_size=1024)
        assert result.stats.failovers >= 1
        assert engine.quarantined_devices == ["gpu0"]
        swept = engine.subplan_stats()
        assert swept["invalidations"] > stats["invalidations"]
        # Nothing produced on the dead device survives; a warm q6 run
        # re-executes instead of being served stale results.
        warm = engine.execute(q6.build(), tiny_catalog, chunk_size=1024,
                              default_device="cpu0")
        assert warm.stats.subplan_cache_hits == 0
        assert warm.stats.kernels_launched > 0

    def test_failed_over_recompute_replaces_the_dead_devices_entry(
            self, tiny_catalog):
        """A pipeline with several persisted results stops looking up at
        its first miss, so a dead device's entry for a later result is
        still in the store when the failed-over query inserts its own:
        the survivor's value must win, or the post-wave sweep empties
        what was just recomputed."""
        engine = hybrid_engine()
        q1 = QUERIES["q1"]
        engine.execute(q1.build(tiny_catalog), tiny_catalog,
                       chunk_size=1024)
        cache = engine.subplan_cache
        persisted = len(cache)
        assert persisted > 1
        cache.invalidate(subplan_fingerprint(q1.build(tiny_catalog),
                                             "agg_charge"))
        engine.install_faults(FaultPlan.parse("gpu0:device_loss:10"))
        result = engine.execute(q1.build(tiny_catalog), tiny_catalog,
                                chunk_size=1024)
        assert result.stats.failovers >= 1
        assert engine.quarantined_devices == ["gpu0"]
        assert len(cache) == persisted
        warm = engine.execute(q1.build(tiny_catalog), tiny_catalog,
                              chunk_size=1024)
        assert warm.stats.subplan_cache_hits == 1
        assert warm.stats.kernels_launched == 0
        assert blob(warm.outputs) == blob(result.outputs)

    def test_engine_survives_loss_across_later_queries(self, tiny_catalog):
        engine = hybrid_engine(FaultPlan.parse("gpu0:device_loss:10"))
        engine.execute(q6.build(), tiny_catalog, chunk_size=1024)
        # gpu0 is gone; the next query runs on the survivor directly.
        follow_up = engine.execute(q4.build(), tiny_catalog,
                                   chunk_size=1024)
        reference = Engine()
        reference.plug_device("cpu0", OpenMPDevice, CPU_I7_8700)
        expected = reference.execute(q4.build(), tiny_catalog,
                                     chunk_size=1024)
        assert blob(follow_up.outputs) == blob(expected.outputs)
        assert follow_up.stats.failovers == 0

    def test_loss_without_survivors_is_fatal(self, tiny_catalog):
        engine = gpu_engine(FaultPlan.parse("gpu0:device_loss:5"))
        with pytest.raises(DeviceLostError) as excinfo:
            engine.execute(q6.build(), tiny_catalog, chunk_size=1024)
        assert "no healthy devices" in str(excinfo.value)

    def test_mid_query_loss_fails_over_and_reclaims(self, tiny_catalog):
        # Subplan caching would serve the rerun without touching the
        # dying device; disable it so the failover path actually runs.
        engine = hybrid_engine(enable_subplan_cache=False)
        # Warm the residency cache on the device that is about to die.
        engine.execute(q6.build(), tiny_catalog, chunk_size=1024)
        gpu = engine.devices["gpu0"]
        assert gpu.residency.stats()["entries"] > 0
        engine.install_faults(FaultPlan.parse("gpu0:device_loss:10"))
        result = engine.execute(q6.build(), tiny_catalog, chunk_size=1024)
        reference = gpu_engine().execute(q6.build(), tiny_catalog,
                                         chunk_size=1024)
        assert blob(result.outputs) == blob(reference.outputs)
        assert result.stats.failovers >= 1
        assert result.stats.quarantined_devices == ["gpu0"]
        assert engine.quarantined_devices == ["gpu0"]
        # The dead device's residency entries and buffers are reclaimed.
        assert gpu.residency.stats()["entries"] == 0
        assert gpu.memory.device_used == 0
        assert not gpu.memory.aliases()
        assert counters(engine.clock)["recovery_actions"] >= 1

    def test_reinstate_returns_device_to_rotation(self, tiny_catalog):
        engine = hybrid_engine(FaultPlan.parse("gpu0:device_loss:10"))
        engine.execute(q6.build(), tiny_catalog, chunk_size=1024)
        assert engine.quarantined_devices == ["gpu0"]
        engine.clear_faults()
        engine.reinstate_device("gpu0")
        assert engine.quarantined_devices == []
        result = engine.execute(q6.build(), tiny_catalog, chunk_size=1024)
        assert result.stats.failovers == 0


class TestOOMDegradation:
    def test_injected_oom_spikes_are_recovered(self, tiny_catalog):
        baseline = gpu_engine().execute(q6.build(), tiny_catalog,
                                        chunk_size=1024)
        engine = gpu_engine(FaultPlan.parse("gpu0:oom:0.05,seed=3"))
        result = engine.execute(q6.build(), tiny_catalog, chunk_size=1024)
        assert blob(result.outputs) == blob(baseline.outputs)
        # Nothing resident to evict: the ladder starts by halving.
        assert reasons(engine) == ["oom:chunk=512", "oom:chunk=256"]
        assert result.stats.oom_recoveries == 2

    def test_the_ladder_evicts_resident_columns_before_it_halves(
            self, tiny_catalog):
        engine = hybrid_engine(enable_subplan_cache=False)
        baseline = engine.execute(q6.build(), tiny_catalog, chunk_size=1024)
        residency = engine.devices["gpu0"].residency
        assert residency.stats()["entries"] == 4
        engine.install_faults(FaultPlan.parse("gpu0:oom:0.05,seed=3"))
        result = engine.execute(q6.build(), tiny_catalog, chunk_size=1024)
        assert blob(result.outputs) == blob(baseline.outputs)
        assert reasons(engine) == ["oom:evict-residency", "oom:chunk=512"]
        assert result.stats.oom_recoveries == 2
        assert residency.stats()["evictions"] == 4

    def test_a_storm_past_the_spill_rung_fails(self, tiny_catalog):
        """At the smallest chunk with the host out of memory too, the
        ladder's last rung is spent and the query fails."""
        engine = hybrid_engine(FaultPlan.parse(
            "gpu0:oom:1.0,cpu0:oom:1.0,seed=3"))
        with pytest.raises(DeviceMemoryError):
            engine.execute(q6.build(), tiny_catalog, chunk_size=32)
        assert reasons(engine) == ["oom:spill"]

    def test_capacity_oom_degrades_to_host_spill(self, tiny_catalog):
        # gpu0 cannot hold even one 32-row chunk of Q6's three scan
        # columns, so the ladder runs out of chunk halvings and spills
        # the query to the host device.
        engine = hybrid_engine(gpu_memory_limit=300)
        result = engine.execute(q6.build(), tiny_catalog, chunk_size=256)
        reference = Engine()
        reference.plug_device("cpu0", OpenMPDevice, CPU_I7_8700)
        expected = reference.execute(q6.build(), tiny_catalog,
                                     chunk_size=256)
        assert blob(result.outputs) == blob(expected.outputs)
        assert result.stats.oom_recoveries >= 1

    def test_budget_violations_are_never_degraded(self, tiny_catalog):
        engine = hybrid_engine()
        with pytest.raises(QueryBudgetError):
            engine.execute(q6.build(), tiny_catalog, chunk_size=1024,
                           memory_budget=64)
        assert reasons(engine) == []

    def test_halve_chunk_respects_alignment(self):
        assert halve_chunk(1024, 1) == 512
        assert halve_chunk(96, 1) == 32  # floored to the 32-row quantum
        assert halve_chunk(32, 1) is None
        assert halve_chunk(2048, 16) == 1024
        assert halve_chunk(512, 16) is None  # quantum is 512 rows


class TestWaveIsolation:
    """A mid-wave failure must not leak state into co-running queries."""

    def test_failed_query_fully_reclaimed_mid_wave(self, tiny_catalog):
        engine = gpu_engine()
        results = engine.run_concurrent(
            [
                QueryRequest(graph=q3.build(tiny_catalog),
                             catalog=tiny_catalog, chunk_size=1024,
                             memory_budget=64, label="starved"),
                QueryRequest(graph=q6.build(), catalog=tiny_catalog,
                             chunk_size=1024, label="healthy"),
            ],
            return_exceptions=True,
        )
        error, healthy = results
        assert isinstance(error, QueryBudgetError)
        baseline = gpu_engine().execute(q6.build(), tiny_catalog,
                                        chunk_size=1024)
        assert blob(healthy.outputs) == blob(baseline.outputs)
        device = engine.devices["gpu0"]
        # The starved query's owner accounting returns to exactly zero.
        assert device.memory.owner_used(error.query_id) == 0
        assert device.memory.owned_aliases(error.query_id) == []


class TestErrorContext:
    """Device errors surface device / query / node attribution."""

    def test_transient_error_carries_full_context(self, tiny_catalog):
        engine = gpu_engine(FaultPlan.parse("gpu0:transient:1.0,seed=1"))
        engine._scheduler.quarantine_threshold = 10 ** 6  # keep raising
        with pytest.raises(RetryExhaustedError) as excinfo:
            engine.execute(q6.build(), tiny_catalog, chunk_size=1024)
        message = str(excinfo.value)
        assert "device=gpu0" in message
        assert "query=" in message
        assert "node=" in message

    def test_annotation_rendering(self):
        error = RetryExhaustedError("kernel kept failing").annotate(
            device="gpu0", query_id="q1", node_id="filter_date")
        assert str(error) == ("kernel kept failing "
                              "[device=gpu0 query=q1 node=filter_date]")

    def test_annotate_first_writer_wins(self):
        error = TransientDeviceError("boom").annotate(device="gpu0")
        error.annotate(device="other", query_id="q9")
        assert error.device == "gpu0"
        assert error.query_id == "q9"

    def test_memory_errors_name_device_and_query(self, tiny_catalog):
        engine = gpu_engine()
        with pytest.raises(QueryBudgetError) as excinfo:
            engine.execute(q6.build(), tiny_catalog, chunk_size=1024,
                           memory_budget=64)
        message = str(excinfo.value)
        assert "device=gpu0" in message
        assert f"query={excinfo.value.query_id}" in message

    def test_unknown_buffer_names_device(self, gpu):
        with pytest.raises(UnknownBufferError) as excinfo:
            gpu.memory.get("nope")
        assert "device=gpu0" in str(excinfo.value)

    def test_compilation_error_names_device(self, clock):
        device = OpenMPDevice("cpu0", CPU_I7_8700, clock)
        device.initialize()
        if device.supports_compilation:
            pytest.skip("driver compiles kernels; nothing to assert")
        from repro.task.containers import KernelContainer
        container = KernelContainer(primitive="map", variant="x",
                                    fn=lambda *a, **k: None,
                                    source="__kernel void x() {}")
        with pytest.raises(KernelCompilationError) as excinfo:
            device.prepare_kernel(container)
        assert "device=cpu0" in str(excinfo.value)


class TestFacadeUnaffected:
    """The single-shot facade keeps byte-identical behaviour."""

    def test_fresh_mode_timeline_unchanged(self, tiny_catalog,
                                           gpu_executor):
        first = gpu_executor.run(q6.build(), tiny_catalog, chunk_size=CHUNK)
        second = gpu_executor.run(q6.build(), tiny_catalog,
                                  chunk_size=CHUNK)
        assert first.stats.makespan == second.stats.makespan
        assert first.stats.retries == 0
        assert first.stats.failovers == 0
        assert first.stats.quarantined_devices == []
