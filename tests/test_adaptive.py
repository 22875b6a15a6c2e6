"""Unit and integration tests for adaptive execution
(:mod:`repro.planner.adaptive`): the cost overlay, the online
calibrator, the chunk sizer's grow/shrink policy, the exact-partial
gate, and the runtime behaviours (resizing, work stealing under faults,
divergence-triggered re-placement, metrics, CLI and EXPLAIN surface).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Engine, FaultPlan
from repro.devices import CudaDevice, OpenMPDevice
from repro.hardware import CPU_I7_8700, GPU_RTX_2080_TI
from repro.hardware.costmodel import CostOverlay
from repro.hardware.trace import counters
from repro.planner.adaptive import (
    CHUNK_QUANTUM,
    DIVERGENCE_THRESHOLD,
    MAX_GROWTH,
    MIN_SAMPLES,
    ChunkSizer,
    OnlineCalibrator,
    exact_partial,
)
from repro.primitives.values import (
    Bitmap,
    GroupTable,
    HashTable,
    JoinPairs,
    PositionList,
    PrefixSum,
)
from repro.tpch import reference
from repro.tpch.queries import q3, q6
from tests.conftest import make_executor


class TestCostOverlay:
    def test_first_sample_sets_factor_directly(self):
        overlay = CostOverlay()
        assert overlay.fold(2.0, 1.0) == 2.0
        assert overlay.samples == 1

    def test_ewma_after_first_sample(self):
        overlay = CostOverlay(alpha=0.5)
        overlay.fold(4.0, 1.0)  # factor = 4
        assert overlay.fold(1.0, 1.0) == pytest.approx(2.5)  # 4 + .5(1-4)

    def test_ratio_clamped(self):
        overlay = CostOverlay()
        assert overlay.fold(1000.0, 1.0) == overlay.MAX_RATIO
        overlay2 = CostOverlay()
        assert overlay2.fold(1e-9, 1.0) == overlay2.MIN_RATIO

    def test_degenerate_observations_ignored(self):
        overlay = CostOverlay()
        assert overlay.fold(0.0, 1.0) == 1.0
        assert overlay.fold(1.0, 0.0) == 1.0
        assert overlay.samples == 0


class TestOnlineCalibrator:
    def test_unknown_device_factor_is_neutral(self):
        assert OnlineCalibrator().factor("nope") == 1.0

    def test_factors_require_min_samples(self):
        calibrator = OnlineCalibrator()
        calibrator.observe("d", 3.0, 1.0)
        assert calibrator.factors() == {}
        for _ in range(MIN_SAMPLES - 1):
            calibrator.observe("d", 3.0, 1.0)
        assert calibrator.factors() == {"d": pytest.approx(3.0)}

    def test_divergence_is_symmetric(self):
        fast = OnlineCalibrator()
        for _ in range(MIN_SAMPLES):
            fast.observe("d", 1.0, 4.0)  # 4x faster than calibrated
        slow = OnlineCalibrator()
        for _ in range(MIN_SAMPLES):
            slow.observe("d", 4.0, 1.0)  # 4x slower
        assert fast.divergence() == pytest.approx(slow.divergence())
        assert fast.divergence() > DIVERGENCE_THRESHOLD

    def test_no_samples_no_divergence(self):
        assert OnlineCalibrator().divergence() == 1.0


class TestChunkSizer:
    def test_grows_when_overhead_dominates(self):
        sizer = ChunkSizer(initial=128, total=100_000, n_buffers=2)
        proposed = sizer.propose(128, overhead_seconds=1.0,
                                 streaming_seconds=1.0)
        assert proposed == 256
        assert sizer.grows == 1

    def test_no_growth_when_streaming_dominates(self):
        sizer = ChunkSizer(initial=128, total=100_000, n_buffers=2)
        assert sizer.propose(128, overhead_seconds=0.01,
                             streaming_seconds=1.0) == 128

    def test_growth_capped_at_max_growth(self):
        sizer = ChunkSizer(initial=128, total=10_000_000, n_buffers=2)
        consumed = 0
        for _ in range(20):
            consumed += sizer.chunk
            sizer.propose(consumed, 1.0, 1.0)
        assert sizer.chunk == 128 * MAX_GROWTH

    def test_sizes_stay_quantized(self):
        sizer = ChunkSizer(initial=CHUNK_QUANTUM * 3, total=1_000_000,
                           n_buffers=2)
        consumed = 0
        for _ in range(10):
            consumed += sizer.chunk
            proposed = sizer.propose(consumed, 1.0, 1.0)
            assert proposed % CHUNK_QUANTUM == 0

    def test_tail_shrinks_back_toward_initial(self):
        sizer = ChunkSizer(initial=128, total=10_000, n_buffers=2)
        sizer.chunk = 1024  # as if grown earlier
        proposed = sizer.propose(9_000, 1.0, 1.0)  # 1000 rows left
        assert proposed < 1024
        assert proposed >= 128
        assert sizer.shrinks == 1

    def test_never_below_initial(self):
        sizer = ChunkSizer(initial=128, total=1_000, n_buffers=4)
        assert sizer.propose(900, 1.0, 1.0) >= 128

    def test_realloc_cost_gates_growth(self):
        sizer = ChunkSizer(initial=128, total=2_000, n_buffers=2)
        # Only ~7 chunks remain: doubling saves ~7 chunk-overheads of
        # 1ms but the reallocation costs 1s — growth must not happen.
        assert sizer.propose(128, overhead_seconds=0.001,
                             streaming_seconds=0.001,
                             realloc_seconds=1.0) == 128
        # Free reallocation with the same timings does grow.
        assert sizer.propose(128, overhead_seconds=0.001,
                             streaming_seconds=0.001,
                             realloc_seconds=0.0) == 256


class TestExactPartial:
    def test_concatenation_partials_always_exact(self):
        assert exact_partial(Bitmap(np.zeros(2, np.uint32), 40), "sum")
        assert exact_partial(PositionList(np.arange(3)), "sum")
        assert exact_partial(JoinPairs(np.arange(2), np.arange(2)), "sum")
        assert exact_partial(
            HashTable(np.arange(2), np.arange(3), np.arange(2)), "sum")

    def test_integer_reductions_exact(self):
        assert exact_partial(np.array([7], dtype=np.int64), "sum")
        assert exact_partial(PrefixSum(np.arange(4, dtype=np.int64)), "sum")

    def test_float_sum_not_exact_but_minmax_is(self):
        fsum = np.array([1.5], dtype=np.float64)
        assert not exact_partial(fsum, "sum")
        assert exact_partial(fsum, "min")
        assert exact_partial(fsum, "max")
        assert exact_partial(fsum, "count")

    def test_group_table_follows_aggregate_dtypes(self):
        ints = GroupTable(np.arange(3), {"sum": np.arange(3)})
        floats = GroupTable(np.arange(3),
                            {"sum": np.arange(3, dtype=np.float64)})
        assert exact_partial(ints, "sum")
        assert not exact_partial(floats, "sum")
        assert exact_partial(floats, "count")

    def test_unknown_values_conservative(self):
        assert not exact_partial(object(), "sum")


def hetero_executor():
    return make_executor(name="gpu0", extra_devices=[
        ("cpu0", OpenMPDevice, CPU_I7_8700)])


class TestAdaptiveRuntime:
    def test_static_run_has_no_adaptive_state(self, small_catalog):
        executor = make_executor()
        result = executor.run(q6.build(), small_catalog, model="chunked",
                              chunk_size=2048)
        assert result.stats.adaptive_resizes == 0
        assert result.stats.adaptive_steals == 0
        assert result.stats.adaptive_replacements == 0
        assert counters(executor.clock)["adaptive_actions"] == 0

    def test_chunk_resizing_fires_and_is_traced(self, small_catalog):
        executor = make_executor()
        result = executor.run(q6.build(), small_catalog, model="chunked",
                              chunk_size=2048, adaptive=True)
        assert q6.finalize(result, small_catalog) == \
            reference.q6(small_catalog)
        assert result.stats.adaptive_resizes > 0
        assert counters(executor.clock)["adaptive_actions"] >= \
            result.stats.adaptive_resizes
        grows = executor.metrics.value("adamant_adaptive_resize_total",
                                       direction="grow")
        assert grows > 0

    def test_resizing_reduces_makespan_on_small_chunks(self, small_catalog):
        executor = make_executor()
        static = executor.run(q6.build(), small_catalog, model="chunked",
                              chunk_size=2048)
        adaptive = executor.run(q6.build(), small_catalog, model="chunked",
                                chunk_size=2048, adaptive=True)
        assert adaptive.stats.makespan < static.stats.makespan

    def test_overlay_factor_gauge_exported(self, small_catalog):
        executor = make_executor()
        executor.run(q6.build(), small_catalog, model="chunked",
                     chunk_size=2048, adaptive=True)
        factor = executor.metrics.value("adamant_adaptive_overlay_factor",
                                        device="dev0")
        assert factor > 0.0

    def test_work_stealing_rebalances_under_latency_fault(self,
                                                          small_catalog):
        def run(faults=None):
            engine = Engine(faults=faults)
            engine.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI)
            engine.plug_device("cpu0", OpenMPDevice, CPU_I7_8700)
            return engine.execute(q6.build(), small_catalog,
                                  model="split_chunked", chunk_size=2048,
                                  adaptive=True)
        healthy = run()
        degraded = run(FaultPlan.parse("gpu0:latency:1.0x8,seed=3"))
        assert degraded.stats.adaptive_steals > 0
        assert q6.finalize(degraded, small_catalog) == \
            reference.q6(small_catalog)
        # The degraded run still finishes (slower), with the healthy
        # device absorbing chunks the static split would have left on
        # the slow one.
        assert degraded.stats.makespan > healthy.stats.makespan

    def test_replacement_triggers_on_divergence(self, small_catalog):
        executor = hetero_executor()
        result = executor.run(q3.build(small_catalog), small_catalog,
                              model="chunked", chunk_size=2048,
                              adaptive=True)
        assert result.stats.adaptive_replacements >= 1
        assert executor.metrics.value(
            "adamant_adaptive_replacements_total") >= 1
        assert q3.finalize(result, small_catalog) == \
            reference.q3(small_catalog)

    def test_single_device_never_replaces(self, small_catalog):
        executor = make_executor()
        result = executor.run(q3.build(small_catalog), small_catalog,
                              model="chunked", chunk_size=2048,
                              adaptive=True)
        assert result.stats.adaptive_replacements == 0


class TestAdaptiveSurface:
    def test_explain_annotations(self, tiny_catalog, capsys):
        executor = hetero_executor()
        from repro.observe import explain
        text = explain(q6.build(), tiny_catalog, devices=executor.devices,
                       default_device=executor.default_device,
                       model="split_chunked", chunk_size=1024,
                       adaptive=True)
        assert "adaptive=on" in text
        assert "work-stealing morsel queue" in text
        static = explain(q6.build(), tiny_catalog,
                         devices=executor.devices,
                         default_device=executor.default_device,
                         model="split_chunked", chunk_size=1024)
        assert "adaptive=off" in static
        assert "adaptive:" not in static
