"""Tests for trace export and the unified-memory execution model."""

import json

import pytest

from repro.hardware.clock import VirtualClock
from repro.hardware.trace import ascii_gantt, overlap_ratio, to_chrome_trace
from repro.tpch import reference
from repro.tpch.queries import q1, q6
from tests.conftest import make_executor


class TestChromeTrace:
    def test_valid_json_with_all_events(self, clock):
        clock.schedule("t", 1.0, label="h2d", category="transfer",
                       nbytes=4096)
        clock.schedule("c", 0.5, label="kernel", category="compute")
        doc = json.loads(to_chrome_trace(clock))
        phases = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(phases) == 2
        by_name = {e["name"]: e for e in phases}
        assert by_name["h2d"]["cat"] == "transfer"
        assert by_name["h2d"]["args"]["nbytes"] == 4096
        assert by_name["kernel"]["dur"] == pytest.approx(0.5e6)

    def test_streams_become_threads(self, clock):
        clock.schedule("gpu.transfer", 1.0)
        clock.schedule("gpu.compute", 1.0)
        doc = json.loads(to_chrome_trace(clock))
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["name"] == "thread_name"}
        assert names == {"gpu.transfer", "gpu.compute"}

    def test_trace_of_real_query(self, tiny_catalog):
        executor = make_executor()
        executor.run(q6.build(), tiny_catalog, model="pipelined",
                     chunk_size=1024)
        doc = json.loads(to_chrome_trace(executor.clock))
        assert len(doc["traceEvents"]) > 10


class TestAsciiGantt:
    def test_empty_clock(self):
        assert ascii_gantt(VirtualClock()) == "(no events)"

    def test_rows_and_legend(self, clock):
        clock.schedule("a", 1.0, category="transfer")
        clock.schedule("b", 2.0, category="compute")
        chart = ascii_gantt(clock, width=40)
        lines = chart.splitlines()
        assert lines[0].startswith("a")
        assert "T" in lines[0]
        assert "#" in lines[1]
        assert "T=transfer" in chart

    def test_min_duration_filter(self, clock):
        clock.schedule("a", 1e-9, category="transfer")
        clock.schedule("a", 1.0, category="compute")
        chart = ascii_gantt(clock, min_duration=1e-3)
        assert "T" not in chart.splitlines()[0]


class TestOverlapRatio:
    def test_no_overlap(self, clock):
        a = clock.schedule("a", 1.0)
        clock.schedule("b", 1.0, deps=[a])
        assert overlap_ratio(clock, "a", "b") == 0.0

    def test_full_overlap(self, clock):
        clock.schedule("a", 1.0)
        clock.schedule("b", 2.0)
        assert overlap_ratio(clock, "a", "b") == pytest.approx(1.0)

    def test_empty_stream(self, clock):
        clock.schedule("a", 1.0)
        assert overlap_ratio(clock, "ghost", "a") == 0.0

    def test_pipelined_overlaps_more_than_chunked(self, small_catalog):
        """The property Figure 6 illustrates, measured on real runs."""
        def ratio(model):
            executor = make_executor()
            executor.run(q6.build(), small_catalog, model=model,
                         chunk_size=2048, data_scale=32)
            return overlap_ratio(executor.clock, "dev0.transfer",
                                 "dev0.compute")
        assert ratio("pipelined") > ratio("chunked")


class TestZeroCopyModel:
    def test_q1_multi_breaker(self, small_catalog):
        executor = make_executor()
        result = executor.run(q1.build(), small_catalog, model="zero_copy",
                              chunk_size=4096)
        assert q1.finalize(result, small_catalog) == \
            reference.q1(small_catalog)

    def test_no_dma_transfers(self, small_catalog):
        """Zero-copy publishes chunks; the only interconnect traffic is
        kernel-side uma reads and final result retrieval."""
        executor = make_executor()
        executor.run(q6.build(), small_catalog, model="zero_copy",
                     chunk_size=4096)
        h2d = [e for e in executor.clock.events
               if e.label.count(":h2d:")]
        assert not h2d
        uma = [e for e in executor.clock.events
               if "uma-read" in e.label]
        assert uma

    def test_rereads_cost_more_than_single_read(self, small_catalog):
        """Q6 reads l_discount twice; zero-copy's bus traffic exceeds the
        4-phase model's single staging pass."""
        executor = make_executor()
        zero = executor.run(q6.build(), small_catalog, model="zero_copy",
                            chunk_size=2**20, data_scale=32)
        staged = executor.run(q6.build(), small_catalog,
                              model="four_phase_pipelined",
                              chunk_size=2**20, data_scale=32)
        assert zero.stats.transfer_bytes > staged.stats.transfer_bytes
        assert zero.stats.makespan > staged.stats.makespan

    def test_beats_pageable_chunked_at_scale(self, small_catalog):
        executor = make_executor()
        zero = executor.run(q6.build(), small_catalog, model="zero_copy",
                            chunk_size=2**20, data_scale=32)
        chunked = executor.run(q6.build(), small_catalog, model="chunked",
                               chunk_size=2**20, data_scale=32)
        assert zero.stats.makespan < chunked.stats.makespan

    def test_minimal_device_footprint(self, small_catalog):
        """Unified memory stages nothing on the device: only the
        intermediates occupy device memory."""
        executor = make_executor()
        zero = executor.run(q6.build(), small_catalog, model="zero_copy",
                            chunk_size=4096)
        staged = executor.run(q6.build(), small_catalog, model="chunked",
                              chunk_size=4096)
        assert zero.stats.peak_device_bytes["dev0"] < \
            staged.stats.peak_device_bytes["dev0"]
