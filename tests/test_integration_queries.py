"""Query-level behaviour beside the cell table of
``tools/timeline_digest.py`` (which checks every answer): adaptive
cost, data scale, non-default parameters, inputs larger than memory."""

import pytest

from repro.devices import OpenMPDevice
from repro.hardware import CPU_I7_8700
from repro.tpch import reference
from repro.tpch.queries import q1, q3, q4, q6
from tests.conftest import make_executor


class TestAdaptiveCost:
    def test_adaptive_never_slower_than_5pct(self, small_catalog):
        """The adaptive machinery must not tax the uniform case."""
        for model in ("chunked", "split_chunked"):
            static, adaptive = (make_executor(name="gpu0", extra_devices=[
                ("cpu0", OpenMPDevice, CPU_I7_8700)]).run(
                    q6.build(), small_catalog, model=model,
                    chunk_size=2048, adaptive=flag) for flag in (False, True))
            assert adaptive.stats.makespan <= \
                static.stats.makespan * 1.05, model


class TestDataScale:
    """data_scale changes simulated time, never results."""

    def test_makespan_grows_with_scale(self, small_catalog):
        executor = make_executor()
        fast = executor.run(q6.build(), small_catalog, model="chunked",
                            chunk_size=4096, data_scale=1)
        slow = executor.run(q6.build(), small_catalog, model="chunked",
                            chunk_size=4096 * 64, data_scale=64)
        assert slow.stats.makespan > fast.stats.makespan * 10


class TestQueryParameters:
    """Non-default query parameters flow through build() correctly."""

    def test_q6_alternate_year(self, small_catalog):
        executor = make_executor()
        graph = q6.build(date="1995-01-01", discount=3, quantity=30)
        result = executor.run(graph, small_catalog, model="chunked",
                              chunk_size=4096)
        expected = reference.q6(small_catalog, date="1995-01-01",
                                discount=3, quantity=30)
        assert q6.finalize(result, small_catalog) == expected

    def test_q3_alternate_segment(self, small_catalog):
        executor = make_executor()
        graph = q3.build(small_catalog, segment="MACHINERY",
                         date="1996-01-01")
        result = executor.run(graph, small_catalog, model="chunked",
                              chunk_size=4096)
        expected = reference.q3(small_catalog, segment="MACHINERY",
                                date="1996-01-01")
        assert q3.finalize(result, small_catalog) == expected

    def test_q4_alternate_quarter(self, small_catalog):
        executor = make_executor()
        graph = q4.build(date="1994-01-01")
        result = executor.run(graph, small_catalog, model="chunked",
                              chunk_size=4096)
        assert q4.finalize(result, small_catalog) == \
            reference.q4(small_catalog, date="1994-01-01")

    def test_q1_alternate_delta(self, small_catalog):
        executor = make_executor()
        result = executor.run(q1.build(delta_days=60), small_catalog,
                              model="chunked", chunk_size=4096)
        assert q1.finalize(result, small_catalog) == \
            reference.q1(small_catalog, delta_days=60)


class TestLargerThanMemory:
    """The paper's scalability claim: chunked models execute inputs that
    exceed device memory; OAAT cannot."""

    def test_oaat_fails_chunked_models_succeed(self, small_catalog):
        from repro.errors import DeviceMemoryError
        limit = 600 * 1024  # far below the ~2 MB lineitem input
        failing = make_executor(memory_limit=limit)
        with pytest.raises(DeviceMemoryError):
            failing.run(q6.build(), small_catalog, model="oaat")
        for model in ("chunked", "pipelined", "four_phase_chunked",
                      "four_phase_pipelined"):
            executor = make_executor(memory_limit=limit)
            result = executor.run(q6.build(), small_catalog, model=model,
                                  chunk_size=1024)
            assert q6.finalize(result, small_catalog) == \
                reference.q6(small_catalog), model
