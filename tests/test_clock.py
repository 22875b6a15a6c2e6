"""Unit tests for the virtual time engine."""

import pytest

from repro.errors import SchedulingError
from repro.hardware.clock import VirtualClock
from repro.hardware.trace import fold


class TestScheduling:
    def test_single_event(self, clock):
        event = clock.schedule("s", 2.5, label="work")
        assert event.start == 0.0
        assert event.end == 2.5
        assert event.duration == 2.5
        assert clock.makespan() == 2.5

    def test_same_stream_serializes(self, clock):
        a = clock.schedule("s", 1.0)
        b = clock.schedule("s", 2.0)
        assert b.start == a.end
        assert clock.makespan() == 3.0

    def test_different_streams_overlap(self, clock):
        clock.schedule("a", 5.0)
        clock.schedule("b", 3.0)
        assert clock.makespan() == 5.0

    def test_dependency_delays_start(self, clock):
        a = clock.schedule("t", 4.0)
        b = clock.schedule("c", 1.0, deps=[a])
        assert b.start == 4.0
        assert b.end == 5.0

    def test_multiple_dependencies_use_latest(self, clock):
        a = clock.schedule("t", 4.0)
        b = clock.schedule("u", 7.0)
        c = clock.schedule("c", 1.0, deps=[a, b])
        assert c.start == 7.0

    def test_not_before(self, clock):
        event = clock.schedule("s", 1.0, not_before=10.0)
        assert event.start == 10.0

    def test_negative_duration_rejected(self, clock):
        with pytest.raises(SchedulingError):
            clock.schedule("s", -0.1)

    def test_zero_duration_allowed(self, clock):
        event = clock.schedule("s", 0.0)
        assert event.start == event.end

    def test_event_ids_monotonic(self, clock):
        events = [clock.schedule("s", 1.0) for _ in range(5)]
        ids = [e.eid for e in events]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5


class TestCopyComputeOverlap:
    """The exact overlap patterns the execution models rely on."""

    def test_serialized_chunks(self, clock):
        # Algorithm 1: transfer c+1 waits on compute c.
        t1 = clock.schedule("transfer", 2.0)
        c1 = clock.schedule("compute", 1.0, deps=[t1])
        t2 = clock.schedule("transfer", 2.0, deps=[c1])
        c2 = clock.schedule("compute", 1.0, deps=[t2])
        assert c2.end == 6.0  # (2+1) * 2, no overlap

    def test_pipelined_chunks(self, clock):
        # Algorithm 2: transfers stream back-to-back; compute trails.
        t1 = clock.schedule("transfer", 2.0)
        c1 = clock.schedule("compute", 1.0, deps=[t1])
        t2 = clock.schedule("transfer", 2.0)
        c2 = clock.schedule("compute", 1.0, deps=[t2])
        assert c1.start == 2.0
        assert t2.start == 2.0  # overlaps c1
        assert c2.end == 5.0  # transfer-bound: 2+2+1

    def test_overlap_bounds(self, clock):
        # makespan is between max(single stream) and the serial sum.
        durations = [1.0, 2.0, 3.0, 4.0]
        for i, d in enumerate(durations):
            clock.schedule(f"s{i % 2}", d)
        assert clock.makespan() <= sum(durations)
        assert clock.makespan() >= max(durations)


class TestBarrier:
    def test_barrier_aligns_streams(self, clock):
        clock.schedule("a", 5.0)
        clock.schedule("b", 2.0)
        at = clock.barrier(["a", "b"])
        assert at == 5.0
        assert clock.stream("b").available_at == 5.0
        after = clock.schedule("b", 1.0)
        assert after.start == 5.0

    def test_barrier_all_streams_default(self, clock):
        clock.schedule("a", 3.0)
        clock.schedule("b", 1.0)
        assert clock.barrier() == 3.0

    def test_barrier_empty_clock(self, clock):
        assert clock.barrier() == 0.0


class TestInspection:
    def test_busy_time_by_category(self, clock):
        clock.schedule("s", 1.0, category="transfer")
        clock.schedule("s", 2.0, category="compute")
        clock.schedule("s", 3.0, category="compute")
        ledger = fold(clock.events)
        assert ledger.seconds == {"transfer": 1.0, "compute": 5.0}
        assert ledger.count == {"transfer": 1, "compute": 2}
        assert ledger.end == 6.0

    def test_stream_busy_time(self, clock):
        clock.schedule("s", 1.5)
        clock.schedule("s", 0.5)
        assert sum(e.duration for e in clock.events
                   if e.stream == "s") == 2.0

    def test_now_tracks_latest_stream(self, clock):
        clock.schedule("a", 2.0)
        assert clock.now() == 2.0
        clock.schedule("b", 5.0)
        assert clock.now() == 5.0

    def test_empty_clock(self):
        clock = VirtualClock()
        assert clock.makespan() == 0.0
        assert clock.now() == 0.0
        assert clock.events == []

    def test_reset(self, clock):
        clock.schedule("s", 1.0)
        clock.reset()
        assert clock.makespan() == 0.0
        assert clock.streams == {}
        event = clock.schedule("s", 1.0)
        assert event.start == 0.0
        assert event.eid == 0

    def test_nbytes_recorded(self, clock):
        clock.schedule("s", 1.0, category="transfer", nbytes=1024)
        assert clock.events[0].nbytes == 1024
