"""Unit tests for the virtual time engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import CudaDevice
from repro.engine import Engine, QueryRequest
from repro.errors import SchedulingError
from repro.hardware import GPU_RTX_2080_TI
from repro.hardware.clock import VirtualClock
from repro.hardware.trace import fold
from repro.serving import QueryService, ServeRequest
from repro.serving.workload import build_query


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
        ledger = fold(clock)
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


# ---------------------------------------------------------------------------
# The fold over the columns == its definition, one event at a time

OWNERS = (None, "", "qa", "qb")

#: ``(category, label, stream suffix)``: {d} is a device index, {n} a
#: number that makes labels distinct the way query ids and aliases do.
KINDS = (
    ("launch", "gpu{d}:launch:filter_bitmap", "compute"),
    ("launch", "gpu{d}:launch:fused_map_filter", "compute"),
    ("compute", "gpu{d}:run:filter_bitmap", "compute"),
    ("compute", "gpu{d}:run:fused_map_filter", "compute"),
    ("transfer", "gpu{d}:h2d:q{n}:lineitem.l_quantity#0", "transfer"),
    ("transfer", "gpu{d}:d2h:q{n}:out", "transfer"),
    ("transfer", "gpu{d}:pinned-map:q{n}:col", "transfer"),
    ("transfer", "gpu{d}:uma-read:n{n}", "compute"),
    ("cache", "gpu{d}:resident:q{n}:lineitem.l_discount", "transfer"),
    ("recovery", "recovery:oom:chunk={n}:q{n}", "recovery"),
    ("recovery", "recovery:failover:gpu{d}:q{n}", "recovery"),
    ("adaptive", "gpu{d}:adaptive-resize:512->{n}", "compute"),
    ("adaptive", "gpu{d}:adaptive-steal", "compute"),
    ("adaptive", "gpu{d}:adaptive-replace:{n}-nodes", "compute"),
    ("alloc", "gpu{d}:alloc:q{n}:buf", "compute"),
    ("backoff", "gpu{d}:backoff:n{n}", "compute"),
    ("serving", "arrival@{n}", "arrivals"),
    ("compute", "", "bare"),
)

schedules = st.lists(st.tuples(
    st.sampled_from(OWNERS), st.sampled_from(KINDS), st.integers(0, 1),
    st.integers(1, 2048), st.floats(0.0, 3.0, allow_nan=False),
    st.integers(0, 1 << 40), st.sampled_from(("", "n1", "n2"))),
    max_size=50)


def kind_and_subject(label):
    """The last two fields of a ``device:kind:subject`` label (empty
    where the label has fewer)."""
    _, _, rest = label.partition(":")
    kind, _, subject = rest.partition(":")
    return kind, subject


def series_fed(event):
    """``(series key, amount)`` of each series *event* feeds, read off
    its stream and its label as the fold's documentation tabulates it."""
    device = event.stream.rpartition(".")[0]
    kind, subject = kind_and_subject(event.label)
    if event.category == "compute":
        return [(("adamant_kernel_seconds_total", device, subject),
                 event.end - event.start)]
    if event.category == "launch":
        return [(("adamant_kernel_launches_total", device, subject), 1)]
    if event.category == "transfer" and kind in ("h2d", "d2h"):
        return [(("adamant_transfer_bytes_total", device, kind),
                 event.nbytes)]
    if event.category == "cache":
        return [(("adamant_residency_hit_bytes_total", device), event.nbytes),
                (("adamant_residency_hits_total", device), 1)]
    if event.category == "recovery":
        if kind == "oom":
            kind = "oom:" + subject.split("=")[0]
        return [(("adamant_recovery_actions_total", kind), 1)]
    if event.category != "adaptive":
        return []
    if kind == "adaptive-resize":
        old, new = (int(side) for side in subject.split("->"))
        return [(("adamant_adaptive_resize_total",
                  "grow" if new > old else "shrink"), 1)]
    if kind == "adaptive-steal":
        return [(("adamant_adaptive_steals_total", device), 1)]
    return [(("adamant_adaptive_replacements_total",), 1)]


def restarted(event, events):
    """Whether a later recovery marker restarts *event*'s attempt: one
    charged to its owner or to nobody, or any one if it is unowned."""
    return any(later.category == "recovery" and later.eid > event.eid
               and (later.owner in ("", event.owner) or not event.owner)
               for later in events)


def defined_ledger(events, running):
    seconds, count, volume, series, completed = {}, {}, {}, {}, {}
    end = 0.0
    for event in events:
        category = event.category
        seconds[category] = seconds.get(category, 0.0) \
            + (event.end - event.start)
        count[category] = count.get(category, 0) + 1
        volume[category] = volume.get(category, 0) + event.nbytes
        end = max(end, event.end)
        for key, amount in series_fed(event):
            series[key] = series.get(key, running(key)) + amount
        if category in ("launch", "compute") and not restarted(event,
                                                                events):
            key = (category, event.node, kind_and_subject(event.label)[1])
            completed[key] = completed.get(key, 0) + 1
    return dict(seconds=seconds, count=count,
                nbytes={c: n for c, n in volume.items() if n}, end=end,
                completed=completed, series=series)


def exact(value):
    """A value with every float spelled bit for bit and every dict's
    keys kept in order."""
    if isinstance(value, dict):
        return [(key, exact(item)) for key, item in value.items()]
    if isinstance(value, float):
        return value.hex()
    return value


class TestFoldDefinition:
    @settings(max_examples=200, deadline=None)
    @given(schedules, st.integers(0, 50),
           st.floats(0.0, 1e3, allow_nan=False))
    def test_fold_equals_its_definition(self, steps, cursor, prefilled):
        clock = VirtualClock()
        scheduled = []
        for owner, (category, label, suffix), d, n, duration, nbytes, \
                node in steps:
            clock.current_owner = owner
            stream = (suffix if suffix in ("recovery", "arrivals", "bare")
                      else f"gpu{d}.{suffix}")
            scheduled.append(clock.schedule(
                stream, duration, label=label.format(d=d, n=n),
                category=category, nbytes=nbytes, node=node))
        # A registry that already holds one series' total.
        primed = ("adamant_kernel_seconds_total", "gpu0", "filter_bitmap")

        def running(key):
            return prefilled if key == primed else 0.0

        def zero(key):
            return 0.0

        assert clock.events == scheduled
        assert clock.events_since(cursor) == scheduled[cursor:]
        windows = [(dict(since=cursor), scheduled[cursor:])]
        for owner in ("", "qa", "qb", "never-ran"):
            mine = [e for e in scheduled if e.owner in (owner, "")]
            assert clock.events_of(owner) == mine
            windows.append((dict(owner=owner), mine))
        windows.append((dict(), scheduled))
        for window, events in windows:
            for totals in (running, None):
                ledger = fold(clock, **window, running=totals)
                assert exact({field: getattr(ledger, field) for field in (
                    "seconds", "count", "nbytes", "end", "completed",
                    "series")}) == exact(
                    defined_ledger(events, totals or zero)), window

    def test_one_fold_serves_two_readers(self):
        """The rows a run's statistics folded, its publish folds again
        from the same fold, each with its own running totals."""
        clock = VirtualClock()
        clock.schedule("gpu0.compute", 0.1, label="gpu0:run:map")
        clock.schedule("gpu0.compute", 0.2, label="gpu0:run:map")
        key = ("adamant_kernel_seconds_total", "gpu0", "map")
        assert fold(clock, "q0").series == {key: 0.1 + 0.2}
        assert fold(clock, running=lambda series: 0.7).series == \
            {key: 0.7 + 0.1 + 0.2}
        assert fold(clock).series == {key: 0.1 + 0.2}


    def test_a_ledger_outlives_a_reset(self):
        """Ledger fields are worked out when first read; rows scheduled
        after a reset must not leak into a ledger folded before it."""
        clock = VirtualClock()
        clock.schedule("gpu0.compute", 0.5, label="gpu0:run:map")
        ledger = fold(clock)
        clock.reset()
        clock.schedule("gpu0.transfer", 2.0, category="transfer")
        assert ledger.seconds == {"compute": 0.5}
        assert ledger.series == {
            ("adamant_kernel_seconds_total", "gpu0", "map"): 0.5}


class TestClassTable:
    def test_serving_more_queries_births_no_classes(self, tiny_catalog):
        """Event labels name query ids, aliases and arrival times; the
        class table is keyed by what the fold reads, so serving more
        queries on one engine adds rows, not classes."""
        engine = Engine()
        engine.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI)
        service = QueryService(engine)

        def serve(first, count):
            report = service.serve([ServeRequest(
                query=QueryRequest(
                    graph=build_query(("q1", "q3", "q6")[index % 3],
                                      tiny_catalog),
                    catalog=tiny_catalog, chunk_size=1024),
                arrival_s=index * 1e-2, request_id=f"r{index}")
                for index in range(first, first + count)])
            assert len(report.with_status("ok")) == count

        serve(0, 40)
        classes, rows = len(engine.clock.classes), engine.clock.event_count
        serve(40, 80)
        assert engine.clock.event_count > rows
        assert len(engine.clock.classes) == classes
