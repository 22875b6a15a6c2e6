"""Self-test of the benchmark harness.

Plain pytest, run explicitly (it is not part of the tier-1 suite)::

    python3 -m pytest perf/test_perf_harness.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf import spans  # noqa: E402 - needs the path set above
from perf.compare import verdict  # noqa: E402
from perf.stats import (  # noqa: E402
    first_fact_difference,
    percentile,
    relative_range,
    top_percentile,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class TestPercentileRule:
    """The highest percentile with at least ten samples beyond it."""

    @pytest.mark.parametrize("n, expected", [
        (6, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
        (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
        (10_000, 99.9)])
    def test_top_percentile(self, n, expected):
        assert top_percentile(n) == expected

    def test_samples_beyond_the_reported_percentile(self):
        for n in (20, 57, 200, 999, 1000):
            p = top_percentile(n)
            values = list(range(n))
            beyond = sum(1 for v in values if v > percentile(values, p))
            assert beyond >= 10

    def test_nearest_rank(self):
        assert percentile([5, 1, 4, 2, 3], 50) == 3
        assert percentile(range(1, 201), 95) == 190

    def test_relative_range(self):
        assert relative_range([9.0, 10.0, 12.0]) == pytest.approx(0.3)
        assert relative_range([5.0]) == 0.0


class TestSelfTime:
    """Nested spans: self = duration minus what child spans cover."""

    def test_parent_self_time_excludes_children(self):
        now = [0.0]
        recorder = spans.SpanRecorder(clock=lambda: now[0])

        def work(seconds):
            now[0] += seconds

        timed_leaf = recorder.wrap("devices", "leaf", lambda: work(0.25))

        def parent():
            work(0.5)
            timed_leaf()
            timed_leaf()

        timed_parent = recorder.wrap("core.models", "parent", parent,
                                     coarse=True)

        def item():
            work(0.125)
            timed_parent()

        recorder.timed_item("item-1", item)

        assert recorder.totals == {
            ("devices", "leaf"): [2, 0.5, 0.5],
            ("core.models", "parent"): [1, 1.0, 0.5],
            (spans.ROOT_LAYER, "item-1"): [1, 1.125, 0.125],
        }
        # The layers' self times and the unattributed rest sum to the
        # item time.
        assert recorder.layer_self_seconds() == {
            "devices": 0.5, "core": 0.5, spans.ROOT_LAYER: 0.125}

    def test_coarse_spans_know_their_parent_and_item(self):
        recorder = spans.SpanRecorder()
        inner = recorder.wrap("engine", "inner", lambda: 7, coarse=True,
                              annotate=lambda result: {"answer": result})
        outer = recorder.wrap("serving", "outer", inner, coarse=True)
        assert recorder.timed_item("it", outer) == 7
        by_name = {span["name"]: span for span in recorder.spans}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] == by_name["it"]["id"]
        assert by_name["inner"]["args"] == {"answer": 7}
        assert {span["item"] for span in recorder.spans} == {"it"}
        events = spans.chrome_trace(recorder.spans)["traceEvents"]
        assert [e["ph"] for e in events] == ["X"] * 3

    def test_nothing_is_recorded_outside_a_timed_item(self):
        recorder = spans.SpanRecorder()
        fn = recorder.wrap("core.graph", "fn", lambda: 1)
        assert fn() == 1
        assert recorder.totals[("core.graph", "fn")] == [0, 0.0, 0.0]

    def test_exceptions_still_close_the_span(self):
        recorder = spans.SpanRecorder()

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            recorder.timed_item("it", recorder.wrap("devices", "boom", boom))
        assert recorder.totals[("devices", "boom")][0] == 1
        assert recorder._stack == []


class TestWrappers:
    def test_install_and_uninstall_leave_the_program_identical(self):
        holders = {holder for target in spans.targets()
                   for holder, _, _ in spans._bindings(target)}
        before = {holder: dict(vars(holder)) for holder in holders}
        wrappers = spans.Wrappers(spans.SpanRecorder())
        with wrappers:
            assert wrappers.replaced
            changed = [holder for holder in holders
                       if dict(vars(holder)) != before[holder]]
            assert changed
        assert not wrappers.replaced
        for holder in holders:
            assert dict(vars(holder)) == before[holder], holder

    def test_every_target_exists(self):
        for target in spans.targets():
            assert spans._bindings(target), (target.layer, target.attr)

    def test_device_interfaces_are_the_ten_of_the_paper(self):
        from repro.devices.base import Device
        assert set(spans.DEVICE_INTERFACES) == Device.__abstractmethods__


class TestCompareVerdict:
    def test_direction_and_bound(self):
        same = dict(better="lower", bound=0.1)
        assert verdict([1.0, 1.0, 1.0], [1.05, 1.05, 1.05], **same) == "same"
        assert verdict([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], **same) == "worse"
        assert verdict([1.0, 1.0, 1.0], [0.8, 0.8, 0.8], **same) == "better"
        assert verdict([1.0] * 3, [1.2] * 3, better="higher",
                       bound=0.1) == "better"

    def test_noise_wider_than_the_bound_is_unresolved(self):
        assert verdict([0.9, 1.0, 1.3], [1.05, 1.1, 1.15],
                       better="lower", bound=0.1) == "unresolved"
        # ... unless the change is larger than the noise too.
        assert verdict([0.9, 1.0, 1.3], [2.0, 2.1, 2.2],
                       better="lower", bound=0.1) == "worse"

    def test_first_fact_difference(self):
        a = {"q6": {"virt_makespan_s": 0.25, "kernels": 3}}
        assert first_fact_difference(a, json.loads(json.dumps(a))) is None
        b = {"q6": {"virt_makespan_s": 0.25, "kernels": 4}}
        assert "q6 fact kernels" in first_fact_difference(a, b)


class TestSchedule:
    @pytest.mark.parametrize(
        "name", [workload["name"] for workload in BENCHMARK["workloads"]])
    def test_the_seed_and_nothing_else_drives_the_schedule(self, name):
        from perf.workloads import make_workload
        digests = []
        for seed in (5, 5, 6):
            workload = make_workload(name, seed, smoke=True)
            workload.setup()
            digests.append(workload.schedule_digest())
        assert digests[0] == digests[1]
        assert digests[0] != digests[2]


class TestSmoke:
    def test_smoke_emits_every_declared_metric_for_every_workload(self):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(ROOT / "perf" / "run.py"), "--smoke",
             "--seed", "5"], cwd=ROOT, capture_output=True, text=True,
            timeout=120)
        elapsed = time.perf_counter() - started
        assert done.returncode == 0, done.stderr
        assert elapsed <= 25.0
        latest = json.loads(
            (ROOT / "perf" / "results" / "latest.json").read_text())
        assert latest["environment"]["seed"] == 5
        end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
        per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
        for workload in BENCHMARK["workloads"]:
            result = latest["workloads"][workload["name"]]
            assert set(result["end_to_end"]) == end_to_end
            assert set(result["per_layer"]) == per_layer
            assert result["failed"] == 0
            for name in end_to_end | per_layer:
                assert name in done.stdout

    def test_without_the_program_the_runner_fails_without_a_result(
            self, tmp_path):
        (tmp_path / "perf").mkdir()
        for path in (ROOT / "perf").glob("*.py"):
            (tmp_path / "perf" / path.name).write_text(path.read_text())
        (tmp_path / "BENCHMARK.json").write_text(
            (ROOT / "BENCHMARK.json").read_text())
        done = subprocess.run(
            [sys.executable, "perf/run.py", "--workload", "auto_plan",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        assert done.stdout.strip() == ""
