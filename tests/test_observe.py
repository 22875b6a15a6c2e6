"""Tests for repro.observe: EXPLAIN, ANALYZE profiles, and metrics.

Covers the acceptance criteria of the observability surface:

* EXPLAIN / ANALYZE output is byte-identical across two runs of the
  same seed and plan;
* ANALYZE's per-node + overhead + idle attribution sums to within 1%
  of ``stats.makespan`` (it is in fact exact) for Q3/Q4/Q6 across the
  four paper execution models;
* the Prometheus exporter emits text that parses as the exposition
  format, with internally consistent histograms;
* ``trace.counters`` / ``stats.kernels_launched`` do not double-count
  kernel launches for fused nodes when recovery restarts a query.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import CudaDevice, OpenMPDevice
from repro.engine import Engine, QueryRequest
from repro.errors import ExecutionError
from repro.faults import FaultPlan
from repro.hardware import CPU_I7_8700, GPU_RTX_2080_TI, trace
from repro.observe import (
    DEFAULT_BUCKETS,
    METRIC_CATALOG,
    MetricsRegistry,
    explain,
)
from repro.serving import BATCH, INTERACTIVE, QueryService, ServeRequest
from repro.tpch import generate
from repro.tpch.queries import q3, q4, q6
from tests.conftest import make_context, make_executor

PAPER_MODELS = ("oaat", "chunked", "pipelined", "four_phase_pipelined")


def _graph(name, catalog):
    return {"q3": lambda: q3.build(catalog),
            "q4": q4.build, "q6": q6.build}[name]()


def _gpu_executor():
    return make_executor(name="gpu0")


# ---------------------------------------------------------------------------
# MetricsRegistry


class TestMetricsRegistry:
    def test_counter_accumulates_per_label_series(self):
        reg = MetricsRegistry()
        reg.inc("requests_total", route="a")
        reg.inc("requests_total", 2, route="a")
        reg.inc("requests_total", route="b")
        assert reg.value("requests_total", route="a") == 3.0
        assert reg.value("requests_total", route="b") == 1.0
        assert reg.total("requests_total") == 4.0

    def test_counter_cannot_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc("requests_total", -1, route="a")

    def test_gauge_sets(self):
        reg = MetricsRegistry()
        reg.set("depth", 5)
        reg.set("depth", 2)
        assert reg.value("depth") == 2.0

    def test_histogram_buckets_and_count(self):
        reg = MetricsRegistry()
        for value in (0.00005, 0.05, 50.0):
            reg.observe("latency_seconds", value)
        snap = reg.snapshot()["latency_seconds"]["samples"][0]
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(50.05005)
        # 0.00005 lands in the 1e-4 bucket, 0.05 in 0.1, 50 overflows.
        assert snap["buckets"]["0.0001"] == 1
        assert snap["buckets"]["0.1"] == 2
        assert snap["buckets"]["10"] == 2

    def test_catalog_names_get_documented_labels(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            # adamant_queries_total is declared with (model, status).
            reg.inc("adamant_queries_total", flavor="wrong")
        reg.inc("adamant_queries_total", model="oaat", status="ok")
        assert reg.value("adamant_queries_total",
                         model="oaat", status="ok") == 1.0

    def test_kind_conflicts_rejected(self):
        reg = MetricsRegistry()
        reg.inc("thing_total")
        with pytest.raises(ValueError):
            reg.set("thing_total", 1)
        with pytest.raises(ValueError):
            reg.inc("adamant_sessions_active")  # declared as gauge

    def test_invalid_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc("bad name")

    def test_hot_metric_is_still_validated(self):
        """A declared metric is found by one dict lookup; the checks a
        first use runs must reject the same calls afterwards."""
        reg = MetricsRegistry()
        for _ in range(2):  # first use, then the hot path
            reg.inc("adamant_queries_total", model="oaat", status="ok")
            reg.set("depth", 3, lane="batch")
            reg.observe("latency_seconds", 0.5, lane="batch")
            for call in (
                # wrong label sets: missing, extra, renamed
                lambda: reg.inc("adamant_queries_total", model="oaat"),
                lambda: reg.inc("adamant_queries_total", model="oaat",
                                status="ok", extra="x"),
                lambda: reg.set("depth", 1, queue="batch"),
                lambda: reg.observe("latency_seconds", 0.1),
                # kind clashes, every direction
                lambda: reg.set("adamant_queries_total", 1,
                                model="oaat", status="ok"),
                lambda: reg.observe("depth", 1.0, lane="batch"),
                lambda: reg.inc("latency_seconds", lane="batch"),
                # invalid names can never have been declared
                lambda: reg.inc("bad name"),
                lambda: reg.set("9lives", 1),
                lambda: reg.observe("", 1.0),
            ):
                with pytest.raises(ValueError):
                    call()
        assert reg.value("adamant_queries_total",
                         model="oaat", status="ok") == 2.0
        assert reg.value("depth", lane="batch") == 3.0
        assert sorted(reg.snapshot()) == [
            "adamant_queries_total", "depth", "latency_seconds"]

    def test_unset_metric_reads_zero(self):
        reg = MetricsRegistry()
        assert reg.value("nope") == 0.0
        assert reg.total("nope") == 0.0

    def test_json_round_trips_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("adamant_chunks_total", 7, model="chunked")
        assert json.loads(reg.to_json()) == json.loads(
            json.dumps(reg.snapshot()))

    def test_reset_forgets_everything(self):
        reg = MetricsRegistry()
        reg.inc("adamant_chunks_total", model="chunked")
        reg.reset()
        assert reg.snapshot() == {}
        assert reg.prometheus_text() == ""

    def test_catalog_entries_well_formed(self):
        for name, (kind, labels, help_text) in METRIC_CATALOG.items():
            assert kind in ("counter", "gauge", "histogram"), name
            assert isinstance(labels, tuple), name
            assert help_text, name
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    rf"(\{{{_LABEL}(,{_LABEL})*\}})?"
    r" -?[0-9.e+-]+(e[+-]?[0-9]+)?$")


def _parse_prometheus(text):
    """Validate the text exposition format; return {sample_name: value}."""
    samples = {}
    typed = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram"), line
            typed[name] = kind
        else:
            assert _SAMPLE_LINE.match(line), f"unparseable line: {line!r}"
            key, value = line.rsplit(" ", 1)
            samples[key] = float(value)
    return typed, samples


class TestPrometheusExporter:
    def test_output_parses_and_histograms_are_consistent(self):
        catalog = generate(0.002, seed=42)
        executor = _gpu_executor()
        executor.run(q6.build(), catalog, model="chunked",
                     chunk_size=1024, fuse=True)
        text = executor.metrics.prometheus_text()
        typed, samples = _parse_prometheus(text)

        assert typed["adamant_queries_total"] == "counter"
        assert typed["adamant_query_seconds"] == "histogram"
        assert samples['adamant_queries_total'
                       '{model="chunked",status="ok"}'] == 1.0

        # Histogram buckets are cumulative and capped by +Inf == _count.
        buckets = [value for key, value in samples.items()
                   if key.startswith("adamant_query_seconds_bucket")]
        assert buckets == sorted(buckets)
        inf = samples['adamant_query_seconds_bucket'
                      '{model="chunked",le="+Inf"}']
        assert inf == samples['adamant_query_seconds_count{model="chunked"}']

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.inc("odd_total", tag='quo"te\nline')
        text = reg.prometheus_text()
        assert 'tag="quo\\"te\\nline"' in text
        _parse_prometheus(text)


# ---------------------------------------------------------------------------
# EXPLAIN


class TestExplain:
    def test_two_renders_byte_identical(self):
        outputs = []
        for _ in range(2):
            catalog = generate(0.002, seed=42)
            executor = _gpu_executor()
            outputs.append(explain(
                q6.build(), catalog, devices=executor.devices,
                default_device=executor.default_device,
                model="chunked", chunk_size=1024, fuse=True))
        assert outputs[0] == outputs[1]

    def test_anatomy(self, tiny_catalog):
        executor = _gpu_executor()
        text = explain(q6.build(), tiny_catalog,
                       devices=executor.devices,
                       default_device=executor.default_device,
                       model="chunked", chunk_size=1024)
        assert text.startswith("EXPLAIN q6")
        assert "model=chunked  chunk_size=1024" in text
        assert "device gpu0: gpu/cuda" in text
        assert "scan lineitem.l_shipdate" in text
        assert "sum_rev: agg_block" in text
        assert "*breaker*" in text
        assert "estimated total:" in text

    def test_fusion_shows_step_list(self, tiny_catalog):
        executor = _gpu_executor()
        fused = explain(q6.build(), tiny_catalog,
                        devices=executor.devices,
                        default_device=executor.default_device, fuse=True)
        assert "fused_filter_agg[" in fused
        assert "fuse=on" in fused
        unfused = explain(q6.build(), tiny_catalog,
                          devices=executor.devices,
                          default_device=executor.default_device)
        assert "fused_" not in unfused

    def test_oaat_is_single_chunk(self, tiny_catalog):
        executor = _gpu_executor()
        text = explain(q6.build(), tiny_catalog,
                       devices=executor.devices,
                       default_device=executor.default_device,
                       model="oaat", chunk_size=64)
        assert "chunks=1" in text

    def test_chunk_count_matches_execution(self, tiny_catalog):
        executor = _gpu_executor()
        text = explain(q6.build(), tiny_catalog,
                       devices=executor.devices,
                       default_device=executor.default_device,
                       model="chunked", chunk_size=1024)
        result = executor.run(q6.build(), tiny_catalog, model="chunked",
                              chunk_size=1024)
        assert f"chunks={result.stats.chunks_processed}" in text

    def test_requires_devices(self, tiny_catalog):
        from repro.errors import ExecutionError
        with pytest.raises(ExecutionError):
            explain(q6.build(), tiny_catalog, devices={})


# ---------------------------------------------------------------------------
# ANALYZE


class TestAnalyze:
    @pytest.mark.parametrize("model", PAPER_MODELS)
    @pytest.mark.parametrize("query", ["q3", "q4", "q6"])
    def test_attribution_sums_to_makespan(self, query, model,
                                          tiny_catalog):
        executor = _gpu_executor()
        result = executor.run(_graph(query, tiny_catalog), tiny_catalog,
                              model=model, chunk_size=1024, analyze=True)
        profile = result.profile
        assert profile is not None
        attributed = (sum(n.attributed_seconds for n in profile.nodes)
                      + sum(profile.overhead.values())
                      + profile.idle_seconds)
        makespan = result.stats.makespan
        assert profile.makespan == makespan
        assert attributed == pytest.approx(makespan, rel=0.01)

    def test_no_profile_without_analyze(self, tiny_catalog):
        executor = _gpu_executor()
        result = executor.run(q6.build(), tiny_catalog, model="chunked",
                              chunk_size=1024)
        assert result.profile is None

    def test_render_byte_identical_across_runs(self):
        renders = []
        for _ in range(2):
            catalog = generate(0.002, seed=42)
            executor = _gpu_executor()
            result = executor.run(q6.build(), catalog, model="chunked",
                                  chunk_size=1024, fuse=True,
                                  analyze=True)
            renders.append(result.profile.render())
        assert renders[0] == renders[1]
        assert renders[0].startswith("ANALYZE ")

    def test_counts_and_estimates(self, tiny_catalog):
        executor = _gpu_executor()
        result = executor.run(q6.build(), tiny_catalog, model="chunked",
                              chunk_size=1024, analyze=True)
        profile = result.profile
        assert profile.model == "chunked"
        assert sum(n.launches for n in profile.nodes) == \
            result.stats.kernels_launched
        chunks = result.stats.chunks_processed
        for node in profile.nodes:
            assert node.chunks == chunks
            assert node.estimated_seconds > 0
            assert node.busy_seconds >= node.attributed_seconds
        assert profile.estimated_total == pytest.approx(
            sum(n.estimated_seconds for n in profile.nodes))


# ---------------------------------------------------------------------------
# Engine metrics plumbing


class TestEngineMetrics:
    def test_run_populates_registry(self, tiny_catalog):
        executor = _gpu_executor()
        result = executor.run(q6.build(), tiny_catalog, model="chunked",
                              chunk_size=1024, fuse=True)
        metrics = executor.metrics
        assert metrics.value("adamant_queries_total",
                             model="chunked", status="ok") == 1.0
        assert metrics.total("adamant_kernel_launches_total") == \
            result.stats.kernels_launched
        assert metrics.value("adamant_chunks_total", model="chunked") == \
            result.stats.chunks_processed
        assert metrics.value("adamant_query_makespan_seconds",
                             model="chunked", query="q0") == \
            pytest.approx(result.stats.makespan)
        assert metrics.value("adamant_transfer_bytes_total",
                             device="gpu0", direction="h2d") > 0
        assert metrics.value("adamant_device_peak_bytes",
                             device="gpu0") > 0

    def test_residency_hits_counted(self, tiny_catalog):
        # Disable subplan caching: a cached warm rerun skips the scan
        # pipeline, so the residency counters would never move.
        engine = Engine(enable_subplan_cache=False)
        engine.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI,
                           default=True)
        first = engine.execute(q6.build(), tiny_catalog, model="chunked",
                               chunk_size=1024)
        warm = engine.execute(q6.build(), tiny_catalog, model="chunked",
                              chunk_size=1024)
        assert first.stats.residency_hits == 0
        assert warm.stats.residency_hits > 0
        assert engine.metrics.value(
            "adamant_residency_hits_total", device="gpu0") == \
            warm.stats.residency_hits
        assert engine.metrics.value(
            "adamant_residency_hit_bytes_total", device="gpu0") > 0
        assert engine.metrics.value(
            "adamant_residency_resident_bytes", device="gpu0") > 0

    def test_faults_and_retries_counted(self, tiny_catalog):
        plan = FaultPlan.parse("gpu0:transient:0.2,seed=3")
        engine = Engine(faults=plan)
        engine.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI,
                           default=True)
        result = engine.execute(q6.build(), tiny_catalog, model="chunked",
                                chunk_size=1024)
        assert result.stats.retries > 0
        assert engine.metrics.total("adamant_retries_total") == \
            result.stats.retries
        assert engine.metrics.value(
            "adamant_faults_injected_total",
            device="gpu0", kind="transient") > 0

    def test_sessions_gauge_tracks_admissions(self, tiny_catalog):
        engine = Engine()
        engine.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI,
                           default=True)
        session = engine.open_session()
        assert engine.metrics.value("adamant_sessions_active") == 1.0
        session.close()
        assert engine.metrics.value("adamant_sessions_active") == 0.0


# ---------------------------------------------------------------------------
# Launch counting across recovery restarts (the counters fix)


class TestLaunchCountingAcrossRestarts:
    def _run(self, catalog, faults=None):
        engine = Engine(faults=faults)
        engine.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI,
                           default=True)
        engine.plug_device("host0", OpenMPDevice, CPU_I7_8700)
        result = engine.execute(q6.build(), catalog, model="chunked",
                                chunk_size=1024, fuse=True)
        return engine, result

    def test_fused_launches_not_double_counted(self, tiny_catalog):
        """A scheduler restart re-runs the graph from the top; the
        aborted attempt's launch events must not inflate the completed
        run's launch counters (regression: fused nodes looked like they
        launched more kernels under faults than without)."""
        _, clean = self._run(tiny_catalog)
        engine, faulted = self._run(
            tiny_catalog, FaultPlan.parse("dev0:transient:0.5,seed=7"))
        counters = trace.counters(engine.clock)
        assert counters["recovery_actions"] > 0
        assert faulted.outputs.keys() == clean.outputs.keys()
        assert faulted.stats.kernels_launched == \
            clean.stats.kernels_launched
        assert counters["kernels_launched"] == \
            clean.stats.kernels_launched
        assert counters["fused_kernels_launched"] == \
            clean.stats.fused_nodes * clean.stats.chunks_processed

    def test_retries_still_count_every_attempt(self, tiny_catalog):
        engine, faulted = self._run(
            tiny_catalog, FaultPlan.parse("dev0:transient:0.5,seed=7"))
        counters = trace.counters(engine.clock)
        assert counters["retries"] == faulted.stats.retries > 0


# ---------------------------------------------------------------------------
# The event log is the only ledger: every event is published exactly once


#: The series ``hardware.trace.fold`` derives from events.
FOLDED = {
    "adamant_kernel_launches_total", "adamant_kernel_seconds_total",
    "adamant_transfer_bytes_total", "adamant_residency_hits_total",
    "adamant_residency_hit_bytes_total", "adamant_recovery_actions_total",
    "adamant_adaptive_resize_total", "adamant_adaptive_steals_total",
    "adamant_adaptive_replacements_total",
}


def assert_registry_is_the_fold_of_the_trace(engine):
    """Whatever the registry holds under a folded name is, bit for bit,
    the same fold applied to the clock's whole event list — nothing
    published twice, nothing missed, float sums in schedule order."""
    want = trace.fold(engine.clock).series
    snapshot = engine.metrics.snapshot()
    got = {(name, *sample["labels"].values()): sample["value"]
           for name in FOLDED if name in snapshot
           for sample in snapshot[name]["samples"]}
    assert {key[0] for key in want} <= FOLDED
    assert got == want
    assert want  # the run did something


class TestEveryEventIsPublishedOnce:
    def _engine(self, **kwargs):
        engine = Engine(**kwargs)
        engine.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI,
                           default=True)
        engine.plug_device("host0", OpenMPDevice, CPU_I7_8700)
        return engine

    def test_concurrent_batch_over_two_waves(self, tiny_catalog):
        engine = self._engine(max_concurrent=2)
        for _ in range(2):  # round two hits both caches
            results = engine.run_concurrent([
                QueryRequest(graph=_graph(name, tiny_catalog),
                             catalog=tiny_catalog, chunk_size=1024)
                for name in ("q3", "q6", "q4")])
        assert_registry_is_the_fold_of_the_trace(engine)
        assert engine.metrics.total("adamant_residency_hits_total") > 0
        assert engine.metrics.total("adamant_subplan_cache_hits_total") \
            == sum(r.stats.subplan_cache_hits for r in results) > 0

    def test_failover_restart(self, tiny_catalog):
        clean = self._engine().execute(
            q6.build(), tiny_catalog, chunk_size=1024)
        engine = self._engine(
            faults=FaultPlan.parse("dev0:device_loss:30"))
        result = engine.execute(q6.build(), tiny_catalog, chunk_size=1024)
        assert result.stats.failovers == 1
        assert_registry_is_the_fold_of_the_trace(engine)
        assert engine.metrics.value("adamant_recovery_actions_total",
                                    reason="failover") == 1.0
        # The registry keeps the aborted attempt; the stats describe
        # the run that completed.
        assert result.stats.kernels_launched == clean.stats.kernels_launched
        assert engine.metrics.total("adamant_kernel_launches_total") > \
            result.stats.kernels_launched
        assert engine.metrics.value("adamant_faults_injected_total",
                                    device="dev0", kind="device_loss") == 1.0

    def test_served_requests_with_a_preemption(self, tiny_catalog):
        """The interactive query runs as a nested ``execute`` inside the
        batch query's wave: the inner publish takes the outer query's
        events so far, the outer one only the rest."""
        engine = self._engine()
        report = QueryService(engine).serve([
            ServeRequest(
                query=QueryRequest(graph=_graph(name, tiny_catalog),
                                   catalog=tiny_catalog, chunk_size=256,
                                   label=name),
                lane=lane, arrival_s=arrival, request_id=name)
            for name, lane, arrival in (("q3", BATCH, 0.0),
                                        ("q6", INTERACTIVE, 1e-6))])
        assert sum(o.preemptions for o in report.outcomes) > 0
        assert_registry_is_the_fold_of_the_trace(engine)
        assert engine.metrics.total("adamant_kernel_launches_total") == \
            sum(o.result.stats.kernels_launched for o in report.outcomes)

    def test_a_reused_session_publishes_its_retries_once(self,
                                                         tiny_catalog):
        engine = self._engine(
            faults=FaultPlan.parse("dev0:transient:0.2,seed=3"))
        with engine.open_session() as session:
            for _ in range(2):
                engine.execute(q6.build(), tiny_catalog, chunk_size=1024,
                               session=session)
            assert engine.metrics.total("adamant_retries_total") == \
                session.recovery.retries > 0
        assert_registry_is_the_fold_of_the_trace(engine)

    def test_device_names_must_not_break_the_label_grammar(self):
        with pytest.raises(ExecutionError, match="':'"):
            Engine().plug_device("gpu:0", CudaDevice, GPU_RTX_2080_TI)


def stats_by_definition(ctx) -> dict:
    """What ``collect_stats`` derives from the query's events: one sum
    per figure; launches count only after the last restart."""
    query = ctx.query
    events = ctx.clock.events_of(query.query_id)
    categories: dict[str, float] = {}
    for e in events:
        categories[e.category] = categories.get(e.category, 0.0) \
            + e.duration
    end = max((e.end for e in events), default=query.epoch_start)
    restart_eid = max((e.eid for e in events
                       if e.category == "recovery"), default=-1)
    return dict(
        makespan=max(0.0, end - query.epoch_start),
        time_by_category=categories,
        transfer_bytes=sum(e.nbytes for e in events
                           if e.category == "transfer"),
        kernel_invocations=sum(1 for e in events
                               if e.category == "compute"),
        residency_hits=sum(1 for e in events if e.category == "cache"),
        residency_hit_bytes=sum(e.nbytes for e in events
                                if e.category == "cache"),
        kernels_launched=sum(1 for e in events
                             if e.category == "launch"
                             and e.eid > restart_eid),
    )


class TestCollectStats:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["", "q0", "other"]), st.integers(0, 2),
        st.sampled_from(["compute", "launch", "transfer", "cache",
                         "recovery", "subplan", "alloc"]),
        st.integers(0, 1 << 40),
        st.floats(0.0, 2.0, allow_nan=False)), max_size=40),
        st.floats(0.0, 30.0, allow_nan=False))
    def test_one_pass_equals_one_sum_per_figure(self, steps, epoch_start):
        ctx = make_context(None)
        ctx.query.epoch_start = epoch_start
        for owner, stream, category, nbytes, duration in steps:
            ctx.clock.current_owner = owner
            ctx.clock.schedule(f"s{stream}", duration, category=category,
                               nbytes=nbytes)
        stats = ctx.collect_stats(chunks=3)
        expected = stats_by_definition(ctx)
        assert {key: getattr(stats, key) for key in expected} == expected
        assert list(stats.time_by_category) == list(
            expected["time_by_category"])
