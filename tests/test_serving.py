"""Serving layer: admission control, lanes, deadlines, shedding.

Covers the overload-robustness contract end to end:

* typed load shedding (quotas, budgets, bounded queues) with
  retry-after hints and a property test on the quota accounting;
* lane priority and chunk-boundary preemption of batch pipelines;
* deadline enforcement (gate and scheduler paths) with full state
  reclamation — the mid-chunk cancellation regression asserts zero
  leaked subplan-cache and residency pins;
* graceful degradation (chunk-halving, cache-serve bypass);
* chaos x overload equivalence: with seeded fault plans armed above
  the saturation point, every admitted request's answer stays
  byte-identical to the oracle and every shed request gets a typed
  ``AdmissionRejected``;
* the per-query wall-clock retry budget and its CLI exit code (4).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import CudaDevice, OpenMPDevice
from repro.engine import Engine, QueryRequest
from repro.errors import (
    AdmissionRejected,
    DeadlineExceededError,
    FaultConfigError,
    QueryCancelledError,
    RetryBudgetExhaustedError,
)
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    flapping_device,
    overload_faults,
)
from repro.hardware import CPU_I7_8700, GPU_RTX_2080_TI
from repro.hardware.trace import fold
from repro.observe import explain_admission
from repro.serving import (
    BATCH,
    INTERACTIVE,
    AdmissionController,
    LaneQueue,
    QueryService,
    ServeRequest,
    TenantPolicy,
    open_loop_workload,
)
from repro.serving.workload import QUERY_MIX, build_query, estimate_bytes
from repro.tpch import reference
from tests.conftest import assert_quiescent


def make_engine(*, faults=None, retry_policy=None, host_fallback=False,
                **kwargs):
    engine = Engine(faults=faults, retry_policy=retry_policy, **kwargs)
    engine.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI, default=True)
    if host_fallback:
        engine.plug_device("host0", OpenMPDevice, CPU_I7_8700)
    return engine


def request_for(name, catalog, *, lane=BATCH, arrival_s=0.0,
                deadline_s=None, chunk_size=256, tenant="default",
                request_id="", est_bytes=0, model="chunked"):
    return ServeRequest(
        query=QueryRequest(graph=build_query(name, catalog),
                           catalog=catalog, model=model,
                           chunk_size=chunk_size, label=name),
        tenant=tenant, lane=lane, arrival_s=arrival_s,
        deadline_s=deadline_s, est_bytes=est_bytes,
        request_id=request_id)


def check_oracle(outcome, catalog):
    module = QUERY_MIX[outcome.label]
    answer = module.finalize(outcome.result, catalog)
    expected = getattr(reference, outcome.label)(catalog)
    if isinstance(answer, float):
        assert abs(answer - expected) < 1e-9, outcome.label
    else:
        assert answer == expected, outcome.label


class TestAdmissionController:
    def test_in_flight_quota_and_release(self):
        ctrl = AdmissionController(
            default_policy=TenantPolicy(max_in_flight=2))
        reqs = [ServeRequest(query=None, request_id=f"r{i}",
                             tenant="t") for i in range(3)]
        ctrl.admit(reqs[0], now=0.0, queue_depth=0)
        ctrl.admit(reqs[1], now=0.0, queue_depth=1)
        with pytest.raises(AdmissionRejected) as exc:
            ctrl.admit(reqs[2], now=0.0, queue_depth=2,
                       retry_after_s=0.25)
        assert exc.value.reason == "tenant-in-flight"
        assert exc.value.retry_after_s == 0.25
        assert exc.value.tenant == "t"
        ctrl.release(reqs[0])
        assert ctrl.in_flight("t") == 1
        ctrl.admit(reqs[2], now=1.0, queue_depth=1)

    def test_memory_budget(self):
        ctrl = AdmissionController(
            default_policy=TenantPolicy(max_in_flight=8,
                                        memory_budget=1000))
        big = ServeRequest(query=None, request_id="big", est_bytes=800)
        over = ServeRequest(query=None, request_id="over", est_bytes=300)
        ctrl.admit(big, now=0.0, queue_depth=0)
        with pytest.raises(AdmissionRejected) as exc:
            ctrl.admit(over, now=0.0, queue_depth=0)
        assert exc.value.reason == "tenant-memory"
        ctrl.release(big)
        assert ctrl.admitted_bytes("default") == 0
        ctrl.admit(over, now=0.0, queue_depth=0)

    def test_queue_full_and_cache_bypass(self):
        ctrl = AdmissionController(max_queue_per_lane=1)
        plain = ServeRequest(query=None, request_id="plain")
        covered = ServeRequest(query=None, request_id="covered")
        with pytest.raises(AdmissionRejected) as exc:
            ctrl.admit(plain, now=0.0, queue_depth=1)
        assert exc.value.reason == "lane-queue-full"
        decision = ctrl.admit(covered, now=0.0, queue_depth=1,
                              cache_covered=True)
        assert decision.verdict == "cache-bypass"

    def test_release_is_idempotent_and_exact(self):
        ctrl = AdmissionController(
            default_policy=TenantPolicy(max_in_flight=4,
                                        memory_budget=100))
        req = ServeRequest(query=None, request_id="a", est_bytes=60)
        ctrl.admit(req, now=0.0, queue_depth=0)
        # The refund must match the admission-time charge even if the
        # request object mutates while in flight.
        req.est_bytes = 10
        ctrl.release(req)
        ctrl.release(req)
        assert ctrl.admitted_bytes("default") == 0
        assert ctrl.in_flight("default") == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TenantPolicy(max_in_flight=0)
        with pytest.raises(ValueError):
            TenantPolicy(memory_budget=-1)
        with pytest.raises(ValueError):
            AdmissionController(max_queue_per_lane=0)

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(
        st.one_of(
            st.tuples(st.just("admit"), st.integers(0, 700)),
            st.tuples(st.just("release"), st.integers(0, 60))),
        max_size=60))
    def test_admitted_bytes_never_exceed_budget(self, ops):
        """The quota invariant the issue asks for: whatever the
        admit/release interleaving, the sum of admitted bytes stays
        within the tenant's budget and the books balance."""
        budget = 1000
        ctrl = AdmissionController(
            default_policy=TenantPolicy(max_in_flight=1000,
                                        memory_budget=budget))
        live = []
        counter = 0
        for op, value in ops:
            if op == "admit":
                counter += 1
                req = ServeRequest(query=None, request_id=f"p{counter}",
                                   est_bytes=value)
                try:
                    ctrl.admit(req, now=0.0, queue_depth=0)
                except AdmissionRejected as rejection:
                    assert rejection.reason == "tenant-memory"
                    assert (ctrl.admitted_bytes("default") + value
                            > budget)
                else:
                    live.append(req)
            elif live:
                ctrl.release(live.pop(value % len(live)))
            assert 0 <= ctrl.admitted_bytes("default") <= budget
            assert ctrl.admitted_bytes("default") == \
                sum(r.est_bytes for r in live)
            assert ctrl.in_flight("default") == len(live)


class TestLaneQueue:
    def test_interactive_drains_first(self):
        queue = LaneQueue()
        batch = ServeRequest(query=None, lane=BATCH, request_id="b")
        inter = ServeRequest(query=None, lane=INTERACTIVE,
                             request_id="i")
        queue.push(batch)
        queue.push(inter)
        assert queue.pop().request_id == "i"
        assert queue.pop().request_id == "b"
        assert queue.pop() is None

    def test_batch_orders_by_cache_affinity(self):
        queue = LaneQueue()
        for rid, affinity in (("cold", 0), ("warm", 2), ("tepid", 1)):
            queue.push(ServeRequest(query=None, lane=BATCH,
                                    request_id=rid), affinity=affinity)
        assert [queue.pop().request_id for _ in range(3)] == \
            ["warm", "tepid", "cold"]

    def test_fifo_within_equal_affinity(self):
        queue = LaneQueue()
        for rid in ("first", "second"):
            queue.push(ServeRequest(query=None, lane=INTERACTIVE,
                                    request_id=rid))
        assert queue.pop(INTERACTIVE).request_id == "first"
        assert queue.depth(INTERACTIVE) == 1


class TestServeBasics:
    def test_open_loop_all_admitted(self, tiny_catalog):
        engine = make_engine()
        service = QueryService(engine)
        requests = open_loop_workload(
            tiny_catalog, qps=2000, duration_s=0.01, seed=3,
            chunk_size=1024, interactive_deadline_s=0.5)
        report = service.serve(requests)
        assert len(report.outcomes) == len(requests)
        assert [o.request_id for o in report.outcomes] == \
            [r.request_id for r in
             sorted(requests, key=lambda r: (r.arrival_s, r.request_id))]
        for outcome in report.outcomes:
            assert outcome.status == "ok"
            assert outcome.latency_s is not None
            assert outcome.latency_s >= 0.0
            assert outcome.queue_delay_s >= 0.0
            check_oracle(outcome, tiny_catalog)
        summary = report.summary()
        total = sum(summary[lane]["submitted"] for lane in summary)
        assert total == len(requests)
        assert engine.metrics.total(
            "adamant_serving_admitted_total") == len(requests)
        assert_quiescent(engine)

    def test_a_served_query_folds_only_its_own_rows(self, tiny_catalog):
        """Arrival markers are scheduled while the engine idles, charged
        to nobody: they are no request's work, so no request's
        statistics count them."""
        engine = make_engine()
        report = QueryService(engine).serve([
            request_for(name, tiny_catalog, arrival_s=at,
                        request_id=f"r{i}")
            for i, (name, at) in enumerate(
                (("q6", 0.0), ("q1", 1.0), ("q6", 2.0), ("q6", 3.0)))])
        assert [o.status for o in report.outcomes] == ["ok"] * 4
        markers = [e for e in engine.clock.events if e.category == "serving"]
        assert len(markers) >= 3 and not any(e.owner for e in markers)
        for outcome in report.outcomes:
            stats = outcome.result.stats
            assert "serving" not in stats.time_by_category
            own = Counter(e.category for e in engine.clock.events
                          if e.owner == stats.query_id)
            assert fold(engine.clock, stats.query_id).count == own

    def test_workload_is_deterministic(self, tiny_catalog):
        streams = [open_loop_workload(tiny_catalog, qps=500,
                                      duration_s=0.01, seed=9)
                   for _ in range(2)]
        assert [(r.request_id, r.arrival_s, r.lane, r.tenant,
                 r.query.label) for r in streams[0]] == \
            [(r.request_id, r.arrival_s, r.lane, r.tenant,
              r.query.label) for r in streams[1]]

    def test_workload_validation(self, tiny_catalog):
        with pytest.raises(ValueError):
            open_loop_workload(tiny_catalog, qps=0, duration_s=1.0)
        with pytest.raises(ValueError):
            open_loop_workload(tiny_catalog, qps=10, duration_s=0)
        with pytest.raises(ValueError):
            open_loop_workload(tiny_catalog, qps=10, duration_s=1.0,
                               queries=("q99",))
        assert estimate_bytes("q6", tiny_catalog, 2) == \
            2 * estimate_bytes("q6", tiny_catalog, 1)

    def test_overload_sheds_with_typed_rejections(self, tiny_catalog):
        engine = make_engine()
        controller = AdmissionController(
            default_policy=TenantPolicy(max_in_flight=2),
            max_queue_per_lane=2)
        service = QueryService(engine, controller=controller)
        requests = open_loop_workload(
            tiny_catalog, qps=50000, duration_s=0.002, seed=5,
            chunk_size=256)
        report = service.serve(requests)
        shed = report.with_status("rejected")
        assert shed, "overload run was expected to shed"
        for outcome in shed:
            assert isinstance(outcome.error, AdmissionRejected)
            assert outcome.error.reason in (
                "tenant-in-flight", "tenant-memory", "lane-queue-full")
            assert outcome.retry_after_s > 0.0
            assert outcome.result is None
        served = report.with_status("ok")
        assert served
        for outcome in served:
            check_oracle(outcome, tiny_catalog)
        assert engine.metrics.total("adamant_serving_shed_total") == \
            len(shed)
        log = explain_admission(service.controller.decisions)
        assert log.startswith("ADMISSION LOG")
        assert "shed" in log
        assert_quiescent(engine)


class TestPreemption:
    def test_interactive_preempts_batch_at_chunk_boundary(
            self, tiny_catalog):
        engine = make_engine()
        service = QueryService(engine)
        report = service.serve([
            request_for("q1", tiny_catalog, lane=BATCH,
                        arrival_s=0.0, request_id="b1"),
            request_for("q6", tiny_catalog, lane=INTERACTIVE,
                        arrival_s=1e-6, request_id="i1"),
        ])
        by_id = {o.request_id: o for o in report.outcomes}
        assert by_id["i1"].preemptions >= 1
        assert by_id["i1"].finished_s < by_id["b1"].finished_s
        assert engine.metrics.total(
            "adamant_serving_preemptions_total") >= 1
        check_oracle(by_id["b1"], tiny_catalog)
        check_oracle(by_id["i1"], tiny_catalog)

    def test_preemption_keeps_batch_answer_byte_identical(
            self, tiny_catalog):
        solo = make_engine()
        solo_result = solo.execute(build_query("q1", tiny_catalog),
                                   tiny_catalog, chunk_size=256)
        solo_answer = QUERY_MIX["q1"].finalize(solo_result, tiny_catalog)
        engine = make_engine()
        report = QueryService(engine).serve([
            request_for("q1", tiny_catalog, lane=BATCH,
                        arrival_s=0.0, request_id="b1"),
            request_for("q6", tiny_catalog, lane=INTERACTIVE,
                        arrival_s=1e-6, request_id="i1"),
        ])
        by_id = {o.request_id: o for o in report.outcomes}
        assert by_id["b1"].preemptions == 0
        served_answer = QUERY_MIX["q1"].finalize(
            by_id["b1"].result, tiny_catalog)
        assert served_answer == solo_answer

    def test_no_preempt_flag_disables_preemption(self, tiny_catalog):
        engine = make_engine()
        service = QueryService(engine, preempt=False)
        report = service.serve([
            request_for("q1", tiny_catalog, lane=BATCH,
                        arrival_s=0.0, request_id="b1"),
            request_for("q6", tiny_catalog, lane=INTERACTIVE,
                        arrival_s=1e-6, request_id="i1"),
        ])
        by_id = {o.request_id: o for o in report.outcomes}
        assert by_id["i1"].preemptions == 0
        assert by_id["b1"].finished_s < by_id["i1"].finished_s


class TestDeadlines:
    def test_deadline_miss_cancels_midchunk_and_leaks_nothing(
            self, tiny_catalog):
        """The satellite regression: cancel mid-chunk, assert the
        teardown reclaimed every subplan-cache and residency pin."""
        engine = make_engine()
        service = QueryService(engine)
        # Warm run so the deadline-missing query can pin cache state.
        warm = service.serve([request_for("q1", tiny_catalog,
                                          request_id="warm")])
        assert warm.outcomes[0].status == "ok"
        report = service.serve([
            request_for("q1", tiny_catalog, lane=BATCH,
                        chunk_size=128, deadline_s=1e-6,
                        request_id="doomed"),
        ])
        outcome = report.outcomes[0]
        assert outcome.status == "deadline"
        assert isinstance(outcome.error, DeadlineExceededError)
        assert isinstance(outcome.error, QueryCancelledError)
        assert outcome.result is None
        assert engine.metrics.total(
            "adamant_serving_deadline_misses_total") == 1
        assert engine.metrics.value("adamant_sessions_active") == 0
        assert service.controller.in_flight("default") == 0
        assert_quiescent(engine)

    def test_scheduler_enforces_deadline_at_pipeline_boundary(
            self, tiny_catalog):
        """The scheduler path covers unchunked models: a session whose
        deadline already passed is cancelled before its next pipeline
        step, with no gate involved."""
        engine = make_engine()
        session = engine.open_session(label="late")
        session.deadline = -1.0
        with pytest.raises(DeadlineExceededError):
            engine.execute(build_query("q1", tiny_catalog), tiny_catalog,
                           model="pipelined", session=session)
        session.close()
        assert engine.metrics.value("adamant_sessions_active") == 0
        assert_quiescent(engine)

    def test_deadline_generous_enough_is_met(self, tiny_catalog):
        engine = make_engine()
        report = QueryService(engine).serve([
            request_for("q6", tiny_catalog, lane=INTERACTIVE,
                        deadline_s=10.0, request_id="easy"),
        ])
        assert report.outcomes[0].status == "ok"
        assert report.deadline_miss_rate(INTERACTIVE) == 0.0

    def test_session_cancel_api(self, tiny_catalog):
        engine = make_engine()
        session = engine.open_session(label="doomed")
        assert not session.cancelled
        session.cancel()
        assert session.cancelled
        assert isinstance(session.error, QueryCancelledError)
        assert session.state == "closed"
        assert engine.metrics.value("adamant_sessions_active") == 0
        session.cancel()  # idempotent on a closed session


class TestDegradation:
    def test_queue_pressure_halves_batch_chunks(self, tiny_catalog):
        engine = make_engine()
        service = QueryService(engine, degrade_queue_depth=1)
        report = service.serve([
            request_for("q6", tiny_catalog, lane=BATCH,
                        chunk_size=1024, request_id="b1"),
            request_for("q6", tiny_catalog, lane=BATCH,
                        chunk_size=1024, arrival_s=1e-7,
                        request_id="b2"),
        ])
        degraded = [o for o in report.outcomes if o.degraded]
        assert degraded, "expected at least one chunk-halved dispatch"
        assert engine.metrics.value("adamant_serving_degraded_total",
                                    action="chunk-halve") >= 1
        for outcome in report.outcomes:
            assert outcome.status == "ok"
            check_oracle(outcome, tiny_catalog)

    def test_cache_covered_request_bypasses_full_queue(
            self, tiny_catalog):
        engine = make_engine()
        controller = AdmissionController(max_queue_per_lane=1)
        service = QueryService(engine, controller=controller,
                               degrade_queue_depth=None)
        warm = service.serve([request_for("q6", tiny_catalog,
                                          request_id="warm")])
        assert warm.outcomes[0].status == "ok"
        report = service.serve([
            request_for("q1", tiny_catalog, request_id="busy"),
            request_for("q4", tiny_catalog, arrival_s=1e-7,
                        request_id="unlucky"),
            request_for("q6", tiny_catalog, arrival_s=2e-7,
                        request_id="covered"),
        ])
        by_id = {o.request_id: o for o in report.outcomes}
        assert by_id["unlucky"].status == "rejected"
        assert by_id["unlucky"].error.reason == "lane-queue-full"
        assert by_id["covered"].status == "ok"
        assert by_id["covered"].cache_served
        assert engine.metrics.value("adamant_serving_degraded_total",
                                    action="cache-serve") >= 1
        check_oracle(by_id["covered"], tiny_catalog)


@pytest.mark.parametrize("scenario", ["overload", "flapping"])
class TestChaosUnderOverload:
    """Faults armed while the admission queue saturates: admitted
    answers stay byte-identical, shed requests get typed rejections."""

    def _plan(self, scenario):
        return (overload_faults(rate=0.1, seed=11)
                if scenario == "overload"
                else flapping_device(rate=0.3, seed=4))

    def test_equivalence(self, tiny_catalog, scenario):
        engine = make_engine(faults=self._plan(scenario),
                             host_fallback=True)
        controller = AdmissionController(
            default_policy=TenantPolicy(max_in_flight=3),
            max_queue_per_lane=3)
        service = QueryService(engine, controller=controller)
        requests = open_loop_workload(
            tiny_catalog, qps=20000, duration_s=0.003, seed=2,
            chunk_size=512, interactive_deadline_s=0.5)
        report = service.serve(requests)
        served = report.with_status("ok")
        shed = report.with_status("rejected")
        assert served, "some requests must survive the chaos"
        assert shed, "this rate must saturate the queue"
        for outcome in served:
            check_oracle(outcome, tiny_catalog)
        for outcome in shed:
            assert isinstance(outcome.error, AdmissionRejected)
        assert report.deadline_miss_rate(INTERACTIVE) == 0.0
        assert_quiescent(engine)

    def test_decisions_are_reproducible(self, tiny_catalog, scenario):
        def run():
            engine = make_engine(faults=self._plan(scenario),
                                 host_fallback=True)
            controller = AdmissionController(
                default_policy=TenantPolicy(max_in_flight=3),
                max_queue_per_lane=3)
            service = QueryService(engine, controller=controller)
            report = service.serve(open_loop_workload(
                tiny_catalog, qps=20000, duration_s=0.002, seed=6,
                chunk_size=512))
            return ([(d.request_id, d.verdict, d.reason)
                     for d in service.controller.decisions],
                    [(o.request_id, o.status) for o in report.outcomes])

        assert run() == run()


class TestRetryBudget:
    FLAKY = FaultPlan([FaultSpec(kind=FaultKind.TRANSIENT,
                                 device="dev0", rate=0.9)], seed=3)

    def test_exhaustion_is_terminal_and_counted(self, tiny_catalog):
        engine = make_engine(
            faults=self.FLAKY,
            retry_policy=RetryPolicy(budget_seconds=1e-7))
        with pytest.raises(RetryBudgetExhaustedError):
            engine.execute(build_query("q6", tiny_catalog), tiny_catalog,
                           chunk_size=512)
        assert engine.metrics.total(
            "adamant_retry_budget_exhausted_total") == 1

    def test_generous_budget_tracks_backoff_spend(self, tiny_catalog):
        engine = make_engine(
            faults=FaultPlan([FaultSpec(kind=FaultKind.TRANSIENT,
                                        device="dev0", rate=0.3)],
                             seed=3),
            retry_policy=RetryPolicy(budget_seconds=10.0))
        result = engine.execute(build_query("q6", tiny_catalog),
                                tiny_catalog, chunk_size=512)
        assert result.stats.retries > 0
        assert result.stats.retry_backoff_seconds > 0.0
        assert not result.stats.retry_budget_exhausted

    def test_policy_validation(self):
        with pytest.raises(FaultConfigError):
            RetryPolicy(budget_seconds=0.0)
        with pytest.raises(FaultConfigError):
            RetryPolicy(budget_seconds=-1.0)
