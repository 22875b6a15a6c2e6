"""Differential tests for what a launch resolves once.

A lane step binds what no chunk changes, a device keeps its labels per
primitive, a cost model reads its calibration once per instance and the
clock keeps a running ``now()``.  None of that may be visible: each
memo is checked here against the *definition* it stands for — a freshly
built cost model, the maximum over the streams, routing every input.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import MODELS, ExecutionModel
from repro.core.pipelines import split_pipelines
from repro.devices import OpenCLDevice
from repro.errors import SchedulingError
from repro.hardware import GPU_A100, VirtualClock
from repro.hardware import calibration as cal
from repro.tpch.queries import QUERIES
from tests.conftest import make_executor
from tests.test_plugin_conformance import DEVICE_CLASSES, blob

# ---------------------------------------------------------------------------
# (a) a used cost model == a freshly constructed one

#: One long-lived cost model per class: every example warms it further.
USED = {key: driver(key, spec, VirtualClock()).cost
        for key, (driver, spec) in DEVICE_CLASSES.items()}
PRIMITIVES = sorted({name for rates in cal.PRIMITIVE_RATES.values()
                     for name in rates})


class TestCostModelMemo:
    @pytest.mark.parametrize("key", sorted(DEVICE_CLASSES))
    @settings(max_examples=60, deadline=None)
    @given(primitive=st.sampled_from(PRIMITIVES),
           n=st.integers(0, 2**34),
           groups=st.none() | st.integers(1, 2**26),
           num_args=st.integers(0, 12))
    def test_used_model_prices_as_a_fresh_one(self, key, primitive, n,
                                              groups, num_args):
        used = USED[key]
        fresh = type(used)(used.spec, used.sdk)
        used.kernel_seconds(primitive, 1)  # memo-warm for *primitive*
        for price in (
                lambda c: c.kernel_seconds(primitive, n, groups=groups),
                lambda c: c.node_seconds(primitive, n, {}, groups=groups),
                lambda c: c.node_seconds(primitive, n, {"groups": 7},
                                         groups=groups),
                lambda c: c.launch_seconds(num_args),
                lambda c: c.alloc_seconds(n, pinned=True)):
            assert price(used) == price(fresh)

    @pytest.mark.parametrize("key", sorted(DEVICE_CLASSES))
    def test_uncalibrated_primitive_raises_on_every_call(self, key):
        for _ in range(2):
            with pytest.raises(SchedulingError, match="no calibrated rate"):
                USED[key].kernel_seconds("no_such_primitive", 1024)


# ---------------------------------------------------------------------------
# (b) now() == the maximum over the streams

clock_steps = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 3),
              st.floats(0.0, 4.0, allow_nan=False),
              st.lists(st.integers(0, 50), max_size=3),
              st.floats(0.0, 40.0, allow_nan=False)),
    st.tuples(st.just("barrier"),
              st.none() | st.lists(st.integers(0, 4), max_size=3)),
    st.tuples(st.just("drop_stream"), st.integers(0, 3)),
    st.tuples(st.just("reset")),
), max_size=60)


class TestRunningNow:
    @settings(max_examples=200, deadline=None)
    @given(clock_steps)
    def test_now_is_the_latest_stream(self, steps):
        clock = VirtualClock()
        for op, *args in steps:
            if op == "schedule":
                stream, duration, deps, not_before = args
                events = clock.events
                clock.schedule(
                    f"s{stream}", duration, not_before=not_before,
                    deps=[events[i] for i in deps if i < len(events)])
            elif op == "barrier":
                names = args[0]
                clock.barrier(names and [f"s{i}" for i in names])
            elif op == "drop_stream":
                clock.drop_stream(f"s{args[0]}")
            else:
                clock.reset()
            assert clock.now() == max(
                (s.available_at for s in clock.streams.values()),
                default=0.0)


# ---------------------------------------------------------------------------
# (c) routing only the foreign inputs == routing every input


def run_routing(catalog, query, model, fuse, spread, *, route_all):
    """One run on a CUDA + OpenCL fleet in which every result a pipeline
    leaves behind is foreign to its consumer: on the other device
    (*spread*: pipelines alternate devices) or, on its own device,
    re-tagged into the other SDK's format.

    With *route_all* every step routes every input, as the definition
    has it; without, each input a step skips is first shown to route to
    itself for free.  Returns (events, outputs, inputs skipped).
    """
    executor = make_executor(name="gpu0", extra_devices=[
        ("gpu1", OpenCLDevice, GPU_A100)])
    names = sorted(executor.devices)
    skipped = []
    init, cache_persisted, execute_node = (
        ExecutionModel.__init__, ExecutionModel._cache_persisted,
        ExecutionModel.execute_node)

    def placing_init(self, ctx):
        init(self, ctx)
        graph = self.plan.graph
        for index, pipeline in enumerate(split_pipelines(graph)):
            for nid in pipeline.node_ids:
                graph.nodes[nid].device = names[index % 2 if spread else 0]

    def retagging_cache_persisted(self, pipeline):  # a pipeline just ran
        cache_persisted(self, pipeline)
        for nid in pipeline.persisted_ids:
            home = self.ctx.devices[self.node_device[nid]]
            other = next(d for d in self.ctx.devices.values()
                         if d is not home)
            home.memory.get(self.node_alias[nid]).data_format = \
                other.data_format

    def spying_execute_node(self, step, device, buffer=0, **chunk):
        if route_all:
            step.foreign = range(len(step.in_edges))
        for slot, edge in enumerate(step.in_edges):
            if slot in step.foreign:
                continue
            alias = step.inputs[buffer][slot]
            before = (edge.device_id, self.ctx.clock.event_count)
            assert self.hub.router(edge, alias, device) == (alias, [])
            assert (edge.device_id, self.ctx.clock.event_count) == before
            skipped.append(edge)
        return execute_node(self, step, device, buffer, **chunk)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ExecutionModel, "__init__", placing_init)
        patch.setattr(ExecutionModel, "execute_node", spying_execute_node)
        patch.setattr(ExecutionModel, "_cache_persisted",
                      retagging_cache_persisted)
        result = executor.run(QUERIES[query].build(catalog), catalog,
                              model=model, chunk_size=1024, fuse=fuse)
    return executor.clock.events, result.outputs, len(skipped)


class TestForeignRouting:
    @pytest.mark.parametrize("spread", [False, True],
                             ids=["one-device", "alternating"])
    @pytest.mark.parametrize("fuse", [False, True],
                             ids=["unfused", "fused"])
    @pytest.mark.parametrize("query", ["q3", "q5", "q19"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_skipped_inputs_route_to_themselves(self, model, query, fuse,
                                                spread, tiny_catalog):
        events, outputs, skipped = run_routing(
            tiny_catalog, query, model, fuse, spread, route_all=False)
        all_events, all_outputs, none_skipped = run_routing(
            tiny_catalog, query, model, fuse, spread, route_all=True)
        assert events == all_events
        assert blob(outputs) == blob(all_outputs)
        assert none_skipped == 0
        # Operator-at-a-time binds single-use steps: nothing to skip.
        assert (skipped > 0) == (model != "oaat")
        kinds = {event.label.split(":")[1] for event in events}
        assert "transform" in kinds or spread
        if spread and model != "split_chunked":  # which places for itself
            assert {"d2h", "h2d"} <= kinds
