"""Plug-in conformance: the contract every device class must honour.

ADAMANT's extension story only works if "implement the ten interfaces"
is a *checkable* promise.  This module is that check, parametrized over
the device classes of the cell table (``tools/timeline_digest.py``,
which runs every query on each through every front door and fault plan):

* every primitive resolves to a kernel under the device's variant key
  (``prepare_kernel``/``execute`` can never dead-end);
* ``unplug_device`` tears the device fully down — no buffers, pins,
  transforms or clock streams survive (``release``);
* the cost model prices every primitive positive and finite — the
  optimizer consumes these numbers unguarded.

``check_query_byte_identity`` (outputs equal the OpenMP driver's) and
``check_fault_recovery`` (faults converge to the fault-free answer)
complete the checklist a plug-in author runs on a device of their own.

The checks are plain functions so the suite can also be pointed at a
*deliberately broken* device and must then fail loudly, naming the
violated interface (see ``TestBrokenDeviceFailsLoudly``).  Two
hypothesis properties pin the new devices' defining invariants:
RT-core probe pricing is monotone (cost non-increasing as selectivity
drops the probe count) and the coupled device never counts a
host-to-device byte.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, FaultPlan
from repro.core.executor import AdamantExecutor
from repro.devices import (
    CoupledDevice,
    CudaDevice,
    OpenMPDevice,
    RTCoreDevice,
)
from repro.errors import NoImplementationError
from repro.hardware import (
    APU_RYZEN_7_8700G,
    CPU_I7_8700,
    GPU_RTX_2080_TI,
    GPU_RTX_3090,
)
from repro.hardware.costmodel import CostModel, TransferDirection
from repro.primitives.definitions import PRIMITIVES
from repro.primitives.values import value_nbytes
from repro.task.registry import register_variant_kernels
from repro.tpch import dbgen
from repro.tpch.queries import QUERIES, q3, q6
from tests.test_timeline_golden import load_tool

CHUNK = 2048

#: The device classes under contract, with a representative spec: one
#: entry in the cell table is all a new plug-in needs.
DEVICE_CLASSES = load_tool().DEVICE_CLASSES

#: Module-scope catalog (same stream as ``tiny_catalog``) so hypothesis
#: properties avoid function-scoped fixture health checks.
CATALOG = dbgen.generate(0.0005, seed=7)


def build_query(qname, catalog):
    # Q18's spec threshold yields empty results at tiny scale; this one
    # produces rows so the comparison is not vacuous.
    params = {"quantity": 220} if qname == "q18" else {}
    return QUERIES[qname].build(catalog, **params)


#: The cell table's digest of an output's types, shapes and bytes.
blob = load_tool().outputs_sha


def plug(host, device_cls, spec, *, name="dev0", **kwargs):
    """Plug *device_cls* and claim its full kernel-variant set."""
    device = host.plug_device(name, device_cls, spec, **kwargs)
    register_variant_kernels(host.registry, device.variant_key)
    return device


# ---------------------------------------------------------------------------
# The conformance checks (reusable against broken fixtures)
# ---------------------------------------------------------------------------


def check_kernel_variants(host, device) -> None:
    """Every primitive resolves under the device's variant key."""
    for primitive in sorted(PRIMITIVES):
        try:
            container = host.registry.resolve(primitive,
                                              device.variant_key)
        except NoImplementationError:
            raise AssertionError(
                f"prepare_kernel/execute contract violated: primitive "
                f"{primitive!r} has no kernel under variant "
                f"{device.variant_key!r} and no reference fallback"
            ) from None
        assert callable(container.fn), (
            f"prepare_kernel contract violated: {primitive!r} resolved "
            f"to a non-callable container under {device.variant_key!r}")


def check_cost_model(device) -> None:
    """Every cost estimate is positive and finite.

    The optimizer and the placement pass consume these numbers without
    guards — a NaN or a negative duration corrupts every plan price.
    """
    cost = device.cost
    cost_keys = sorted({d.cost_key for d in PRIMITIVES.values()})
    for key in cost_keys:
        for n in (1, CHUNK, 1 << 20, 1 << 28):
            groups = 64 if "agg" in key else None
            seconds = cost.kernel_seconds(key, n, groups=groups)
            assert np.isfinite(seconds) and seconds > 0.0, (
                f"cost-model contract violated: kernel_seconds("
                f"{key!r}, {n}) = {seconds!r} must be positive and "
                f"finite")
    for direction in (TransferDirection.H2D, TransferDirection.D2H):
        for pinned in (False, True):
            seconds = cost.transfer_seconds(1 << 20, direction=direction,
                                            pinned=pinned)
            assert np.isfinite(seconds) and seconds >= 0.0, (
                f"cost-model contract violated: transfer_seconds("
                f"direction={direction}, pinned={pinned}) = {seconds!r}")
            bandwidth = cost.bandwidth(direction, pinned)
            assert np.isfinite(bandwidth) and bandwidth > 0.0, (
                f"cost-model contract violated: bandwidth("
                f"{direction}, pinned={pinned}) = {bandwidth!r}")
    for fn, args in (("alloc_seconds", (1 << 20,)),
                     ("launch_seconds", (4,)),
                     ("compile_seconds", ())):
        seconds = getattr(cost, fn)(*args)
        assert np.isfinite(seconds) and seconds >= 0.0, (
            f"cost-model contract violated: {fn}{args} = {seconds!r}")


def check_query_byte_identity(device_cls, spec, qname, catalog) -> None:
    """The device's answer equals the OpenMP reference, byte for byte."""
    module = QUERIES[qname]

    def run(cls, dev_spec):
        executor = AdamantExecutor()
        plug(executor, cls, dev_spec, default=True)
        return executor.run(build_query(qname, catalog), catalog,
                            model="four_phase_pipelined",
                            chunk_size=CHUNK)
    result = run(device_cls, spec)
    reference = run(OpenMPDevice, CPU_I7_8700)
    assert sorted(result.outputs) == sorted(reference.outputs), (
        f"execute contract violated: {device_cls.__name__} produced "
        f"different outputs for {qname}")
    for out in reference.outputs:
        assert blob(result.output(out)) == blob(reference.output(out)), (
            f"execute contract violated: {device_cls.__name__} output "
            f"{out!r} of {qname} is not byte-identical to the OpenMP "
            f"reference")
    # The human-facing answer agrees too (guards finalize-path drift).
    assert blob(module.finalize(result, catalog)) == \
        blob(module.finalize(reference, catalog)), (
            f"execute contract violated: {device_cls.__name__} "
            f"finalized answer for {qname} diverges from the reference")


def check_unplug_teardown(device_cls, spec, catalog) -> None:
    """``unplug_device`` (-> ``release``) leaves no residue behind."""
    engine = Engine()
    device = plug(engine, device_cls, spec, default=True)
    engine.execute(q6.build(), catalog,
                   model="four_phase_pipelined", chunk_size=CHUNK)
    engine.unplug_device("dev0")
    assert not device.memory.aliases(), (
        f"release contract violated: {device_cls.__name__}.release() "
        f"left device buffers {device.memory.aliases()!r} after "
        f"unplug_device")
    assert device.memory.used == 0 if hasattr(device.memory, "used") \
        else True
    assert device.memory.pinned_used == 0, (
        f"release contract violated: {device_cls.__name__}.release() "
        f"left {device.memory.pinned_used} bytes of pinned memory "
        f"after unplug_device")
    assert not device.data_container.transforms, (
        f"release contract violated: {device_cls.__name__}.release() "
        f"left registered format transforms after unplug_device")
    for stream in (device.compute_stream, device.transfer_stream):
        assert stream not in engine.clock.streams, (
            f"release contract violated: {device_cls.__name__}."
            f"release() left clock stream {stream!r} after "
            f"unplug_device")


#: kind -> (fault spec, query builder).  OOM uses the chunk-halving
#: ladder's proven envelope (kernel-time spikes on a streaming scan);
#: transient and device-loss run the join so retries and failover
#: replay hash-table state.
FAULT_LADDER = {
    "transient": ("dev0:transient:0.2,seed=5",
                  lambda catalog: q3.build(catalog)),
    "oom": ("dev0:oom:0.05,seed=3", lambda catalog: q6.build()),
    "device_loss": ("dev0:device_loss:5,seed=5",
                    lambda catalog: q3.build(catalog)),
}


def check_fault_recovery(device_cls, spec, catalog, kind) -> None:
    """Injected faults change the timeline, never the answer."""
    fault_spec, build = FAULT_LADDER[kind]

    def run(faults=None):
        engine = Engine(faults=FaultPlan.parse(faults) if faults
                        else None)
        plug(engine, device_cls, spec, default=True)
        engine.plug_device("host0", OpenMPDevice, CPU_I7_8700)
        return engine.execute(build(catalog), catalog,
                              chunk_size=CHUNK)
    clean = run()
    faulted = run(fault_spec)
    assert sorted(clean.outputs) == sorted(faulted.outputs), (
        f"fault-recovery contract violated: {device_cls.__name__} "
        f"under {kind!r} faults lost outputs")
    for out in clean.outputs:
        assert blob(clean.output(out)) == blob(faulted.output(out)), (
            f"fault-recovery contract violated: {device_cls.__name__} "
            f"under {kind!r} faults diverged on output {out!r} — the "
            f"retry/degrade/failover ladder did not converge")


# ---------------------------------------------------------------------------
# The parametrized suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("device_key", sorted(DEVICE_CLASSES))
class TestDeviceConformance:
    def test_kernel_variants_complete(self, device_key):
        device_cls, spec = DEVICE_CLASSES[device_key]
        executor = AdamantExecutor()
        device = plug(executor, device_cls, spec)
        check_kernel_variants(executor, device)
        # The plug-in devices claim the *full* variant set outright —
        # their plans never depend on the resolve-time fallback.
        if device_key in ("rtcore", "coupled"):
            for primitive in sorted(PRIMITIVES):
                assert (primitive, device.variant_key) \
                    in executor.registry, (
                        f"register_variant_kernels missed "
                        f"{primitive!r} for {device.variant_key!r}")

    def test_cost_estimates_positive_finite(self, device_key):
        device_cls, spec = DEVICE_CLASSES[device_key]
        executor = AdamantExecutor()
        device = plug(executor, device_cls, spec)
        check_cost_model(device)

    def test_unplug_leaves_no_residue(self, device_key, tiny_catalog):
        device_cls, spec = DEVICE_CLASSES[device_key]
        check_unplug_teardown(device_cls, spec, tiny_catalog)


# ---------------------------------------------------------------------------
# The suite must fail loudly against a broken device
# ---------------------------------------------------------------------------


class _NegativeCostModel(CostModel):
    def kernel_seconds(self, primitive, n_elements, *, groups=None):
        return -1.0  # deliberately violates the cost contract


class BrokenCostDevice(CudaDevice):
    """Fixture: a device whose cost model emits negative durations."""

    def _make_cost_model(self):
        return _NegativeCostModel(self.spec, self.sdk)


class LeakyReleaseDevice(CudaDevice):
    """Fixture: a device whose ``release`` forgets its buffers."""

    def release(self):
        # Deliberately keeps memory/transforms; only detaches streams
        # so unrelated clock state does not leak between tests.
        self.clock.drop_stream(self.transfer_stream)
        self.clock.drop_stream(self.compute_stream)


class TestBrokenDeviceFailsLoudly:
    def test_negative_costs_are_named(self):
        executor = AdamantExecutor()
        device = plug(executor, BrokenCostDevice, GPU_RTX_2080_TI)
        with pytest.raises(AssertionError,
                           match="cost-model contract violated"):
            check_cost_model(device)

    def test_leaky_release_is_named(self, tiny_catalog):
        with pytest.raises(AssertionError,
                           match="release contract violated"):
            check_unplug_teardown(LeakyReleaseDevice, GPU_RTX_2080_TI,
                                  tiny_catalog)


class _TickingCostModel(CostModel):
    """Fixture: every kernel is priced one microsecond dearer than the
    one before, so a price read once would show."""

    def kernel_seconds(self, primitive, n_elements, *, groups=None):
        priced = vars(self).setdefault("priced", [])
        priced.append(primitive)
        return 1e-6 * len(priced)


class TickingCostDevice(CudaDevice):
    def _make_cost_model(self):
        return _TickingCostModel(self.spec, self.sdk)


class TestCostOverridesRunPerInvocation:
    def test_a_plugged_kernel_price_is_asked_for_every_launch(
            self, tiny_catalog):
        executor = AdamantExecutor()
        device = plug(executor, TickingCostDevice, GPU_RTX_2080_TI)
        result = executor.run(q6.build(), tiny_catalog, chunk_size=1024)
        runs = [event for event in executor.clock.events
                if event.category == "compute"]
        assert result.stats.chunks_processed > 1
        assert len(device.cost.priced) == len(runs) \
            == result.stats.kernel_invocations
        assert [PRIMITIVES[event.label.rpartition(":")[2]].cost_key
                for event in runs] == device.cost.priced
        assert [event.duration for event in runs] == pytest.approx(
            [1e-6 * (index + 1) for index in range(len(runs))])


# ---------------------------------------------------------------------------
# A driver charges the clock; the counters follow from the event log
# ---------------------------------------------------------------------------


class OwnDmaDevice(CudaDevice):
    """Fixture: a driver that overrides an interface wholesale — its
    ``place_data`` schedules its own (twice as fast) ``h2d`` event
    instead of calling the base class."""

    def place_data(self, alias, data, *, offset=0, deps=None):
        self._require_initialized()
        if alias not in self.memory:
            self.prepare_memory(alias, value_nbytes(data))
        nbytes = value_nbytes(data) * self.data_scale
        event = self.clock.schedule(
            self.transfer_stream,
            self.cost.transfer_seconds(
                nbytes, direction=TransferDirection.H2D) / 2,
            label=f"{self.name}:h2d:{alias}", deps=deps,
            category="transfer", nbytes=nbytes)
        self._store(self.memory.get(alias), data, event)
        return event


class TestCountersFollowFromTheEventLog:
    def test_an_overridden_interface_is_still_counted(self, tiny_catalog):
        """The plug-in never sees a metrics registry, yet its transfers
        are published: the engine reads them out of the events."""
        runs = {}
        for driver in (CudaDevice, OwnDmaDevice):
            executor = AdamantExecutor()
            device = plug(executor, driver, GPU_RTX_2080_TI)
            assert not hasattr(device, "metrics")
            result = executor.run(q6.build(), tiny_catalog,
                                  chunk_size=1024)
            runs[driver] = (result, executor.metrics.value(
                "adamant_transfer_bytes_total", device="dev0",
                direction="h2d"))
        (stock, stock_bytes), (own, own_bytes) = runs.values()
        assert own_bytes == stock_bytes > 0
        assert blob(own.outputs) == blob(stock.outputs)
        assert own.stats.time_by_category["transfer"] < \
            stock.stats.time_by_category["transfer"]


# ---------------------------------------------------------------------------
# Zero-engine-edit guard: the plug-ins must not know the runtime
# ---------------------------------------------------------------------------

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
NEW_DEVICE_MODULES = [_SRC / "devices" / "rtcore.py",
                      _SRC / "devices" / "coupled.py"]
#: Packages the plug-in surface promises never to touch: the runtime
#: (executor, models, scheduler-owning engine) and the planner.
RUNTIME_PACKAGES = ("repro.engine", "repro.core", "repro.planner")


def _imported_modules(path: pathlib.Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    return modules


class TestZeroEngineEdits:
    def test_new_devices_import_no_runtime_modules(self):
        for path in NEW_DEVICE_MODULES:
            bad = {m for m in _imported_modules(path)
                   if m.startswith(RUNTIME_PACKAGES)}
            assert not bad, (
                f"{path.name} imports runtime modules {sorted(bad)} — "
                f"device plug-ins must integrate through the device/"
                f"task/hardware layers alone")

    def test_runtime_sources_do_not_name_the_plugins(self):
        """The engine, core runtime and scheduler contain no reference
        to the new devices — integration is via the plug-in surface."""
        for package in ("engine", "core", "planner"):
            for source in sorted((_SRC / package).rglob("*.py")):
                text = source.read_text()
                for marker in ("rtcore", "RTCore", "coupled", "Coupled"):
                    assert marker not in text, (
                        f"{source.relative_to(_SRC.parent)} mentions "
                        f"{marker!r}; the runtime must not special-case "
                        f"plug-in devices")


# ---------------------------------------------------------------------------
# Hypothesis properties: the new devices' defining invariants
# ---------------------------------------------------------------------------

_RT_COST = AdamantExecutor().plug_device(
    "rt", RTCoreDevice, GPU_RTX_3090).cost


class TestRTCorePricingProperties:
    @settings(max_examples=100, deadline=None)
    @given(lo=st.integers(1, 2**34), hi=st.integers(1, 2**34),
           primitive=st.sampled_from(["hash_probe", "filter_bitmap",
                                      "filter_position"]))
    def test_traversal_pricing_monotone_in_probe_count(self, lo, hi,
                                                       primitive):
        """Cost is non-increasing as selectivity drops: fewer probes
        can never price *higher* (sub-linear, but still monotone)."""
        lo, hi = min(lo, hi), max(lo, hi)
        cheap = _RT_COST.kernel_seconds(primitive, lo)
        dear = _RT_COST.kernel_seconds(primitive, hi)
        assert 0.0 < cheap <= dear

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 2**34))
    def test_traversal_is_sublinear(self, n):
        """Doubling the probe batch less than doubles its cost."""
        assert _RT_COST.kernel_seconds("hash_probe", 2 * n) \
            < 2.0 * _RT_COST.kernel_seconds("hash_probe", n)


class TestCoupledZeroCopyProperties:
    @settings(max_examples=12, deadline=None)
    @given(model=st.sampled_from(["chunked", "pipelined",
                                  "four_phase_pipelined", "zero_copy"]),
           chunk=st.sampled_from([512, 2048, 8192]))
    def test_no_h2d_bytes_ever_counted(self, model, chunk):
        """The zero-copy invariant: whatever the execution model and
        chunking, a coupled device moves zero bytes host-to-device."""
        executor = AdamantExecutor()
        plug(executor, CoupledDevice, APU_RYZEN_7_8700G, name="apu",
             default=True)
        result = executor.run(q6.build(), CATALOG, model=model,
                              chunk_size=chunk)
        assert result.stats.makespan > 0.0
        for direction in ("h2d", "d2h"):
            assert executor.metrics.value(
                "adamant_transfer_bytes_total", device="apu",
                direction=direction) == 0.0
