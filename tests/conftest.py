"""Shared fixtures: generated catalogs, executors, devices, clocks."""

from __future__ import annotations

import functools

import pytest

from repro.core.context import ExecutionContext
from repro.core.executor import AdamantExecutor
from repro.devices import CudaDevice, OpenCLDevice, OpenMPDevice
from repro.engine import Engine
from repro.hardware import (
    CPU_I7_8700,
    GPU_RTX_2080_TI,
    VirtualClock,
)
from repro.planner.compile import compile_plan
from repro.task import default_registry
from repro.tpch import generate
from repro.tpch.queries import q6


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="Rewrite tests/golden/*.txt snapshots from current output "
             "instead of asserting against them.")


@pytest.fixture()
def update_golden(request):
    return request.config.getoption("--update-golden")


def assert_quiescent(engine):
    """Nothing may stay held once every session is torn down: no open
    session, and per query no cache pin, owner-tagged buffer or byte,
    or memory budget (``Engine.holdings``)."""
    assert engine.active_sessions == 0, "sessions still open"
    assert not engine.holdings(), f"leaked: {engine.holdings()}"


@pytest.fixture(autouse=True)
def engines_end_quiescent(monkeypatch):
    """Every engine a test creates and drains — serving, fault, engine,
    cluster or facade — ends the test holding nothing.  An engine the
    test leaves with a session open is not drained and is skipped."""
    engines = []
    init = Engine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(Engine, "__init__", recording_init)
    yield
    for engine in engines:
        if engine.active_sessions == 0:
            assert_quiescent(engine)


@pytest.fixture(scope="session")
def tiny_catalog():
    """~3k lineitems; fast enough for per-test executions."""
    return generate(0.0005, seed=7)


@pytest.fixture(scope="session")
def small_catalog():
    """~60k lineitems; used by the integration matrix."""
    return generate(0.01, seed=11)


@pytest.fixture()
def clock():
    return VirtualClock()


@pytest.fixture()
def gpu(clock):
    device = CudaDevice("gpu0", GPU_RTX_2080_TI, clock)
    device.initialize()
    return device


@pytest.fixture()
def opencl_gpu(clock):
    device = OpenCLDevice("oclgpu", GPU_RTX_2080_TI, clock)
    device.initialize()
    return device


@pytest.fixture()
def cpu(clock):
    device = OpenMPDevice("cpu0", CPU_I7_8700, clock)
    device.initialize()
    return device


def make_executor(driver=CudaDevice, spec=GPU_RTX_2080_TI, *,
                  memory_limit=None, name="dev0", model=None,
                  extra_devices=()):
    """Executor factory (helper, not a fixture, so tests can vary it).

    The single shared spelling of "give me an executor" for the whole
    suite — per-file copies should call this instead.

    Args:
        driver/spec/name/memory_limit: The first plugged device.
        model: When given, bind this execution-model name as the
            default for ``run()`` so parametrized tests need not thread
            it through every call site.
        extra_devices: Additional ``(name, driver, spec)`` triples to
            plug (heterogeneous setups).
    """
    executor = AdamantExecutor()
    executor.plug_device(name, driver, spec, memory_limit=memory_limit)
    for extra_name, extra_driver, extra_spec in extra_devices:
        executor.plug_device(extra_name, extra_driver, extra_spec)
    if model is not None:
        executor.run = functools.partial(executor.run, model=model)
    return executor


def make_context(catalog, *, graph=None, devices=None, chunk_size=1024,
                 driver=CudaDevice, spec=GPU_RTX_2080_TI):
    """Execution-context factory for tests that drive the hub or an
    execution model directly, below the engine.

    Compiles the plan the way the engine does and binds it to *devices*
    (initialized, on one shared clock; the first is the default device)
    or, without any, to one fresh ``"dev"`` device of *driver*/*spec*.
    *graph* defaults to Q6.
    """
    if devices is None:
        device = driver("dev", spec, VirtualClock())
        device.initialize()
        devices = {"dev": device}
    default = next(iter(devices))
    plan = compile_plan(graph if graph is not None else q6.build(),
                        model="chunked", chunk_size=chunk_size,
                        data_scale=1, fuse=False, analyze=False,
                        adaptive=False)
    return ExecutionContext(
        plan=plan, catalog=catalog, devices=devices,
        registry=default_registry(), clock=devices[default].clock,
        default_device=default)


@pytest.fixture()
def gpu_executor():
    return make_executor()
