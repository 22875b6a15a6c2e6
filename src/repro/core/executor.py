"""The ADAMANT executor facade — the library's main entry point.

Usage::

    from repro import AdamantExecutor
    from repro.devices import CudaDevice
    from repro.hardware import GPU_RTX_2080_TI

    executor = AdamantExecutor()
    executor.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI)
    result = executor.run(graph, catalog, model="four_phase_pipelined",
                          chunk_size=2**20)

``plug_device`` is the paper's headline operation: adding a co-processor /
SDK pair touches nothing else — the runtime, task layer and plans are
unchanged.  Any class implementing the ten
:class:`~repro.devices.base.Device` interfaces can be plugged, including
user-defined ones (see ``examples/custom_device_plugin.py``).

Since the engine refactor the executor is a thin facade over a one-query
:class:`~repro.engine.Engine` in single-shot (``fresh``) mode: every
``run()`` starts on a reset timeline with reset devices and no
cross-query state, exactly as before.  For multi-query serving —
concurrent sessions sharing devices, residency caching — use the engine
directly.
"""

from __future__ import annotations

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.devices.base import SimulatedDevice
from repro.engine.engine import DEFAULT_CHUNK_SIZE, Engine
from repro.hardware.clock import VirtualClock
from repro.hardware.specs import DeviceSpec
from repro.storage import Catalog
from repro.task.registry import TaskRegistry

__all__ = ["AdamantExecutor", "DEFAULT_CHUNK_SIZE"]


class AdamantExecutor:
    """A query executor with plug-in interfaces for co-processors."""

    def __init__(self, *, overlay_path: str | None = None) -> None:
        self._engine = Engine(enable_residency=False,
                              overlay_path=overlay_path)

    # -- engine delegation ----------------------------------------------------

    @property
    def clock(self) -> VirtualClock:
        return self._engine.clock

    @property
    def registry(self) -> TaskRegistry:
        return self._engine.registry

    @registry.setter
    def registry(self, registry: TaskRegistry) -> None:
        self._engine.registry = registry

    @property
    def devices(self) -> dict[str, SimulatedDevice]:
        return self._engine.devices

    @property
    def default_device(self) -> str:
        return self._engine.default_device

    @property
    def metrics(self):
        """The engine's :class:`~repro.observe.MetricsRegistry` (kept
        across runs; counters accumulate until ``metrics.reset()``)."""
        return self._engine.metrics

    @property
    def overlay(self):
        """The engine's :class:`~repro.planner.cost.CostOverlayStore`
        (calibrated cost corrections ``model="auto"`` runs fold into;
        persisted when ``overlay_path`` was given)."""
        return self._engine.overlay

    # -- plugging ---------------------------------------------------------------

    def plug_device(self, name: str, driver: type[SimulatedDevice],
                    spec: DeviceSpec, *, memory_limit: int | None = None,
                    default: bool = False) -> SimulatedDevice:
        """Plug a co-processor driver into the executor.

        Args:
            name: Unique device id used in plan annotations.
            driver: A :class:`SimulatedDevice` subclass (OpenCL, CUDA,
                OpenMP, or a user plug-in).
            spec: Hardware the driver runs on.
            memory_limit: Optional capacity cap (larger-than-memory
                studies at small absolute data sizes).
            default: Make this the device for nodes without annotation.
        """
        return self._engine.plug_device(name, driver, spec,
                                        memory_limit=memory_limit,
                                        default=default)

    def unplug_device(self, name: str) -> None:
        """Remove a device (plans annotated with it will fail to run).

        The device is fully torn down — buffers, registered transforms,
        compiled-kernel cache and clock streams — so re-plugging the
        same name later starts clean.
        """
        self._engine.unplug_device(name)

    # -- execution ----------------------------------------------------------------

    def run(self, graph: PrimitiveGraph, catalog: Catalog, *,
            model: str = "chunked", chunk_size: int = DEFAULT_CHUNK_SIZE,
            default_device: str | None = None,
            data_scale: int = 1, fuse: bool = False,
            analyze: bool = False, adaptive: bool = False) -> QueryResult:
        """Execute *graph* against *catalog* under one execution model.

        Each run starts on a fresh timeline: the clock is reset and every
        device re-initialized, so makespans of successive runs are
        directly comparable.

        Args:
            model: One of :data:`repro.core.models.MODELS`, or
                ``"auto"`` to let the cost-based optimizer
                (:class:`~repro.planner.optimizer.PlanOptimizer`) pick
                the model, placement, fusion subset and chunk size;
                the chosen plan executes byte-identically to the same
                manual configuration.
            chunk_size: *Logical* rows per chunk (the paper uses 2^25).
            data_scale: Each physical catalog row stands for this many
                logical rows; transfers, kernel charges and memory
                accounting scale accordingly, so paper-scale runs (SF 100)
                execute on small physical arrays with the exact
                large-scale cost structure (see DESIGN.md section 2).
            fuse: Apply the planner's kernel-fusion pass (collapse
                MAP/FILTER chains into single fused kernels) before
                execution.  Off by default for plan-shape stability.
            analyze: Attach a per-node
                :class:`~repro.observe.QueryProfile` to the result
                (EXPLAIN ANALYZE mode; see ``result.profile.render()``).
            adaptive: Enable adaptive execution — online cost-model
                calibration, dynamic chunk sizing and split-model work
                stealing (:mod:`repro.planner.adaptive`).  Results stay
                byte-identical to the static run.
        """
        return self._engine.execute(graph, catalog, model=model,
                                    chunk_size=chunk_size,
                                    default_device=default_device,
                                    data_scale=data_scale, fresh=True,
                                    fuse=fuse, analyze=analyze,
                                    adaptive=adaptive)
