"""The device layer: the paper's ten pluggable interfaces (Section III-A).

:class:`Device` is the abstract boundary between the query engine and a
co-processor SDK.  A new co-processor (or a new SDK for an existing one) is
integrated by implementing these interfaces — nothing in the task or
runtime layers changes, which is the paper's central claim.

:class:`SimulatedDevice` is a full implementation backed by the virtual
clock and a calibrated cost model: every interface call charges its
simulated duration to the device's ``transfer`` or ``compute`` stream while
the payloads are real numpy values, so query results are exact and timing
is deterministic.  The concrete drivers in :mod:`repro.devices.opencl`,
:mod:`repro.devices.cuda` and :mod:`repro.devices.openmp` specialize it the
way the paper's OpenCL/CUDA/OpenMP drivers specialize the C++ interfaces.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import (
    DeviceError,
    DeviceLostError,
    DeviceMemoryError,
    DeviceNotInitializedError,
    KernelCompilationError,
    QueryBudgetError,
    SignatureError,
)
from repro.hardware.clock import Event, VirtualClock
from repro.hardware.costmodel import CostModel, TransferDirection
from repro.hardware.specs import DeviceKind, DeviceSpec, Sdk
from repro.primitives.definitions import definition
from repro.primitives.values import IOSemantic, semantic_of, value_nbytes
from repro.task.containers import DataContainer, KernelContainer
from repro.devices.memory import Buffer, MemoryManager

__all__ = ["Device", "SimulatedDevice", "Task"]


@dataclass
class Task:
    """An executable unit handed to ``Device.execute`` (Section III-B1).

    Attributes:
        container: The kernel implementation to run.
        inputs: Buffer aliases holding the kernel's positional inputs.
        output: Alias to store the result under (``None`` discards it).
        params: Keyword parameters forwarded to the kernel.
        n_elements: Input cardinality the cost model charges for.
        cost_params: Extra cost-model knobs (e.g. ``groups``).
        node_id: Plan node the task realizes (stamped onto device
            errors for attribution; empty for ad-hoc tasks).
    """

    container: KernelContainer
    inputs: list[str]
    output: str | None
    params: dict = field(default_factory=dict)
    n_elements: int = 0
    cost_params: dict = field(default_factory=dict)
    node_id: str = ""


class Device(abc.ABC):
    """Abstract co-processor with the paper's ten device interfaces."""

    name: str

    # -- data management (mandatory group) ---------------------------------

    @abc.abstractmethod
    def place_data(self, alias: str, data: object, *, offset: int = 0,
                   deps: list[Event] | None = None) -> Event:
        """Push *data* into the device buffer *alias* (H2D transfer).

        Allocates the buffer on first use, like the ``clCreateBuffer`` in
        the paper's Listing 1."""

    @abc.abstractmethod
    def retrieve_data(self, alias: str, *, deps: list[Event] | None = None
                      ) -> tuple[object, Event]:
        """Read the value of *alias* back to the host (D2H transfer)."""

    @abc.abstractmethod
    def prepare_memory(self, alias: str, nbytes: int) -> Event:
        """Allocate *nbytes* of device memory under *alias*."""

    @abc.abstractmethod
    def transform_memory(self, alias: str, source_format: str,
                         target_format: str) -> Event:
        """Re-interpret *alias* from one SDK data type to another without
        moving bytes (Figure 4)."""

    @abc.abstractmethod
    def delete_memory(self, alias: str) -> Event:
        """De-allocate *alias*."""

    @abc.abstractmethod
    def create_chunk(self, alias: str, chunk_alias: str, *, offset: int,
                     size: int) -> Event:
        """Register *chunk_alias* as a zero-copy view of rows
        ``[offset, offset+size)`` of *alias*."""

    @abc.abstractmethod
    def add_pinned_memory(self, alias: str, nbytes: int) -> Event:
        """Reserve host-accessible pinned memory (Listing 2) used by the
        4-phase execution model for fast DMA staging."""

    # -- kernel management (optional group) ----------------------------------

    @abc.abstractmethod
    def prepare_kernel(self, container: KernelContainer) -> Event:
        """Compile / resolve the kernel held by *container* (Listing 4)."""

    # -- control -------------------------------------------------------------

    @abc.abstractmethod
    def initialize(self) -> None:
        """Set device properties; must be called before any other use."""

    @abc.abstractmethod
    def execute(self, task: Task, *, deps: list[Event] | None = None) -> Event:
        """Run *task* on this device (Listing 5)."""


class SimulatedDevice(Device):
    """A fully functional simulated driver.

    Subclasses set ``sdk``, may restrict supported :class:`DeviceKind`, and
    may disable runtime kernel compilation (the paper makes the kernel
    group optional for exactly that reason).
    """

    sdk: Sdk
    supported_kinds: tuple[DeviceKind, ...] = (DeviceKind.CPU, DeviceKind.GPU)
    supports_compilation: bool = True

    def __init__(self, name: str, spec: DeviceSpec, clock: VirtualClock, *,
                 memory_limit: int | None = None) -> None:
        """Create a driver for *spec* on the shared *clock*.

        Args:
            name: Unique instance id (stream names derive from it).
            spec: Hardware the driver runs on.
            clock: Shared virtual clock of the execution.
            memory_limit: Optional cap below ``spec.memory_bytes`` —
                benchmarks use it to study larger-than-memory behaviour at
                laptop-sized data volumes.
        """
        if spec.kind not in self.supported_kinds:
            raise DeviceNotInitializedError(
                f"{type(self).__name__} does not support "
                f"{spec.kind.value} devices"
            )
        self.name = name
        self.spec = spec
        self.clock = clock
        self.cost = self._make_cost_model()
        capacity = memory_limit if memory_limit is not None else spec.memory_bytes
        self.memory = MemoryManager(capacity, device_name=name)
        self.data_container = DataContainer(native_format=self.data_format)
        #: Each physical row stands for this many logical rows: time and
        #: memory are charged at logical scale, so paper-scale experiments
        #: (SF 100, GB inputs) run on laptop-sized arrays with the exact
        #: large-scale cost structure.  Set through ``reset(data_scale=)``
        #: per run, or per scheduling slice via ``bind_query``.
        self.data_scale = 1
        #: Query id new allocations are charged to (``bind_query``).
        self.current_owner = ""
        #: Cross-query residency cache; attached by the engine when the
        #: device is long-lived (None under the single-shot executor).
        self.residency = None
        #: Fault injector armed by a :class:`~repro.faults.FaultPlan`
        #: (None = healthy device, zero overhead).
        self.faults = None
        #: Set by an injected permanent failure: the device is gone and
        #: every further use raises :class:`DeviceLostError`.
        self.lost = False
        #: Set by the scheduler's circuit breaker after repeated faults;
        #: like :attr:`lost`, but an operator may reinstate the device.
        self.quarantined = False
        self._initialized = False
        self._compiled: set[str] = set()
        #: Primitive -> its ``launch`` and ``run`` event labels, declared
        #: output semantic and definition's cost key (first launch).
        self._launch_facts: dict[str, tuple[str, str, IOSemantic, str]] = {}

    def _make_cost_model(self) -> CostModel:
        """Build this driver's cost model; plug-ins may override to supply
        their own calibration (any object with the CostModel interface)."""
        return CostModel(self.spec, self.sdk)

    # -- identity -------------------------------------------------------------

    @property
    def variant_key(self) -> str:
        """Key used to resolve kernel variants in the task registry.

        Defaults to the SDK name; a plug-in wrapper may override it to get
        its own kernel namespace while reusing an existing SDK's cost
        basis.
        """
        return self.sdk.value

    # A device's name and variant key are fixed for its lifetime, so the
    # strings derived from them are built once, not per interface call.

    @cached_property
    def data_format(self) -> str:
        """The SDK's native data-format tag (``"cuda.devptr"`` ...)."""
        return f"{self.variant_key}.buffer"

    @cached_property
    def transfer_stream(self) -> str:
        return f"{self.name}.transfer"

    @cached_property
    def compute_stream(self) -> str:
        return f"{self.name}.compute"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<{type(self).__name__} {self.name!r} on {self.spec.name} "
                f"[{self.sdk.value}]>")

    # -- control ----------------------------------------------------------------

    def initialize(self) -> None:
        """Create the device context/queues (charged once per device)."""
        if self._initialized:
            return
        self.clock.schedule(
            self.compute_stream, self.cost.profile.launch_overhead * 10,
            label=f"{self.name}:initialize", category="setup",
        )
        self._initialized = True

    def reset(self, *, data_scale: int = 1) -> None:
        """Release all buffers and require a fresh ``initialize()``.

        Called by the executor between query runs so memory accounting
        and footprint traces start clean on the (reset) shared clock.
        The run's *data_scale* is set here (defaulting back to 1) so a
        stale scale can never leak from one run into the next.
        """
        capacity = self.memory.capacity_bytes
        self.memory = MemoryManager(capacity, device_name=self.name)
        self.data_scale = data_scale
        self.current_owner = ""
        if self.residency is not None:
            self.residency.clear()
        self._initialized = False

    def release(self) -> None:
        """Tear the device fully down (``unplug_device``).

        Beyond :meth:`reset`, this clears the registered data-format
        transforms and drops the device's streams from the shared clock,
        so re-plugging the same name starts from a clean slate.
        """
        self.reset()
        self.data_container.transforms.clear()
        self._compiled.clear()
        self.faults = None
        self.lost = False
        self.quarantined = False
        self.clock.drop_stream(self.transfer_stream)
        self.clock.drop_stream(self.compute_stream)

    def bind_query(self, query_id: str, *, data_scale: int = 1,
                   memory_budget: int | None = None) -> None:
        """Attribute subsequent device work to *query_id*.

        The engine's scheduler calls this at every interleaving slice so
        allocations are owner-tagged (isolating OOM cleanup), the memory
        budget is enforced, and costs are charged at the query's scale.
        """
        self.current_owner = query_id
        self.data_scale = data_scale
        self.memory.set_budget(query_id, memory_budget)

    def unbind_query(self) -> None:
        self.current_owner = ""

    def _require_initialized(self) -> None:
        if self.lost or self.quarantined:
            why = "lost" if self.lost else "quarantined"
            raise DeviceLostError(
                f"device {self.name!r} is {why}"
            ).annotate(device=self.name, query_id=self.current_owner)
        if not self._initialized:
            raise DeviceNotInitializedError(
                f"device {self.name!r} used before initialize()"
            )

    # -- data management -----------------------------------------------------------

    def place_data(self, alias: str, data: object, *, offset: int = 0,
                   deps: list[Event] | None = None) -> Event:
        self._require_initialized()
        nbytes = value_nbytes(data) * self.data_scale
        if alias not in self.memory:
            self.prepare_memory(alias, value_nbytes(data))
        buffer = self.memory.get(alias)
        event = self.clock.schedule(
            self.transfer_stream,
            self.cost.transfer_seconds(
                nbytes, direction=TransferDirection.H2D, pinned=buffer.pinned,
            ),
            label=f"{self.name}:h2d:{alias}",
            deps=deps,
            category="transfer",
            nbytes=self.cost.interconnect_bytes(nbytes),
        )
        self._store(buffer, data, event)
        return event

    def retrieve_data(self, alias: str, *, deps: list[Event] | None = None,
                      via_pinned: bool = False) -> tuple[object, Event]:
        """Read *alias* back to the host.

        Args:
            via_pinned: Charge the transfer at pinned bandwidth even for a
                device-resident buffer — the 4-phase model returns pipeline
                breaker results through pinned staging (Section IV-C).
        """
        self._require_initialized()
        buffer = self.memory.get(alias)
        value = self._resolve_value(buffer)
        nbytes = value_nbytes(value) * self.data_scale
        wait = list(deps or ())
        if buffer.ready is not None:
            wait.append(buffer.ready)
        event = self.clock.schedule(
            self.transfer_stream,
            self.cost.transfer_seconds(
                nbytes, direction=TransferDirection.D2H,
                pinned=buffer.pinned or via_pinned,
            ),
            label=f"{self.name}:d2h:{alias}",
            deps=wait,
            category="transfer",
            nbytes=self.cost.interconnect_bytes(nbytes),
        )
        return value, event

    def _allocate(self, alias: str, logical: int, *,
                  pinned: bool = False) -> None:
        """Owner-tagged allocation with residency-cache back-pressure.

        When the device is engine-owned and a query allocation does not
        fit, unpinned residency-cache entries are evicted (LRU) and the
        allocation retried once — cached columns yield to live queries.
        Budget violations are never retried: the query is over its own
        cap, not competing with the cache.
        """
        if self.faults is not None:
            self.faults.on_alloc(self, alias, logical)
        try:
            self.memory.allocate(
                alias, logical, pinned=pinned, data_format=self.data_format,
                at_time=self.clock.now(), owner=self.current_owner,
            )
        except QueryBudgetError:
            raise
        except DeviceMemoryError:
            if self.residency is None or pinned or not \
                    self.residency.evict_bytes(logical
                                               - self.memory.device_free):
                raise
            self.memory.allocate(
                alias, logical, pinned=pinned, data_format=self.data_format,
                at_time=self.clock.now(), owner=self.current_owner,
            )

    def prepare_memory(self, alias: str, nbytes: int) -> Event:
        self._require_initialized()
        logical = nbytes * self.data_scale
        self._allocate(alias, logical)
        return self.clock.schedule(
            self.compute_stream, self.cost.alloc_seconds(logical),
            label=f"{self.name}:alloc:{alias}", category="alloc",
        )

    def add_pinned_memory(self, alias: str, nbytes: int) -> Event:
        self._require_initialized()
        logical = nbytes * self.data_scale
        self._allocate(alias, logical, pinned=True)
        return self.clock.schedule(
            self.compute_stream, self.cost.alloc_seconds(logical, pinned=True),
            label=f"{self.name}:pinned-alloc:{alias}", category="alloc",
        )

    def transform_memory(self, alias: str, source_format: str,
                         target_format: str) -> Event:
        self._require_initialized()
        buffer = self.memory.get(alias)
        buffer.value = self.data_container.transform(
            buffer.value, source_format, target_format,
        )
        buffer.data_format = target_format
        return self.clock.schedule(
            self.compute_stream,
            self.cost.transform_seconds(buffer.nbytes),
            label=f"{self.name}:transform:{alias}", category="transform",
        )

    def delete_memory(self, alias: str) -> Event:
        self._require_initialized()
        nbytes = self.memory.get(alias).nbytes
        self.memory.free(alias, at_time=self.clock.now())
        return self.clock.schedule(
            self.compute_stream, self.cost.free_seconds(nbytes),
            label=f"{self.name}:free:{alias}", category="alloc",
        )

    def create_chunk(self, alias: str, chunk_alias: str, *, offset: int,
                     size: int) -> Event:
        self._require_initialized()
        parent = self.memory.get(alias)
        view = self.memory.add_view(chunk_alias, alias,
                                    owner=self.current_owner)
        if isinstance(parent.value, np.ndarray):
            view.value = parent.value[offset:offset + size]
        view.ready = parent.ready
        # Registering a sub-buffer is host-side bookkeeping only.
        return self.clock.schedule(
            self.compute_stream, 1e-6,
            label=f"{self.name}:chunk:{chunk_alias}", category="alloc",
        )

    def resize_memory(self, alias: str, nbytes: int) -> None:
        """Grow *alias* to *nbytes* (logical), evicting residency-cache
        entries under memory pressure exactly like :meth:`_allocate`."""
        try:
            self.memory.resize(alias, nbytes, at_time=self.clock.now())
        except QueryBudgetError:
            raise
        except DeviceMemoryError:
            delta = nbytes - self.memory.get(alias).nbytes
            if self.residency is None or not self.residency.evict_bytes(
                    delta - self.memory.device_free):
                raise
            self.memory.resize(alias, nbytes, at_time=self.clock.now())

    # -- kernel management ------------------------------------------------------------

    def prepare_kernel(self, container: KernelContainer) -> Event:
        self._require_initialized()
        if not self.supports_compilation:
            raise KernelCompilationError(
                f"{type(self).__name__} ({self.sdk.value}) does not support "
                "runtime kernel compilation; register a pre-built kernel"
            ).annotate(device=self.name, query_id=self.current_owner,
                       node_id=f"{container.primitive}:{container.variant}")
        key = f"{container.primitive}:{container.variant}"
        duration = 0.0 if key in self._compiled else self.cost.compile_seconds()
        self._compiled.add(key)
        container.compiled = True
        return self.clock.schedule(
            self.compute_stream, duration,
            label=f"{self.name}:compile:{key}", category="compile",
        )

    # -- execution ----------------------------------------------------------------------

    def execute(self, task: Task, *, deps: list[Event] | None = None) -> Event:
        try:
            return self._execute(task, deps=deps)
        except DeviceError as error:
            # Stamp attribution onto whatever the driver raised (first
            # writer wins, so injector-annotated errors pass unchanged).
            raise error.annotate(device=self.name,
                                 query_id=self.current_owner,
                                 node_id=task.node_id)

    def _execute(self, task: Task, *, deps: list[Event] | None = None
                 ) -> Event:
        if self.lost or self.quarantined or not self._initialized:
            self._require_initialized()
        latency_factor = (self.faults.on_execute(self, task)
                          if self.faults is not None else 1.0)
        container = task.container
        primitive = container.primitive
        if container.needs_compilation:
            self.prepare_kernel(container)
        wait = list(deps or ())
        values = []
        for alias in task.inputs:
            buffer = self.memory.get(alias)
            if buffer.ready is not None:
                wait.append(buffer.ready)
            values.append(self._resolve_value(buffer))

        # The kernel runs functionally first so the cost model can use the
        # true result statistics (e.g. the group count of HASH_AGG, which a
        # real shared hash table pays for through atomic contention).
        result = container(*values, **task.params)
        facts = self._launch_facts.get(primitive)
        if facts is None:
            defn = definition(primitive)
            facts = self._launch_facts[primitive] = (
                f"{self.name}:launch:{primitive}",
                f"{self.name}:run:{primitive}", defn.output, defn.cost_key)
        launch_label, run_label, declared, cost_key = facts
        self._check_output_semantic(primitive, declared, result)
        # Group cardinality scales with the data (e.g. Q3's orderkey
        # groups); plans with fixed group counts (Q1, Q4) override via
        # cost_params.  A fused aggregation sink pays the same
        # group-contention curve as the standalone kernel.
        groups = (max(1, result.num_groups * self.data_scale)
                  if hasattr(result, "num_groups") else None)
        duration, fused_num_args = self.cost.node_seconds(
            cost_key, task.n_elements * self.data_scale, task.cost_params,
            groups=groups)
        # A fused node (planner.fusion) charges ONE launch whose argument
        # count is the summed per-step mapping cost.
        num_args = (container.num_args if fused_num_args is None
                    else int(fused_num_args))
        launch = self.clock.schedule(
            self.compute_stream,
            self.cost.launch_seconds(num_args),
            label=launch_label,
            deps=wait,
            category="launch",
            node=task.node_id,
        )
        event = self.clock.schedule(
            self.compute_stream,
            duration * latency_factor,
            label=run_label,
            deps=[launch],
            category="compute",
            node=task.node_id,
        )
        if task.output is not None:
            nbytes = value_nbytes(result)
            if task.output not in self.memory:
                self.prepare_memory(task.output, nbytes)
            out = self.memory.get(task.output)
            actual = nbytes * self.data_scale
            if out.view_of is None and actual > out.nbytes:
                self.resize_memory(task.output, actual)
            self._store(out, result, event)
        return event

    # -- helpers --------------------------------------------------------------------------

    @staticmethod
    def _check_output_semantic(primitive: str, expected: IOSemantic,
                               result: object) -> None:
        """Enforce the output semantic *primitive* declares (*expected*)
        at runtime.

        Plugged kernel variants only have to *adhere to the I/O
        semantics* (Section III-B2); this check catches a variant that
        silently returns the wrong edge type before the value corrupts a
        downstream primitive.
        """
        if expected is IOSemantic.GENERIC or result is None:
            return
        produced = semantic_of(result)
        if produced is not expected and produced is not IOSemantic.GENERIC:
            raise SignatureError(
                f"kernel for {primitive!r} returned a "
                f"{produced.value} value; the primitive definition "
                f"declares {expected.value}"
            )

    def _store(self, buffer: Buffer, value: object, event: Event) -> None:
        buffer.value = value
        buffer.ready = event

    def _resolve_value(self, buffer: Buffer) -> object:
        """Value of a buffer, following chunk views lazily."""
        if buffer.value is None and buffer.view_of is not None:
            return self.memory.get(buffer.view_of).value
        return buffer.value
