"""Span recorder and the timing wrappers installed from outside.

``Wrappers(recorder)`` replaces the public functions listed in
:func:`targets` -- class attributes and module-level functions of
``repro`` -- with wrappers that time each call, and puts the originals
back on exit.  No program file is edited.

Every span records its layer, function, start, duration and the span
that caused it.  A span's *self time* is its duration minus the part
covered by its child spans, so time spent in a callee that is not
wrapped is charged to the nearest wrapped caller.  Coarse spans (the
timed item, one query, one pipeline, one shard) are kept one by one and
can be written out in Chrome-trace form; fine-grained ones (a device
interface call, a clock event, a kernel) are only aggregated to calls /
total / self per function.

Layer names are module paths under ``src/repro`` (``core.models``,
``hardware.clock``); the part before the first dot is the layer the
README's tables use.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["ROOT_LAYER", "SpanRecorder", "Wrappers", "chrome_trace",
           "targets"]

#: Layer of the span the harness opens around each timed item; its self
#: time is what no wrapped function accounts for.
ROOT_LAYER = "item"

#: Kernel spans are keyed by primitive family, so the trace splits
#: ``primitives`` time the way an optimisation would move it.
KERNEL_FAMILIES = {
    "hash_probe": "hash_probe", "hash_build": "hash_build",
    "hash_agg": "hash_agg", "filter_bitmap": "filter",
    "filter_position": "filter", "map": "map",
    "materialize": "materialize",
}


def kernel_family(container) -> str:
    primitive = container.primitive
    if primitive.startswith("fused_"):
        return "fused"
    return KERNEL_FAMILIES.get(primitive, "other")


class SpanRecorder:
    """Collects spans of one traced pass.

    Wrapped functions are measured only while a timed item is open
    (:meth:`timed_item`); the untimed bookkeeping between items passes
    straight through.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        #: Source of host seconds (the tests substitute a fake).
        self.clock = clock
        #: Open frames, innermost last; a frame is ``[child_seconds]``.
        self._stack: list[list[float]] = []
        #: ``(layer, function) -> [calls, total_s, self_s]``.
        self.totals: dict[tuple[str, str], list] = {}
        #: Closed coarse spans, in closing order.
        self.spans: list[dict] = []
        self._open_coarse: list[int] = []
        self._next_id = 0
        #: Id of the item being timed (stamped on coarse spans).
        self.item = ""
        self.origin = clock()

    # -- wrappers --------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable, *,
             coarse: bool = False, key_of: Callable | None = None,
             annotate: Callable | None = None) -> Callable:
        """A timing wrapper around *fn*.

        Args:
            coarse: Keep every call as its own span (else aggregate).
            key_of: Maps the first positional argument to the function
                name the call is aggregated under (kernel families).
            annotate: Maps the return value to extra span arguments
                (coarse spans only).
        """
        if coarse:
            return self._wrap_coarse(layer, name, fn, annotate)
        stack = self._stack
        totals = self.totals
        clock = self.clock
        fixed = totals.setdefault((layer, name), [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if not stack:  # outside a timed item: not measured
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                slot = (fixed if key_of is None else totals.setdefault(
                    (layer, key_of(args[0])), [0, 0.0, 0.0]))
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_coarse(self, layer: str, name: str, fn: Callable,
                     annotate: Callable | None, *,
                     root: bool = False) -> Callable:
        stack = self._stack
        clock = self.clock
        slot = self.totals.setdefault((layer, name), [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if not stack and not root:  # outside a timed item
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._open_coarse[-1] if self._open_coarse else None
            self._open_coarse.append(span_id)
            frame = [0.0]
            stack.append(frame)
            result = None
            started = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - started
                stack.pop()
                self._open_coarse.pop()
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                self.spans.append({
                    "id": span_id, "parent": parent, "layer": layer,
                    "name": name, "item": self.item,
                    "start_s": started - self.origin, "dur_s": elapsed,
                    "self_s": elapsed - frame[0],
                    "args": (annotate(result)
                             if annotate is not None and result is not None
                             else {}),
                })

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_item(self, item_id: str, fn: Callable):
        """Run *fn* under the root span of item *item_id*."""
        self.item = item_id
        try:
            return self._wrap_coarse(ROOT_LAYER, item_id, fn, None,
                                     root=True)()
        finally:
            self.item = ""

    # -- results ---------------------------------------------------------

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per top-level layer (``core``, ``devices``, ...)."""
        out: dict[str, float] = {}
        for (layer, _), (_, _, self_s) in self.totals.items():
            top = layer.partition(".")[0]
            out[top] = out.get(top, 0.0) + self_s
        return out

    def table(self) -> list[dict]:
        """The aggregate as plain rows, largest self time first."""
        rows = [{"layer": layer, "function": name, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (layer, name), (calls, total, self_s)
                in self.totals.items() if calls]
        return sorted(rows, key=lambda row: -row["self_s"])


def chrome_trace(spans: list[dict]) -> dict:
    """Coarse spans in Chrome-trace (``chrome://tracing`` / Perfetto)
    form: complete events on one thread, times in microseconds."""
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [{
            "name": f"{span['layer']}:{span['name']}", "cat": span["layer"],
            "ph": "X", "pid": 1, "tid": 1,
            "ts": span["start_s"] * 1e6, "dur": span["dur_s"] * 1e6,
            "args": {"id": span["id"], "parent": span["parent"],
                     "item": span["item"], "self_us": span["self_s"] * 1e6,
                     **span["args"]},
        } for span in sorted(spans, key=lambda s: s["start_s"])],
    }


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One public function to time.

    *owner* is a class (the attribute is wrapped there and in every
    subclass that overrides it) or a module (the function is rebound in
    every loaded ``repro`` module that imported it by name).
    """

    layer: str
    owner: object
    attr: str
    coarse: bool = False
    key_of: Callable | None = None
    annotate: Callable | None = None


def _execute_annotation(result) -> dict:
    stats = result.stats
    return {"kernels_launched": stats.kernels_launched,
            "subplan_hits": stats.subplan_cache_hits,
            "subplan_misses": stats.subplan_cache_misses}


#: The ten device interfaces of the paper (Table II).
DEVICE_INTERFACES = ("place_data", "retrieve_data", "prepare_memory",
                     "transform_memory", "delete_memory", "create_chunk",
                     "add_pinned_memory", "prepare_kernel", "initialize",
                     "execute")


def targets() -> list[Target]:
    """Exactly the functions the traced run wraps (the README lists the
    same set).  Imported lazily: the module must stay importable where
    ``repro`` is not on the path."""
    from repro.cluster import exchange, partition
    from repro.cluster.executor import ClusterExecutor
    from repro.cluster.node import ClusterNode
    from repro.core import combine, fingerprint, pipelines
    from repro.core.context import ExecutionContext
    from repro.core.executor import AdamantExecutor
    from repro.core.graph import PrimitiveGraph
    from repro.core.hub import DataTransferHub
    from repro.core.models.base import ExecutionModel
    from repro.devices.base import SimulatedDevice
    from repro.devices.residency import ResidencyCache
    from repro.engine.engine import Engine
    from repro.engine.scheduler import DeviceScheduler
    from repro.engine.subplan_cache import SubplanCache
    from repro.hardware.clock import VirtualClock
    from repro.hardware.costmodel import CostModel
    from repro.observe.metrics import MetricsRegistry
    from repro.planner import cost, fusion
    from repro.planner.optimizer import PlanOptimizer
    from repro.serving.admission import AdmissionController
    from repro.serving.lanes import LaneQueue
    from repro.serving.service import QueryService
    from repro.task.containers import KernelContainer

    T = Target
    out = [
        # The public entry points the workloads call.
        T("core.executor", AdamantExecutor, "run", coarse=True),
        T("engine", Engine, "execute", coarse=True,
          annotate=_execute_annotation),
        T("serving", QueryService, "serve", coarse=True),
        T("cluster", ClusterExecutor, "run", coarse=True),
        # planner
        T("planner", PlanOptimizer, "choose", coarse=True),
        T("planner", PlanOptimizer, "search"),
        T("planner.cost", cost, "estimate_plan_seconds"),
        T("planner.fusion", fusion, "fuse_graph"),
        # engine
        T("engine.scheduler", DeviceScheduler, "run", coarse=True),
        # core
        T("core.models", ExecutionModel, "run", coarse=True),
        T("core.models", ExecutionModel, "run_pipeline", coarse=True),
        T("core.models", ExecutionModel, "execute_node"),
        T("core.models", ExecutionModel, "finalize"),
        T("core.context", ExecutionContext, "collect_stats"),
        T("core.combine", combine, "combine_chunk_results"),
        T("core.hub", DataTransferHub, "load_data"),
        T("core.hub", DataTransferHub, "router"),
        T("core.hub", DataTransferHub, "prepare_output_buffer"),
        T("core.graph", PrimitiveGraph, "in_edges"),
        T("core.graph", PrimitiveGraph, "out_edges"),
        T("core.graph", PrimitiveGraph, "validate"),
        T("core.graph", PrimitiveGraph, "reset_runtime_state"),
        T("core.graph", pipelines, "split_pipelines"),
        T("core.graph", pipelines, "persisted_node_ids"),
        T("core.fingerprint", fingerprint, "subplan_fingerprint"),
        # devices
        T("devices.residency", ResidencyCache, "lookup"),
        T("devices.residency", ResidencyCache, "absorb"),
        T("devices.residency", ResidencyCache, "release_query"),
        # primitives
        T("primitives", KernelContainer, "__call__", key_of=kernel_family),
        # hardware
        T("hardware.clock", VirtualClock, "schedule"),
        T("hardware.clock", VirtualClock, "barrier"),
        T("hardware.clock", VirtualClock, "now"),
        T("hardware.clock", VirtualClock, "events_of"),
        T("hardware.clock", VirtualClock, "events_since"),
        # observe
        T("observe.metrics", MetricsRegistry, "inc"),
        T("observe.metrics", MetricsRegistry, "set"),
        T("observe.metrics", MetricsRegistry, "observe"),
        # serving
        T("serving", AdmissionController, "admit"),
        T("serving", AdmissionController, "release"),
        T("serving", LaneQueue, "push"),
        T("serving", LaneQueue, "pop"),
        # cluster
        T("cluster", ClusterNode, "execute", coarse=True),
        T("cluster.partition", partition, "make_scheme"),
        T("cluster.partition", partition, "partition_catalog", coarse=True),
        T("cluster.exchange", exchange, "merge_outputs", coarse=True),
        T("cluster.exchange", exchange, "partials_nbytes"),
        T("cluster.exchange", exchange, "plan_exchange"),
    ]
    out += [T("devices", SimulatedDevice, name)
            for name in DEVICE_INTERFACES]
    out += [T("engine.subplan", SubplanCache, name)
            for name in ("lookup", "insert", "peek", "release_query",
                         "sweep")]
    out += [T("hardware.costmodel", CostModel, name)
            for name in ("transfer_seconds", "alloc_seconds", "free_seconds",
                         "launch_seconds", "kernel_seconds",
                         "fused_kernel_seconds", "transform_seconds",
                         "compile_seconds")]
    return out


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _bindings(target: Target) -> list[tuple[object, str, str]]:
    """Every ``(holder, attribute, reported name)`` *target* rebinds."""
    owner = target.owner
    if isinstance(owner, type):
        return [(cls, target.attr, f"{cls.__name__}.{target.attr}")
                for cls in [owner] + _subclasses(owner)
                if target.attr in vars(cls)]
    original = getattr(owner, target.attr)
    # Rebinding by identity also catches ``from module import fn``.
    return [(module, target.attr, target.attr)
            for name, module in sorted(sys.modules.items())
            if name.split(".")[0] == "repro"
            and getattr(module, target.attr, None) is original]


class Wrappers:
    """The installed timing wrappers; use as a context manager."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        #: ``(holder, attribute, original)`` of everything wrapped.
        self.replaced: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for target in targets():
            wrappers: dict[int, Callable] = {}
            for holder, attr, name in _bindings(target):
                original = vars(holder)[attr]
                if getattr(original, "__isabstractmethod__", False):
                    continue  # a declaration, no body to time
                # One wrapper per original: every module that imported
                # a function by name shares it.
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.recorder.wrap(
                        target.layer, name, original, coarse=target.coarse,
                        key_of=target.key_of, annotate=target.annotate)
                self.replaced.append((holder, attr, original))
                setattr(holder, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        """Put every original back."""
        while self.replaced:
            holder, attr, original = self.replaced.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Wrappers":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
