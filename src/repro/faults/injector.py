"""The per-device fault injector (one arm of a :class:`FaultPlan`).

The injector sits inside :class:`~repro.devices.base.SimulatedDevice` at
two hook points — :meth:`on_execute` before each kernel run and
:meth:`on_alloc` before each device allocation — so every injected fault
surfaces through the same exception types and call sites a real driver
failure would use.  All draws come from the injector's own seeded RNG
stream; since the simulation itself is deterministic, a (plan, seed,
workload) triple always reproduces the identical fault sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import (
    DeviceLostError,
    DeviceMemoryError,
    TransientDeviceError,
)
from repro.faults.plan import FaultKind, FaultSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import numpy as np

    from repro.devices.base import SimulatedDevice, Task

__all__ = ["FaultInjector"]


class FaultInjector:
    """Arms a device with the fault clauses of a plan.

    Attach with ``device.faults = plan.injector_for(device.name)`` (the
    engine's :meth:`~repro.engine.Engine.install_faults` does this for
    every plugged device).  Injection counters are kept per kind for
    tests and observability.
    """

    def __init__(self, device_name: str, specs: list[FaultSpec],
                 rng: "np.random.Generator") -> None:
        self.device_name = device_name
        self.specs = list(specs)
        self.rng = rng
        #: Hooked operations seen so far (drives ``device_loss.after``).
        self.ops = 0
        self.injected: dict[str, int] = {k.value: 0 for k in FaultKind}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<FaultInjector {self.device_name!r} "
                f"specs={len(self.specs)} ops={self.ops}>")

    # -- hooks ---------------------------------------------------------------

    def on_execute(self, device: "SimulatedDevice", task: "Task") -> float:
        """Called before a kernel executes; returns the latency factor to
        stretch the kernel's simulated duration by (1.0 = healthy).

        May raise :class:`TransientDeviceError` (retryable) or
        :class:`DeviceLostError` (permanent).
        """
        self.ops += 1
        factor = 1.0
        primitive = task.container.primitive
        for spec in self.specs:
            if spec.primitive is not None and spec.primitive != primitive:
                continue
            if spec.kind is FaultKind.DEVICE_LOSS:
                self._check_loss(device, spec)
            elif spec.kind is FaultKind.TRANSIENT:
                if self.rng.random() < spec.rate:
                    self.injected["transient"] += 1
                    raise TransientDeviceError(
                        f"injected transient kernel fault in "
                        f"{primitive!r} (op #{self.ops})"
                    ).annotate(device=device.name,
                               query_id=device.current_owner,
                               node_id=task.node_id)
            elif spec.kind is FaultKind.LATENCY:
                if self.rng.random() < spec.rate:
                    self.injected["latency"] += 1
                    factor = max(factor, spec.factor)
        return factor

    def on_alloc(self, device: "SimulatedDevice", alias: str,
                 nbytes: int) -> None:
        """Called before a device allocation is attempted.

        May raise :class:`DeviceMemoryError` (an OOM spike, recoverable
        through the engine's degradation ladder) or
        :class:`DeviceLostError`.
        """
        self.ops += 1
        for spec in self.specs:
            if spec.kind is FaultKind.DEVICE_LOSS:
                self._check_loss(device, spec)
            elif spec.kind is FaultKind.OOM:
                if spec.primitive is None and self.rng.random() < spec.rate:
                    self.injected["oom"] += 1
                    raise DeviceMemoryError(
                        f"injected allocation failure for {alias!r} "
                        f"(op #{self.ops})",
                        requested=nbytes,
                    ).annotate(device=device.name,
                               query_id=device.current_owner)

    def _check_loss(self, device: "SimulatedDevice",
                    spec: FaultSpec) -> None:
        if self.ops <= spec.after:
            return
        if not device.lost:
            device.lost = True
            self.injected["device_loss"] += 1
        raise DeviceLostError(
            f"injected permanent device loss (op #{self.ops}, "
            f"after={spec.after})"
        ).annotate(device=device.name, query_id=device.current_owner)
