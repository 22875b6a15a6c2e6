"""A simulated cluster node: its own devices, hub, and virtual clock.

Each :class:`ClusterNode` wraps a private single-shot
:class:`~repro.engine.Engine` — nothing about the single-node execution
stack changes; the cluster layer composes whole node runs and prices
the network between them analytically.  A node's
:class:`~repro.hardware.specs.NodeSpec` pins its NIC tier and may
override the host<->device interconnect of every device plugged into it
(a what-if axis: the same query on PCIe-3 nodes vs NVLink nodes).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.context import QueryResult
from repro.core.graph import PrimitiveGraph
from repro.devices.base import SimulatedDevice
from repro.engine.engine import DEFAULT_CHUNK_SIZE, Engine
from repro.errors import (
    DeviceLostError,
    ExecutionError,
    NodeLostError,
    RetryExhaustedError,
)
from repro.faults import FaultPlan
from repro.hardware.specs import DeviceSpec, NodeSpec
from repro.storage import Catalog

__all__ = ["ClusterNode"]


class ClusterNode:
    """One simulated machine of the cluster.

    Args:
        spec: Static description (name, NIC tier, optional host<->device
            interconnect override).
    """

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        self.engine = Engine(enable_residency=False,
                             enable_subplan_cache=False)
        #: Set when every device of the node is gone; the executor
        #: fails the node's shard over to a survivor.
        self.lost = False

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def devices(self) -> dict[str, SimulatedDevice]:
        return self.engine.devices

    def plug_device(self, name: str, driver: type[SimulatedDevice],
                    spec: DeviceSpec, *, memory_limit: int | None = None,
                    default: bool = False) -> SimulatedDevice:
        """Plug a device, applying the node's interconnect override."""
        if self.spec.interconnect is not None:
            spec = replace(
                spec,
                interconnect_bandwidth=self.spec.interconnect.bandwidth)
        return self.engine.plug_device(name, driver, spec,
                                       memory_limit=memory_limit,
                                       default=default)

    def install_faults(self, plan: FaultPlan) -> None:
        """Arm a fault plan on this node's devices only."""
        self.engine.install_faults(plan)

    @property
    def has_faults(self) -> bool:
        return self.engine._fault_plan is not None

    def execute(self, graph: PrimitiveGraph, catalog: Catalog, *,
                model: str = "chunked",
                chunk_size: int = DEFAULT_CHUNK_SIZE,
                data_scale: int = 1, fuse: bool = False,
                adaptive: bool = False) -> QueryResult:
        """Run one shard's graph on this node's private engine.

        Fault-free nodes run single-shot (fresh timeline, comparable
        makespans); a node with an armed fault plan runs through the
        engine's scheduler so the recovery ladder (retry, quarantine,
        within-node failover) applies.  When recovery exhausts every
        device, the node is marked lost and :class:`NodeLostError`
        propagates the shard to the cluster executor's node-level
        failover.
        """
        if self.lost:
            raise NodeLostError(
                f"node {self.name!r} is lost", node=self.name)
        try:
            return self.engine.execute(
                graph, catalog, model=model, chunk_size=chunk_size,
                data_scale=data_scale, fuse=fuse, adaptive=adaptive,
                fresh=not self.has_faults)
        except (DeviceLostError, RetryExhaustedError) as error:
            healthy = self.engine._healthy_devices()
            if not healthy:
                self.lost = True
                raise NodeLostError(
                    f"node {self.name!r} lost every device "
                    f"({error})", node=self.name) from error
            raise ExecutionError(
                f"node {self.name!r} failed its shard: {error}"
            ) from error
