"""Data transfer hub (Section III-C): load_data, router, output buffers.

The hub performs all data movement for the runtime:

* :meth:`DataTransferHub.load_data` pushes (a chunk of) a base-table
  column to the device that needs it, charging the transfer;
* :meth:`DataTransferHub.router` resolves an intermediate edge whose data
  lives on another device or in another SDK's format, using
  ``retrieve_data``/``place_data`` for cross-device moves and
  ``transform_memory`` for same-device format changes (Figure 4);
* :meth:`DataTransferHub.prepare_output_buffer` pre-allocates a result
  buffer from the primitive's output-size estimate.

Where each edge's data lives is the hub's table, one per run.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.graph import DataEdge, PrimitiveNode, ScanSource
from repro.devices.base import SimulatedDevice
from repro.errors import ExecutionError
from repro.hardware.clock import Event
from repro.hardware.costmodel import TransferDirection
from repro.storage.column import Column

__all__ = ["DataTransferHub"]


class DataTransferHub:
    """Moves data between host, devices, and SDK formats."""

    def __init__(self, ctx: ExecutionContext) -> None:
        self.ctx = ctx
        #: data_id -> device the edge's data lives on (paper: *device
        #: ID*), for this run only; the graph keeps none.
        self.device_ids = ctx.plan.graph.reset_runtime_state()

    # -- base-table input ----------------------------------------------------

    def host_column(self, source: ScanSource) -> Column:
        """Resolve a scan source against the catalog."""
        return self.ctx.catalog.column(source.ref)

    def load_data(self, edge: DataEdge, device: SimulatedDevice, alias: str,
                  *, start: int = 0, stop: int | None = None,
                  deps: list[Event] | None = None,
                  transfer_factor: float = 1.0,
                  publish_only: bool = False) -> Event:
        """Load rows ``[start, stop)`` of *edge*'s scan column into *alias*.

        Args:
            transfer_factor: Multiplier on the transfer duration (the
                OpenCL shallow-pinned penalty of the 4-phase models).
            publish_only: Unified-memory mode: make the chunk visible in
                the (host-resident) buffer without a DMA — kernels will
                pay the interconnect read themselves.

        When the device carries a cross-query residency cache (engine
        mode) the column is served from device memory if a previous query
        left it resident: the chunk lands in *alias* by device-internal
        copy at memory bandwidth (category ``cache``, no H2D traffic).
        On a miss, the H2D transfer that happens anyway is absorbed into
        the cache for later queries.
        """
        if not edge.is_scan:
            raise ExecutionError(
                f"load_data called on non-scan edge {edge.data_id}"
            )
        column = self.host_column(edge.source)
        total = column.values.shape[0]
        stop = total if stop is None else stop
        payload: np.ndarray = column.slice(start, stop)
        cache = device.residency
        query = self.ctx.query
        if cache is not None and not publish_only:
            resident = cache.lookup(edge.source.ref, self.ctx.catalog,
                                    query.query_id)
            if resident is not None:
                return self._serve_resident(
                    edge, device, alias, resident[start:stop], deps=deps)
        if publish_only:
            buffer = device.memory.get(alias)
            event = device.clock.schedule(
                device.transfer_stream, 1e-6,
                label=f"{device.name}:uma-publish:{alias}",
                deps=deps, category="transfer",
            )
            buffer.value = payload
            buffer.ready = event
            self.device_ids[edge.data_id] = device.name
            return event
        event = device.place_data(alias, payload, offset=start, deps=deps)
        if cache is not None:
            cache.absorb(edge.source.ref, self.ctx.catalog, query.query_id,
                         start=start, payload=payload, total_rows=total)
        if transfer_factor != 1.0:
            event = device.clock.schedule(
                device.transfer_stream,
                event.duration * (transfer_factor - 1.0),
                label=f"{device.name}:pinned-map:{alias}",
                deps=[event],
                category="transfer",
            )
            device.memory.get(alias).ready = event
        self.device_ids[edge.data_id] = device.name
        return event

    def _serve_resident(self, edge: DataEdge, device: SimulatedDevice,
                        alias: str, payload: np.ndarray, *,
                        deps: list[Event] | None) -> Event:
        """Residency-cache hit: fill *alias* from the device-resident
        column by device-internal copy instead of an H2D transfer."""
        if alias not in device.memory:
            device.prepare_memory(alias, int(payload.nbytes))
        buffer = device.memory.get(alias)
        nbytes = int(payload.nbytes) * device.data_scale
        event = device.clock.schedule(
            device.transfer_stream,
            device.cost.transfer_seconds(
                nbytes, direction=TransferDirection.D2D),
            label=f"{device.name}:resident:{alias}",
            deps=deps,
            category="cache",
            nbytes=nbytes,
        )
        buffer.value = payload
        buffer.ready = event
        self.device_ids[edge.data_id] = device.name
        return event

    # -- intermediate routing -------------------------------------------------

    def router(self, edge: DataEdge, source_alias: str,
               target_device: SimulatedDevice) -> tuple[str, list[Event]]:
        """Make *edge*'s data usable by *target_device*.

        Iterates the cases of the paper's ``router()``: same device and
        format (no-op), same device different SDK format
        (``transform_memory``), different device (D2H + H2D through the
        host).  Returns the alias to read on the target device plus any
        events the consumer must wait for.
        """
        source_name = self.device_ids.get(edge.data_id)
        if source_name is None or source_name == target_device.name:
            events: list[Event] = []
            # A chunked consumer re-routes the same edge every chunk: the
            # first chunk moved the data here under the routed alias, so
            # later chunks find the copy there rather than under the
            # producer's original name.
            if (source_alias not in target_device.memory
                    and f"{source_alias}@{target_device.name}"
                    in target_device.memory):
                source_alias = f"{source_alias}@{target_device.name}"
            buffer = target_device.memory.get(source_alias)
            if buffer.data_format != target_device.data_format:
                events.append(target_device.transform_memory(
                    source_alias, buffer.data_format,
                    target_device.data_format,
                ))
            self.device_ids[edge.data_id] = target_device.name
            return source_alias, events

        source_device = self.ctx.devices[source_name]
        value, d2h = source_device.retrieve_data(source_alias)
        routed_alias = f"{source_alias}@{target_device.name}"
        if routed_alias in target_device.memory:
            target_device.delete_memory(routed_alias)
        h2d = target_device.place_data(routed_alias, value, deps=[d2h])
        self.device_ids[edge.data_id] = target_device.name
        return routed_alias, [h2d]

    # -- output buffers -------------------------------------------------------------

    def prepare_output_buffer(self, node: PrimitiveNode,
                              device: SimulatedDevice, alias: str,
                              n_input: int) -> Event | None:
        """Estimate and allocate *node*'s result space (paper's
        ``prepare_output_buffer``); no-op if the alias already exists."""
        if alias in device.memory:
            return None
        estimate = node.defn.estimate_output_bytes(
            n_input, {**node.params, **node.hints},
        )
        return device.prepare_memory(alias, max(8, int(estimate)))
