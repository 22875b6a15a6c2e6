"""Heterogeneous split execution: chunks fan out across all devices.

The paper's models drive a single co-processor; its conclusion names
operator placement across heterogeneous processors as the next axis of
the optimization space.  This extension model explores it: a chunkable
pipeline's chunks are distributed over *every* plugged device,
proportionally to the devices' estimated processing rates, and the
per-chunk partials are combined exactly as in single-device chunked
execution (the combiners are position-aware, so chunk order and global
row ids survive the fan-out).

Mechanics per pipeline:

* external inputs (hash tables from earlier pipelines) are *broadcast* to
  every participating device through the transfer hub;
* each device gets its own staging and intermediate buffers and processes
  its share of chunks serialized locally, while devices run concurrently
  (separate stream pairs on the shared clock);
* breaker partials are collected in global chunk order and combined once,
  then homed on the fastest device for downstream pipelines.

Sort-style primitives (``requires_full_input``) and breaker-only
pipelines run on the fastest device alone.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.combine import ChunkPartial, combine_chunk_results
from repro.core.models.base import ExecutionModel
from repro.core.pipelines import Pipeline
from repro.devices.base import SimulatedDevice
from repro.errors import ExecutionError
from repro.hardware.clock import Event
from repro.primitives.values import value_nbytes

__all__ = ["SplitChunkedModel"]


class SplitChunkedModel(ExecutionModel):
    """Chunk-parallel execution across all plugged devices.

    The model owns the static split: :meth:`participants` (who, in
    which order), :meth:`shares` and :meth:`assign_chunks` (which chunk
    goes where) are class-level so that the plan pricer predicts a run
    by calling them, not by repeating them.
    """

    name = "split_chunked"
    uses_pinned_staging = True
    overlapped = False
    splits_chunks = True
    #: Placement flips are pointless: the model distributes chunkable
    #: pipelines over every device and overrides annotations elsewhere
    #: (``_run_single``), so the optimizer only varies chunk and fusion.
    tunable = frozenset({"chunk", "fusion"})

    def run_pipeline(self, pipeline: Pipeline) -> None:
        graph = self.ctx.graph
        devices = self.participants(self.ctx.devices.values())
        fast = devices[0]
        if not pipeline.is_chunkable or len(devices) == 1 or any(
            graph.nodes[nid].defn.requires_full_input
            for nid in pipeline.node_ids
        ):
            self._run_single(pipeline, fast)
            return

        total = self.scan_length(pipeline)
        chunk = self.ctx.physical_chunk_rows
        starts = list(range(0, total, chunk)) or [0]

        # Broadcast external inputs to every participating device (a
        # daisy-chained copy: each hop retrieves from the previous home).
        per_device_external: dict[tuple[str, str], str] = {}
        for ext in pipeline.external_inputs:
            current = self.node_alias[ext]
            carrier = graph.out_edges(ext)[0]
            for device in devices:
                current, _ = self.hub.router(carrier, current, device)
                per_device_external[(ext, device.name)] = current

        # Adaptive runs treat the static proportional split only as the
        # baseline for steal accounting and instead claim each chunk
        # from a shared morsel queue (greedy earliest-finish dispatch).
        assignment = [devices[i] for i in self.assign_chunks(
            self.shares(devices), len(starts))]

        persisted = self._persisted_nodes(pipeline)
        # Node order, not set order: the homing below schedules one
        # allocation per entry, so a hash-seeded order moves every event.
        partials: dict[str, list[ChunkPartial]] = {
            n: [] for n in pipeline.node_ids if n in persisted}
        scan_edges_by_ref = self._scan_edges(pipeline)
        prev_compute: dict[str, Event] = {}
        staged: dict[tuple[str, str], str] = {}

        for ci, start in enumerate(starts):
            stop = min(start + chunk, total)
            if self.adaptive is not None:
                device = self._claim_chunk(devices, pipeline, stop - start)
                if device is not assignment[ci]:
                    self.adaptive.record_steal(device)
            else:
                device = assignment[ci]
            cursor = self.ctx.clock.event_count
            scan_alias_of = {}
            for ref in pipeline.scan_refs:
                key = (ref, device.name)
                if key not in staged:
                    alias = f"{self.qp}p{pipeline.index}:s:{ref}@{device.name}"
                    width = int(self.ctx.catalog.column(ref).dtype.itemsize)
                    device.add_pinned_memory(alias, chunk * width)
                    staged[key] = alias
                scan_alias_of[ref] = staged[key]
            deps = ([prev_compute[device.name]]
                    if device.name in prev_compute else [])
            for ref, edges in scan_edges_by_ref.items():
                self.hub.load_data(edges[0], device, scan_alias_of[ref],
                                   start=start, stop=stop, deps=deps)
                for edge in edges:
                    edge.device_id = device.name
                    edge.fetched_until = max(edge.fetched_until, stop)

            last = None
            for nid in pipeline.node_ids:
                node = graph.nodes[nid]
                out_alias = f"{self.qp}p{pipeline.index}:n:{nid}@{device.name}"
                aliases = []
                for edge in graph.in_edges(nid):
                    if edge.is_scan:
                        aliases.append(scan_alias_of[edge.source.ref])
                    elif edge.source in pipeline.external_inputs:
                        aliases.append(per_device_external[
                            (edge.source, device.name)])
                        edge.device_id = device.name
                    else:
                        aliases.append(
                            f"{self.qp}p{pipeline.index}:n:"
                            f"{edge.source}@{device.name}")
                last = self.execute_node(node, device, aliases, out_alias,
                                         chunk_base=start)
                if nid in persisted:
                    value = device.memory.get(out_alias).value
                    partials[nid].append(ChunkPartial(value, start))
            prev_compute[device.name] = last  # type: ignore[assignment]
            self.chunks_processed += 1
            if self.adaptive is not None:
                self.adaptive.observe_chunk(
                    device, pipeline, stop - start,
                    self.ctx.clock.events_since(cursor))
            gate = self.ctx.query.gate
            if gate is not None and ci + 1 < len(starts):
                # Serving mode: deadline / preemption checkpoint between
                # chunks (see the base chunk loop).
                gate.checkpoint(self)

        self.ctx.clock.barrier(
            [s for d in devices
             for s in (d.transfer_stream, d.compute_stream)]
        )

        # Home the combined results on the fastest device.
        for nid, parts in partials.items():
            node = graph.nodes[nid]
            combined = combine_chunk_results(
                parts, agg_fn=str(node.params.get("fn", "sum")))
            alias = f"{self.qp}p{pipeline.index}:n:{nid}"
            if alias in fast.memory:
                fast.delete_memory(alias)
            fast.prepare_memory(alias, value_nbytes(combined))
            buffer = fast.memory.get(alias)
            buffer.value = combined
            self.node_alias[nid] = alias
            self.node_device[nid] = fast.name
            for edge in graph.out_edges(nid):
                edge.device_id = fast.name
        # Release per-device transient state.
        for device in devices:
            for nid in pipeline.node_ids:
                alias = f"{self.qp}p{pipeline.index}:n:{nid}@{device.name}"
                if alias in device.memory:
                    device.delete_memory(alias)
            for (ref, name), alias in staged.items():
                if name == device.name and alias in device.memory:
                    device.delete_memory(alias)

    # -- helpers ------------------------------------------------------------

    def _claim_chunk(self, devices: list[SimulatedDevice],
                     pipeline: Pipeline, rows: int) -> SimulatedDevice:
        """Shared-morsel-queue dispatch (adaptive runs): the next chunk
        goes to the device predicted to *finish* it first — current
        stream availability plus the overlay-corrected chunk estimate.
        A device running hot (latency fault, contention) predicts late
        finishes on both terms, so healthy peers pick up the slack.
        Deterministic: ties break by participant order (fastest first).
        """
        clock = self.ctx.clock
        best = devices[0]
        best_finish = None
        for device in devices:
            ready = max(
                clock.stream(device.transfer_stream).available_at,
                clock.stream(device.compute_stream).available_at,
            )
            finish = ready + self.adaptive.corrected_chunk_seconds(
                pipeline, device, rows)
            if best_finish is None or finish < best_finish:
                best, best_finish = device, finish
        return best

    # -- the static split (shared with the plan pricer) -----------------------

    @classmethod
    def participants(cls, devices: Iterable[SimulatedDevice]
                     ) -> list[SimulatedDevice]:
        """*devices* fastest (by :meth:`rate_proxy`) first; devices tied
        on the proxy keep the order they were given in (plug order)."""
        ranked = sorted(devices, key=lambda d: -cls.rate_proxy(d))
        if not ranked:
            raise ExecutionError("no devices plugged")
        return ranked

    @staticmethod
    def rate_proxy(device: SimulatedDevice) -> float:
        """Chunks/second proxy: bounded by interconnect and map rate.

        The split is proportional to this coarse rate, not to the true
        per-pipeline cost, so a device the proxy misjudges becomes the
        straggler whose share bounds the makespan.
        """
        bandwidth = device.cost.bandwidth("h2d", pinned=True)
        return min(bandwidth, device.cost.throughput("map", 2**20) * 8)

    @classmethod
    def shares(cls, participants: Sequence[SimulatedDevice]) -> list[float]:
        """Each participant's fraction of the summed rate proxies
        (floored, so no participant's share is zero)."""
        rates = [cls.rate_proxy(d) for d in participants]
        total = sum(rates)
        return [max(rate / total, 1e-6) for rate in rates]

    @staticmethod
    def assign_chunks(shares: Sequence[float], chunks: int) -> np.ndarray:
        """Participant index of every chunk, in chunk order: the
        weighted round-robin.

        Chunk after chunk goes to the participant that minimises
        ``(chunks it already has + 1) / share``, the lower index on a
        tie.  That greedy loop is a merge of the per-participant
        sequences ``k / share_i`` (k = 1, 2, ...), so the first *chunks*
        entries of their stable sort are the same picks with no
        per-chunk Python: rows are participants, so the flattened
        position breaks ties towards the lower index, and no
        participant can appear more than *chunks* times among the first
        *chunks* picks, so *chunks* terms per sequence suffice.  Each
        term is the loop's own IEEE division.
        """
        due = np.arange(1, chunks + 1) / np.asarray(shares, float)[:, None]
        return np.argsort(due, axis=None, kind="stable")[:chunks] // chunks

    def _scan_edges(self, pipeline: Pipeline):
        scan_edges_by_ref: dict[str, list] = {}
        for nid in pipeline.node_ids:
            for edge in self.ctx.graph.in_edges(nid):
                if edge.is_scan:
                    scan_edges_by_ref.setdefault(
                        edge.source.ref, []).append(edge)
        return scan_edges_by_ref

    def _run_single(self, pipeline: Pipeline,
                    device: SimulatedDevice) -> None:
        """Non-splittable pipelines: single-device chunked execution.

        Overrides the node device annotations for the pipeline (split
        mode owns placement)."""
        for nid in pipeline.node_ids:
            self.ctx.graph.nodes[nid].device = device.name
        self.run_chunked_pipeline(pipeline)
