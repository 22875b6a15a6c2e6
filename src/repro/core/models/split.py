"""Heterogeneous split execution: chunks fan out across all devices.

The paper's models drive a single co-processor; its conclusion names
operator placement across heterogeneous processors as the next axis of
the optimization space.  This extension model explores it: a chunkable
pipeline's chunks are distributed over *every* plugged device,
proportionally to the devices' estimated processing rates, and the
per-chunk partials are combined exactly as in single-device chunked
execution (the combiners are position-aware, so chunk order and global
row ids survive the fan-out).

The model is a chunk-assignment policy over the shared chunk loop
(:meth:`~repro.core.models.base.ExecutionModel.run_chunked_pipeline`),
not a loop of its own: it decides which devices share a pipeline
(:meth:`SplitChunkedModel.open_lanes` — every plugged device, once the
external inputs are broadcast) and which of them takes each chunk
(:meth:`SplitChunkedModel.lane_for_chunk`).  The loop collects breaker
partials in global chunk order, combines them once and homes them on
the fastest device for downstream pipelines.

Pipelines that do not stream (a sort-style full-input primitive, or
no scan at all) run on the fastest device alone.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

import numpy as np

from repro.core.models.base import ExecutionModel, Lane
from repro.core.pipelines import Pipeline
from repro.devices.base import SimulatedDevice
from repro.errors import ExecutionError

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
    #: (``open_lanes``), so the optimizer only varies chunk and fusion.
    tunable = frozenset({"chunk", "fusion"})
    #: Multiplier on a fan-out lane's pinned chunk transfers: none —
    #: each device serializes its own chunks while the devices run
    #: concurrently, so the pricer charges no penalty either.
    fan_out_factor = 1.0

    def open_lanes(self, pipeline: Pipeline, chunks: int) -> list[Lane]:
        """One lane per plugged device, fastest first (it homes the
        results); pipelines that cannot fan out take the fastest device
        alone, as under any single-device pinned model."""
        graph = self.plan.graph
        devices = self.participants(self.ctx.devices.values())
        if not pipeline.streams or len(devices) == 1:
            # Split mode owns placement: the run continues on a copy of
            # its plan with the annotations overridden.
            home = devices[0].name
            if any(graph.nodes[nid].device != home
                   for nid in pipeline.node_ids):
                placed = graph.bind(
                    {}, device=dict.fromkeys(pipeline.node_ids, home))
                self.ctx.plan = dataclasses.replace(self.plan, graph=placed)
            return super().open_lanes(pipeline, chunks)

        # Broadcast external inputs to every participating device (a
        # daisy-chained copy: each hop retrieves from the previous home).
        placed: list[dict[str, str]] = [{} for _ in devices]
        for ext in pipeline.external_inputs:
            current = self.node_alias[ext]
            carrier = graph.out_edges(ext)[0]
            for device, aliases in zip(devices, placed):
                current, _ = self.hub.router(carrier, current, device)
                aliases[ext] = current

        # Per device: own intermediates and one pinned staging buffer
        # per scan column.  Staged with the lane's first chunk: a device
        # the split leaves without chunks allocates nothing.
        lanes = [
            self.open_lane(pipeline, device, tags=[f"@{device.name}"],
                           factor=self.fan_out_factor,
                           suffix=f"@{device.name}",
                           placed=aliases)
            for device, aliases in zip(devices, placed)
        ]
        owner = self.assign_chunks(self.shares(devices), chunks)
        for index, lane in enumerate(lanes):
            lane.turns = frozenset(np.flatnonzero(owner == index).tolist())
        return lanes

    def lane_for_chunk(self, lanes: list[Lane], pipeline: Pipeline,
                       ci: int, rows: int) -> Lane:
        """The static proportional split — which adaptive runs treat
        only as the baseline for steal accounting, claiming each chunk
        from a shared morsel queue instead."""
        if len(lanes) == 1:  # the single-device fallback
            return lanes[0]
        if self.adaptive is None:
            return next(lane for lane in lanes if ci in lane.turns)
        lane = self._claim_chunk(lanes, pipeline, rows)
        if ci not in lane.turns:
            self.adaptive.record_steal(lane.device)
        return lane

    def _claim_chunk(self, lanes: list[Lane], pipeline: Pipeline,
                     rows: int) -> Lane:
        """Shared-morsel-queue dispatch (adaptive runs): the next chunk
        goes to the device predicted to *finish* it first — current
        stream availability plus the overlay-corrected chunk estimate.
        A device running hot (latency fault, contention) predicts late
        finishes on both terms, so healthy peers pick up the slack.
        Deterministic: ties break by participant order (fastest first).
        """
        clock = self.ctx.clock
        best = lanes[0]
        best_finish = None
        for lane in lanes:
            device = lane.device
            ready = max(
                clock.stream(device.transfer_stream).available_at,
                clock.stream(device.compute_stream).available_at,
            )
            finish = ready + self.adaptive.corrected_chunk_seconds(
                pipeline, device, rows)
            if best_finish is None or finish < best_finish:
                best, best_finish = lane, finish
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
