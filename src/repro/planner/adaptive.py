"""Adaptive execution: online calibration, dynamic chunk sizing, stealing.

The paper fixes chunk size and device placement *before* execution; this
module closes the loop at runtime.  Three cooperating mechanisms, all
armed by ``adaptive=True`` on the plan:

1. **Online calibration** — every chunk's events on the executing
   device's streams are compared against the placement estimator's
   prediction for the same rows; the observed/predicted ratio is folded
   into a per-device :class:`~repro.hardware.costmodel.CostOverlay`
   (EWMA).  The overlay corrects for everything the static model cannot
   see: latency faults, residency hits, cross-query contention.

2. **Dynamic chunk sizing** (:class:`ChunkSizer`) — the chunk loop
   starts from the planner's chunk size and grows it geometrically while
   per-chunk fixed overhead (launches, allocations, DMA setup) exceeds
   ``OVERHEAD_TARGET`` of the streaming time, shrinking back near the
   tail so the final rows still split into overlappable chunks.  Chunk
   boundaries stay multiples of
   :data:`~repro.core.pipelines.CHUNK_QUANTUM` physical rows (bitmap
   word alignment), and sizing is enabled only when every
   persisted partial of the pipeline combines exactly under regrouping
   (see :func:`exact_partial`), so results are byte-identical.

3. **Re-placement / work stealing** — when any device's overlay factor
   diverges more than :data:`DIVERGENCE_THRESHOLD` from the calibrated
   model, pipelines that have not started yet are re-placed with the
   overlay applied; the split model additionally dispatches each chunk
   to the device predicted to finish it first (shared morsel queue)
   instead of the up-front proportional split.

Everything here is deterministic: decisions depend only on virtual-clock
state, so adaptive runs are exactly reproducible.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.pipelines import CHUNK_QUANTUM, Pipeline
from repro.hardware.clock import Event
from repro.hardware.costmodel import CostOverlay
from repro.primitives.values import (
    Bitmap,
    GroupTable,
    HashTable,
    JoinPairs,
    PositionList,
    PrefixSum,
)

__all__ = [
    "AdaptiveController",
    "ChunkSizer",
    "OnlineCalibrator",
    "exact_partial",
    "CHUNK_QUANTUM",
    "DIVERGENCE_THRESHOLD",
    "MAX_GROWTH",
    "MIN_SAMPLES",
    "OVERHEAD_TARGET",
]

#: Re-place pending pipelines once a device's overlay factor (or its
#: inverse) exceeds this — the ISSUE's ">2x divergence" trigger.
DIVERGENCE_THRESHOLD = 2.0

#: Chunk sizing aims at per-chunk fixed overhead at or below this
#: fraction of per-chunk streaming (transfer + compute) time.
OVERHEAD_TARGET = 0.10

#: A pipeline's chunk may grow to at most this multiple of its start size.
MAX_GROWTH = 8

#: Overlay factors only count toward the divergence trigger after this
#: many folded chunks (one chunk is noise, not a trend).
MIN_SAMPLES = 2

#: Aggregate merge kinds that are order/grouping-insensitive even for
#: floating-point payloads.
_GROUPING_SAFE_FNS = frozenset({"count", "min", "max"})


def exact_partial(value: object, fn: str) -> bool:
    """Whether a persisted chunk partial combines exactly under any
    regrouping of chunk boundaries.

    Concatenation-style partials (arrays, bitmaps, position lists, join
    pairs, hash tables) always do.  Reductions (scalar aggregates, group
    tables, prefix sums) do when the payload is integral — integer
    addition is associative — or the merge kind ignores grouping
    (count/min/max).  Float sums could differ in the last ulp when the
    partials regroup, so they pin the chunk size instead.
    """
    if isinstance(value, (Bitmap, PositionList, JoinPairs, HashTable)):
        return True
    if isinstance(value, np.ndarray):
        if value.shape != (1,):
            return True  # concatenated, not reduced
        return (np.issubdtype(value.dtype, np.integer)
                or fn in _GROUPING_SAFE_FNS)
    if isinstance(value, GroupTable):
        return all(
            np.issubdtype(agg.dtype, np.integer)
            for agg in value.aggregates.values()
        ) or fn in _GROUPING_SAFE_FNS
    if isinstance(value, PrefixSum):
        return bool(np.issubdtype(value.sums.dtype, np.integer))
    return False


def _quantize(rows: int) -> int:
    """Round *rows* down to the chunk quantum (min one quantum)."""
    return max(CHUNK_QUANTUM, (rows // CHUNK_QUANTUM) * CHUNK_QUANTUM)


class OnlineCalibrator:
    """Per-device multiplicative corrections to the calibrated model."""

    def __init__(self) -> None:
        self.overlays: dict[str, CostOverlay] = {}

    def overlay(self, device: str) -> CostOverlay:
        if device not in self.overlays:
            self.overlays[device] = CostOverlay()
        return self.overlays[device]

    def observe(self, device: str, observed: float,
                predicted: float) -> float:
        """Fold one chunk's (observed, predicted) seconds; returns the
        device's updated factor."""
        return self.overlay(device).fold(observed, predicted)

    def factor(self, device: str) -> float:
        entry = self.overlays.get(device)
        return entry.factor if entry is not None else 1.0

    def factors(self) -> dict[str, float]:
        """Per-device factors for the placement overlay (sampled only)."""
        return {
            name: o.factor for name, o in self.overlays.items()
            if o.samples >= MIN_SAMPLES
        }

    def divergence(self) -> float:
        """Largest deviation from the calibrated model across devices
        with enough samples (>= 1.0; exactly 1.0 = no deviation)."""
        worst = 1.0
        for o in self.overlays.values():
            if o.samples >= MIN_SAMPLES:
                worst = max(worst, o.factor, 1.0 / o.factor)
        return worst


class ChunkSizer:
    """Dynamic chunk sizing for one pipeline's chunk loop.

    Grows the chunk while fixed per-chunk overhead dominates streaming
    time; shrinks back toward the initial size near the tail so the last
    rows still split across the staging buffers.  All sizes are
    multiples of :data:`~repro.core.pipelines.CHUNK_QUANTUM` and at most
    ``initial * MAX_GROWTH``, and never drop below the initial size.
    """

    def __init__(self, initial: int, total: int, n_buffers: int) -> None:
        self.initial = initial
        self.total = total
        self.n_buffers = max(1, n_buffers)
        self.chunk = initial
        self.grows = 0
        self.shrinks = 0

    def propose(self, consumed: int, overhead_seconds: float,
                streaming_seconds: float, *,
                realloc_seconds: float = 0.0) -> int:
        """Chunk size for the next chunk, given the rows consumed so far
        and the just-measured chunk's overhead/streaming split.

        Args:
            realloc_seconds: Cost of regrowing the staging buffers to
                the doubled size (pinned reallocation is expensive);
                growth must amortize it over the remaining chunks.
        """
        remaining = self.total - consumed
        if remaining <= 0:
            return self.chunk
        chunk = self.chunk
        if chunk > self.initial and remaining <= chunk * self.n_buffers:
            # Tail: fold back so the remainder still overlaps (uses the
            # existing larger buffers, so shrinking is free).
            while chunk > self.initial and remaining <= chunk * self.n_buffers:
                chunk = max(self.initial, _quantize(chunk // 2))
                if chunk == self.chunk:
                    break
        elif (overhead_seconds > OVERHEAD_TARGET * streaming_seconds
                and chunk * 2 <= self.initial * MAX_GROWTH
                and chunk * 2 * max(2, self.n_buffers) <= remaining
                # Doubling halves the remaining chunk count, saving one
                # chunk's overhead per eliminated chunk; grow only when
                # that projected saving pays for the reallocation.
                and overhead_seconds * (remaining / (2 * chunk))
                > realloc_seconds):
            chunk = _quantize(chunk * 2)
        if chunk > self.chunk:
            self.grows += 1
        elif chunk < self.chunk:
            self.shrinks += 1
        self.chunk = chunk
        return chunk


class AdaptiveController:
    """Runtime companion of one execution model instance.

    Owns the calibrator, the adaptive counters surfaced in
    :class:`~repro.core.context.ExecutionStats`, and the decision
    procedures the models call into (chunk observation, resize/steal
    bookkeeping, pipeline re-placement).
    """

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.calibrator = OnlineCalibrator()
        self.resizes = 0
        self.steals = 0
        self.replacements = 0
        #: (pipeline index, device name) -> predicted seconds per
        #: physical scan row (placement estimator, cached).
        self._per_row: dict[tuple[int, str], float] = {}

    # -- prediction -------------------------------------------------------

    def predicted_chunk_seconds(self, pipeline: Pipeline, device,
                                rows: int) -> float:
        """Calibrated-model prediction for *rows* physical scan rows of
        *pipeline* on *device* (before overlay correction)."""
        key = (pipeline.index, device.name)
        if key not in self._per_row:
            # Imported lazily to mirror the context's fusion import: the
            # core models call in here and the cost layer imports core.
            from repro.planner.cost import pipeline_shape
            shape = pipeline_shape(
                self.ctx.plan.graph, pipeline, self.ctx.catalog,
                data_scale=self.ctx.plan.data_scale,
            )
            self._per_row[key] = (shape.pageable_seconds(device.cost)
                                  / max(1, shape.start_rows))
        return self._per_row[key] * rows

    def corrected_chunk_seconds(self, pipeline: Pipeline, device,
                                rows: int) -> float:
        """Prediction with the device's overlay factor applied."""
        return (self.predicted_chunk_seconds(pipeline, device, rows)
                * self.calibrator.factor(device.name))

    # -- observation ------------------------------------------------------

    def observe_chunk(self, device, pipeline: Pipeline, rows: int,
                      events: list[Event]) -> tuple[float, float]:
        """Fold one chunk's observed events into the device's overlay.

        Returns ``(overhead_seconds, streaming_seconds)`` of the chunk
        on the device's streams — the signal the chunk sizer consumes.
        """
        streams = {device.transfer_stream, device.compute_stream}
        overhead = streaming = 0.0
        for e in events:
            if e.stream not in streams:
                continue
            if e.category in ("transfer", "compute"):
                streaming += e.duration
            else:
                overhead += e.duration
        observed = overhead + streaming
        predicted = self.predicted_chunk_seconds(pipeline, device, rows)
        self.calibrator.observe(device.name, observed, predicted)
        return overhead, streaming

    # -- sizing -----------------------------------------------------------

    def make_sizer(self, pipeline: Pipeline, total: int,
                   n_buffers: int) -> ChunkSizer:
        return ChunkSizer(self.ctx.plan.physical_chunk_rows, total,
                          n_buffers)

    def record_resize(self, device, old_rows: int, new_rows: int) -> None:
        self.resizes += 1
        self._marker(device, f"resize:{old_rows}->{new_rows}")

    # -- stealing ---------------------------------------------------------

    def record_steal(self, device) -> None:
        self.steals += 1
        self._marker(device, "steal")

    # -- re-placement -----------------------------------------------------

    def maybe_replace(self, completed_index: int) -> bool:
        """Re-place pipelines after *completed_index* when the overlay
        diverges beyond the threshold: the run continues on a placed
        copy of its plan (the context's plan is swapped, never written
        into).  Returns True when any pending pipeline actually moved."""
        if self.calibrator.divergence() <= DIVERGENCE_THRESHOLD:
            return False
        plan = self.ctx.plan
        from repro.planner.placement import annotate_devices
        placed, _ = annotate_devices(
            plan.graph, self.ctx.catalog, self.ctx.devices,
            data_scale=plan.data_scale,
            overlay=self.calibrator.factors(),
            from_index=completed_index + 1,
        )
        moved = [nid for nid, node in plan.graph.nodes.items()
                 if placed.nodes[nid].device != node.device]
        if not moved:
            return False
        self.ctx.plan = dataclasses.replace(plan, graph=placed)
        self.replacements += 1
        device = self.ctx.devices[self.ctx.default_device]
        self._marker(device, f"replace:{len(moved)}-nodes")
        return True

    # -- internals --------------------------------------------------------

    def _marker(self, device, what: str) -> None:
        """Stamp a zero-duration ``adaptive`` event so decisions are
        visible in traces (glyph ``A``) without shifting the timeline."""
        self.ctx.clock.schedule(
            device.compute_stream, 0.0,
            label=f"{device.name}:adaptive-{what}",
            category="adaptive",
        )
